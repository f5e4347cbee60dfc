"""Reducible Fuchsian systems, cyclic coverings and the triviality check.

The 4-punctured sphere carries the abelian systems with residue matrix
diag(rt, -rt) scaled by signs (1, s2, s3, s4), 1 + s2 + s3 + s4 = 0.  The
cyclic covering of n = genus+1 sheets is cut out by the character sending
gamma_1, gamma_2 to +1 and gamma_3, gamma_4 to -1 in Z_n; its fundamental
group is generated by 2n+1 Reidemeister-Schreier words.  The abelian system
evaluates to +-Id on all of them, an integer congruence on each word's
exponent sum, exactly when rt is an admissible rational weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charvar import Weight, genus_for_order


class CoveringError(ValueError):
    pass


class BadSheetCount(CoveringError):
    pass


@dataclass(frozen=True)
class SignChoice:
    """Signs (s2, s3, s4) with 1 + s2 + s3 + s4 = 0 (exactly one +1)."""

    s2: int
    s3: int
    s4: int

    def __post_init__(self):
        if {self.s2, self.s3, self.s4} - {1, -1}:
            raise CoveringError("signs must be +-1")
        if 1 + self.s2 + self.s3 + self.s4 != 0:
            raise CoveringError("signs must satisfy 1 + s2 + s3 + s4 = 0")

    @property
    def sigma(self):
        return (1, self.s2, self.s3, self.s4)

    @classmethod
    def parse(cls, text):
        try:
            s2, s3, s4 = (int(p) for p in text.split(","))
        except ValueError as exc:
            raise CoveringError("expected three comma-separated signs") from exc
        return cls(s2, s3, s4)


DEFAULT_SIGNS = SignChoice(1, -1, -1)
_CHARACTER = (1, 1, -1)  # images of gamma_1, gamma_2, gamma_3 in Z_n
MAX_K = 12  # the largest denominator admissible_weights lists
# The most sheets covering_triviality_check takes.  The check is linear in the
# sheets, so the cap bounds the 2n+1-entry signs report, and it makes a decimal
# weight with a huge denominator (0.30000001 is 30000001/100000000) an
# immediate input error.
MAX_SHEETS = 200


def kernel_generators(n: int):
    """Reidemeister-Schreier generators for the kernel of F_3 -> Z_n, as indices.

    The free group on gamma_1, gamma_2, gamma_3 maps onto Z_n by
    gamma_1, gamma_2 -> +1 and gamma_3 -> -1; the Schreier transversal is
    {t_i = gamma_1^i : 0 <= i < n}.  Returns 2n+1 triples (i, g, j), one per
    generator t_i gamma_g t_j^-1 with j = (i + image(gamma_g)) mod n and g in
    0, 1, 2 for gamma_1..gamma_3, ordered by i, then g.  The words
    t_i gamma_1 t_{i+1}^-1 are empty and left out, so the one gamma_1 triple
    (n-1, 0, 0) is gamma_1^n; every other word is already free-reduced.
    """
    if n < 2:
        raise BadSheetCount("need at least 2 sheets")
    if n > MAX_SHEETS:
        raise BadSheetCount(f"{n} sheets exceed the cap of {MAX_SHEETS}")
    return [(i, g, (i + _CHARACTER[g]) % n)
            for i in range(n) for g in range(3) if g or i == n - 1]


@dataclass
class TrivialityReport:
    sheets: int
    passed: bool  # every kernel generator maps to +-Id
    signs: list  # +1 / -1 per kernel generator, 0 where the value is not central
    all_positive: bool  # True in the odd-k case: the Z2 twist is trivial
    worst_residual: float


def covering_triviality_check(w: Weight, signs: SignChoice = DEFAULT_SIGNS):
    """Evaluate the abelian system on the covering subgroup generators, exactly.

    The Reidemeister-Schreier generator t_i gamma_g t_j^-1 has signed
    exponent sum m = s_1 (i - j) + s_g and evaluates to
    diag(zeta^m, zeta^-m), zeta = exp(-2 pi i l/k).  It is central exactly when 2 l m = 0 (mod k), with
    sign (-1)^(2 l m / k) and residual 0.0; otherwise its sign is 0 and its
    residual is its max-entry distance from +-Id, 2 min(|sin(pi l m / k)|,
    |cos(pi l m / k)|).  The kernel is free on these generators, so the
    resulting sign assignment is already a Z2 character of the subgroup.
    """
    n = genus_for_order(w.k) + 1
    sigma = signs.sigma
    sign_list = []
    worst = 0.0
    for i, g, j in kernel_generators(n):
        lm = w.l * (sigma[0] * (i - j) + sigma[g])
        half_turns, rest = divmod(2 * lm, w.k)
        if rest == 0:
            sign_list.append(-1 if half_turns % 2 else 1)
        else:
            sign_list.append(0)
            phase = math.pi * (lm % w.k) / w.k
            worst = max(worst, 2.0 * min(abs(math.sin(phase)), abs(math.cos(phase))))
    return TrivialityReport(
        sheets=n,
        passed=0 not in sign_list,
        signs=sign_list,
        all_positive=all(s == 1 for s in sign_list),
        worst_residual=worst,
    )


def admissible_weights():
    """All weights l/k with k <= MAX_K, gcd(l,k)=1 and l/k in (1/4,1/2)."""
    out = []
    for k in range(2, MAX_K + 1):
        for l in range(1, k):
            if math.gcd(l, k) == 1 and 0.25 < l / k < 0.5:
                out.append(Weight(l, k))
    return out

