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

from .charvar import Weight, genus_of_weight


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
# The most sheets covering_triviality_check takes.  Its cost grows as sheets^2,
# since kernel_generators builds 2n+1 words of up to 2n-2 letters: 0.03 s at
# 200 sheets, 0.25 s at 601 (2-vCPU x86 host), four fifths of it building words.
MAX_SHEETS = 200


def kernel_generators(n: int):
    """Reidemeister-Schreier generators for the kernel of F_3 -> Z_n.

    The free group on gamma_1, gamma_2, gamma_3 maps onto Z_n by
    gamma_1, gamma_2 -> +1 and gamma_3 -> -1; the Schreier transversal is
    {gamma_1^i : 0 <= i < n}.  Returns 2n+1 words as lists of
    (generator_index, exponent) with indices 0,1,2 for gamma_1..gamma_3.
    """
    if n < 2:
        raise BadSheetCount("need at least 2 sheets")
    if n > MAX_SHEETS:
        raise BadSheetCount(f"{n} sheets exceed the cap of {MAX_SHEETS}")
    words = []
    for i in range(n):
        for gen in range(3):
            # schreier generator: t_i * gen * t_{rep(i + image)}^{-1}
            j = (i + _CHARACTER[gen]) % n
            word = _free_reduce([(0, 1)] * i + [(gen, 1)] + [(0, -1)] * j)
            if word:
                words.append(word)
    return words


def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return out


def word_character_value(word, n):
    """Image of a word in Z_n under gamma_1, gamma_2 -> 1, gamma_3 -> -1."""
    return sum(_CHARACTER[idx] * exp for idx, exp in word) % n


@dataclass
class TrivialityReport:
    sheets: int
    passed: bool  # every kernel generator maps to +-Id
    signs: list  # +1 / -1 per kernel generator, 0 where the value is not central
    all_positive: bool  # True in the odd-k case: the Z2 twist is trivial
    worst_residual: float


def covering_triviality_check(w: Weight, signs: SignChoice = DEFAULT_SIGNS):
    """Evaluate the abelian system on the covering subgroup generators, exactly.

    A Reidemeister-Schreier generator with signed exponent sum
    m = sum(s_idx * e) evaluates to diag(zeta^m, zeta^-m), zeta =
    exp(-2 pi i l/k).  It is central exactly when 2 l m = 0 (mod k), with
    sign (-1)^(2 l m / k) and residual 0.0; otherwise its sign is 0 and its
    residual is its max-entry distance from +-Id, 2 min(|sin(pi l m / k)|,
    |cos(pi l m / k)|).  The kernel is free on these generators, so the
    resulting sign assignment is already a Z2 character of the subgroup.
    """
    n = genus_of_weight(w) + 1
    sigma = signs.sigma
    sign_list = []
    worst = 0.0
    for word in kernel_generators(n):
        lm = w.l * sum(sigma[idx] * exp for idx, exp in word)
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

