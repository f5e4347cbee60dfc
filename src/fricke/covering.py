"""Reducible Fuchsian systems, cyclic coverings and the triviality check.

The 4-punctured sphere carries the abelian systems with residue matrix
diag(rt, -rt) scaled by signs (1, s2, s3, s4), 1 + s2 + s3 + s4 = 0.  The
cyclic covering of n = genus+1 sheets is cut out by the character sending
gamma_1, gamma_2 to +1 and gamma_3, gamma_4 to -1 in Z_n; its fundamental
group is generated by 2n+1 Reidemeister-Schreier words, and the abelian
system evaluates to +-Id on all of them exactly when rt is an admissible
rational weight.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .charvar import Weight, genus_of_weight


class CoveringError(ValueError):
    pass


class BadSheetCount(CoveringError):
    pass


class EvaluationAtPuncture(CoveringError):
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
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 3:
            raise CoveringError("expected three comma-separated signs")
        return cls(*parts)


DEFAULT_SIGNS = SignChoice(1, -1, -1)
COHERENCE_SAMPLES = 25  # random generator products the sign coherence test checks
COHERENCE_SEED = 7


@dataclass(frozen=True)
class PuncturePoints:
    """p1 = e^{i phi}, p2 = -e^{-i phi}, p3 = -e^{i phi}, p4 = e^{-i phi}."""

    phi: float

    def __post_init__(self):
        if not 0.0 < self.phi < math.pi / 2.0:
            raise CoveringError("phi must lie in (0, pi/2)")

    @property
    def points(self):
        e = cmath.exp(1j * self.phi)
        ec = cmath.exp(-1j * self.phi)
        return (e, -ec, -e, ec)


@dataclass(frozen=True)
class CoveringSpec:
    weight: Weight

    @property
    def sheets(self):
        return genus_of_weight(self.weight) + 1


def fuchsian_local_monodromies(w: Weight, signs: SignChoice = DEFAULT_SIGNS):
    """Local monodromies M_j = diag(e^{-2 pi i rt s_j}, e^{+2 pi i rt s_j})."""
    out = []
    for s in signs.sigma:
        phase = cmath.exp(-2j * math.pi * w.rt * s)
        out.append(algebra.make(phase, 0.0, 0.0, 1.0 / phase))
    return out


def kernel_generators(n: int):
    """Reidemeister-Schreier generators for the kernel of F_3 -> Z_n.

    The free group on gamma_1, gamma_2, gamma_3 maps onto Z_n by
    gamma_1, gamma_2 -> +1 and gamma_3 -> -1; the Schreier transversal is
    {gamma_1^i : 0 <= i < n}.  Returns 2n+1 words as lists of
    (generator_index, exponent) with indices 0,1,2 for gamma_1..gamma_3.
    """
    if n < 2:
        raise BadSheetCount("need at least 2 sheets")
    images = (1, 1, -1)
    words = []
    for i in range(n):
        for gen in range(3):
            # schreier generator: t_i * gen * t_{rep(i + image)}^{-1}
            j = (i + images[gen]) % n
            word = [(0, 1)] * i + [(gen, 1)] + [(0, -1)] * j
            word = _free_reduce(word)
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
    images = (1, 1, -1)
    total = sum(images[idx] * exp for idx, exp in word)
    return total % n


@dataclass
class TrivialityReport:
    weight: Weight
    sheets: int
    values_central: bool  # every kernel generator maps to +-Id
    signs: list  # +1 / -1 per kernel generator
    sign_coherent: bool  # signs extend multiplicatively on sampled products
    all_positive: bool  # True in the odd-k case: the Z2 twist is trivial
    worst_residual: float

    @property
    def passed(self):
        return self.values_central and self.sign_coherent


def covering_triviality_check(w: Weight, signs: SignChoice = DEFAULT_SIGNS, tol=algebra.TOL_ALG):
    """Evaluate the abelian system on the covering subgroup generators.

    Checks that every Reidemeister-Schreier generator evaluates to +Id or
    -Id, and that the resulting sign assignment is multiplicative on a
    random sample of generator products (so it extends to a Z2 character
    of the subgroup).
    """
    n = genus_of_weight(w) + 1
    gens = kernel_generators(n)
    mats = fuchsian_local_monodromies(w, signs)
    alphabet = mats[:3]

    values = []
    sign_list = []
    central = True
    worst = 0.0
    for word in gens:
        val = algebra.evaluate_word(word, alphabet)
        d_plus = algebra.norm_inf(val - algebra.IDENTITY)
        d_minus = algebra.norm_inf(val + algebra.IDENTITY)
        if d_plus <= tol:
            sign_list.append(1)
            worst = max(worst, d_plus)
        elif d_minus <= tol:
            sign_list.append(-1)
            worst = max(worst, d_minus)
        else:
            central = False
            sign_list.append(0)
            worst = max(worst, min(d_plus, d_minus))
        values.append(val)

    coherent = central
    if central:
        rng = np.random.default_rng(COHERENCE_SEED)
        for _ in range(COHERENCE_SAMPLES):
            i, j = rng.integers(0, len(gens), size=2)
            prod = values[i] @ values[j]
            expected = sign_list[i] * sign_list[j]
            if algebra.norm_inf(prod - expected * algebra.IDENTITY) > 2 * tol:
                coherent = False
                break

    return TrivialityReport(
        weight=w,
        sheets=n,
        values_central=central,
        signs=sign_list,
        sign_coherent=coherent,
        all_positive=central and all(s == 1 for s in sign_list),
        worst_residual=worst,
    )


def admissible_weights(max_k=12):
    """All weights l/k with k <= max_k, gcd(l,k)=1 and l/k in (1/4,1/2)."""
    out = []
    for k in range(2, max_k + 1):
        for l in range(1, k):
            if math.gcd(l, k) == 1 and 0.25 < l / k < 0.5:
                out.append(Weight(l, k))
    return out


def higgs_det(z, pts: PuncturePoints, signs: SignChoice = DEFAULT_SIGNS):
    """det of the off-diagonal Higgs field as the coefficient of dz^2.

    The field pairs the two +1 punctures in the upper-right entry and the
    two -1 punctures in the lower-left, giving
    -(1/(z-p_a) - 1/(z-p_b)) * (1/(z-p_c) - 1/(z-p_d)) with simple poles
    at each puncture.
    """
    p = pts.points
    sigma = signs.sigma
    plus = [p[j] for j in range(4) if sigma[j] == 1]
    minus = [p[j] for j in range(4) if sigma[j] == -1]
    z = complex(z)
    for pj in p:
        if abs(z - pj) < 1e-12:
            raise EvaluationAtPuncture(f"z = {z} is a puncture")
    f = 1.0 / (z - plus[0]) - 1.0 / (z - plus[1])
    g = 1.0 / (z - minus[0]) - 1.0 / (z - minus[1])
    return -f * g
