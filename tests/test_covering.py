import cmath
import math

import pytest

from fricke import algebra, covering
from fricke.charvar import Weight, genus_for_order

SIGN_CHOICES = [(1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
# 3/10 is admissible, so its three sign choices are already among these.
ORACLE_WEIGHTS = [*covering.admissible_weights(), Weight(99, 199), Weight(101, 400)]
CHARACTER = (1, 1, -1)  # gamma_1, gamma_2 -> +1, gamma_3 -> -1 in Z_n


def expand(triple):
    """The letter word t_i gamma_g t_j^-1 of a kernel_generators triple (i, g, j)."""
    i, g, j = triple
    return [(0, 1)] * i + [(g, 1)] + [(0, -1)] * j


def free_reduce(word):
    """Cancel adjacent inverse letters until none are left."""
    out = []
    for letter in word:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return out


def schreier_words(n):
    """The free-reduced words gamma_1^i gamma_g gamma_1^-j, j = i + image(gamma_g) mod n, empty ones dropped."""
    words = []
    for i in range(n):
        for g in range(3):
            j = (i + CHARACTER[g]) % n
            word = free_reduce([(0, 1)] * i + [(g, 1)] + [(0, -1)] * j)
            if word:
                words.append(word)
    return words


def local_monodromies(rt, sigma):
    """Float local monodromies diag(e^{-2 pi i rt s_j}, e^{+2 pi i rt s_j}) of gamma_j."""
    out = []
    for s in sigma:
        phase = cmath.exp(-2j * math.pi * rt * s)
        out.append(algebra.make(phase, 0.0, 0.0, 1.0 / phase))
    return out


def float_triviality(rt, sigma, n):
    """Reference check: multiply the float matrices along each kernel word, compare with +-Id.

    Returns the sign per word (0 where the value is more than TOL_ALG from
    +-Id) and the worst distance from +-Id.
    """
    alphabet = local_monodromies(rt, sigma)[:3]
    signs, worst = [], 0.0
    for triple in covering.kernel_generators(n):
        val = algebra.evaluate_word(expand(triple), alphabet)
        d_plus = algebra.norm_inf(val - algebra.IDENTITY)
        d_minus = algebra.norm_inf(-val - algebra.IDENTITY)
        d = min(d_plus, d_minus)
        worst = max(worst, d)
        signs.append(0 if d > algebra.TOL_ALG else 1 if d_plus <= d_minus else -1)
    return signs, worst


def test_sign_choice_validation():
    covering.SignChoice(1, -1, -1)
    covering.SignChoice(-1, 1, -1)
    covering.SignChoice(-1, -1, 1)
    with pytest.raises(covering.CoveringError):
        covering.SignChoice(1, 1, -1)
    with pytest.raises(covering.CoveringError):
        covering.SignChoice(0, -1, -1)


def test_covering_spec_character():
    """The 3/10 covering has genus 4 + 1 = 5 sheets; gamma_4 = (gamma_3 gamma_2 gamma_1)^-1 maps to -1."""
    report = covering.covering_triviality_check(Weight(3, 10))
    assert report.sheets == 5
    gamma4 = [(0, -1), (1, -1), (2, -1)]
    assert sum(CHARACTER[idx] * exp for idx, exp in gamma4) % report.sheets == report.sheets - 1


def test_local_monodromies_product_identity():
    for signs in (covering.SignChoice(1, -1, -1), covering.SignChoice(-1, 1, -1)):
        mats = local_monodromies(Weight(3, 10).rt, signs.sigma)
        prod = mats[3] @ mats[2] @ mats[1] @ mats[0]
        assert algebra.norm_inf(prod - algebra.IDENTITY) <= 1e-15


def test_local_monodromies_traces_and_commutativity():
    w = Weight(3, 10)
    mats = local_monodromies(w.rt, covering.DEFAULT_SIGNS.sigma)
    for m in mats:
        assert abs(algebra.trace(m) - 2 * math.cos(2 * math.pi * w.rt)) <= 1e-14
    for a in mats:
        for b in mats:
            assert algebra.norm_inf(a @ b - b @ a) <= 1e-15


def test_local_monodromy_power_identity_odd_k():
    m1 = local_monodromies(Weight(2, 5).rt, covering.DEFAULT_SIGNS.sigma)[0]
    assert algebra.order_of(m1) == 5


@pytest.mark.parametrize("signs", SIGN_CHOICES, ids=lambda s: "%+d,%+d,%+d" % s)
@pytest.mark.parametrize("w", ORACLE_WEIGHTS, ids=str)
def test_integer_rule_matches_float_words(w, signs):
    """The integer rule decides every kernel word as the float matrix product does.

    Passing cases have residual exactly 0.0; failing ones agree with the
    float distance from +-Id to 1e-12.
    """
    choice = covering.SignChoice(*signs)
    rep = covering.covering_triviality_check(w, choice)
    ref_signs, ref_worst = float_triviality(w.rt, choice.sigma, rep.sheets)
    assert rep.sheets == genus_for_order(w.k) + 1
    assert rep.signs == ref_signs
    assert rep.passed == (0 not in ref_signs)
    assert rep.all_positive == all(s == 1 for s in ref_signs)
    if rep.passed:
        assert rep.worst_residual == 0.0
    else:
        assert abs(rep.worst_residual - ref_worst) <= 1e-12


def test_kernel_generator_counts():
    assert len(covering.kernel_generators(2)) == 5
    assert len(covering.kernel_generators(5)) == 11
    for n in range(2, 9):
        assert len(covering.kernel_generators(n)) == 2 * n + 1
    with pytest.raises(covering.BadSheetCount):
        covering.kernel_generators(1)


def test_kernel_generators_expand_to_schreier_words():
    """Each triple expands to the free-reduced Schreier word, in order, for every sheet count."""
    for n in range(2, covering.MAX_SHEETS + 1):
        assert [expand(t) for t in covering.kernel_generators(n)] == schreier_words(n), n


def test_sheet_cap():
    """A weight past MAX_SHEETS is rejected before any generator is listed."""
    assert covering.covering_triviality_check(Weight(101, 400)).sheets == covering.MAX_SHEETS
    with pytest.raises(covering.BadSheetCount):
        covering.covering_triviality_check(Weight(151, 601))


def test_kernel_generators_in_kernel():
    for n in (2, 3, 5, 6):
        for triple in covering.kernel_generators(n):
            assert sum(CHARACTER[idx] * exp for idx, exp in expand(triple)) % n == 0


def test_kernel_contains_gamma1_squared():
    gens = covering.kernel_generators(2)
    assert [(0, 1), (0, 1)] in [expand(t) for t in gens]


def test_triviality_all_admissible_weights():
    for w in covering.admissible_weights():
        rep = covering.covering_triviality_check(w)
        assert rep.passed, (str(w), rep.worst_residual)
        if w.k % 2 == 1:
            assert rep.all_positive, str(w)
        else:
            assert not rep.all_positive, str(w)


def test_triviality_check_fails_for_mismatched_signs():
    """Signs (-1, 1, -1) do not match the covering character: 10 of 11 values leave {+-Id}.

    The one central value is the lifted puncture word gamma_1^5, whose image
    has eigenvalues exp(+-3 pi i) = -1.  The others have eigenvalue phases
    +-pi/5 or +-4 pi/5, at distance 2 sin(pi/10) from +Id or -Id.
    """
    rep = covering.covering_triviality_check(Weight(3, 10), covering.SignChoice(-1, 1, -1))
    assert not rep.passed and not rep.all_positive
    assert rep.signs.count(0) == 10 and rep.signs.count(-1) == 1
    assert expand(covering.kernel_generators(5)[rep.signs.index(-1)]) == [(0, 1)] * 5
    assert abs(rep.worst_residual - 2.0 * math.sin(math.pi / 10.0)) <= 1e-12


def test_triviality_fails_for_irrational_weight():
    """Perturbed exponent breaks finiteness: values leave {+-Id}."""
    signs, worst = float_triviality(0.3 + 1e-3, covering.DEFAULT_SIGNS.sigma, 5)
    assert 0 in signs and worst > 1e-9
