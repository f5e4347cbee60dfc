import cmath
import math

import pytest

from fricke import algebra, covering
from fricke.charvar import Weight


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
    assert covering.word_character_value(gamma4, report.sheets) == report.sheets - 1


def test_local_monodromies_product_identity():
    for signs in (covering.SignChoice(1, -1, -1), covering.SignChoice(-1, 1, -1)):
        mats = covering.fuchsian_local_monodromies(Weight(3, 10), signs)
        prod = mats[3] @ mats[2] @ mats[1] @ mats[0]
        assert algebra.norm_inf(prod - algebra.IDENTITY) <= 1e-15


def test_local_monodromies_traces_and_commutativity():
    w = Weight(3, 10)
    mats = covering.fuchsian_local_monodromies(w, covering.DEFAULT_SIGNS)
    for m in mats:
        assert abs(algebra.trace(m) - 2 * math.cos(2 * math.pi * w.rt)) <= 1e-14
    for a in mats:
        for b in mats:
            assert algebra.norm_inf(a @ b - b @ a) <= 1e-15


def test_local_monodromy_power_identity_odd_k():
    w = Weight(2, 5)
    m1 = covering.fuchsian_local_monodromies(w, covering.DEFAULT_SIGNS)[0]
    assert algebra.order_of(m1) == 5


def test_kernel_generator_counts():
    assert len(covering.kernel_generators(2)) == 5
    assert len(covering.kernel_generators(5)) == 11
    for n in range(2, 9):
        assert len(covering.kernel_generators(n)) == 2 * n + 1
    with pytest.raises(covering.BadSheetCount):
        covering.kernel_generators(1)


def test_sheet_cap():
    """A weight past MAX_SHEETS is rejected before any word is built (601 sheets took 3.7 s)."""
    assert covering.covering_triviality_check(Weight(101, 400)).sheets == covering.MAX_SHEETS
    with pytest.raises(covering.BadSheetCount):
        covering.covering_triviality_check(Weight(151, 601))


def test_kernel_generators_in_kernel():
    for n in (2, 3, 5, 6):
        for word in covering.kernel_generators(n):
            assert covering.word_character_value(word, n) == 0


def test_kernel_contains_gamma1_squared():
    gens = covering.kernel_generators(2)
    assert [(0, 1), (0, 1)] in gens


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
    assert covering.kernel_generators(5)[rep.signs.index(-1)] == [(0, 1)] * 5
    assert abs(rep.worst_residual - 2.0 * math.sin(math.pi / 10.0)) <= 1e-12


def test_triviality_fails_for_irrational_weight():
    """Perturbed exponent breaks finiteness: values leave {+-Id}."""
    rt = 0.3 + 1e-3
    mats = []
    for s in (1, 1, -1):
        ph = cmath.exp(-2j * math.pi * rt * s)
        mats.append(algebra.make(ph, 0, 0, 1 / ph))
    bad = False
    for word in covering.kernel_generators(5):
        val = algebra.evaluate_word(word, mats)
        d = min(
            algebra.norm_inf(val - algebra.IDENTITY),
            algebra.norm_inf(val + algebra.IDENTITY),
        )
        if d > 1e-9:
            bad = True
            break
    assert bad
