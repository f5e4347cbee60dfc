import cmath
import math

import numpy as np
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


def test_puncture_points():
    pts = covering.PuncturePoints(0.7)
    p1, p2, p3, p4 = pts.points
    assert abs(p1 - cmath.exp(0.7j)) <= 1e-15
    assert abs(p2 + cmath.exp(-0.7j)) <= 1e-15
    assert len({round(p.real, 12) + 1j * round(p.imag, 12) for p in pts.points}) == 4
    with pytest.raises(covering.CoveringError):
        covering.PuncturePoints(2.0)


def test_covering_spec_character():
    spec = covering.CoveringSpec(Weight(3, 10))
    assert spec.sheets == 5
    assert sum((1, 1, -1, -1)) % spec.sheets == 0


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


def test_higgs_det_asymptotics():
    pts = covering.PuncturePoints(0.7)
    p1, p2, p3, p4 = pts.points
    z = 1e7
    assert abs(z**4 * covering.higgs_det(z, pts) - (-(p2 - p1) * (p4 - p3))) <= 1e-4


def test_higgs_det_residue_by_quadrature():
    """Oracle: residue at p1 from a small-circle contour integral."""
    pts = covering.PuncturePoints(0.7)
    p1, p2, p3, p4 = pts.points
    eps = 1e-4
    n = 2048
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    total = 0.0 + 0.0j
    for t in thetas:
        z = p1 + eps * np.exp(1j * t)
        total += covering.higgs_det(z, pts) * (1j * eps * np.exp(1j * t))
    quad_res = total / n * n / (2j * np.pi) * (2 * np.pi / n)
    analytic = -(1.0 / (p1 - p3) - 1.0 / (p1 - p4))
    assert abs(quad_res - analytic) <= 1e-6
    assert abs(analytic) > 0.1


def test_higgs_det_symmetry():
    pts = covering.PuncturePoints(0.8)
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if min(abs(z - p) for p in pts.points) < 0.2:
            continue
        assert abs(covering.higgs_det(z, pts) - covering.higgs_det(-z, pts)) <= 1e-12


def test_higgs_det_at_puncture():
    pts = covering.PuncturePoints(0.7)
    with pytest.raises(covering.EvaluationAtPuncture):
        covering.higgs_det(pts.points[0], pts)
