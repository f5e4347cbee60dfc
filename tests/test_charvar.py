import math

import numpy as np
import pytest

from fricke import algebra, charvar

SQRT5 = math.sqrt(5.0)
W_DODECA = charvar.Weight(3, 10)
DODECA_TORUS = charvar.TraceCoords(
    math.sqrt(3 + SQRT5), math.sqrt(3 + SQRT5), (3 + SQRT5) / 2
)
DODECA_SPHERE = charvar.SphereTraceCoords(
    -1 - SQRT5, -1 - SQRT5, -1.5 * (1 + SQRT5), W_DODECA.mu
)


def random_on_variety(rng, w, box=2.5, real=False):
    """Random torus points via solve_z (independent z-root construction)."""
    while True:
        if real:
            x = rng.uniform(-box, box)
            y = rng.uniform(-box, box)
        else:
            x = complex(rng.uniform(-box, box), rng.uniform(-1, 1))
            y = complex(rng.uniform(-box, box), rng.uniform(-1, 1))
        z1, z2 = charvar.solve_z(x, y, w)
        z = z1 if rng.uniform() < 0.5 else z2
        t = charvar.TraceCoords(x, y, z)
        if abs(charvar.fricke_torus_residual(*t.astuple(), w.r)) <= 1e-10:
            return t


def test_weight_fields():
    w = W_DODECA
    assert w.rt == 0.3
    assert abs(w.r - 0.1) <= 1e-15
    assert abs(w.mu - 2 * math.cos(2 * math.pi * 0.3)) <= 1e-15
    assert abs(w.c - 2 * math.cos(math.pi / 5)) <= 1e-15


def test_weight_validation():
    with pytest.raises(charvar.CharVarError):
        charvar.Weight(2, 10)  # not coprime
    with pytest.raises(charvar.CharVarError):
        charvar.Weight(1, 10)  # outside (1/4, 1/2)
    assert charvar.Weight.parse("1/10", normalize=True) == charvar.Weight(2, 5)
    assert charvar.Weight.from_torus("1/10") == charvar.Weight(3, 10)


def test_torus_residual_at_222():
    for w in (charvar.Weight(3, 10), charvar.Weight(2, 5)):
        res = charvar.fricke_torus_residual(2, 2, 2, w.r)
        assert abs(res - (2 - 2 * math.cos(2 * math.pi * w.r))) <= 1e-12


def test_torus_residual_dodeca_point():
    assert abs(charvar.fricke_torus_residual(*DODECA_TORUS.astuple(), W_DODECA.r)) <= 1e-9


def test_torus_residual_x_y_zero():
    w = charvar.Weight(3, 10)
    z = math.sqrt(2 + 2 * math.cos(2 * math.pi * w.r))
    assert abs(charvar.fricke_torus_residual(0, 0, z, w.r)) <= 1e-12


def test_sphere_residual_direct_substitution():
    # independent oracle: evaluate the quartic term by term
    xt, yt, zt = DODECA_SPHERE.astuple()
    mu = DODECA_SPHERE.mu
    direct = (
        xt**2 + yt**2 + zt**2 + xt * yt * zt
        - 2 * mu**2 * (xt + yt + zt) + 4 * (mu**2 - 1) + mu**4
    )
    assert abs(direct) <= 1e-8
    assert abs(charvar.fricke_sphere_residual(DODECA_SPHERE) - direct) == 0


def test_sphere_residual_origin():
    mu = 2 * math.cos(3 * math.pi / 5)
    s = charvar.SphereTraceCoords(0, 0, 0, mu)
    assert abs(charvar.fricke_sphere_residual(s) - (4 * mu**2 - 4 + mu**4)) <= 1e-12


def test_abelianize_trivial_and_signs():
    w = W_DODECA
    s = charvar.abelianize(charvar.TraceCoords(0, 0, 0), w)
    assert s.astuple() == (2, 2, 2)
    t = random_on_variety(np.random.default_rng(0), w)
    flipped = charvar.TraceCoords(-t.x, -t.y, t.z)
    assert charvar.abelianize(t, w).astuple() == charvar.abelianize(flipped, w).astuple()


def test_abelianize_dodeca():
    s = charvar.abelianize(DODECA_TORUS, W_DODECA)
    assert abs(s.xt - (-1 - SQRT5)) <= 1e-12
    assert abs(s.yt - (-1 - SQRT5)) <= 1e-12
    assert abs(s.zt - (-1.5 * (1 + SQRT5))) <= 1e-12


def test_abelianize_preserves_variety():
    rng = np.random.default_rng(7)
    for w in (charvar.Weight(3, 10), charvar.Weight(2, 7), charvar.Weight(5, 12)):
        for _ in range(100):
            t = random_on_variety(rng, w)
            res = charvar.fricke_sphere_residual(charvar.abelianize(t, w))
            assert abs(res) <= 1e-8


def test_lift_traces_dodeca():
    lifts = charvar.lift_traces(DODECA_SPHERE, W_DODECA)
    assert len(lifts) == 4
    target = DODECA_TORUS.astuple()
    best = min(
        max(abs(a - b) for a, b in zip(t.astuple(), target)) for t in lifts
    )
    assert best <= 1e-9
    for t in lifts:
        assert abs(charvar.fricke_torus_residual(*t.astuple(), W_DODECA.r)) <= 1e-9


def test_lift_traces_degenerate():
    with pytest.raises(charvar.DegenerateTraces):
        charvar.lift_traces(
            charvar.SphereTraceCoords(-2.0, 2.0, 2.0, W_DODECA.mu), W_DODECA
        )


def test_lift_roundtrip():
    rng = np.random.default_rng(11)
    w = charvar.Weight(2, 7)
    for _ in range(50):
        t = random_on_variety(rng, w)
        s = charvar.abelianize(t, w)
        if min(abs(s.xt - 2), abs(s.yt - 2), abs(s.zt - 2)) < 1e-6:
            continue
        lifts = charvar.lift_traces(s, w)
        assert lifts, t
        # the original point is among the lifts up to the even sign flips
        found = any(
            max(
                abs(a - b)
                for a, b in zip(lift.astuple(), t.astuple())
            )
            <= 1e-7
            for lift in lifts
        )
        assert found
        for lift in lifts:
            back = charvar.abelianize(lift, w)
            assert max(
                abs(a - b) for a, b in zip(back.astuple(), s.astuple())
            ) <= 1e-8


def test_solve_z_double_root_at_dodeca():
    z1, z2 = charvar.solve_z(DODECA_TORUS.x, DODECA_TORUS.y, W_DODECA)
    assert abs(z1 - z2) <= 1e-7
    assert abs(z1 - DODECA_TORUS.x * DODECA_TORUS.y / 2) <= 1e-7
    # oracle: the discriminant is the eta-locus residual, zero here
    assert abs(charvar.eta_locus_residual(DODECA_TORUS.x, DODECA_TORUS.y, W_DODECA.r)) <= 1e-9


def test_solve_z_x_y_zero():
    w = W_DODECA
    z1, z2 = charvar.solve_z(0, 0, w)
    zval = math.sqrt(2 + 2 * math.cos(2 * math.pi * w.r))
    assert abs(abs(z1) - zval) <= 1e-12 and abs(z1 + z2) <= 1e-12


def test_solve_z_distinct_real_roots():
    z1, z2 = charvar.solve_z(10.0, 10.0, W_DODECA)
    assert abs(z1.imag) <= 1e-12 and abs(z2.imag) <= 1e-12
    assert abs(z1 - z2) > 1.0


def test_solve_z_real_or_conjugate_pair_for_real_input():
    rng = np.random.default_rng(13)
    w = charvar.Weight(2, 5)
    saw_pair = saw_real = False
    for _ in range(50):
        x, y = rng.uniform(-3, 3, size=2)
        z1, z2 = charvar.solve_z(x, y, w)
        both_real = abs(z1.imag) <= 1e-10 and abs(z2.imag) <= 1e-10
        conj_pair = abs(z1 - np.conj(z2)) <= 1e-10
        assert both_real or conj_pair
        saw_real |= both_real and abs(z1 - z2) > 1e-6
        saw_pair |= conj_pair and abs(z1.imag) > 1e-6
    assert saw_real and saw_pair


def test_eta_locus_residual_matches_discriminant():
    rng = np.random.default_rng(17)
    w = W_DODECA
    for _ in range(50):
        x, y = rng.uniform(-3, 3, size=2)
        disc = (x * y) ** 2 - 4 * (x * x + y * y - 2 - w.c)
        assert abs(charvar.eta_locus_residual(x, y, w.r) - disc) <= 1e-12


def test_eta_locus_residual_cases():
    assert abs(charvar.eta_locus_residual(
        math.sqrt(3 + SQRT5), math.sqrt(3 + SQRT5), W_DODECA.r)) <= 1e-9
    # all terms cancel when cos(2 pi r) = -1 and x = y = 0
    w_half = charvar.Weight(2, 5)  # r = 3/10, cos(3pi/5) != -1; use direct formula
    val = 0.0**2 * 0.0**2 - 0 - 0 + 8 * (1 + math.cos(2 * math.pi * w_half.r))
    assert abs(charvar.eta_locus_residual(0.0, 0.0, w_half.r) - val) <= 1e-12
    # just outside the box the residual is negative for bounded y
    for y in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert charvar.eta_locus_residual(2.01, y, W_DODECA.r) < 0


def test_classify_real():
    w = W_DODECA
    z = math.sqrt(2 + 2 * math.cos(2 * math.pi * w.r))
    assert charvar.classify_real(charvar.TraceCoords(0, 0, z), w) == "SU2"
    verdict = charvar.classify_real(DODECA_TORUS, w, tol=1e-8)
    assert verdict == ("SL2R", "+++")
    x, y = 3.0, 1j
    z1, _ = charvar.solve_z(x, y, w)
    assert charvar.classify_real(charvar.TraceCoords(x, y, z1), w) == "not-real"
    with pytest.raises(charvar.OffVariety):
        charvar.classify_real(charvar.TraceCoords(5, 5, 5), w)
    with pytest.raises(charvar.CharVarError):
        charvar.classify_real(charvar.TraceCoords(math.nan, 1, 1), w)


def test_reconstruct_rep_roundtrip():
    rng = np.random.default_rng(19)
    w = charvar.Weight(3, 8)
    for _ in range(40):
        t = random_on_variety(rng, w)
        if abs(t.x - 2) < 0.05 or abs(t.x + 2) < 0.05:
            continue
        X, Y = charvar.reconstruct_rep(t)
        assert abs(algebra.det(X) - 1) <= 1e-10
        assert abs(algebra.det(Y) - 1) <= 1e-10
        got = charvar.traces_of_pair(X, Y)
        assert max(
            abs(a - b) for a, b in zip(got.astuple(), t.astuple())
        ) <= 1e-9


def test_reconstruct_rep_elliptic_case():
    w = W_DODECA
    z = math.sqrt(2 + 2 * math.cos(2 * math.pi * w.r))
    with pytest.raises(charvar.DegenerateTrace):
        charvar.reconstruct_rep(charvar.TraceCoords(2, 0, z))
    # x = 0 is fine
    X, Y = charvar.reconstruct_rep(charvar.TraceCoords(0, 0, z))
    got = charvar.traces_of_pair(X, Y)
    assert max(abs(a - b) for a, b in zip(got.astuple(), (0, 0, z))) <= 1e-10


def test_reconstruct_dodeca_roundtrip():
    X, Y = charvar.reconstruct_rep(DODECA_TORUS)
    got = charvar.traces_of_pair(X, Y)
    assert max(
        abs(a - b) for a, b in zip(got.astuple(), DODECA_TORUS.astuple())
    ) <= 1e-9


@pytest.mark.parametrize("k,genus", [(10, 4), (3, 2), (2, 0), (7, 6), (12, 5)])
def test_genus_for_order(k, genus):
    assert charvar.genus_for_order(k) == genus


def test_genus_of_weight_matches_order_rule():
    for w in (charvar.Weight(3, 10), charvar.Weight(2, 5), charvar.Weight(5, 12)):
        assert charvar.genus_of_weight(w) == charvar.genus_for_order(w.k)


def test_factorization_of_sphere_polynomial():
    """The sphere quartic at (2-x^2, 2-y^2, 2-Z^2) vanishes on both z-root sets."""
    rng = np.random.default_rng(23)
    w = charvar.Weight(2, 7)
    for _ in range(30):
        x, y = rng.uniform(-2.8, 2.8, size=2)
        for z in charvar.solve_z(x, y, w):
            s = charvar.abelianize(charvar.TraceCoords(x, y, z), w)
            assert abs(charvar.fricke_sphere_residual(s)) <= 1e-8
