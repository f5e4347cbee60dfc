import cmath
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from fricke import abelmono as am
from fricke import charvar

R = 0.1
TAU = 1.0
CHI = 0.3 + 0.2j
YSTAR = math.sqrt(3.0 + math.sqrt(5.0))


# ---------------------------------------------------------------------------
# sigma


def test_sigma_normalization():
    lat = am.lattice(1.0)
    assert abs(lat.sigma(1e-4) / 1e-4 - 1.0) < 1e-7


def test_sigma_odd():
    lat = am.lattice(1.3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
        assert abs(lat.sigma(w) + lat.sigma(-w)) <= 1e-14


@pytest.mark.parametrize("tau", [0.2, 0.5, 1.0, 2.0, 5.0])
def test_sigma_quasi_periodicity(tau):
    """Oracle: direct evaluation of both sides of the multiplier law."""
    lat = am.lattice(tau)
    rng = np.random.default_rng(1)
    for _ in range(6):
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4) * tau)
        for om, eta in ((1.0, lat.eta1), (1j * tau, lat.eta2)):
            lhs = lat.sigma(w + om)
            rhs = -cmath.exp(eta * (w + om / 2.0)) * lat.sigma(w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("tau", [0.2, 0.7, 1.0, 3.0, 5.0])
def test_legendre_relation(tau):
    lat = am.lattice(tau)
    assert lat.legendre_residual <= 1e-10
    assert abs(lat.eta1 * (1j * tau) - lat.eta2 - 2j * math.pi) <= 1e-12


def test_eta1_square_lattice():
    # the square lattice quasi-period is exactly pi
    assert abs(am.lattice(1.0).eta1 - math.pi) <= 1e-12


@pytest.mark.parametrize(
    "tau", [1e-300, 1e-16, 1e-3, 0.05, 20.0, 150.0, 240.0, 300.0, 1e3, 1e300, math.nan, math.inf]
)
def test_lattice_builds_or_fails_fast(tau):
    """Every tau builds a lattice or raises AbelMonoError, quickly and in little memory."""
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        am.RectangularLattice(tau)
    except am.AbelMonoError:
        pass
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 10e6


# ---------------------------------------------------------------------------
# baker sections


def test_baker_rejects_half_lattice_chi():
    with pytest.raises(am.NonGenericChi):
        am.BakerSection(+1, 0.0, R, TAU)
    with pytest.raises(am.NonGenericChi):
        am.BakerSection(+1, 0.5j * math.pi, R, TAU)
    with pytest.raises(am.NonGenericChi):
        am.BakerSection(-1, math.pi / (2 * TAU), R, TAU)


def test_baker_double_periodicity():
    rng = np.random.default_rng(2)
    for sign in (+1, -1):
        psi = am.BakerSection(sign, CHI, R, TAU)
        for _ in range(20):
            w = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * TAU)
            base = psi(w)
            assert abs(psi(w + 1.0) - base) <= 1e-8 * max(1.0, abs(base))
            assert abs(psi(w + 1j * TAU) - base) <= 1e-8 * max(1.0, abs(base))


def test_baker_residue_product():
    """res+ * res- = r^2 with the symmetric split res+ = res- = r."""
    h = 1e-5
    prod = 1.0
    for sign in (+1, -1):
        psi = am.BakerSection(sign, CHI, R, TAU)
        # even part of w*psi(w) kills the O(w) regular term
        res = 0.5 * (h * psi(h) + (-h) * psi(-h))
        assert abs(res - R) <= 1e-9
        prod *= res
    assert abs(prod - R * R) <= 1e-10


def test_baker_dbar_equation():
    """Finite-difference check of dbar psi + lam psi = 0 off the pole."""
    h = 1e-6
    for sign in (+1, -1):
        psi = am.BakerSection(sign, CHI, R, TAU)
        for w0 in (0.31 + 0.27j, 0.62 + 0.55j):
            dbar = (
                (psi(w0 + h) - psi(w0 - h)) + 1j * (psi(w0 + 1j * h) - psi(w0 - 1j * h))
            ) / (4.0 * h)
            assert abs(dbar + psi.lam * psi(w0)) <= 1e-7


# ---------------------------------------------------------------------------
# connection form and transport


def test_connection_form_tracefree():
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    for w in (0.3 + 0.2j, 0.7 + 0.6j):
        a_w = form.a_w(w)
        assert abs(a_w[0, 0] + a_w[1, 1]) <= 1e-14
    assert abs(form.a_wbar[0, 0] + form.a_wbar[1, 1]) <= 1e-14


def test_connection_form_simple_pole():
    """|w A_w(w)| stays bounded on shrinking circles around the puncture."""
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    maxima = []
    for radius in (1e-2, 1e-3):
        vals = []
        for theta in np.linspace(0, 2 * np.pi, 32, endpoint=False):
            w = radius * np.exp(1j * theta)
            vals.append(np.max(np.abs(w * form.a_w(w))))
        maxima.append(max(vals))
    assert maxima[1] <= 2.0 * maxima[0] + 1.0
    assert abs(maxima[1] - R) <= 0.05  # residue magnitude dominates


def test_transport_zero_form_is_identity():
    zero_form = am.ConnectionForm(
        am.ConnectionParams(0.0, 0.0, R, TAU), diagonal_only=True
    )
    res = am.parallel_transport(zero_form, am.gamma_x(TAU))
    assert np.max(np.abs(res.matrix - np.eye(2))) <= 1e-12


def test_transport_diagonal_truncation_closed_form():
    a = 0.2
    form = am.ConnectionForm(am.ConnectionParams(a, CHI, R, TAU), diagonal_only=True)
    rx = am.parallel_transport(form, am.gamma_x(TAU))
    expected_x = np.diag([cmath.exp(-(a + CHI)), cmath.exp(a + CHI)])
    assert np.max(np.abs(rx.matrix - expected_x)) <= 1e-8
    ry = am.parallel_transport(form, am.gamma_y(TAU))
    expected_y = np.diag(
        [cmath.exp(-1j * TAU * (a - CHI)), cmath.exp(1j * TAU * (a - CHI))]
    )
    assert np.max(np.abs(ry.matrix - expected_y)) <= 1e-8


def test_transport_reversed_path_inverts():
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    fwd = am.parallel_transport(form, am.gamma_x(TAU))
    bwd = am.parallel_transport(form, am.gamma_x(TAU).reversed())
    assert np.max(np.abs(fwd.matrix @ bwd.matrix - np.eye(2))) <= 1e-8


def test_transport_step_budget():
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    with pytest.raises(am.StepLimitExceeded):
        am.parallel_transport(form, am.gamma_x(TAU), steps=3)


def test_transport_path_too_close_to_pole():
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    bad = am.segment(0.001 + 0.001j, 1.001 + 0.001j, TAU, "bad")
    with pytest.raises(am.PathTooCloseToPole):
        am.parallel_transport(form, bad)


def test_transport_det_drift_small():
    form = am.ConnectionForm(am.ConnectionParams(0.4, CHI, R, TAU))
    for path in (am.gamma_x(TAU), am.gamma_y(TAU)):
        res = am.parallel_transport(form, path)
        assert res.det_drift <= 1e-12


def test_transport_evaluates_each_panel_level_at_once(monkeypatch):
    """One coefficient call per panel level: N = 32, 64, ..., panels."""
    calls = []
    coefficient = am.ConnectionForm.coefficient

    def spy(self, w, wdot):
        calls.append(np.shape(w))
        return coefficient(self, w, wdot)

    monkeypatch.setattr(am.ConnectionForm, "coefficient", spy)
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    res = am.parallel_transport(form, am.gamma_x(TAU))
    assert len(calls) == math.log2(res.panels / 32) + 1
    assert calls[-1] == (res.panels, 2)


@pytest.mark.parametrize("tau", [0.2, 1.0, 5.0])
def test_transport_matches_dop853(tau):
    """Oracle: an independent adaptive integrator on both loops."""
    integrate = pytest.importorskip("scipy.integrate")
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, tau))
    for path in (am.gamma_x(tau), am.gamma_y(tau)):

        def rhs(s, psi):
            a = form.coefficient(path.point(s), path.velocity(s))
            return (a @ psi.reshape(2, 2)).ravel()

        sol = integrate.solve_ivp(
            rhs, (0.0, 1.0), np.eye(2, dtype=complex).ravel(),
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        expected = sol.y[:, -1].reshape(2, 2)
        got = am.parallel_transport(form, path).matrix
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_transport_fails_fast_near_half_lattice_chi():
    """chi = 1e-7 passes the genericity gate; the overflowing product fails at once."""
    params = am.ConnectionParams(0.2, 1e-7, R, TAU)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(am.StepLimitExceeded, match="non-finite"):
            am.monodromies(params)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("chi", [1e-2, 1e-3])
def test_ill_conditioned_monodromy_is_non_generic(chi):
    """Near chi = 0 the entries of Y outgrow double precision (chi = 1e-3: ~1e67)."""
    t0 = time.perf_counter()
    with pytest.raises(am.NonGenericChi, match="condition number"):
        am.monodromies(am.ConnectionParams(0.2, chi, R, TAU))
    assert time.perf_counter() - t0 < 1.0


def test_conditioning_gate_keeps_moderate_chi():
    m = am.monodromies(am.ConnectionParams(0.2, 0.03, R, TAU))
    assert max(np.max(np.abs(m.X)), np.max(np.abs(m.Y))) ** 2 * np.finfo(float).eps < 1e-11


# ---------------------------------------------------------------------------
# monodromies


def test_monodromy_residuals_canonical_point():
    m = am.monodromies(am.ConnectionParams(0.2, CHI, R, TAU))
    assert m.commutator_residual <= 1e-6
    assert m.char_residual <= 1e-6
    assert m.det_drift <= 1e-8


def test_monodromy_homotopy_invariance():
    params = am.ConnectionParams(0.2, CHI, R, TAU)
    form = am.ConnectionForm(params)
    straight = am.parallel_transport(form, am.gamma_x(TAU))
    wiggly = am.parallel_transport(form, am.gamma_x_wiggled(TAU, 0.06, 3))
    assert np.max(np.abs(straight.matrix - wiggly.matrix)) <= 1e-6


def test_monodromy_eta_case_real():
    w = charvar.Weight.from_torus("1/10")
    m = am.monodromies(am.ConnectionParams(0.2, 0.3, R, TAU))
    assert abs(complex(m.x).imag) <= 1e-6
    assert abs(complex(m.y).imag) <= 1e-6
    z1, z2 = charvar.solve_z(complex(m.x).real, complex(m.y).real, w)
    nearest = min(abs(m.z - z1), abs(m.z - z2))
    other = z2 if abs(m.z - z1) < abs(m.z - z2) else z1
    assert nearest <= 1e-5
    assert abs(other - complex(m.z).conjugate()) <= 1e-5


def test_monodromy_rejects_bad_params():
    with pytest.raises(am.ParameterOutOfRange):
        am.ConnectionParams(0.2, CHI, 0.7, TAU)
    with pytest.raises(am.ParameterOutOfRange):
        am.ConnectionParams(0.2, CHI, R, -1.0)
    with pytest.raises(am.ParameterOutOfRange):
        am.RectangularLattice(0.0)
    with pytest.raises(am.NonGenericChi):
        am.monodromies(am.ConnectionParams(0.2, 0.0, R, TAU))


def test_reducible_anchor_point():
    """At a = -pi/(4 tau), chi = pi/(4 tau) the traces hit (sqrt(2+2cos 2 pi r), 0, 0)."""
    a0 = -math.pi / (4.0 * TAU)
    chi0 = math.pi / (4.0 * TAU)
    m = am.monodromies(am.ConnectionParams(a0, chi0, R, TAU))
    assert abs(m.x - math.sqrt(2.0 + 2.0 * math.cos(2 * math.pi * R))) <= 1e-6
    assert abs(m.y) <= 1e-6
    assert abs(m.z) <= 1e-6


# ---------------------------------------------------------------------------
# eta cases


def test_eta_case_examples():
    assert am.eta_case(0.2, 0.3, TAU) == (1, 0)
    assert am.eta_case(0.1 - 0.5j * math.pi, 0.4 + 0.5j * math.pi, TAU) == (2, -1)
    assert am.eta_case(0.2j, 0.3j, TAU) == (3, 0)
    chi = 0.25j - math.pi / (2 * TAU)
    a = 0.1j - math.pi / (2 * TAU) * (-1)
    assert am.eta_case(a, chi, TAU) == (4, 1)
    assert am.eta_case(1 + 1j, 2 + 3j, TAU) is None


# ---------------------------------------------------------------------------
# locus sweep


def test_analytic_locus_values():
    assert abs(charvar.real_locus_y(YSTAR, R) - YSTAR) <= 1e-12
    assert abs(charvar.real_locus_y(1e6, R) - 2.0) <= 1e-9
    assert charvar.real_locus_y(3.0, R) > 2.0


@pytest.fixture(scope="module")
def sweep():
    chi0 = math.pi / (4.0 * TAU)
    return am.real_locus_sweep(R, TAU, chi0, (0.05, 1.6), 40)


def test_sweep_flags_real_graze(sweep):
    flagged = sweep.flagged_real()
    assert flagged, "expected at least one real point on the slice"
    for row in flagged:
        x = complex(row.x).real
        y = complex(row.y).real
        assert abs(row.eta_residual) <= 1e-5
        if x * x > 4.0 + 1e-9:
            assert abs(y - charvar.real_locus_y(x, R)) <= 1e-4


def test_sweep_rows_sorted_and_eta_column(sweep):
    ts = [row.t for row in sweep.rows]
    assert ts == sorted(ts)
    for row in sweep.rows[:5]:
        x = complex(row.x).real
        y = complex(row.y).real
        w = charvar.Weight.from_torus("1/10")
        assert abs(row.eta_residual - charvar.eta_locus_residual(x, y, w.r)) <= 1e-9


def _count_monodromies(monkeypatch):
    calls = []
    monodromies = am.monodromies

    def spy(*args, **kwargs):
        calls.append(args[0].a)
        return monodromies(*args, **kwargs)

    monkeypatch.setattr(am, "monodromies", spy)
    return calls


def test_sweep_closes_crossing_with_illinois(monkeypatch):
    """The one Im z crossing of the tau = 1 slice closes within 4 evaluations past the grid."""
    calls = _count_monodromies(monkeypatch)
    res = am.real_locus_sweep(R, TAU, math.pi / (4.0 * TAU), (0.05, 1.6), 60)
    refined = [row for row in res.rows if row.refined]
    assert len(calls) <= 64
    assert refined
    for row in refined:
        assert row.is_real and abs(complex(row.z).imag) <= 1e-6
        assert abs(row.eta_residual) <= 1e-6
    assert [row.t for row in res.rows] == sorted(row.t for row in res.rows)


def test_sweep_crossing_budget_adds_no_row(monkeypatch):
    """A crossing that 48 evaluations cannot close is left without a refined row."""
    calls = _count_monodromies(monkeypatch)
    res = am.real_locus_sweep(R, TAU, math.pi / (4.0 * TAU), (0.7, 0.95), 4, tol=1e-300)
    assert len(calls) == 4 + 48
    assert len(res.rows) == 4 and not any(row.refined for row in res.rows)


def test_sweep_requires_admissible_chi0():
    with pytest.raises(am.SlicePreconditionError):
        am.real_locus_sweep(R, TAU, 0.123 + 0.456j, (0.1, 0.2), 3)


# ---------------------------------------------------------------------------
# matching


def test_match_y_converges_in_range():
    chi0 = math.pi / (4.0 * TAU)
    res = am.match_y(1.8, R, TAU, chi0, (0.05, 0.7))
    assert abs(complex(res.result.y).real - 1.8) <= 1e-6
    assert res.evaluations <= 60


def test_match_y_returns_endpoint():
    chi0 = math.pi / (4.0 * TAU)
    probe = am.monodromies(am.ConnectionParams(0.3, chi0, R, TAU))
    target = complex(probe.y).real
    res = am.match_y(target, R, TAU, chi0, (0.3, 0.7))
    assert res.t == 0.3
    assert res.evaluations == 1


def test_match_y_bracket_must_straddle():
    chi0 = math.pi / (4.0 * TAU)
    with pytest.raises(am.BracketDoesNotStraddle):
        am.match_y(50.0, R, TAU, chi0, (0.1, 0.5))


def test_match_y_monotone_on_bracket():
    """Discrete shadow of tr Y being a coordinate: strictly monotone samples."""
    chi0 = math.pi / (4.0 * TAU)
    ys = []
    for t in np.linspace(0.05, 0.7, 20):
        m = am.monodromies(am.ConnectionParams(t, chi0, R, TAU))
        ys.append(complex(m.y).real)
    diffs = np.diff(ys)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_dodecahedral_point_on_trivializing_slice():
    """Moving tau recovers the dodecahedral representation on the H-slice.

    The fixed-tau slice meets the real locus in a single point whose y
    moves with tau; matching y over tau lands on the symmetric point
    x = y = sqrt(3+sqrt5), z = (3+sqrt5)/2 at tau ~ 2.9529.
    """
    res = am.match_on_locus(YSTAR, R, tau_bracket=(2.6, 3.2))
    m = res.result
    assert abs(complex(m.y).real - YSTAR) <= 1e-6
    assert abs(complex(m.x).real - YSTAR) <= 1e-5
    assert abs(complex(m.z).real - (3 + math.sqrt(5)) / 2) <= 1e-5
    assert abs(complex(m.z).imag) <= 1e-6
    w = charvar.Weight(3, 10)
    verdict = charvar.classify_real(
        charvar.TraceCoords(complex(m.x).real, complex(m.y).real, complex(m.z).real),
        w,
        tol=1e-6,
    )
    assert verdict == ("SL2R", "+++")
    assert 2.9 < res.tau < 3.0


def test_match_on_locus_slice_without_graze_point():
    """a_scan past the graze point (a ~ 0.45 at tau = 2) holds no real point."""
    with pytest.raises(am.BracketDoesNotStraddle):
        am.match_on_locus(YSTAR, R, a_scan=(1.0, 1.8), n_scan=5)


def test_match_on_locus_stage_budget():
    """One max_evals budget covers every stage of the solve, the first scan included."""
    with pytest.raises(am.MaxIterations):
        am.match_on_locus(YSTAR, R, max_evals=5)


@pytest.mark.parametrize(
    "y_target, tau",
    [(2.05, 1.393192), (2.15, 2.175828), (2.4, 3.479566), (2.6, 4.308709), (3.0, 5.746428)],
)
def test_match_on_locus_targets(y_target, tau):
    """Newton from the bracket midpoint reaches targets whose tau lies outside the bracket."""
    res = am.match_on_locus(y_target, R)
    assert abs(res.tau - tau) <= 1e-5
    assert abs(complex(res.result.y).real - y_target) <= 1e-6
    assert abs(complex(res.result.z).imag) <= 1e-10
    assert res.evaluations <= 40


def test_match_on_locus_halves_overshooting_steps():
    """Near the low end of the locus, full Newton steps from tau = 2.75 overshoot (y = 2.02)."""
    res = am.match_on_locus(2.02, R)
    assert abs(res.tau - 1.027230) <= 1e-5
    assert abs(complex(res.result.y).real - 2.02) <= 1e-6
    assert abs(complex(res.result.z).imag) <= 1e-10


@pytest.mark.parametrize("tau_bracket", [(2.0, 3.5), (2.6, 3.2)])
def test_match_on_locus_counts_every_evaluation(monkeypatch, tau_bracket):
    """evaluations is the number of monodromies calls, finite-difference stencil included."""
    calls = _count_monodromies(monkeypatch)
    res = am.match_on_locus(YSTAR, R, tau_bracket=tau_bracket)
    assert res.evaluations == len(calls) <= 25
    assert 2.9528 < res.tau < 2.9530
    assert abs(complex(res.result.z).imag) <= 1e-10


def test_match_on_locus_singular_jacobian(monkeypatch):
    """An exactly singular finite-difference Jacobian raises MaxIterations, not LinAlgError."""
    monodromies = am.monodromies

    def frozen_tau(params, *args, **kwargs):
        return monodromies(am.ConnectionParams(params.a, math.pi / 11.0, R, 2.75), *args, **kwargs)

    monkeypatch.setattr(am, "monodromies", frozen_tau)
    with pytest.raises(am.MaxIterations, match="singular"):
        am.match_on_locus(YSTAR, R)


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_rank_two():
    res = am.jacobian_rank(0.3, 1.0, R)
    assert res.rank == 2
    assert res.singular_values[1] > 1e-3


@pytest.mark.parametrize("h", [0.0, -1e-4])
def test_jacobian_rejects_nonpositive_step(h):
    with pytest.raises(am.ParameterOutOfRange):
        am.jacobian_rank(0.3, 1.0, R, h=h)


def test_jacobian_step_halving_stability():
    j1 = am.jacobian_rank(0.3, 1.0, R, h=1e-4)
    j2 = am.jacobian_rank(0.3, 1.0, R, h=5e-5)
    rel = np.max(
        np.abs(j1.jacobian - j2.jacobian) / np.maximum(1e-12, np.abs(j2.jacobian))
    )
    assert rel < 0.05


def test_jacobian_rejects_near_excluded_point():
    with pytest.raises(am.SlicePreconditionError):
        am.jacobian_rank(-math.pi / 4.0 + 0.01, 1.0, R)
