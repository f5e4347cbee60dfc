import cmath
import collections
import dataclasses
import math
import re
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from fricke import abeldomain, charvar
from fricke import abelmono as am

R = 0.1
TAU = 1.0
CHI = 0.3 + 0.2j
YSTAR = math.sqrt(3.0 + math.sqrt(5.0))
DODECA_ROOT = (0.35068308618817, 2.952856849789922)  # (a, tau) of the dodecahedral point, r = 1/10


# ---------------------------------------------------------------------------
# sigma, rebuilt here from theta1 and eta1 (DLMF §23.6(i))


def sigma(lat, w):
    """Weierstrass sigma of the lattice: exp(eta1 w^2/2) theta1(pi w)/(pi theta1'(0))."""
    w = np.asarray(w, dtype=complex)
    return np.exp(0.5 * lat.eta1 * w * w) * lat.theta1(w, [0.0])[..., 0] / (
        math.pi * lat._theta1_d0
    )


def test_sigma_normalization():
    lat = am.RectangularLattice(1.0)
    assert abs(sigma(lat, 1e-4) / 1e-4 - 1.0) < 1e-7


def test_sigma_odd():
    lat = am.RectangularLattice(1.3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
        assert abs(sigma(lat, w) + sigma(lat, -w)) <= 1e-14


@pytest.mark.parametrize("tau", [0.2, 0.5, 1.0, 2.0, 5.0])
def test_sigma_quasi_periodicity(tau):
    """Oracle: direct evaluation of both sides of the multiplier law.

    eta2 comes from Legendre's relation eta1 i tau - eta2 = 2 pi i.
    """
    lat = am.RectangularLattice(tau)
    eta2 = lat.eta1 * (1j * tau) - 2j * math.pi
    rng = np.random.default_rng(1)
    for _ in range(6):
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4) * tau)
        for om, eta in ((1.0, lat.eta1), (1j * tau, eta2)):
            lhs = sigma(lat, w + om)
            rhs = -cmath.exp(eta * (w + om / 2.0)) * sigma(lat, w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("tau", [0.2, 0.7, 1.0, 3.0, 5.0])
def test_legendre_relation(tau):
    lat = am.RectangularLattice(tau)
    assert lat.legendre_residual <= 1e-10


def test_eta1_square_lattice():
    # the square lattice quasi-period is exactly pi
    assert abs(am.RectangularLattice(1.0).eta1 - math.pi) <= 1e-12


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


def test_every_tau_in_domain_builds():
    """A 2001-point log grid over [TAU_MIN, TAU_MAX] builds, Legendre check included."""
    for tau in np.geomspace(abeldomain.TAU_MIN, abeldomain.TAU_MAX, 2001):
        assert am.RectangularLattice(float(tau)).legendre_residual <= 1e-10


@pytest.mark.parametrize("tau", [300.0, 1.0 / 150.0])
def test_theta_series_rejects_vanishing_derivative(tau):
    """Past the domain theta1'(0) rounds to 0: the nome underflows (300) or the series cancels."""
    with pytest.raises(am.AbelMonoError, match="rounds to 0"):
        am._theta_series(tau)


def test_lattice_rejects_legendre_miss(monkeypatch):
    """Below TAU_MIN the series at 1/tau misses the Legendre bound (0.05: ~2e-9)."""
    monkeypatch.setattr(abeldomain, "TAU_MIN", 0.01)
    with pytest.raises(am.AbelMonoError, match="^Legendre relation residual"):
        am.RectangularLattice(0.05)


def _mp_lattice(mp, tau):
    """eta1 and sigma of Z + i tau Z at mp's precision, without theta series.

    eta1 = (pi^2/3) (1 - 24 sum_n n q^2n / (1 - q^2n)) is the Eisenstein
    series G2, and sigma(w) = exp(eta1 w^2/2) sin(pi w)/pi
    prod_n (1 - 2 q^2n cos(2 pi w) + q^4n) / (1 - q^2n)^2 is its product
    formula (DLMF 23.8.7), in the nome q = exp(-pi tau).
    """
    q2 = mp.exp(-2 * mp.pi * tau)
    eps = mp.mpf(10) ** (-mp.dps - 5)
    total, n = mp.mpf(0), 1
    while n * q2**n > eps:
        total += n * q2**n / (1 - q2**n)
        n += 1
    eta1 = mp.pi**2 / 3 * (1 - 24 * total)

    def sigma(w):
        cos_w, growth = mp.cos(2 * mp.pi * w), mp.exp(2 * mp.pi * abs(w.imag))
        prod, n = mp.mpf(1), 1
        while q2**n * growth > eps:
            prod *= (1 - 2 * q2**n * cos_w + q2 ** (2 * n)) / (1 - q2**n) ** 2
            n += 1
        return mp.exp(eta1 * w * w / 2) * mp.sin(mp.pi * w) / mp.pi * prod

    return eta1, sigma


@pytest.mark.parametrize("tau", [0.1, 0.2, 1.0, 5.0, 10.0, 12.0])
def test_lattice_and_connection_match_mpmath(tau):
    """Oracle at 30 digits: eta1, sigma and both off-diagonal entries of A_w.

    lam, p, beta and scale are recomputed in mpmath from the oracle's own
    eta1 and sigma; every relative error must stay below 1e-11.  The entries
    are checked at CHI, at the scatter box's corner 0.9 + 0.9i and at
    3 + 0.3i, on both loops up to the end point of gamma_y.  At tau = 12 and
    0.9 + 0.9i, sin(odd_n pi (w +- p)) overflows on gamma_y; the separable
    kernel stays finite there and raises no floating-point warning (warnings
    are errors).  The oracle still builds psi through sigma and its
    Gaussian factors, so it checks coefficient's theta1-only formula
    independently; at tau = 12 and 3 + 0.3i exp(eta1 p^2/2) alone overflows
    a double.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

    def rel(got, expected):
        return float(abs(mp.mpc(complex(got)) - expected) / abs(expected))

    lat = am.RectangularLattice(tau)
    rng = np.random.default_rng(3)
    cell = [complex(x, tau * y) for x, y in rng.uniform(0.1, 0.9, (8, 2))]
    base = am.basepoint(tau)
    loops = [base + s for s in (0.0, 0.3, 0.7)] + [base + 1j * tau * s for s in (0.3, 0.7, 1.0)]
    with mpmath.workdps(30):
        eta1, mp_sigma = _mp_lattice(mp, mp.mpf(tau))
        assert rel(lat.eta1, eta1) <= 1e-11
        for w in cell:
            assert rel(sigma(lat, w), mp_sigma(mp.mpc(w))) <= 1e-11
        eta2 = eta1 * 1j * tau - 2j * mp.pi
        for chi in (CHI, 0.9 + 0.9j, 3 + 0.3j):
            form = am.ConnectionForm(am.ConnectionParams(0.2, chi, R, tau))
            lam = -2 * mp.mpc(chi)
            p = -tau * lam / mp.pi
            beta = -lam * (eta2 + 1j * tau * eta1) / (2j * mp.pi)
            scale = -R / mp_sigma(p)
            for w in loops:
                w_mp = mp.mpc(w)
                phi = beta * w_mp - lam * mp.conj(w_mp)
                psi_plus = scale * mp.exp(phi) * mp_sigma(w_mp - p) / mp_sigma(w_mp)
                psi_minus = -scale * mp.exp(-phi) * mp_sigma(w_mp + p) / mp_sigma(w_mp)
                coef = form.coefficient(w, 1.0)
                assert rel(-coef[2], psi_plus) <= 1e-11
                assert rel(-coef[1], psi_minus) <= 1e-11


@pytest.mark.parametrize("tau", [0.1, 0.13, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0])
def test_theta1_matches_mpmath_up_to_its_reach(tau):
    """theta1(pi w) against mpmath's jtheta at |Im w| from 0.25 to 1.0 times the reach.

    The relative error stays below 1e-12 there; at twice the reach the cut
    series is off by 8e-2 at tau = 0.1 and by 100% from tau = 0.3 on, which
    is why ConnectionForm refuses a chi that takes gamma_y past the reach.
    """
    mpmath = pytest.importorskip("mpmath")
    lat = am.RectangularLattice(tau)
    ws = [complex(x, sign * f * lat.reach)
          for x in (0.1, 0.3, 0.5) for f in np.linspace(0.25, 1.0, 7) for sign in (1, -1)]
    got = lat.theta1(np.array(ws), [0.0])[:, 0]
    with mpmath.workdps(30):
        q = mpmath.exp(-mpmath.pi * mpmath.mpf(tau))
        for w, value in zip(ws, got):
            exact = mpmath.jtheta(1, mpmath.pi * mpmath.mpc(w), q)
            assert float(abs(mpmath.mpc(complex(value)) - exact) / abs(exact)) <= 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda: am.RectangularLattice(0.0),
        lambda: am.ConnectionParams(0.2, CHI, R, 0.0),
        lambda: am.ConnectionParams(0.2, CHI, R, 1e-320),
        lambda: am.real_locus_sweep(R, 0.0, 0.3 + 0.1j, (0.05, 1.6), 60),
        lambda: am.match_y(1.8, R, 0.0, 0.3 + 0.1j, (0.05, 0.7)),
        lambda: am.jacobian_rank(0.3, 0.0, R),
        lambda: am.match_on_locus(YSTAR, R, tau_bracket=(-1.0, 1.0)),
    ],
    ids=["lattice", "params", "params_subnormal", "sweep", "match_y", "jacobian", "on_locus"],
)
def test_tau_out_of_range_raises_first(call):
    """tau outside [TAU_MIN, TAU_MAX] is ParameterOutOfRange before anything divides by it."""
    with pytest.raises(am.ParameterOutOfRange, match="^tau "):
        call()


# ---------------------------------------------------------------------------
# baker sections: psi_+ = -C10 (lam = -2 chi) and psi_- = -C01 (-lam) at wdot = 1

FORM = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))


def _psi(sign):
    return lambda w: -FORM.coefficient(w, 1.0)[2 if sign == +1 else 1]


def test_baker_rejects_half_lattice_chi():
    for chi in (0.0, 0.5j * math.pi, math.pi / (2 * TAU), -math.pi / (2 * TAU)):
        with pytest.raises(am.NonGenericChi):
            am.ConnectionForm(am.ConnectionParams(0.2, chi, R, TAU))


def test_baker_double_periodicity():
    rng = np.random.default_rng(2)
    for sign in (+1, -1):
        psi = _psi(sign)
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
        psi = _psi(sign)
        # even part of w*psi(w) kills the O(w) regular term
        res = 0.5 * (h * psi(h) + (-h) * psi(-h))
        assert abs(res - R) <= 1e-9
        prod *= res
    assert abs(prod - R * R) <= 1e-10


def test_baker_dbar_equation():
    """Finite-difference check of dbar psi_+- +- lam psi_+- = 0 off the pole."""
    h = 1e-6
    for sign in (+1, -1):
        psi = _psi(sign)
        for w0 in (0.31 + 0.27j, 0.62 + 0.55j):
            dbar = (
                (psi(w0 + h) - psi(w0 - h)) + 1j * (psi(w0 + 1j * h) - psi(w0 - 1j * h))
            ) / (4.0 * h)
            assert abs(dbar + sign * FORM.lam * psi(w0)) <= 1e-7


def test_coefficient_makes_one_theta1_call(monkeypatch):
    """theta1 at w, w - p and w + p is one call of the kernel per coefficient evaluation."""
    calls = []
    theta1 = am.RectangularLattice.theta1

    def spy(self, w, shifts):
        calls.append((np.shape(w), len(shifts)))
        return theta1(self, w, shifts)

    monkeypatch.setattr(am.RectangularLattice, "theta1", spy)
    w = np.array([[0.3 + 0.2j, 0.35 + 0.2j], [0.7 + 0.6j, 0.75 + 0.6j]])
    FORM.coefficient(w, 1.0)
    assert calls == [((2, 2), 3)]


# ---------------------------------------------------------------------------
# connection form and transport


def test_connection_form_simple_pole():
    """|w coefficient(w, 1)| stays bounded on shrinking circles around the puncture."""
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    maxima = []
    for radius in (1e-2, 1e-3):
        vals = []
        for theta in np.linspace(0, 2 * np.pi, 32, endpoint=False):
            w = radius * np.exp(1j * theta)
            vals.append(np.max(np.abs(w * form.coefficient(w, 1.0))))
        maxima.append(max(vals))
    assert maxima[1] <= 2.0 * maxima[0] + 1.0
    assert abs(maxima[1] - R) <= 0.05  # residue magnitude dominates


class _DiagonalForm(am.ConnectionForm):
    """The connection with its off-diagonal Baker sections dropped: a scalar test double.

    It builds only a, chi and the lattice, with lam = p = scale = 0, so no chi is
    refused; coefficient keeps the form's own C00 and sets C01 = C10 = 0.
    """

    def __init__(self, params):
        self.a = np.array(params.a, dtype=complex)
        self.chi = complex(params.chi)
        self.lat = am.RectangularLattice(params.tau)
        self.lam = self.p = self.scale = 0.0

    def coefficient(self, w, wdot):
        x = super().coefficient(w, wdot)
        x[1:] = 0.0
        return x


class _Curve:
    """Any curve s -> point(s) with the interface of a TorusPath: a test-local path double."""

    delta = am.TorusPath.delta

    def __init__(self, point, velocity, tau, label):
        self.point, self.velocity, self.tau, self.label = point, velocity, tau, label


def test_torus_path_is_a_value():
    """A loop is its fields: equal loops compare and hash equal, and no field is callable or defaulted."""
    assert am.gamma_x(1.0) == am.gamma_x(1.0) and am.gamma_x(1.0) is not am.gamma_x(1.0)
    assert hash(am.gamma_x(1.0)) == hash(am.gamma_x(1.0))
    assert am.gamma_y(1.0) == am.gamma_y(1.0)
    assert len({am.gamma_x(1.0), am.gamma_y(1.0), am.gamma_x(2.0), am.gamma_x_wiggled(1.0, 0.05, 2),
                am.gamma_x_wiggled(1.0, 0.0, 2)}) == 5
    for path in (am.gamma_x(1.0), am.gamma_y(1.0), am.gamma_x_wiggled(1.0, 0.05, 2)):
        fields = dataclasses.fields(path)
        assert not any(callable(getattr(path, field.name)) for field in fields)
        assert all(field.default is field.default_factory is dataclasses.MISSING for field in fields)


def test_transport_refuses_a_loop_of_another_tau(monkeypatch):
    """gamma_y(1) is not closed on the torus at tau = 2: ParameterOutOfRange before any pass."""
    calls = _spy_coefficient(monkeypatch)
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, 2.0))
    for paths in (am.gamma_y(1.0), (am.gamma_x(2.0), am.gamma_y(1.0))):
        with pytest.raises(am.ParameterOutOfRange, match=r"^gamma_y: a loop at tau = 1\.0, not 2\.0$"):
            am.parallel_transport(form, paths)
    assert calls == []
    assert am.parallel_transport(form, am.gamma_y(2.0)).panels == 64


def test_transport_zero_form_is_identity():
    zero_form = _DiagonalForm(am.ConnectionParams(0.0, 0.0, R, TAU))
    res = am.parallel_transport(zero_form, am.gamma_x(TAU))
    assert np.max(np.abs(res.matrix - np.eye(2))) <= 1e-12


def test_transport_diagonal_truncation_closed_form():
    a = 0.2
    form = _DiagonalForm(am.ConnectionParams(a, CHI, R, TAU))
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
    path = am.gamma_x(TAU)
    reversed_path = _Curve(lambda s: path.point(1.0 - s), lambda s: -path.velocity(1.0 - s), TAU, "gamma_x^-1")
    fwd = am.parallel_transport(form, path)
    bwd = am.parallel_transport(form, reversed_path)
    assert np.max(np.abs(fwd.matrix @ bwd.matrix - np.eye(2))) <= 1e-8


def test_transport_step_budget(monkeypatch):
    monkeypatch.setattr(am, "PANEL_BUDGET", 3)
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    with pytest.raises(am.StepLimitExceeded):
        am.parallel_transport(form, am.gamma_x(TAU))


def test_transport_path_too_close_to_pole():
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    bad = _Curve(lambda s: 0.001 + 0.001j + s, lambda s: 1.0 + 0.0j, TAU, "bad")
    with pytest.raises(am.PathTooCloseToPole):
        am.parallel_transport(form, bad)


def test_transport_det_drift_small():
    form = am.ConnectionForm(am.ConnectionParams(0.4, CHI, R, TAU))
    for path in (am.gamma_x(TAU), am.gamma_y(TAU)):
        res = am.parallel_transport(form, path)
        assert res.det_drift <= 1e-12


def _spy_coefficient(monkeypatch):
    """Record (members, loops, nodes per panel, panel columns) of every ConnectionForm.coefficient call."""
    calls = []
    coefficient = am.ConnectionForm.coefficient

    def spy(self, w, wdot):
        calls.append((self.a.size, *np.shape(w)))
        return coefficient(self, w, wdot)

    monkeypatch.setattr(am.ConnectionForm, "coefficient", spy)
    return calls


def test_transport_evaluates_each_panel_level_at_once(monkeypatch):
    """One coefficient call per (transport call, open loops, level), and none shared between calls.

    The loops' node sets are stacked on a leading axis and the first pass's two levels
    on the panel axis (16 + 32 = 48 panels); gamma_x closes at 32 panels here and
    leaves the call, so the 64-panel level carries gamma_y's nodes alone.  The same
    form again, a second form and monodromies at the same point each make the same
    two calls.
    """
    calls = _spy_coefficient(monkeypatch)
    a, tau = DODECA_ROOT
    params = am._on_slice(a, tau, 0.1)
    form = am.ConnectionForm(params)
    rx, ry = am.parallel_transport(form, (am.gamma_x(tau), am.gamma_y(tau)))
    assert (rx.panels, ry.panels) == (32, 64)
    assert calls == [(1, 2, 3, 48), (1, 1, 3, 64)]
    am.parallel_transport(form, (am.gamma_x(tau), am.gamma_y(tau)))
    am.parallel_transport(am.ConnectionForm(params), (am.gamma_x(tau), am.gamma_y(tau)))
    assert am.monodromies(params).panels == (32, 64)
    assert calls == [(1, 2, 3, 48), (1, 1, 3, 64)] * 4


@pytest.mark.parametrize("tau", [0.2, 1.0, 5.0])
def test_transport_matches_dop853(tau):
    """Oracle: an independent adaptive integrator on both loops and on a wiggled gamma_x."""
    integrate = pytest.importorskip("scipy.integrate")
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, tau))
    for path in (am.gamma_x(tau), am.gamma_y(tau), am.gamma_x_wiggled(tau, 0.05 * min(1.0, tau), 2)):

        def rhs(s, psi):
            c00, c01, c10 = form.coefficient(path.point(s), path.velocity(s))
            return (np.array([[c00, c01], [c10, -c00]]) @ psi.reshape(2, 2)).ravel()

        sol = integrate.solve_ivp(
            rhs, (0.0, 1.0), np.eye(2, dtype=complex).ravel(),
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        expected = sol.y[:, -1].reshape(2, 2)
        got = am.parallel_transport(form, path).matrix
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_magnus_step_is_sixth_order():
    """Oracle: against 4096 panels, 16 -> 32 panels cuts the error by ~2^6 on both loops.

    A coefficient slip that drops the step to 4th order (ratio ~16) would pass every
    residual oracle, only with more panels and an error estimate / 63 four times too small.
    """
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    paths = [am.gamma_x(TAU), am.gamma_y(TAU)]
    (exact,) = am._magnus_product(form, paths, (4096,))
    err16, err32 = (np.max(np.abs(product - exact), axis=(1, 2))
                    for product in am._magnus_product(form, paths, (16, 32)))
    assert np.all((40.0 <= err16 / err32) & (err16 / err32 <= 90.0))


def test_transport_fails_fast_near_half_lattice_chi():
    """chi = 1e-7 passes the half-lattice check; the overflowing product is NonGenericChi at once."""
    params = am.ConnectionParams(0.2, 1e-7, R, TAU)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(am.NonGenericChi, match="^" + re.escape(
                "chi = (1e-07+0j), a = (0.2+0j): gamma_x: non-finite panel product at 16 panels: "
                "the monodromy is beyond double precision") + "$"):
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


SCATTER_POINTS = 32
REL_BOUND = 1e-7


def _scatter_point(rng, i):
    """The i-th of SCATTER_POINTS draws over the benchmark's scatter domain.

    tau is log-stratified in [0.2, 5]; a and chi are uniform in [-1, 1]^2,
    chi redrawn until it lies at least 0.1 from every half-lattice point in
    p = 2 tau chi / pi; r is uniform in [0.05, 0.45].
    """
    lo, hi = math.log(0.2), math.log(5.0)
    tau = math.exp(lo + (hi - lo) * (i + rng.uniform()) / SCATTER_POINTS)
    a = complex(*rng.uniform(-1.0, 1.0, 2))
    while True:
        chi = complex(*rng.uniform(-1.0, 1.0, 2))
        p = 2.0 * tau * chi / math.pi
        dx, dy = p.real - round(p.real), p.imag - tau * round(p.imag / tau)
        if math.hypot(dx, dy) >= 0.1:
            break
    return am.ConnectionParams(a, chi, rng.uniform(0.05, 0.45), tau)


def _scale(m):
    return max(1.0, float(np.max(np.abs(m))))


def _det_residual(m):
    return abs(np.linalg.det(m) - 1.0) / _scale(m) ** 2


def test_scatter_domain_meets_benchmark_bounds():
    """Over the scatter domain, every scale-normalised residual is <= 1e-7.

    With c = 2 cos(2 pi r), traces recomputed from X and Y (z = tr YX) and
    s(M) = max(1, max|M_ij|):
    - character: |x^2 + y^2 + z^2 - xyz - 2 - c| / (|x|^2 + |y|^2 + |z|^2 + |xyz| + 2 + |c|);
    - commutator: |tr(Y^-1 X^-1 Y X) - c| / (s(X)^2 s(Y)^2);
    - det: |det M - 1| / s(M)^2 for M = X and Y;
    - homotopy: max|P - P~| / s(P), with P along gamma_x and P~ along
      gamma_x_wiggled(tau, 0.05 min(1, tau), 2).
    """
    rng = np.random.default_rng(2024)
    worst = {"character": 0.0, "commutator": 0.0, "det": 0.0, "homotopy": 0.0}
    for i in range(SCATTER_POINTS):
        params = _scatter_point(rng, i)
        m = am.monodromies(params)
        X, Y = m.X, m.Y
        c = 2.0 * math.cos(2.0 * math.pi * params.r)
        x, y, z = np.trace(X), np.trace(Y), np.trace(Y @ X)
        terms = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2 + abs(x * y * z) + 2.0 + abs(c)
        residuals = {
            "character": abs(x * x + y * y + z * z - x * y * z - 2.0 - c) / terms,
            "commutator": abs(np.trace(np.linalg.inv(Y) @ np.linalg.inv(X) @ Y @ X) - c)
            / (_scale(X) ** 2 * _scale(Y) ** 2),
            "det": max(_det_residual(X), _det_residual(Y)),
        }
        form = am.ConnectionForm(params)
        tau = params.tau
        straight = am.parallel_transport(form, am.gamma_x(tau)).matrix
        wiggled = am.parallel_transport(
            form, am.gamma_x_wiggled(tau, 0.05 * min(1.0, tau), 2)
        ).matrix
        residuals["homotopy"] = float(np.max(np.abs(straight - wiggled))) / _scale(straight)
        for name, value in residuals.items():
            worst[name] = max(worst[name], value)
    assert max(worst.values()) <= REL_BOUND, worst


def test_monodromy_tail_matches_numpy_oracle():
    """Oracle: K, x, y, z and both residuals equal numpy's, from the same X and Y.

    The oracle is np.linalg.inv(Y) @ np.linalg.inv(X) @ Y @ X, np.trace and the two
    residuals built from them, over SCATTER_POINTS seeded scatter-domain points and three
    60-point slice stacks.  With s(M) = max(1, max|M_ij|), the measured maxima at this
    seed are 9.3e-15 for max|K - K_oracle| / (s(X)^2 s(Y)^2) (np.linalg.inv divides
    by det, which drifts from 1 by up to 5.2e-15), 3.4e-16 for |z - z_oracle| / (s(X) s(Y)),
    1.7e-16 for the character residual over its terms and 8.5e-16 for the commutator
    residual over s(X)^2 s(Y)^2; x and y are the same sums and agree bit for bit.
    """
    rng = np.random.default_rng(35)
    cases = [(p, am.monodromies(p)) for p in (_scatter_point(rng, i) for i in range(SCATTER_POINTS))]
    for r, tau in ((0.3, 1.2), (0.1, 1.0), (0.45, 0.8)):
        stack = _slice_stack(r, tau, 60)
        cases += zip(stack, am.monodromy_batch(stack))
    worst = {"K": 0.0, "z": 0.0, "character": 0.0, "commutator": 0.0}
    for params, m in cases:
        X, Y = m.X, m.Y
        c = 2.0 * math.cos(2.0 * math.pi * params.r)
        K = np.linalg.inv(Y) @ np.linalg.inv(X) @ Y @ X
        x, y, z = np.trace(X), np.trace(Y), np.trace(Y @ X)
        assert (m.x, m.y) == (x, y)
        scale = _scale(X) ** 2 * _scale(Y) ** 2
        terms = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2 + abs(x * y * z) + 2.0 + abs(c)
        for name, value in {
            "K": float(np.max(np.abs(m.K - K))) / scale,
            "z": abs(m.z - z) / (_scale(X) * _scale(Y)),
            "character": abs(m.char_residual - abs(x * x + y * y + z * z - x * y * z - 2.0 - c)) / terms,
            "commutator": abs(m.commutator_residual - abs(np.trace(K) - c)) / scale,
        }.items():
            worst[name] = max(worst[name], value)
    assert worst["K"] <= 1e-13 and worst["commutator"] <= 1e-14, worst
    assert worst["z"] <= 1e-15 and worst["character"] <= 1e-15, worst


def test_condition_gate_reads_inf_past_dbl_max():
    """A finite entry whose modulus is past DBL_MAX gives condition number inf, not OverflowError."""
    params = am.ConnectionParams(0.2, CHI, R, TAU)
    huge = np.array([[complex(1.5e308, 1.5e308), 0.0], [0.0, 1.0]])
    tx = am.TransportResult(huge, 0.0, 32, 0.0)
    ty = am.TransportResult(np.eye(2, dtype=complex), 0.0, 32, 0.0)
    with pytest.raises(am.NonGenericChi, match="condition number inf is beyond double precision$"):
        am._monodromy_result(params, tx, ty)


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


@pytest.mark.parametrize(("a", "chi"), [(math.nan, CHI), (complex(0.2, math.inf), CHI),
                                        (0.2, -math.inf), (0.2, complex(math.nan, 0.2))])
def test_connection_params_must_be_finite(a, chi):
    with pytest.raises(am.ParameterOutOfRange, match="^a and chi must be finite$"):
        am.ConnectionParams(a, chi, R, TAU)


def test_reducible_anchor_point():
    """At a = -pi/(4 tau), chi = pi/(4 tau) the traces hit (sqrt(2+2cos 2 pi r), 0, 0)."""
    a0 = -math.pi / (4.0 * TAU)
    chi0 = math.pi / (4.0 * TAU)
    m = am.monodromies(am.ConnectionParams(a0, chi0, R, TAU))
    assert abs(m.x - math.sqrt(2.0 + 2.0 * math.cos(2 * math.pi * R))) <= 1e-6
    assert abs(m.y) <= 1e-6
    assert abs(m.z) <= 1e-6


def test_monodromy_keeps_transport_data():
    """Oracle: the stacked transport of both loops equals one single-path call per loop.

    X, Y bit for bit, panel counts and error estimates, at the canonical point, the
    dodecahedral point and 40 seeded points with tau in [0.2, 5].
    """
    a, tau = DODECA_ROOT
    points = [am.ConnectionParams(0.2, CHI, R, TAU), am._on_slice(a, tau, 0.1)]
    rng = np.random.default_rng(27)
    while len(points) < 42:
        a, chi = complex(*rng.uniform(-1.0, 1.0, 2)), complex(*rng.uniform(-1.0, 1.0, 2))
        params = am.ConnectionParams(a, chi, rng.uniform(0.05, 0.45), rng.uniform(0.2, 5.0))
        if am.RectangularLattice(params.tau).lattice_distance(2.0 * params.tau * chi / math.pi) >= 0.1:
            points.append(params)
    for params in points:
        m = am.monodromies(params)
        form = am.ConnectionForm(params)
        rx, ry = (am.parallel_transport(form, path(params.tau)) for path in (am.gamma_x, am.gamma_y))
        assert (m.X.tobytes(), m.Y.tobytes()) == (rx.matrix.tobytes(), ry.matrix.tobytes())
        assert m.panels == (rx.panels, ry.panels)
        assert m.error_estimate == (rx.error_estimate, ry.error_estimate)


def test_stacked_transport_errors_name_the_failing_loop(monkeypatch):
    """Budget, pole and non-finite errors of a stacked call name the loop that failed.

    The non-finite product also names the connection: chi, and the a of the first
    failing member of a stack, whose first failing loop it names.
    """
    a, tau = DODECA_ROOT
    params = am._on_slice(a, tau, 0.1)  # gamma_x closes at 32 panels, gamma_y at 64
    form = am.ConnectionForm(params)
    x_path = am.gamma_x(tau)
    bad = _Curve(lambda s: 0.001 + 0.001j + s, x_path.velocity, tau, "bad")
    with pytest.raises(am.PathTooCloseToPole, match="^bad: "):
        am.parallel_transport(form, (x_path, bad))
    huge = _Curve(x_path.point, lambda s: 1e300 + 0j, tau, "huge")
    named = f"chi = {complex(params.chi)}, a = {complex(a)}: huge: non-finite panel product at 16 panels: "
    with pytest.raises(am.NonGenericChi, match="^" + re.escape(named)):
        am.parallel_transport(form, (x_path, huge))
    # member 1 overflows on gamma_y alone, member 2 on both loops: member 1 and gamma_y are named
    stack = am.ConnectionForm([am._on_slice(b, tau, 0.1) for b in (a, 400j, 1e200)])
    with pytest.raises(am.NonGenericChi, match="^" + re.escape(
            f"chi = {complex(params.chi)}, a = 400j: gamma_y: non-finite panel product at 16 panels: ")):
        am.parallel_transport(stack, (x_path, am.gamma_y(tau)))
    monkeypatch.setattr(am, "PANEL_BUDGET", 32)
    with pytest.raises(am.StepLimitExceeded, match="^gamma_y: budget of 32 panels"):
        am.monodromies(params)


def test_pole_check_covers_the_whole_first_pass():
    """A path near the lattice at a 32-panel node only fails the pole check first.

    The path meets the lattice at every 32-panel midpoint node and stays ~0.2 from it
    at the 16-panel nodes, and its huge velocity makes the 16-panel product non-finite.
    The first pass checks the nodes of both its levels before it tests either product,
    so the call raises PathTooCloseToPole where a 16-panel pass alone would have
    raised NonGenericChi.
    """
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    p0 = am.basepoint(TAU)
    spiky = _Curve(lambda s: p0 * np.cos(32.0 * math.pi * s) ** 2, lambda s: 1e300 + 0j, TAU, "spiky")
    with np.errstate(all="ignore"):
        (coarse,) = am._magnus_product(form, [spiky], (16,))
    assert not np.all(np.isfinite(coarse))
    with pytest.raises(am.PathTooCloseToPole, match="^spiky: "):
        am.parallel_transport(form, spiky)


def test_fused_levels_equal_levels_alone():
    """Oracle: the first pass's (16, 32) call equals (16,) and (32,) called alone, byte for byte.

    At the canonical point, the dodecahedral root, 20 seeded scatter points and an
    8-member slice stack.  test_monodromy_keeps_transport_data cannot see a slip in the
    fused pass, since both sides of its comparison run it.
    """
    a, tau = DODECA_ROOT
    rng = np.random.default_rng(28)
    stacks = [am.ConnectionParams(0.2, CHI, R, TAU), am._on_slice(a, tau, 0.1), _slice_stack(R, TAU, 8)]
    stacks += [_scatter_point(rng, i * SCATTER_POINTS // 20) for i in range(20)]
    for stack in stacks:
        form = am.ConnectionForm(stack)
        paths = [am.gamma_x(form.lat.tau), am.gamma_y(form.lat.tau)]
        fused = am._magnus_product(form, paths, (16, 32))
        alone = [am._magnus_product(form, paths, (n,))[0] for n in (16, 32)]
        assert [p.shape for p in fused] == [form.a.shape + (2, 2, 2)] * 2
        assert [p.tobytes() for p in fused] == [p.tobytes() for p in alone]


def test_panel_product_is_holomorphic_in_a_and_chi():
    """Oracle: the 32-panel products of both loops are holomorphic in a and in chi.

    The connection depends on a and chi, never on their conjugates, so the
    discrete product is an entire function of each.  On 16 points of a circle
    of radius 0.05, its mean-value gap and its e^{-i theta} Fourier
    coefficient, relative to max|P|, then vanish up to the aliased 15th
    Taylor term and rounding.  A conj(lam) slipped into
    coefficient's phase reads 2.5e-2 and 1.4e-1 in chi.  Measured: 1.9e-15
    and 2.9e-16 in a, 2.9e-14 and 1.9e-13 in chi.  Away from the
    dodecahedral point on purpose: there the aliased 15th Taylor term puts
    the chi coefficient at 7.5e-11.
    """
    paths = [am.gamma_x(TAU), am.gamma_y(TAU)]
    circle = np.exp(2j * math.pi * np.arange(16) / 16)

    def along_a(points):
        form = am.ConnectionForm([am.ConnectionParams(a, CHI, R, TAU) for a in points])
        return am._magnus_product(form, paths, (32,))[0]

    def along_chi(points):
        return np.stack([am._magnus_product(am.ConnectionForm(am.ConnectionParams(0.2, chi, R, TAU)),
                                            paths, (32,))[0] for chi in points])

    for product, center in ((along_a, 0.2), (along_chi, CHI)):
        ring = product(list(center + 0.05 * circle))
        scale = np.max(np.abs(ring))
        mean_gap = np.max(np.abs(ring.mean(axis=0) - product([center])[0])) / scale
        fourier = np.max(np.abs(np.tensordot(circle, ring, axes=1))) / 16 / scale  # e^{-i theta}
        assert mean_gap <= 1e-11 and fourier <= 1e-11, (center, mean_gap, fourier)


# ---------------------------------------------------------------------------
# batches along a


def _slice_stack(r, tau, n, a_range=(0.05, 1.6)):
    chi0 = math.pi / (4.0 * tau)
    return [am.ConnectionParams(complex(t, 0.0), chi0, r, tau) for t in np.linspace(*a_range, n)]


def _retiring_stack():
    """40 members of (-3, 4) at r = 0.3, tau = 5: gamma_x closes at 32 panels, gamma_y at 128, 256 and 512."""
    return _slice_stack(0.3, 5.0, 40, (-3.0, 4.0))


def test_batch_members_equal_batches_of_one():
    """Each member keeps the level where it first passes and equals its batch of one bit for bit.

    On a tau = 1.2 slice stack, whose last chunk closes gamma_y at 32 and at 64
    panels, and on the retiring stack, whose members leave the transport at three
    levels.
    """
    for stack in (_slice_stack(0.3, 1.2, 60), _retiring_stack()):
        batch = am.monodromy_batch(stack)
        assert len({res.panels[1] for res in batch}) >= 2
        for params, res in zip(stack, batch):
            alone = am.monodromies(params)
            assert res.X.tobytes() == alone.X.tobytes()
            assert res.Y.tobytes() == alone.Y.tobytes()
            assert (res.panels, res.error_estimate) == (alone.panels, alone.error_estimate)


def _open_at(panels, n):
    """The loops, and then the members, still open at n panels, given every member's closing panels."""
    loops = tuple(loop for loop in (0, 1) if any(p[loop] >= n for p in panels))
    return loops, [i for i, p in enumerate(panels) if any(p[loop] >= n for loop in loops)]


def _expected_calls(panels):
    """The coefficient calls of one transport of (gamma_x, gamma_y), given its members' closing panels."""
    expected, n = [], 32
    while (open_ := _open_at(panels, n))[0]:
        loops, carried = open_
        expected.append((len(carried), len(loops), 3, 48 if n == 32 else n))
        n *= 2
    return expected


@pytest.mark.parametrize("members", [1, 3, 8, 20, 40])
def test_batch_evaluates_each_panel_level_once_per_chunk(monkeypatch, members):
    """One coefficient call per (chunk, open loops, level) of a batch, and a single call makes its own.

    A chunk's first pass carries every member on both loops at 16 + 32 = 48 panel
    columns; each later level carries the loops still open in that chunk and, on
    them, exactly the chunk's members still open on one of them.  Every chunk
    evaluates each of its own levels, and monodromies at each member afterwards
    makes exactly the calls of that member's batch of one.
    """
    calls = _spy_coefficient(monkeypatch)
    stack = _slice_stack(0.3, 1.2, members)
    batch = am.monodromy_batch(stack)
    chunks = [batch[start : start + am.BATCH_CHUNK] for start in range(0, members, am.BATCH_CHUNK)]
    assert calls == [call for chunk in chunks for call in _expected_calls([res.panels for res in chunk])]
    if members == 20:  # one chunk; gamma_y alone at 64 panels, for the last member alone
        assert calls == [(20, 2, 3, 48), (1, 1, 3, 64)]
    if members == 40:  # each chunk makes its first pass; the second chunk's last 2 members reach 64
        assert calls == [(32, 2, 3, 48), (8, 2, 3, 48), (2, 1, 3, 64)]
    calls.clear()
    for params in stack:
        am.monodromies(params)
    assert calls == [call for res in batch for call in _expected_calls([res.panels])]


def test_transport_retires_closed_members(monkeypatch):
    """Each pass after the first carries exactly the members still open on one of its loops.

    The retiring stack goes through one stacked transport of both loops.  Every
    _magnus_product pass is spied on: its form's a must be the a of the members
    open at its finest level, in stack order, and its loops those still open.
    gamma_x closes at 32 panels for every member, so the passes carry 40, 40, 40,
    27 and 4 members.
    """
    passes = []
    magnus_product = am._magnus_product

    def spy(form, paths, levels):
        passes.append((form.a.tolist(), [path.label for path in paths], levels[-1]))
        return magnus_product(form, paths, levels)

    monkeypatch.setattr(am, "_magnus_product", spy)
    stack = _retiring_stack()
    form = am.ConnectionForm(stack)
    tx, ty = am.parallel_transport(form, (am.gamma_x(5.0), am.gamma_y(5.0)))
    panels = [(rx.panels, ry.panels) for rx, ry in zip(tx, ty)]
    assert sorted(collections.Counter(p[1] for p in panels).items()) == [(128, 13), (256, 23), (512, 4)]
    expected = []
    for n in (32, 64, 128, 256, 512):
        loops, carried = _open_at(panels, n)
        expected.append(([complex(stack[i].a) for i in carried], [("gamma_x", "gamma_y")[k] for k in loops], n))
    assert passes == expected
    assert [len(a) for a, _labels, _n in passes] == [40, 40, 40, 27, 4]


@pytest.mark.parametrize("members", [None, 1, 8])
def test_stack_shape_contract(members):
    """a is 0-d for one ConnectionParams and 1-D for a list; transport returns a list for 1-D."""
    stack = _slice_stack(R, TAU, members or 1, (0.3, 0.5))
    form = am.ConnectionForm(stack if members else stack[0])
    shape = (members,) if members else ()
    w = am.basepoint(TAU) + np.linspace(0.0, 0.5, 6).reshape(2, 3)
    assert form.a.shape == shape
    assert form.coefficient(w, 1.0).shape == (3,) + shape + (2, 3)
    res = am.parallel_transport(form, am.gamma_x(TAU))
    if members:
        assert isinstance(res, list) and len(res) == members
    else:
        assert isinstance(res, am.TransportResult)
        res = [res]
    for params, got in zip(stack, res):
        alone = am.parallel_transport(am.ConnectionForm(params), am.gamma_x(TAU))
        assert got.matrix.tobytes() == alone.matrix.tobytes()


def test_batch_requires_shared_chi_r_tau():
    stack = [am.ConnectionParams(0.2, CHI, R, TAU), am.ConnectionParams(0.2, CHI, R, 1.1)]
    with pytest.raises(am.ParameterOutOfRange):
        am.monodromy_batch(stack)


def test_batch_raises_the_first_failing_members_error(monkeypatch):
    """A batch fails as its members would one after another: on the first failure."""
    monkeypatch.setattr(am, "PANEL_BUDGET", am._FIRST_PANELS)  # one level: no loop closes
    stack = _slice_stack(R, TAU, 3, (0.3, 0.5))
    with pytest.raises(am.StepLimitExceeded, match=f"gamma_x: budget of {am._FIRST_PANELS} panels"):
        am.monodromy_batch(stack)


def _mixed_chunk():
    return [am.ConnectionParams(complex(t, 0.0), math.pi / 4.0, R, 1.0) for t in np.linspace(5.0, 800.0, 8)]


def test_mixed_chunk_raises_its_first_members_error():
    """Member 1 alone is ill-conditioned; member 7's product overflows in the stack first.

    Either error names chi and its member's a; the batch raises member 1's.
    """
    stack = _mixed_chunk()
    chi = "chi = (0.7853981633974483+0j)"
    with pytest.raises(am.NonGenericChi, match="^" + re.escape(
            f"{chi}, a = (800+0j): gamma_x: non-finite panel product at 16 panels: "
            "the monodromy is beyond double precision") + "$"):
        am.monodromies(stack[7])
    with pytest.raises(am.NonGenericChi, match="^" + re.escape(
            f"{chi}, a = (118.57142857142857+0j): monodromy condition number 4.7e+103 ")):
        am.monodromy_batch(stack)


def _fingerprint(m):
    return (m.X.tobytes(), m.Y.tobytes(), m.K.tobytes(), m.x, m.y, m.z, m.char_residual,
            m.commutator_residual, m.det_drift, m.panels, m.error_estimate)


def test_batch_chunk_changes_no_result(monkeypatch):
    """BATCH_CHUNK sets speed and memory alone: no count, bit or error depends on it.

    At chunks of 1, 8, 16, 32 and 64 the dodecahedral solves from (2.6, 3.2) and (12, 12)
    take 18 and 24 evaluations, and they, match_y at 1.8, a 60-point sweep and a
    jacobian_rank give the same bits; the mixed-chunk stack raises the same error.
    When the graze scan went BATCH_CHUNK points at a time, the first solve took 17,
    18, 26 and 40 evaluations.
    """
    seen = []
    for chunk in (1, 8, 16, 32, 64):
        monkeypatch.setattr(am, "BATCH_CHUNK", chunk)
        solves = [am.match_on_locus(YSTAR, R, tau_bracket=bracket) for bracket in ((2.6, 3.2), (12.0, 12.0))]
        solves.append(am.match_y(1.8, R, 1.0, math.pi / 4.0, (0.05, 0.7)))
        sweep = am.real_locus_sweep(0.3, 1.2, math.pi / 4.8, (0.05, 1.6), 60)
        rank = am.jacobian_rank(0.3, 1.0, R)
        with pytest.raises(am.NonGenericChi) as error:
            am.monodromy_batch(_mixed_chunk())
        seen.append(([(res.evaluations, res.a, res.t, res.tau, _fingerprint(res.result)) for res in solves],
                     repr(sweep.rows), rank.jacobian.tobytes(), str(error.value)))
        assert [res.evaluations for res in solves[:2]] == [18, 24]
    assert seen[1:] == seen[:1] * 4


def _transport_fingerprint(res):
    return res.matrix.tobytes(), res.det_drift, res.panels, res.error_estimate


def test_warm_cache_changes_no_bit():
    """Oracle: a result does not depend on the calls made before it, nor on their order.

    A 60-point slice stack forwards and then reversed (other chunks), four single
    calls at its members, SCATTER_POINTS scatter-domain points with a neighbour at
    another r and one at conj(chi), each twice in a row against each alone, and
    gamma_x and a wiggled gamma_x, each transported once and then again by new forms.
    Nothing is kept between calls, so any state that leaked from one call into the
    next would show here.
    """
    stack = _slice_stack(0.3, 1.2, 60)
    forward = [_fingerprint(m) for m in am.monodromy_batch(stack)]
    backward = [_fingerprint(m) for m in am.monodromy_batch(stack[::-1])][::-1]
    assert backward == forward
    singles = range(3, 60, 17)
    assert [_fingerprint(am.monodromies(stack[i])) for i in singles] == [forward[i] for i in singles]

    rng = np.random.default_rng(32)
    points = []
    for i in range(SCATTER_POINTS):
        params = _scatter_point(rng, i)
        points += [params, dataclasses.replace(params, r=0.5 - params.r),
                   dataclasses.replace(params, chi=params.chi.conjugate())]
    alone = [_fingerprint(am.monodromies(params)) for params in points]
    assert [_fingerprint(am.monodromies(params)) for params in points for _ in "ab"] == [
        fingerprint for fingerprint in alone for _ in "ab"]

    params = am.ConnectionParams(0.2, CHI, R, TAU)
    wiggled = am.gamma_x_wiggled(TAU, 0.05, 2)
    first = [_transport_fingerprint(am.parallel_transport(am.ConnectionForm(params), path))
             for path in (am.gamma_x(TAU), wiggled)]
    again = [_transport_fingerprint(am.parallel_transport(am.ConnectionForm(params), path))
             for path in (am.gamma_x(TAU), wiggled)]
    assert again == first


def test_failures_are_raised_on_every_call():
    """A pole error and the construction checks are never cached: each call raises again."""
    form = am.ConnectionForm(am.ConnectionParams(0.2, CHI, R, TAU))
    bad = _Curve(lambda s: 0.001 + 0.001j + s, lambda s: 1.0 + 0.0j, TAU, "bad")
    for _ in range(3):
        with pytest.raises(am.PathTooCloseToPole, match="^bad: "):
            am.parallel_transport(form, bad)
    for chi, error in ((math.pi / 2.0, am.NonGenericChi), (0.3 + 3j, am.NonGenericChi),
                       (0.3 + 7j, am.ParameterOutOfRange)):
        for _ in range(2):
            with pytest.raises(error):
                am.ConnectionForm(am.ConnectionParams(0.2, chi, R, 12.0 if chi.imag else TAU))


def test_theta1_at_p_past_double_precision_is_non_generic():
    """At tau = 12, Im chi in [2.7, 6.7]: a result or NonGenericChi, never StepLimitExceeded.

    From Im chi ~ 2.72 theta1(pi p) is not finite in double precision, well inside
    the reach (Im chi up to 6.71), and the sections are refused with it; below, the
    monodromy's condition number refuses them.  Results keep residuals below 1e-9.
    """
    for re in (0.0, 0.3, 0.9, -1.5):
        for im in np.linspace(2.7, 6.7, 21):
            try:
                m = am.monodromies(am.ConnectionParams(0.2, complex(re, im), R, 12.0))
            except am.NonGenericChi:
                continue
            assert m.char_residual <= 1e-9 and m.commutator_residual <= 1e-9


def test_retained_memory_is_bounded():
    """200 monodromies at distinct (chi, r, tau) leave nothing of theirs behind.

    Measured: 0.09e6 to 0.10e6 bytes still held afterwards (tracemalloc current, in
    a bare interpreter; 0.19e6 while one sections object stayed cached), against a
    bound of 0.10e6 plus a 0.18e6 margin; a sections cache of 8 entries held 0.40e6,
    an unbounded one 7.4e6.
    """
    rng = np.random.default_rng(200)
    taus = (0.2, 0.5, 1.0, 2.0, 5.0)
    points = []
    while len(points) < 200:
        tau = taus[len(points) % len(taus)]
        chi = complex(*rng.uniform(-1.0, 1.0, 2))
        if am.RectangularLattice(tau).lattice_distance(2.0 * tau * chi / math.pi) >= 0.1:
            a = complex(*rng.uniform(-1.0, 1.0, 2))
            points.append(am.ConnectionParams(a, chi, rng.uniform(0.05, 0.45), tau))
    am.monodromies(points[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for params in points:
            am.monodromies(params)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 0.10e6 + 0.18e6


def test_sweep_memory_peak():
    """A 60-point sweep at tau = 1 transports its 17 first-level nodes in one pass of 17 members.

    Measured: a 1.04e6-byte tracemalloc peak.
    """
    chi0 = math.pi / (4.0 * TAU)
    am.real_locus_sweep(R, TAU, chi0, (0.05, 1.6), 2)
    tracemalloc.start()
    try:
        am.real_locus_sweep(R, TAU, chi0, (0.05, 1.6), 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_widest_sweep_memory_peak():
    """The widest gated sweep holds at most 24e6 bytes: the memory that 32-member passes cost.

    real_locus_sweep(0.1, 12, pi/48, (-11, 11), 60) transports 257 nodes, up to
    32 members a pass, and gamma_y closes late at tau = 12.  Measured: a
    20.7e6-byte tracemalloc peak, against 5.5e6 when the transport took 8
    members at a time; in exchange each Lobatto level of 32 nodes or fewer is
    one pass, and a 60-point (-3, 4) sweep at tau = 12 takes ~10% less time.
    """
    chi0 = math.pi / (4.0 * am.TAU_MAX)
    am.real_locus_sweep(R, am.TAU_MAX, chi0, (0.05, 1.6), 2)
    tracemalloc.start()
    try:
        am.real_locus_sweep(R, am.TAU_MAX, chi0, (-11.0, 11.0), 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6


def test_monodromies_memory_peak():
    """The separable kernel holds two nodes x terms arrays, not (3 x nodes) x terms."""
    params = am.ConnectionParams(0.5 - 0.5j, 0.9 + 0.9j, 0.45, 0.2)
    am.RectangularLattice(params.tau)
    tracemalloc.start()
    try:
        am.monodromies(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7e6


# ---------------------------------------------------------------------------
# eta cases


def test_eta_case_examples():
    """chi of each eta case is paired with the a-line through the case's a."""
    cases = [  # (a, chi, t with a = line(t))
        (0.2, 0.3, 0.2),  # case 1: chi, a real
        (0.1 - 0.5j * math.pi, 0.4 + 0.5j * math.pi, 0.1),  # case 2, k = -1
        (0.2j, 0.3j, 0.2),  # case 3: chi, a imaginary
        (0.1j + math.pi / (2 * TAU), 0.25j - math.pi / (2 * TAU), 0.1),  # case 4, k = 1
    ]
    for a, chi, t in cases:
        assert abs(am._slice_parametrization(chi, TAU)(t) - a) <= 1e-15
    with pytest.raises(am.SlicePreconditionError):
        am._slice_parametrization(2 + 3j, TAU)


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
    """Records the a of every member evaluation; monodromies is a batch of one."""
    calls = []
    monodromy_batch = am.monodromy_batch

    def spy(stack, *args, **kwargs):
        calls.extend(params.a for params in stack)
        return monodromy_batch(stack, *args, **kwargs)

    monkeypatch.setattr(am, "monodromy_batch", spy)
    return calls


def test_sweep_transports_its_nodes_alone(monkeypatch):
    """The tau = 1 slice is resolved by 17 Lobatto nodes, and its one Im z root is read from the series.

    17 members in all.  |Im z| at the refined row measured 4.86e-11 (5e-11
    when the root was transported), so the bound is 1e-9, well inside
    TOL_MONO = 1e-6.
    """
    calls = _count_monodromies(monkeypatch)
    res = am.real_locus_sweep(R, TAU, math.pi / (4.0 * TAU), (0.05, 1.6), 60)
    refined = [row for row in res.rows if row.refined]
    assert len(refined) == 1 and len(calls) == 17
    assert len(res.rows) == 60 + len(refined)
    for row in refined:
        assert row.is_real and abs(complex(row.z).imag) <= 1e-9
        assert abs(row.eta_residual) <= 1e-6
    assert [row.t for row in res.rows] == sorted(row.t for row in res.rows)


def test_each_lobatto_level_is_one_transport(monkeypatch):
    """The 17 first-level nodes go through one stacked transport; match_y's root through one more.

    A 60-point sweep at r = 0.1, tau = 1 makes 1 parallel_transport call, of 17
    members, and match_y at 1.8 on (0.05, 0.7) 2, of 17 and 1 members: it
    returns the matrices at its root.  match_y keeps its 18 evaluations.
    """
    calls = []
    parallel_transport = am.parallel_transport

    def spy(form, paths):
        calls.append(form.a.size)
        return parallel_transport(form, paths)

    monkeypatch.setattr(am, "parallel_transport", spy)
    chi0 = math.pi / (4.0 * TAU)
    am.real_locus_sweep(R, TAU, chi0, (0.05, 1.6), 60)
    assert calls == [17]
    calls.clear()
    assert am.match_y(1.8, R, TAU, chi0, (0.05, 0.7)).evaluations == 18
    assert calls == [17, 1]


def test_sweep_past_the_node_ceiling_raises(monkeypatch):
    """A series that is not resolved at MAX_SWEEP_NODES nodes raises MaxIterations naming the range.

    Every transported z gets a rough 1e-6 term, so no level's tail ever falls
    below the tolerance: the sweep transports the nested levels up to the
    ceiling, 257 nodes, and not one member more.
    """
    calls = _count_monodromies(monkeypatch)
    monodromy_batch = am.monodromy_batch

    def rough(stack):
        return [dataclasses.replace(res, z=res.z + 1e-6 * math.sin(1e6 * params.a.real))
                for params, res in zip(stack, monodromy_batch(stack))]

    monkeypatch.setattr(am, "monodromy_batch", rough)
    with pytest.raises(am.MaxIterations, match=r"^the a range \(0\.7, 0\.95\) is not resolved by 257 "):
        am.real_locus_sweep(R, TAU, math.pi / (4.0 * TAU), (0.7, 0.95), 4)
    assert len(calls) == am.MAX_SWEEP_NODES == 257


def test_widest_gated_range_resolves_at_the_node_ceiling(monkeypatch):
    """MAX_SWEEP_NODES is the node count of the widest range the condition gate lets through at TAU_MAX.

    On the chi0 = pi/(4 tau) slice at tau = 12, a = +-11.5 fails the gate and
    (-11, 11) passes: its series oscillates ~tau |a| radians and resolves at
    exactly 257 nodes, and its 85 Im z roots are read from the series.
    """
    calls = _count_monodromies(monkeypatch)
    res = am.real_locus_sweep(R, am.TAU_MAX, math.pi / (4.0 * am.TAU_MAX), (-11.0, 11.0), 60)
    assert len(calls) == am.MAX_SWEEP_NODES == 257 and sum(row.refined for row in res.rows) == 85
    with pytest.raises(am.NonGenericChi, match="condition number"):
        am.real_locus_sweep(R, am.TAU_MAX, math.pi / (4.0 * am.TAU_MAX), (-11.5, 11.5), 60)


@pytest.mark.parametrize(("r", "tau", "n"), [(0.1, 8.0, 4), (0.1, 5.0, 60), (0.3, 1.0, 60)])
def test_sweep_finds_every_crossing_of_a_scan(r, tau, n):
    """Each sign change of Im z in a 1201-point scan of (0.05, 1.6) holds exactly one refined row.

    At tau = 8 two of the four crossings (a ~ 0.568 and 0.931) fall between
    two of the 4 samples, where a sampled sweep cannot see them; tau = 5 has
    three crossings and the r = 0.3, tau = 1 slice one.
    """
    chi0 = math.pi / (4.0 * tau)
    scan = np.linspace(0.05, 1.6, 1201)
    im_z = np.array([complex(m.z).imag for m in
                     am.monodromy_batch([am.ConnectionParams(t, chi0, r, tau) for t in scan])])
    changes = np.nonzero(im_z[:-1] * im_z[1:] < 0)[0]
    refined = [row for row in am.real_locus_sweep(r, tau, chi0, (0.05, 1.6), n).rows if row.refined]
    assert len(refined) == len(changes) > 0
    for row, i in zip(refined, changes):
        assert scan[i] <= row.t <= scan[i + 1]
        assert row.is_real and abs(complex(row.z).imag) <= 1e-9


@pytest.mark.parametrize(("r", "tau", "chi0", "a_range", "n", "bound"), [
    (0.1, 1.0, math.pi / 4, (0.05, 1.6), 60, 1e-11),  # measured 1.2e-15
    (0.3, 1.2, math.pi / 4.8, (0.05, 1.6), 40, 1e-11),  # 6.2e-12
    (0.45, 0.8, math.pi / 3.2, (0.05, 1.6), 60, 1e-11),  # 1.5e-12
    (0.1, 5.0, math.pi / 20, (0.05, 1.6), 60, 1e-11),  # 2.6e-15, three roots
    (0.1, 8.0, math.pi / 32, (0.05, 1.6), 4, 1e-11),  # 2.1e-14, four roots, two between samples
    (0.3, 5.0, math.pi / 20, (-3.0, 4.0), 60, 1e-10),  # 4.8e-11, eleven roots
    (0.1, 12.0, math.pi / 48, (0.05, 1.8), 60, 1e-11),  # 6.4e-13
    (0.1, 1.0, 1j * math.pi / 4, (0.05, 1.6), 30, 1e-11),  # 3.5e-12, the line a = i t
    (0.1, 12.0, math.pi / 48, (-11.0, 11.0), 60, 5e-10),  # 1.34e-10, 85 roots at 257 nodes
])
def test_refined_rows_agree_with_their_transport(r, tau, chi0, a_range, n, bound):
    """Oracle: each refined row, read from the series, against monodromy_batch at its t.

    x, y and z agree within bound times max(1, |trace|), the worst measured
    deviation noted per slice, and every refined row has the real flag of its
    transported traces.  The flag is tight on the widest sweep, where one root
    reads |Im z| = 7.8e-7 on both sides against TOL_MONO = 1e-6.
    """
    refined = [row for row in am.real_locus_sweep(r, tau, chi0, a_range, n).rows if row.refined]
    assert refined
    transported = am.monodromy_batch([am.ConnectionParams(row.a, chi0, r, tau) for row in refined])
    for row, m in zip(refined, transported):
        for series, direct in ((row.x, m.x), (row.y, m.y), (row.z, m.z)):
            assert abs(series - direct) <= bound * max(1.0, abs(direct))
        assert row.is_real == (abs(m.z.imag) <= am.TOL_MONO)


def test_sweep_rows_ascend_on_a_reversed_range():
    """A range given high to low still gives its rows, refined ones included, in ascending t."""
    res = am.real_locus_sweep(R, TAU, math.pi / (4.0 * TAU), (1.6, 0.05), 6)
    ts = [row.t for row in res.rows]
    assert ts == sorted(ts) and ts[0] == 0.05 and ts[-1] == 1.6
    assert sum(not row.refined for row in res.rows) == 6


@pytest.mark.parametrize("a_range", [(-1e308, 1e308), (1e308, -1e308), (0.05, math.inf), (math.nan, 1.6)])
@pytest.mark.parametrize("n", [1, 3])
def test_sweep_range_without_a_finite_span_is_refused(a_range, n):
    """A range whose span overflows is ParameterOutOfRange naming the range, before any sample."""
    with pytest.raises(am.ParameterOutOfRange, match=r"^the a range \("):
        am.real_locus_sweep(R, TAU, math.pi / (4.0 * TAU), a_range, n)


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
    """An end within TOL_ROOT is returned as transported: its t exactly, its monodromy bit for bit.

    0.2 + (0.9 - 0.2) rounds to 0.9000000000000001, so the last node must be
    placed at bracket[1] itself.  The ends are the interpolant's first and
    last nodes: 17 evaluations, and no root is transported.
    """
    chi0 = math.pi / (4.0 * TAU)
    for bracket, end in [((0.3, 0.7), 0.3), ((0.2, 0.9), 0.9)]:
        probe = am.monodromies(am.ConnectionParams(end, chi0, R, TAU))
        res = am.match_y(probe.y.real, R, TAU, chi0, bracket)
        assert res.t == end and res.a == complex(end, -0.0)
        for name in ("X", "Y", "K"):
            assert np.array_equal(getattr(res.result, name), getattr(probe, name))
        assert (res.result.x, res.result.y, res.result.z) == (probe.x, probe.y, probe.z)
        assert res.evaluations == 17


@pytest.mark.parametrize(("bracket", "root"), [((0.05, 1.5), 0.6519), ((1.5, 0.05), 0.9248)])
def test_match_y_takes_the_root_nearest_the_first_end(bracket, root):
    """Ends of one sign do not stop the solve: y = 2 twice on (0.05, 1.5) at tau = 1, around its peak."""
    chi0 = math.pi / (4.0 * TAU)
    res = am.match_y(2.0, R, TAU, chi0, bracket)
    assert abs(res.t - root) <= 1e-4
    assert abs(res.result.y.real - 2.0) <= 1e-9 and res.evaluations == 18


@pytest.mark.parametrize(("tau", "target", "straddle"),
                         [(0.3, 1.55, (0.05, 0.7)), (1.0, 1.8, (0.05, 0.7)),
                          (5.0, 2.0, (0.2, 0.45)), (12.0, 1.8, (0.2, 0.35))])
@pytest.mark.parametrize("bracket", [(0.05, 0.7), (0.05, 1.5)])
def test_match_y_agrees_with_brentq_on_direct_monodromies(tau, target, straddle, bracket):
    """Oracle: scipy's brentq on direct monodromies, xtol 1e-13, over a bracket straddling the first root.

    Re y - target keeps one sign on (bracket[0], straddle[0]) (checked on 16
    points), so the brentq root is the one nearest bracket[0].  Measured worst
    over these cases: |t - t_brentq| 2.0e-10 (tau = 0.3), |Re y - target|
    8.8e-11 (tau = 12).
    """
    optimize = pytest.importorskip("scipy.optimize")
    chi0 = math.pi / (4.0 * tau)

    def f(t):
        return am.monodromies(am.ConnectionParams(t, chi0, R, tau)).y.real - target

    before = [m.y.real - target for m in am.monodromy_batch(
        [am.ConnectionParams(t, chi0, R, tau) for t in np.linspace(bracket[0], straddle[0], 16)])]
    assert all(v * before[0] > 0 for v in before)
    t_brentq = optimize.brentq(f, *straddle, xtol=1e-13)
    res = am.match_y(target, R, tau, chi0, bracket)
    assert abs(res.t - t_brentq) <= 1e-8
    assert abs(res.result.y.real - target) <= 1e-9


def test_match_y_default_budget_covers_a_wide_bracket():
    """(-3, 4) at TAU_MAX resolves at 129 nodes, past MAX_EVALS, and its root is matched."""
    res = am.match_y(1.8, R, am.TAU_MAX, math.pi / (4.0 * am.TAU_MAX), (-3.0, 4.0))
    assert res.evaluations == 129 + 1 > am.MAX_EVALS
    assert -3.0 <= res.t <= 4.0 and abs(res.result.y.real - 1.8) <= 1e-9


@pytest.mark.parametrize(("tau", "bracket", "max_evals", "members"),
                         [(am.TAU_MAX, (-3.0, 4.0), 64, 33), (TAU, (0.05, 0.7), 17, 17)])
def test_match_y_budget_counts_nodes_and_root(monkeypatch, tau, bracket, max_evals, members):
    """A budget below the nodes, or below nodes plus root, raises MaxIterations naming it, before the transport."""
    calls = _count_monodromies(monkeypatch)
    with pytest.raises(am.MaxIterations, match=f"^budget of {max_evals} monodromy evaluations$"):
        am.match_y(1.8, R, tau, math.pi / (4.0 * tau), bracket, max_evals=max_evals)
    assert len(calls) == members


def test_empty_range_transports_one_member(monkeypatch):
    """An empty sweep range or match bracket is one node: one transport, not 17 (nor 2)."""
    calls = _count_monodromies(monkeypatch)
    chi0 = math.pi / (4.0 * TAU)
    res = am.real_locus_sweep(R, TAU, chi0, (0.5, 0.5), 3)
    probe = am.monodromies(am.ConnectionParams(0.5, chi0, R, TAU))
    assert len(calls) == 2 and len(res.rows) == 3 and not any(row.refined for row in res.rows)
    assert all((row.t, row.x, row.y, row.z) == (0.5, probe.x, probe.y, probe.z) for row in res.rows)
    assert am.match_y(probe.y.real, R, TAU, chi0, (0.5, 0.5)).evaluations == 1
    with pytest.raises(am.BracketDoesNotStraddle):
        am.match_y(1.8, R, TAU, chi0, (0.5, 0.5))
    assert len(calls) == 4


def test_both_matchers_return_one_result_type():
    """match_y and match_on_locus both give a MatchResult; on the locus the line parameter t is a."""
    fixed = am.match_y(1.8, R, TAU, math.pi / (4.0 * TAU), (0.05, 0.7))
    on_locus = am.match_on_locus(YSTAR, R, tau_bracket=(2.6, 3.2))
    assert type(fixed) is type(on_locus) is am.MatchResult
    assert (fixed.tau, fixed.a) == (TAU, complex(fixed.t, 0.0))
    assert on_locus.a == complex(on_locus.t, 0.0) and 2.9 < on_locus.tau < 3.0


def test_match_y_bracket_must_straddle():
    """A target the series never reaches, however far, raises BracketDoesNotStraddle naming it."""
    chi0 = math.pi / (4.0 * TAU)
    for target, bracket in [(50.0, (0.1, 0.5)), (1e308, (0.05, 1.5))]:
        with pytest.raises(am.BracketDoesNotStraddle, match="^" + re.escape(f"Re y - {target} has no root")):
            am.match_y(target, R, TAU, chi0, bracket)


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


def test_match_on_locus_stays_in_tau_domain(monkeypatch):
    """A step past TAU_MAX is halved: y = 6 (on the locus at tau ~ 14.4) exhausts the budget."""
    taus = []
    monodromy_batch = am.monodromy_batch

    def spy(stack):
        taus.extend(params.tau for params in stack)
        return monodromy_batch(stack)

    monkeypatch.setattr(am, "monodromy_batch", spy)
    with pytest.raises(am.MaxIterations):
        am.match_on_locus(6.0, R)
    assert len(taus) <= am.MAX_EVALS and max(taus) <= abeldomain.TAU_MAX


def test_match_on_locus_slice_without_graze_point(monkeypatch):
    """A scan past the graze point (a ~ 0.45 at tau = 2) holds no real point: all its batches run."""
    monkeypatch.setattr(am, "GRAZE_SCAN", (1.0, 1.8))
    monkeypatch.setattr(am, "GRAZE_BATCHES", (3, 2))
    calls = _count_monodromies(monkeypatch)
    with pytest.raises(am.BracketDoesNotStraddle):
        am.match_on_locus(YSTAR, R)
    assert calls == np.linspace(1.0, 1.8, 5).tolist()


def test_match_on_locus_stage_budget(monkeypatch):
    """One MAX_EVALS budget covers every stage of the solve, the first scan included."""
    monkeypatch.setattr(am, "MAX_EVALS", 5)
    with pytest.raises(am.MaxIterations):
        am.match_on_locus(YSTAR, R)


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
    """evaluations is the number of member evaluations, finite-difference stencil included."""
    calls = _count_monodromies(monkeypatch)
    res = am.match_on_locus(YSTAR, R, tau_bracket=tau_bracket)
    assert res.evaluations == len(calls) <= 25
    assert 2.9528 < res.tau < 2.9530
    assert abs(complex(res.result.z).imag) <= 1e-10


def test_match_on_locus_batches_points_that_share_tau(monkeypatch):
    """The dodecahedral solve takes at most 9 batches; evaluations counts their members."""
    sizes = []
    monodromy_batch = am.monodromy_batch

    def spy(stack):
        assert len({params.tau for params in stack}) == 1
        sizes.append(len(stack))
        return monodromy_batch(stack)

    monkeypatch.setattr(am, "monodromy_batch", spy)
    res = am.match_on_locus(YSTAR, R, tau_bracket=(2.6, 3.2))
    assert len(sizes) <= 9
    assert res.evaluations == sum(sizes) <= 21
    assert abs(complex(res.result.z).imag) <= am.TOL_IM


@pytest.mark.parametrize(
    "y_target, tau_bracket, serial_evals, tau",
    [
        (2.05, (1.0, 1.2), 50, 1.393192),
        (YSTAR, (1.0, 1.2), 54, 2.952857),
        (2.05, (0.9, 1.1), 58, 1.393192),
        (YSTAR, (0.9, 1.1), 60, 2.952857),
        (3.0, (0.9, 1.1), 54, 5.746428),
        (3.5, (1.0, 1.2), 52, 7.348148),
        (2.6, (12.0, 12.0), 24, 4.308709),
    ],
)
def test_match_on_locus_low_brackets_cost_no_more(y_target, tau_bracket, serial_evals, tau):
    """From the low brackets the solve converges in no more evaluations than the serial solve took.

    The last bracket sits at TAU_MAX: the solve starts at TAU_MAX - h, so
    its first stencil stays in the domain.
    """
    res = am.match_on_locus(y_target, R, tau_bracket=tau_bracket)
    assert res.evaluations <= serial_evals
    assert abs(res.tau - tau) <= 1e-5
    assert abs(complex(res.result.y).real - y_target) <= 1e-6
    assert abs(complex(res.result.z).imag) <= am.TOL_IM


def test_match_on_locus_singular_jacobian(monkeypatch):
    """An exactly singular finite-difference Jacobian raises MaxIterations, not LinAlgError."""
    monodromy_batch = am.monodromy_batch

    def frozen_tau(stack, *args, **kwargs):
        frozen = [am.ConnectionParams(params.a, math.pi / 11.0, R, 2.75) for params in stack]
        return monodromy_batch(frozen, *args, **kwargs)

    monkeypatch.setattr(am, "monodromy_batch", frozen_tau)
    with pytest.raises(am.MaxIterations, match="singular"):
        am.match_on_locus(YSTAR, R)


def test_graze_point_returns_a_real_grid_point():
    """A scan point with |Im z| <= TOL_IM and y > 1 is returned as evaluated, with no secant evaluation.

    Im z is negative before grid[11] and TOL_IM/2 there, so that point both
    ends a bracket and is real: the real point wins, in the second batch.
    """
    grid = np.linspace(*am.GRAZE_SCAN, sum(am.GRAZE_BATCHES))
    batches = []

    def ev(ts):
        batches.append(len(ts))
        return [types.SimpleNamespace(y=2.0 + 0.0j, z=complex(3.0, t - grid[11] if t < grid[11] else am.TOL_IM / 2))
                for t in ts]

    t, m = am._graze_point(ev)
    assert t == grid[11] and m.z.imag == am.TOL_IM / 2
    assert batches == list(am.GRAZE_BATCHES[:2])


def test_match_on_locus_without_a_descent_step(monkeypatch):
    """When no halving of the Newton step decreases |F|, the solve raises MaxIterations naming that.

    Every single-point evaluation after the first stencil reads Im z one
    larger, so all 64 halvings of the first step fail; MAX_EVALS is raised so
    that the halvings, not the budget, run out.
    """
    monodromy_batch = am.monodromy_batch
    stencils = []

    def worse(stack):
        results = monodromy_batch(stack)
        if len(stack) == 2:
            stencils.append(stack)
        elif stencils:
            results = [dataclasses.replace(m, z=m.z + 1j) for m in results]
        return results

    monkeypatch.setattr(am, "monodromy_batch", worse)
    monkeypatch.setattr(am, "MAX_EVALS", 200)
    with pytest.raises(am.MaxIterations, match=r"^no step along the Newton direction decreases \|F\|$"):
        am.match_on_locus(YSTAR, R)
    assert len(stencils) == 1


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


@pytest.mark.parametrize("a, tau, h", [(0.3, 1.0, 1e-16), (0.3, 1.0, 9e-9), (0.3, 4.0, 3e-8)])
def test_jacobian_rejects_step_below_floor(a, tau, h):
    """h below 1e-8 max(1, |a|, tau) is rejected: at h = 1e-16, tau + h rounds to tau."""
    with pytest.raises(am.ParameterOutOfRange):
        am.jacobian_rank(a, tau, R, h=h)


def test_jacobian_smallest_step_agrees_with_default():
    """At the floor h = 1e-8 the Jacobian still agrees with h = 1e-4."""
    fine = am.jacobian_rank(0.3, 1.0, R, h=1e-8)
    coarse = am.jacobian_rank(0.3, 1.0, R, h=1e-4)
    assert np.max(np.abs(fine.jacobian - coarse.jacobian) / np.abs(coarse.jacobian)) < 1e-5


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
