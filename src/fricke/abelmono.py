"""Numerical monodromy of the abelianization family on the punctured torus.

The flat connections treated here live on the rectangular torus
C/(Z + i tau Z) minus the origin and are parametrized by (a, chi, r, tau):
the diagonal part is d + a dw + chi dwbar and its dual, the off-diagonal
entries are doubly periodic Baker-type sections with a simple pole at the
origin whose residues carry the parabolic weight r.  Monodromies along the
two straight generating loops based at (1 + i tau)/4 are computed by
4th-order Magnus parallel transport; the commutator trace then has to be
2 cos(2 pi r) and the trace triple has to satisfy the character equation,
which is what every consumer of this module checks.

Elliptic ingredients (Weierstrass sigma and the quasi-periods) are built
from theta series in the real nome q = exp(-pi tau); the rectangular case
keeps everything real-coefficient and well-conditioned for tau in [0.2, 5].
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra, charvar

TOL_MONO = 1e-6
TOL_ROOT = 1e-6
TOL_IM = 1e-10  # |Im z| below which match_on_locus takes a point as real
TOL_ETA = 1e-12  # eta_case's tolerance on real and imaginary parts
TOL_SLICE = 1e-9  # how far chi0 may lie from an eta-admissible line
RANK_FLOOR = 1e3 * TOL_MONO  # jacobian_rank's floor on the smaller singular value
TRANSPORT_RTOL = 1e-10
TRANSPORT_ATOL = 1e-13
DEFAULT_STEP_BUDGET = 10_000
TAU_MIN, TAU_MAX = 1e-3, 1e3  # the moduli a RectangularLattice is built for

TWO_PI_I = 2j * math.pi


class AbelMonoError(ValueError):
    pass


class ParameterOutOfRange(AbelMonoError):
    """An input (a, chi, r, tau, a section sign, a step, a count) lies outside its domain."""


class NonGenericChi(AbelMonoError):
    """chi is, or is numerically too near, a half-lattice point of the Jacobian."""


class StepLimitExceeded(AbelMonoError):
    pass


class PathTooCloseToPole(AbelMonoError):
    pass


class BracketDoesNotStraddle(AbelMonoError):
    pass


class MaxIterations(AbelMonoError):
    pass


class SlicePreconditionError(AbelMonoError):
    pass


# ---------------------------------------------------------------------------
# Elliptic machinery


class RectangularLattice:
    """Theta-series data for the lattice Z + i tau Z, TAU_MIN <= tau <= TAU_MAX.

    Provides the odd entire function sigma with sigma(w)/w -> 1 at 0 and
    sigma(w + omega_i) = -exp(eta_i (w + omega_i/2)) sigma(w) for the full
    periods omega_1 = 1, omega_2 = i tau.  The quasi-periods satisfy the
    Legendre relation eta_1 omega_2 - eta_2 omega_1 = 2 pi i, which is
    checked at construction against an independent series for eta_2.
    """

    def __init__(self, tau: float):
        if not TAU_MIN <= tau <= TAU_MAX:
            raise ParameterOutOfRange(f"tau must lie in [{TAU_MIN:g}, {TAU_MAX:g}], got {tau}")
        self.tau = float(tau)
        self._odd, self._coef, self._theta1_d0, self.eta1 = _theta_series(self.tau)
        self.eta2 = self.eta1 * (1j * tau) - TWO_PI_I
        self.legendre_residual = abs(
            self.eta1 * (1j * tau) - _theta_series(1.0 / tau)[3] / (1j * tau) - TWO_PI_I
        )
        if not self.legendre_residual <= 1e-10:
            raise AbelMonoError(
                f"Legendre relation residual {self.legendre_residual:.2e} at tau={tau}"
            )

    def theta1(self, v):
        v = np.asarray(v, dtype=complex)
        return np.sin(np.multiply.outer(v, self._odd)) @ self._coef

    def sigma(self, w):
        w = np.asarray(w, dtype=complex)
        return np.exp(0.5 * self.eta1 * w * w) * self.theta1(math.pi * w) / (
            math.pi * self._theta1_d0
        )

    def lattice_distance(self, w):
        w = np.asarray(w, dtype=complex)
        dx = w.real - np.round(w.real)
        dy = w.imag - self.tau * np.round(w.imag / self.tau)
        return np.hypot(dx, dy)


def _theta_series(tau: float):
    """theta1(v) = sum_n coef_n sin(odd_n v) in the nome q = exp(-pi tau), and eta1.

    odd_n = 2n + 1 and coef_n = 2 (-1)^n q^((n+1/2)^2) for
    n < max(6, ceil(sqrt(80/(pi tau)) + 2)), so the first omitted term is
    below exp(-80).  Returns (odd, coef, theta1'(0), eta1) with
    eta1 = -(pi^2/3) theta1'''(0) / theta1'(0).  A theta1'(0) that rounds
    to 0 (the nome underflows, or the alternating series cancels) raises
    AbelMonoError.
    """
    q = math.exp(-math.pi * tau)
    n = np.arange(max(6, int(math.ceil(math.sqrt(80.0 / (math.pi * tau)) + 2))))
    odd = 2.0 * n + 1.0
    coef = 2.0 * (-1.0) ** n * q ** ((n + 0.5) ** 2)
    theta1_d0 = float(np.dot(coef, odd))
    if theta1_d0 == 0.0:
        raise AbelMonoError(f"theta1'(0) rounds to 0 at tau={tau}")
    theta1_d3 = -float(np.dot(coef, odd**3))
    return odd, coef, theta1_d0, -(math.pi**2 / 3.0) * theta1_d3 / theta1_d0


@functools.lru_cache(maxsize=256)
def lattice(tau: float) -> RectangularLattice:
    return RectangularLattice(float(tau))


# ---------------------------------------------------------------------------
# Connection data


@dataclass(frozen=True)
class ConnectionParams:
    a: complex
    chi: complex
    r: float
    tau: float

    def __post_init__(self):
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.chi)):
            raise ParameterOutOfRange("a and chi must be finite")
        if not 0.0 < self.r < 0.5:
            raise ParameterOutOfRange("r must lie in (0, 1/2)")
        if not 0.0 < self.tau < math.inf:
            raise ParameterOutOfRange("tau must be positive and finite")


class BakerSection:
    """Doubly periodic off-diagonal entry with a simple pole at the origin.

    psi(w) = scale * exp(beta w) * sigma(w - p)/sigma(w) * exp(-lam wbar)
    with lam = -2 chi for the + section and +2 chi for the - section.  The
    multiplier equations exp(beta omega_i - eta_i p) = exp(lam conj(omega_i))
    are solved exactly (k = 0 branch), which makes psi literally periodic;
    the residue at the origin is r for either sign, so the quadratic
    residue of the product is r^2.
    """

    def __init__(self, sign: int, chi: complex, r: float, tau: float):
        if sign not in (+1, -1):
            raise ParameterOutOfRange("sign must be +1 or -1")
        lat = lattice(tau)
        lam = -2.0 * complex(chi) if sign == +1 else 2.0 * complex(chi)
        p = -tau * lam / math.pi
        if lat.lattice_distance(p) < 1e-8:
            raise NonGenericChi(
                f"chi = {chi} is (numerically) a half-lattice point of the Jacobian"
            )
        self.lam = lam
        self.p = p
        self.beta = -lam * (lat.eta2 + 1j * tau * lat.eta1) / TWO_PI_I
        self._lat = lat
        self.scale = -r / lat.sigma(p)

    def __call__(self, w, sigma_w=None):
        """psi at w (any array shape); sigma_w = sigma(w) if the caller has it."""
        w = np.asarray(w, dtype=complex)
        if sigma_w is None:
            sigma_w = self._lat.sigma(w)
        return (
            self.scale
            * np.exp(self.beta * w - self.lam * w.conj())
            * self._lat.sigma(w - self.p)
            / sigma_w
        )


class ConnectionForm:
    """The matrix-valued 1-form A_w dw + A_wbar dwbar of the family.

    A_w = [[a, psi_minus],[psi_plus, -a]] has a simple pole at lattice
    points; A_wbar = diag(chi, -chi) is constant.  diagonal_only drops the
    off-diagonal entries (scalar test hook).  Both take w of any array
    shape and return matrices of shape w.shape + (2, 2).
    """

    def __init__(self, params: ConnectionParams, diagonal_only: bool = False):
        self.params = params
        self.lat = lattice(params.tau)
        self.diagonal_only = diagonal_only
        if diagonal_only:
            self.psi_plus = None
            self.psi_minus = None
        else:
            self.psi_plus = BakerSection(+1, params.chi, params.r, params.tau)
            self.psi_minus = BakerSection(-1, params.chi, params.r, params.tau)
        self.a_wbar = np.array([[params.chi, 0.0], [0.0, -params.chi]], dtype=complex)

    def a_w(self, w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros(w.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = self.params.a
        out[..., 1, 1] = -self.params.a
        if not self.diagonal_only:
            sigma_w = self.lat.sigma(w)
            out[..., 0, 1] = self.psi_minus(w, sigma_w)
            out[..., 1, 0] = self.psi_plus(w, sigma_w)
        return out

    def coefficient(self, w, wdot):
        """-(A_w wdot + A_wbar conj(wdot)), the right-hand side matrix of the ODE."""
        wdot = np.asarray(wdot, dtype=complex)[..., None, None]
        return -(self.a_w(w) * wdot + self.a_wbar * wdot.conj())


# ---------------------------------------------------------------------------
# Paths


@dataclass(frozen=True)
class TorusPath:
    """Parametrized path s in [0,1] -> C avoiding the lattice Z + i tau Z.

    point and velocity are applied to arrays of s elementwise; velocity may
    return a scalar when it is constant.
    """

    point: object  # callable s -> w
    velocity: object  # callable s -> dw/ds
    tau: float
    label: str = "path"

    @property
    def delta(self):
        return 0.05 * min(1.0, self.tau)

    def reversed(self):
        return TorusPath(
            lambda s: self.point(1.0 - s),
            lambda s: -self.velocity(1.0 - s),
            self.tau,
            self.label + "^-1",
        )


def basepoint(tau: float) -> complex:
    return (1.0 + 1j * tau) / 4.0


def gamma_x(tau: float) -> TorusPath:
    p0 = basepoint(tau)
    return TorusPath(lambda s: p0 + s, lambda s: 1.0 + 0.0j, tau, "gamma_x")


def gamma_y(tau: float) -> TorusPath:
    p0 = basepoint(tau)
    return TorusPath(lambda s: p0 + 1j * tau * s, lambda s: 1j * tau, tau, "gamma_y")


def gamma_x_wiggled(tau: float, amplitude: float = 0.05, cycles: int = 2) -> TorusPath:
    """A homotopic deformation of gamma_x with the same endpoints."""
    p0 = basepoint(tau)
    k = 2.0 * math.pi * cycles

    def pt(s):
        return p0 + s + 1j * amplitude * np.sin(k * s)

    def vel(s):
        return 1.0 + 1j * amplitude * k * np.cos(k * s)

    return TorusPath(pt, vel, tau, "gamma_x~")


def segment(z0: complex, z1: complex, tau: float, label: str = "segment") -> TorusPath:
    return TorusPath(
        lambda s: z0 + s * (z1 - z0), lambda s: z1 - z0, tau, label
    )


# ---------------------------------------------------------------------------
# Parallel transport (4th-order Magnus on Gauss-Legendre panels)

_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_FIRST_PANELS = 32


@dataclass
class TransportResult:
    matrix: np.ndarray
    det_drift: float
    panels: int
    error_estimate: float


def _magnus_product(form: ConnectionForm, path: TorusPath, n: int) -> np.ndarray:
    """Psi(1) from n equal panels, each advanced by exp of the 4th-order Magnus term.

    On a panel of width h with A1, A2 at its two Gauss nodes,
    Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1]; Omega is traceless, so
    exp Omega = cosh d I + (sinh d / d) Omega with d^2 = Omega00^2 + Omega01 Omega10
    (sinh d / d is sinc(d / (i pi)), which is 1 at d = 0).
    The panel factors are multiplied pairwise, later panels on the left.
    """
    h = 1.0 / n
    s = (np.arange(n)[:, None] + _GAUSS_NODES) * h
    w = path.point(s)
    dist = form.lat.lattice_distance(w)
    if np.min(dist) < path.delta:
        raise PathTooCloseToPole(
            f"{path.label}: point {w.flat[np.argmin(dist)]} within {path.delta} of the lattice"
        )
    coef = form.coefficient(w, path.velocity(s))
    a1, a2 = coef[:, 0], coef[:, 1]
    omega = 0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
    d = np.sqrt(omega[:, 0, 0] ** 2 + omega[:, 0, 1] * omega[:, 1, 0])
    factors = np.sinc(d / (1j * math.pi))[:, None, None] * omega
    factors[:, [0, 1], [0, 1]] += np.cosh(d)[:, None]
    while len(factors) > 1:
        factors = factors[1::2] @ factors[0::2]
    return factors[0]


def parallel_transport(
    form: ConnectionForm, path: TorusPath, steps: int = DEFAULT_STEP_BUDGET
) -> TransportResult:
    """Solve Psi' = -(A_w wdot + A_wbar conj(wdot)) Psi, Psi(0) = Id, over the path.

    The 4th-order Magnus product on N panels is compared with the one on 2N
    panels, from N = 32 on, doubling N until max|P_2N - P_N| / 15 <=
    TRANSPORT_ATOL + TRANSPORT_RTOL max|P_2N|; P_2N is returned.  steps caps
    the panel count, and a non-finite product fails at once.  No
    renormalization is applied; the determinant drift of the result is
    reported.
    """
    n, coarse = _FIRST_PANELS, None
    with np.errstate(all="ignore"):
        while n <= steps:
            fine = _magnus_product(form, path, n)
            if not np.all(np.isfinite(fine)):
                raise StepLimitExceeded(f"{path.label}: non-finite panel product at {n} panels")
            if coarse is not None:
                err = float(np.max(np.abs(fine - coarse))) / 15.0
                if err <= TRANSPORT_ATOL + TRANSPORT_RTOL * float(np.max(np.abs(fine))):
                    return TransportResult(fine, abs(algebra.det(fine) - 1.0), n, err)
            n, coarse = 2 * n, fine
    raise StepLimitExceeded(f"{path.label}: budget of {steps} panels")


# ---------------------------------------------------------------------------
# Monodromies and derived experiments


@dataclass
class MonodromyResult:
    X: np.ndarray
    Y: np.ndarray
    K: np.ndarray
    x: complex
    y: complex
    z: complex
    char_residual: float
    commutator_residual: float
    det_drift: float


def monodromies(params: ConnectionParams, steps: int = DEFAULT_STEP_BUDGET) -> MonodromyResult:
    """Monodromy matrices X, Y along gamma_x, gamma_y and their residuals.

    K = Y^-1 X^-1 Y X is the commutator-loop monodromy (loops composed
    right-to-left); its trace must equal 2 cos(2 pi r), and (x, y, z) must
    satisfy the character equation.  NonGenericChi is raised when the
    condition number max|entry|^2 of X or Y times eps exceeds TOL_MONO.
    """
    form = ConnectionForm(params)
    tx = parallel_transport(form, gamma_x(params.tau), steps)
    ty = parallel_transport(form, gamma_y(params.tau), steps)
    X, Y = tx.matrix, ty.matrix
    kappa = max(algebra.norm_inf(X), algebra.norm_inf(Y)) ** 2
    if kappa * np.finfo(float).eps > TOL_MONO:
        raise NonGenericChi(
            f"chi = {params.chi}: monodromy condition number {kappa:.1e} is beyond double precision"
        )
    K = algebra.commutator(X, Y)
    x = algebra.trace(X)
    y = algebra.trace(Y)
    z = algebra.trace(Y @ X)
    char_res = abs(charvar.fricke_torus_residual(x, y, z, params.r))
    comm_res = abs(algebra.trace(K) - 2.0 * math.cos(2.0 * math.pi * params.r))
    return MonodromyResult(
        X, Y, K, x, y, z, char_res, comm_res, max(tx.det_drift, ty.det_drift)
    )


def eta_case(a, chi, tau: float):
    """Which eta-invariance condition (a, chi) satisfies, as (case, k), or None.

    Case 1: chi, a real.  Case 2: chi + k pi i/2 and a - k pi i/2 real.
    Case 3: chi, a imaginary.  Case 4: chi + k pi/(2 tau) and
    a - k pi/(2 tau) imaginary.
    """
    a = complex(a)
    chi = complex(chi)
    if abs(chi.imag) <= TOL_ETA and abs(a.imag) <= TOL_ETA:
        return (1, 0)
    k = round(-2.0 * chi.imag / math.pi)
    if (
        k != 0
        and abs(chi.imag + k * math.pi / 2.0) <= TOL_ETA
        and abs(a.imag - k * math.pi / 2.0) <= TOL_ETA
    ):
        return (2, k)
    if abs(chi.real) <= TOL_ETA and abs(a.real) <= TOL_ETA:
        return (3, 0)
    k = round(-2.0 * tau * chi.real / math.pi)
    if (
        k != 0
        and abs(chi.real + k * math.pi / (2.0 * tau)) <= TOL_ETA
        and abs(a.real - k * math.pi / (2.0 * tau)) <= TOL_ETA
    ):
        return (4, k)
    return None


def _slice_parametrization(chi0: complex, tau: float):
    """Map t in R to the admissible a-line paired with chi0, or raise.

    For chi0 with Im chi0 in (pi/2) Z the line is a(t) = t - i Im chi0
    (cases 1/2); for Re chi0 in (pi/(2 tau)) Z it is a(t) = -Re chi0 + i t
    (cases 3/4).
    """
    chi0 = complex(chi0)
    k_im = round(2.0 * chi0.imag / math.pi)
    if abs(chi0.imag - k_im * math.pi / 2.0) <= TOL_SLICE:
        return lambda t: complex(t, -chi0.imag)
    k_re = round(2.0 * tau * chi0.real / math.pi)
    if abs(chi0.real - k_re * math.pi / (2.0 * tau)) <= TOL_SLICE:
        return lambda t: complex(-chi0.real, t)
    raise SlicePreconditionError(
        f"chi0 = {chi0} does not lie on an eta-admissible line for tau = {tau}"
    )


@dataclass
class SweepRow:
    t: float
    a: complex
    x: complex
    y: complex
    z: complex
    eta_residual: float
    is_real: bool
    refined: bool = False


@dataclass
class SweepResult:
    rows: list
    r: float
    tau: float
    chi0: complex

    def flagged_real(self):
        return [row for row in self.rows if row.is_real]


def _illinois(f, t_lo, f_lo, t_hi, f_hi, tol):
    """Illinois regula falsi inside a straddling bracket (f_lo * f_hi < 0).

    f(t) returns (value, payload) and owns the evaluation budget; the first
    t with |value| <= tol is returned with its payload.  Halving the value
    kept at the stale end after two steps on the same side makes the
    convergence superlinear; a secant point that rounds onto the bracket
    falls back to the midpoint.
    """
    side = 0
    while True:
        t_new = (t_lo * f_hi - t_hi * f_lo) / (f_hi - f_lo)
        if not min(t_lo, t_hi) < t_new < max(t_lo, t_hi):
            t_new = 0.5 * (t_lo + t_hi)
        f_new, res_new = f(t_new)
        if abs(f_new) <= tol:
            return t_new, res_new
        if f_lo * f_new < 0:
            t_hi, f_hi = t_new, f_new
            if side == -1:
                f_lo *= 0.5
            side = -1
        else:
            t_lo, f_lo = t_new, f_new
            if side == +1:
                f_hi *= 0.5
            side = +1


def real_locus_sweep(
    r: float,
    tau: float,
    chi0: complex,
    a_range=(0.05, 2.0),
    n: int = 60,
    tol: float = TOL_MONO,
    refine: bool = True,
    steps: int = DEFAULT_STEP_BUDGET,
) -> SweepResult:
    """Sweep a along the admissible line through chi0, flagging real points.

    Rows carry (a, x, y, z, eta-locus residual, real flag) in the order of
    the line parameter t.  The real locus meets a fixed-tau slice in
    isolated points, so where Im z changes sign between two samples that
    are not flagged real, Illinois closes the crossing to |Im z| <= tol and
    the point is inserted as a refined row; a crossing that 48 evaluations
    do not close adds no row.
    """
    if n < 1:
        raise ParameterOutOfRange(f"a sweep needs n >= 1 samples, got {n}")
    line = _slice_parametrization(chi0, tau)

    def evaluate(t):
        res = monodromies(ConnectionParams(line(t), chi0, r, tau), steps)
        return SweepRow(
            t,
            line(t),
            res.x,
            res.y,
            res.z,
            charvar.eta_locus_residual(complex(res.x).real, complex(res.y).real, r),
            abs(complex(res.z).imag) <= tol,
        )

    def crossing_row(lo, hi):
        evals = 0

        def im_z(t):
            nonlocal evals
            evals += 1
            if evals > 48:
                raise MaxIterations("crossing not closed in 48 evaluations")
            row = evaluate(t)
            return complex(row.z).imag, row

        try:
            _t, row = _illinois(im_z, lo.t, complex(lo.z).imag, hi.t, complex(hi.z).imag, tol)
        except MaxIterations:
            return None
        row.refined = True
        return row

    rows = [evaluate(t) for t in np.linspace(a_range[0], a_range[1], n)]
    if refine:
        crossings = [
            crossing_row(lo, hi)
            for lo, hi in zip(rows, rows[1:])
            if not (lo.is_real or hi.is_real) and complex(lo.z).imag * complex(hi.z).imag < 0
        ]
        rows = sorted(rows + [row for row in crossings if row], key=lambda row: row.t)
    return SweepResult(rows, r, tau, chi0)


def _require_finite(*values):
    if not all(math.isfinite(v) for v in values):
        raise ParameterOutOfRange(f"target and bracket must be finite, got {values}")


@dataclass
class MatchResult:
    a: complex
    t: float
    result: MonodromyResult
    evaluations: int


def match_y(
    y_target: float,
    r: float,
    tau: float,
    chi0: complex,
    bracket,
    tol_root: float = TOL_ROOT,
    max_evals: int = 60,
    steps: int = DEFAULT_STEP_BUDGET,
) -> MatchResult:
    """Root-find a on the admissible slice so that tr Y matches y_target.

    Safeguarded secant (Illinois) inside a straddling bracket; the
    returned monodromy satisfies |Re y - y_target| <= tol_root.
    """
    _require_finite(y_target, *bracket)
    line = _slice_parametrization(chi0, tau)
    evals = 0

    def g(t):
        nonlocal evals
        if evals >= max_evals:
            raise MaxIterations(f"budget of {max_evals} monodromy evaluations")
        evals += 1
        res = monodromies(ConnectionParams(line(t), chi0, r, tau), steps)
        return complex(res.y).real - y_target, res

    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    f_lo, res_lo = g(t_lo)
    if abs(f_lo) <= tol_root:
        return MatchResult(line(t_lo), t_lo, res_lo, evals)
    f_hi, res_hi = g(t_hi)
    if abs(f_hi) <= tol_root:
        return MatchResult(line(t_hi), t_hi, res_hi, evals)
    if f_lo * f_hi > 0:
        raise BracketDoesNotStraddle(
            f"y - y* has the same sign at both bracket ends ({f_lo:+.3e}, {f_hi:+.3e})"
        )
    t, res = _illinois(g, t_lo, f_lo, t_hi, f_hi, tol_root)
    return MatchResult(line(t), t, res, evals)


@dataclass
class LocusMatchResult:
    tau: float
    a: complex
    result: MonodromyResult
    evaluations: int


def _on_slice(a, tau, r, steps) -> MonodromyResult:
    """Monodromies at a on the trivializing slice chi0 = pi/(4 tau)."""
    return monodromies(ConnectionParams(a, math.pi / (4.0 * tau), r, tau), steps)


def _graze_point(ev, a_scan, n_scan):
    """Locate the isolated real point (Im z sign change) on a fixed-tau slice.

    ev(t) returns (Im z, monodromy) at a = t.  n_scan points of a_scan are
    scanned from its start; points where y <= 1 neither end a bracket nor
    count as real.  Illinois closes the first bracket to |Im z| <= TOL_IM.
    Returns (t, monodromy).
    """
    t0 = f0 = None
    for t in np.linspace(a_scan[0], a_scan[1], n_scan):
        f, m = ev(t)
        if complex(m.y).real > 1.0:
            if abs(f) <= TOL_IM:
                return t, m
            if f0 is not None and f0 * f < 0:
                return _illinois(ev, t0, f0, t, f, TOL_IM)
        t0, f0 = t, f
    raise BracketDoesNotStraddle(f"no real point found on the slice over a in {a_scan}")


def match_on_locus(
    y_target: float,
    r: float,
    tau_bracket=(2.0, 3.5),
    a_scan=(0.02, 1.8),
    n_scan: int = 30,
    tol_root: float = TOL_ROOT,
    max_evals: int = 60,
    steps: int = DEFAULT_STEP_BUDGET,
) -> LocusMatchResult:
    """Match tr Y on the real locus itself by moving the modulus tau.

    The trivializing slice chi0 = pi/(4 tau) meets the real locus in one
    point per tau, and tr Y is a global coordinate on the locus, so the
    matched point is a regular root of F(a, tau) = (Im z, Re y - y_target).
    The dodecahedral representation is recovered at y_target =
    sqrt(3 + sqrt 5) with r = 1/10.

    Newton on (a, tau) starts from the graze point that a scan of a_scan
    finds at the midpoint of tau_bracket (which does not confine tau).  Its
    Jacobian takes forward differences with step 1e-6; each step is halved
    until a lies in a_scan, tau >= 0.1, Re y > 1 and |F| decreases.  Every
    monodromy evaluation, stencil points included, counts against
    max_evals; exhausting it or a singular Jacobian raises MaxIterations.
    The dodecahedral solve takes 21 evaluations.
    """
    _require_finite(y_target, *tau_bracket)
    evals = 0

    def ev(a, tau):
        nonlocal evals
        if evals >= max_evals:
            raise MaxIterations(f"budget of {max_evals} monodromy evaluations")
        evals += 1
        m = _on_slice(a, tau, r, steps)
        return complex(m.z).imag, m

    def residual(m):
        return np.array([complex(m.z).imag, complex(m.y).real - y_target])

    tau = 0.5 * (float(tau_bracket[0]) + float(tau_bracket[1]))
    a, m = _graze_point(lambda t: ev(t, tau), a_scan, n_scan)
    f, h = residual(m), 1e-6
    while abs(f[0]) > TOL_IM or abs(f[1]) > tol_root:
        stencil = [residual(ev(a + h, tau)[1]), residual(ev(a, tau + h)[1])]
        jac = (np.column_stack(stencil) - f[:, None]) / h
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            raise MaxIterations("singular finite-difference Jacobian") from None
        for halvings in range(64):
            a_new, tau_new = (a, tau) + step / 2**halvings
            if a_scan[0] <= a_new <= a_scan[1] and tau_new >= 0.1:
                m_new = ev(a_new, tau_new)[1]
                f_new = residual(m_new)
                if complex(m_new.y).real > 1.0 and np.linalg.norm(f_new) < np.linalg.norm(f):
                    break
        else:
            raise MaxIterations("no step along the Newton direction decreases |F|")
        a, tau, m, f = float(a_new), float(tau_new), m_new, f_new
    return LocusMatchResult(tau, complex(a, 0.0), m, evals)


@dataclass
class JacobianResult:
    jacobian: np.ndarray
    singular_values: tuple
    rank: int
    step: float


def jacobian_rank(
    a: float,
    tau: float,
    r: float,
    h: float = 1e-4,
    steps: int = DEFAULT_STEP_BUDGET,
) -> JacobianResult:
    """Finite-difference Jacobian of (a, tau) -> (x, y) on the slice chi0 = pi/(4 tau).

    Rank 2 is declared when the smaller singular value exceeds RANK_FLOOR.
    The excluded center a0 = -pi/(4 tau) must be at distance >= 0.05.
    """
    if not 0.0 < h < math.inf:
        raise ParameterOutOfRange("finite-difference step h must be positive and finite")
    if abs(a - (-math.pi / (4.0 * tau))) < 0.05:
        raise SlicePreconditionError(
            "a is within 0.05 of the excluded point -pi/(4 tau)"
        )

    def xy(a_val, tau_val):
        res = _on_slice(a_val, tau_val, r, steps)
        return np.array([complex(res.x).real, complex(res.y).real])

    col_a = (xy(a + h, tau) - xy(a - h, tau)) / (2.0 * h)
    col_tau = (xy(a, tau + h) - xy(a, tau - h)) / (2.0 * h)
    jac = np.column_stack([col_a, col_tau])
    svals = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.sum(svals > RANK_FLOOR))
    return JacobianResult(jac, (float(svals[0]), float(svals[1])), rank, h)
