"""Numerical monodromy of the abelianization family on the punctured torus.

The flat connections treated here live on the rectangular torus
C/(Z + i tau Z) minus the origin and are parametrized by (a, chi, r, tau):
the diagonal part is d + a dw + chi dwbar and its dual, the off-diagonal
entries are doubly periodic Baker-type sections with a simple pole at the
origin whose residues carry the parabolic weight r.  Monodromies along the
two straight generating loops based at (1 + i tau)/4 are computed by
6th-order Magnus parallel transport on three-node Gauss panels; the
commutator trace then has to be 2 cos(2 pi r) and the trace triple has to
satisfy the character equation, which is what every consumer of this
module checks.

The Baker sections are built from theta1 alone, as a series in the real
nome q = exp(-pi tau), real-coefficient for tau in [TAU_MIN, TAU_MAX].
The series is separable: with z = exp(i pi w), sin(odd_n pi (w - s)) mixes
z^odd_n and z^-odd_n, so theta1 at w, w - p and w + p costs one exp per
point, a running product of powers and two small matrix products.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass

import numpy as np

from . import algebra, charvar
# abelmono.<name> stays valid for every error class, tolerance, tau bound and check_tau
from .abeldomain import (TAU_MAX, TAU_MIN, TOL_MONO, TOL_ROOT, AbelMonoError,
                         BracketDoesNotStraddle, MaxIterations, NonGenericChi,
                         ParameterOutOfRange, PathTooCloseToPole, SlicePreconditionError,
                         StepLimitExceeded, check_tau)

TOL_IM = 1e-10  # |Im z| below which match_on_locus takes a point as real
TOL_SLICE = 1e-9  # how far chi0 may lie from an eta-admissible line
RANK_FLOOR = 1e3 * TOL_MONO  # jacobian_rank's floor on the smaller singular value
TRANSPORT_RTOL = 1e-10
TRANSPORT_ATOL = 1e-13
PANEL_BUDGET = 10_000  # panels per loop past which parallel_transport gives up
MAX_EVALS = 60  # monodromy evaluations per match_on_locus solve
BATCH_CHUNK = 32  # a values transported in one array by monodromy_batch
# The most samples real_locus_sweep takes (locus --n), an input check: the samples
# are series values, so a CLI sweep took 0.16 s at 600 samples (2-vCPU x86 host,
# interpreter start included), 0.18 s at 3000 and 0.24 s at 10000.
MAX_SWEEP_POINTS = 10_000
# The most Chebyshev nodes _slice_series transports for one range.  The widest
# range the condition gate lets through at TAU_MAX, a in (-11, 11) on the slice
# chi0 = pi/(4 tau) (a = +-11.5 fails it), resolves at exactly 257 nodes (0.45 s).
MAX_SWEEP_NODES = 257
GRAZE_SCAN, GRAZE_BATCHES = (0.02, 1.8), (8, 8, 8, 6)  # match_on_locus's graze-point scan over a


# ---------------------------------------------------------------------------
# Elliptic machinery


class RectangularLattice:
    """Theta-series data for the lattice Z + i tau Z, TAU_MIN <= tau <= TAU_MAX.

    theta1(w, shifts) is the series at pi (w - s) for several shifts in one
    pass of the separable kernel.  The quasi-period eta1 is checked at
    construction through Legendre's relation eta1 i tau - eta2 = 2 pi i,
    with eta2 from the independent series at 1/tau.  The series holds for
    |Im(w - s)| <= reach = tau (N + 1/2 - sqrt(36/(pi tau))) with N terms:
    there the first omitted term is below exp(-36) times the largest.
    """

    def __init__(self, tau: float):
        check_tau(tau)
        self.tau = float(tau)
        self._odd, self._coef, self._theta1_d0, self.eta1 = _theta_series(self.tau)
        self.reach = self.tau * (self._odd.size + 0.5 - math.sqrt(36.0 / (math.pi * self.tau)))
        self.legendre_residual = abs(
            self.eta1 * (1j * tau) - _theta_series(1.0 / tau)[3] / (1j * tau) - 2j * math.pi
        )
        if not self.legendre_residual <= 1e-10:
            raise AbelMonoError(
                f"Legendre relation residual {self.legendre_residual:.2e} at tau={tau}"
            )

    def theta1(self, w, shifts):
        """theta1(pi (w - s)) for each s in shifts, stacked on a new last axis.

        With z = exp(i pi w) and F_n = exp(i pi odd_n s),
        sin(odd_n pi (w - s)) = (z^odd_n / F_n - F_n / z^odd_n) / 2i
        (DLMF 20.2.1): one exp per w, a running product for the odd powers
        of z, their reciprocals, and two (w x terms) @ (terms x shifts)
        products with coef_n / F_n and coef_n F_n as the columns.  The growth
        of the sine in Im(w - s) is split between z^-odd_n and F_n, so where
        the sine itself would overflow a term stays finite, or is 0 once
        coef_n F_n underflows.
        """
        z = np.exp(1j * math.pi * np.asarray(w, dtype=complex))[..., None]
        powers = np.repeat(z * z, self._odd.size, axis=-1)
        powers[..., :1] = z
        np.cumprod(powers, axis=-1, out=powers)
        arg = 1j * math.pi * np.multiply.outer(self._odd, shifts)
        half = (self._coef / 2j)[:, None]
        return powers @ (half * np.exp(-arg)) - (1.0 / powers) @ (half * np.exp(arg))

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


# ---------------------------------------------------------------------------
# Connection data


@dataclass(frozen=True)
class ConnectionParams:
    a: complex
    chi: complex
    r: float
    tau: float

    def __post_init__(self):
        check_tau(self.tau)
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.chi)):
            raise ParameterOutOfRange("a and chi must be finite")
        if not 0.0 < self.r < 0.5:
            raise ParameterOutOfRange("r must lie in (0, 1/2)")


class ConnectionForm:
    """The matrix-valued 1-form A_w dw + A_wbar dwbar of the family.

    A_w = [[a, psi_-],[psi_+, -a]] has a simple pole at lattice points;
    A_wbar = diag(chi, -chi) is constant.  The off-diagonal entries are one
    doubly periodic Baker-type section taken at chi and at -chi:
    psi_+-(w) = +-scale exp(+-lam (w - wbar)) theta1(pi (w -+ p))/theta1(pi w),
    with lam = -2 chi, p = -tau lam/pi and scale = -r pi theta1'(0)/theta1(pi p);
    lam, p and scale all change sign with chi.  Both sections are doubly
    periodic (the theta1 ratio gains exp(+-2 pi i p) over i tau, which
    exp(+-lam (w - wbar)) undoes) and both residues at the origin are r, so the
    quadratic residue of the product is r^2.  coefficient evaluates them
    with one theta1 call and one further exp per node.

    Each form builds its own lattice lat, and lam, p and scale, and checks
    its input: chi at a half-lattice point, or with theta1(pi p) not finite
    or 0 in double precision, raises NonGenericChi; an |Im chi| that takes
    gamma_y past the theta series' reach raises ParameterOutOfRange.
    Nothing is kept between forms or calls.

    params may also be a list of ConnectionParams that share (chi, r, tau):
    a stack along a.  The ndarray a is 0-d for one ConnectionParams and 1-D
    for a list; coefficient takes w of any shape and returns the sl(2)
    coordinates (C00, C01, C10) stacked on axis 0, shape
    (3,) + a.shape + w.shape, with psi_+- evaluated once for all members
    (nothing but C00 depends on a).  Members leave the stack:
    parallel_transport takes each later level through a copy of the form
    over the members still open.
    """

    def __init__(self, params: ConnectionParams | list):
        stacked = isinstance(params, list)
        stack = params if stacked else [params]
        params = stack[0]
        if any((p.chi, p.r, p.tau) != (params.chi, params.r, params.tau) for p in stack):
            raise ParameterOutOfRange("a stack of connections must share chi, r and tau")
        self.a = np.array([p.a for p in stack] if stacked else params.a, dtype=complex)
        self.chi = chi = complex(params.chi)
        tau = float(params.tau)
        self.lat = lat = RectangularLattice(tau)
        self.lam = -2.0 * chi
        self.p = -tau * self.lam / math.pi
        if lat.lattice_distance(self.p) < 1e-8:
            raise NonGenericChi(f"chi = {chi} is (numerically) a half-lattice point of the Jacobian")
        if abs(self.p.imag) + 1.25 * tau > lat.reach:  # 5 tau/4: the top of gamma_y
            raise ParameterOutOfRange(
                f"chi = {chi}: |Im chi| is past the theta series' reach at tau = {tau}"
            )
        with np.errstate(all="ignore"):  # high up the reach at large tau it overflows: refused below
            theta_p = lat.theta1(self.p, [0.0])[0]
        if not (cmath.isfinite(theta_p) and theta_p != 0.0):
            raise NonGenericChi(f"chi = {chi}: theta1(pi p) = {theta_p} is beyond double precision")
        self.scale = -float(params.r) * math.pi * lat._theta1_d0 / theta_p

    def coefficient(self, w, wdot):
        """-(A_w wdot + A_wbar conj(wdot)), the traceless right-hand side of the ODE.

        Returned as its sl(2) coordinates (C00, C01, C10) = (-(a wdot + chi
        conj(wdot)), -psi_- wdot, -psi_+ wdot) on axis 0, with C00 built per
        member (a's axes, then the node axes) and psi_+- from one theta1 call.
        """
        w = np.asarray(w, dtype=complex)
        wdot = np.asarray(wdot, dtype=complex)
        theta = self.lat.theta1(w, [0.0, self.p, -self.p])
        theta_w, theta_minus, theta_plus = theta[..., 0], theta[..., 1], theta[..., 2]
        scale = self.scale / theta_w * wdot
        phase = np.exp(2j * self.lam * w.imag)
        c01, c10 = scale / phase * theta_plus, -scale * phase * theta_minus
        a = self.a.reshape(self.a.shape + (1,) * c01.ndim)
        c00 = -(a * wdot + self.chi * wdot.conj())
        x = np.empty((3,) + np.broadcast_shapes(c00.shape, c01.shape), dtype=complex)
        x[0], x[1], x[2] = c00, c01, c10
        return x


# ---------------------------------------------------------------------------
# Paths


@dataclass(frozen=True)
class TorusPath:
    """The loop s in [0,1] -> basepoint(tau) + step s + i amplitude sin(2 pi cycles s).

    A value: equal fields make the same loop.  point and velocity act on
    arrays of s; velocity is the constant step when amplitude is 0.
    """

    tau: float
    label: str
    step: complex
    amplitude: float
    cycles: int

    @property
    def delta(self):
        return 0.05 * min(1.0, self.tau)

    def point(self, s):
        w = basepoint(self.tau) + self.step * s
        return w + 1j * self.amplitude * np.sin(2.0 * math.pi * self.cycles * s) if self.amplitude else w

    def velocity(self, s):
        k = 2.0 * math.pi * self.cycles
        return self.step + 1j * self.amplitude * k * np.cos(k * s) if self.amplitude else self.step


def basepoint(tau: float) -> complex:
    return (1.0 + 1j * tau) / 4.0


def gamma_x(tau: float) -> TorusPath:
    return TorusPath(tau, "gamma_x", 1.0 + 0.0j, 0.0, 0)


def gamma_y(tau: float) -> TorusPath:
    return TorusPath(tau, "gamma_y", 1j * tau, 0.0, 0)


def gamma_x_wiggled(tau: float, amplitude: float, cycles: int) -> TorusPath:
    """A homotopic deformation of gamma_x with the same endpoints."""
    return TorusPath(tau, "gamma_x~", 1.0 + 0.0j, amplitude, cycles)


# ---------------------------------------------------------------------------
# Parallel transport (6th-order Magnus on Gauss-Legendre panels)

_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
_FIRST_PANELS = 16


@dataclass
class TransportResult:
    matrix: np.ndarray
    det_drift: float
    panels: int
    error_estimate: float


def _bracket(x, y):
    """[X, Y] of traceless 2x2 matrices stored as (X00, X01, X10) along axis 0."""
    return np.stack([x[1] * y[2] - x[2] * y[1], 2.0 * (x[0] * y[1] - x[1] * y[0]),
                     2.0 * (x[2] * y[0] - x[0] * y[2])])


def _magnus_product(form: ConnectionForm, paths: list, levels: tuple) -> list:
    """Psi(1) along each path on n equal panels per n of levels, by a 6th-order Magnus step per panel.

    On a panel of width h with A1, A2, A3 at its three Gauss nodes
    (Blanes, Casas and Ros, BIT 40, 2000): alpha1 = h A2,
    alpha2 = (sqrt(15) h/3)(A3 - A1), alpha3 = (10 h/3)(A3 - 2 A2 + A1),
    C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1]/60 and
    Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.
    Every term is traceless, so the A_k are sl(2) coordinates (A00, A01, A10),
    the brackets act on them, and
    exp Omega = cosh d I + (sinh d / d) Omega with d^2 = Omega00^2 + Omega01 Omega10
    (sinh d / d is sinc(d / (i pi)), which is 1 at d = 0).  The paths' nodes
    are stacked on a leading loop axis and the levels' panels are
    concatenated on the panel axis, each with its own h, so one Magnus pass
    covers every (member, loop, level).  Every pass is pole-checked
    (PathTooCloseToPole) and takes every A_k from one form.coefficient
    call.  Each level's panel factors are then multiplied
    pairwise, later panels on the left, as L[:, :1] R[:1] + L[:, 1:] R[1:] over
    the whole array (a stacked matmul hands BLAS one 2x2 product at a time).
    Returns one product array per level, in the order of levels, of shape
    form.a.shape + (len(paths), 2, 2): one product per member and loop.
    """
    h = np.concatenate([np.full(n, 1.0 / n) for n in levels])
    s = np.concatenate([(np.arange(n) + _GAUSS_NODES[:, None]) * (1.0 / n) for n in levels],
                       axis=-1)  # each node set contiguous
    w = np.stack([path.point(s) for path in paths])
    dist = form.lat.lattice_distance(w)
    near = np.min(dist, axis=(1, 2)) < [path.delta for path in paths]
    if near.any():
        k = int(np.argmax(near))
        raise PathTooCloseToPole(
            f"{paths[k].label}: point {w[k].flat[np.argmin(dist[k])]} within {paths[k].delta} of the lattice"
        )
    wdot = np.stack([np.broadcast_to(path.velocity(s), s.shape) for path in paths])
    x = form.coefficient(w, wdot)
    a1, a2, a3 = x[..., 0, :], x[..., 1, :], x[..., 2, :]
    alpha1 = h * a2
    alpha2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
    alpha3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = _bracket(alpha1, alpha2)
    c2 = _bracket(alpha1, 2.0 * alpha3 + c1) / -60.0
    omega = alpha1 + alpha3 / 12.0 + _bracket(c1 - 20.0 * alpha1 - alpha3, alpha2 + c2) / 240.0
    o0, o1, o2 = omega
    d = np.sqrt(o0 * o0 + o1 * o2)
    cosh, sinc = np.cosh(d), np.sinc(d / (1j * math.pi))
    factors = np.stack([cosh + sinc * o0, sinc * o1, sinc * o2, cosh - sinc * o0], axis=-1)
    products = []
    for product in np.split(factors.reshape(o0.shape + (2, 2)), np.cumsum(levels)[:-1], axis=-3):
        while product.shape[-3] > 1:
            left, right = product[..., 1::2, :, :], product[..., 0::2, :, :]
            product = left[..., :, :1] * right[..., :1, :] + left[..., :, 1:] * right[..., 1:, :]
        products.append(product[..., 0, :, :])
    return products


def parallel_transport(form: ConnectionForm, paths: TorusPath | tuple) -> TransportResult | list | tuple:
    """Solve Psi' = -(A_w wdot + A_wbar conj(wdot)) Psi, Psi(0) = Id, over each path.

    The 6th-order Magnus product on N panels is compared with the one on 2N
    panels, from N = 16 on (below that the error does not yet fall as N^-6),
    doubling N until max|P_2N - P_N| / 63 <= TRANSPORT_ATOL + TRANSPORT_RTOL
    max|P_2N|; P_2N is returned.  PANEL_BUDGET caps the panel count, and a
    non-finite product fails at once.  No renormalization is applied; the
    determinant drift of the result is reported.

    paths is one TorusPath or a tuple of them.  A form over a stack (1-D
    form.a) gives a list of results per path, one per member; a 0-d form
    gives one TransportResult per path.  A tuple gives a tuple of those, in
    its order.  The first pass evaluates 16 and 32 panels in one
    _magnus_product call (16 panels are only ever the coarse side of a
    comparison), each later pass the next level alone; each level is tested
    as one (open paths, live members) array.  A pair keeps the product of
    the level at which it first passed its own test, so its entry equals the
    result for that path alone and a form over that member alone.  A path
    whose members have all passed leaves the array, and so does a member
    that has passed on every open path: the next pass takes a copy of the
    form over the live members' a (no copy while nobody leaves).  A path at
    another tau than the form's raises ParameterOutOfRange before any pass,
    one within its delta of the lattice at any node of a pass
    PathTooCloseToPole before it is tested.  For the whole call, a
    non-finite product of an open (member, path) raises NonGenericChi naming
    chi and the first such member's a and first such path, the budget
    StepLimitExceeded naming the first open path.
    """
    several = isinstance(paths, tuple)
    paths = paths if several else (paths,)
    for path in paths:
        if path.tau != form.lat.tau:
            raise ParameterOutOfRange(f"{path.label}: a loop at tau = {path.tau}, not {form.lat.tau}")
    out = [[None] * form.a.size for _ in paths]
    live, loops, members = form, np.arange(len(paths)), np.arange(form.a.size)  # what the next pass carries
    todo = np.ones((loops.size, members.size), dtype=bool)  # its open (loop, member) pairs
    n, pending, coarse = _FIRST_PANELS, [], None
    with np.errstate(all="ignore"):
        while todo.size:
            if n > PANEL_BUDGET:
                raise StepLimitExceeded(f"{paths[loops[0]].label}: budget of {PANEL_BUDGET} panels")
            if not pending:
                levels = (n,) if coarse is not None else (n, 2 * n)
                pending = _magnus_product(live, [paths[k] for k in loops], levels)
            fine = np.moveaxis(pending.pop(0).reshape(-1, len(loops), 2, 2), 1, 0)
            failed = todo & ~np.all(np.isfinite(fine), axis=(2, 3))
            if failed.any():
                i, k = divmod(int(np.argmax(failed.T)), len(loops))  # the first failing member, then loop
                raise NonGenericChi(f"chi = {form.chi}, a = {complex(live.a.flat[i])}: {paths[loops[k]].label}:"
                                    f" non-finite panel product at {n} panels:"
                                    " the monodromy is beyond double precision")
            if coarse is not None:
                err = np.max(np.abs(fine - coarse), axis=(2, 3)) / 63.0
                tol = TRANSPORT_ATOL + TRANSPORT_RTOL * np.max(np.abs(fine), axis=(2, 3))
                passed = todo & (err <= tol)
                for j, i in zip(*np.nonzero(passed)):
                    p = fine[j, i]
                    out[loops[j]][members[i]] = TransportResult(p, abs(algebra.det(p) - 1.0), n, float(err[j, i]))
                if passed.any():  # retire the loops, then the members, that have no open pair left
                    todo &= ~passed
                    if not (keep := todo.any(axis=1)).all():
                        loops, todo, fine = loops[keep], todo[keep], fine[keep]
                    if todo.size and not (keep := todo.any(axis=0)).all():
                        members, todo, fine = members[keep], todo[:, keep], fine[:, keep]
                        live = copy.copy(live)
                        live.a = live.a[keep]
            coarse = fine
            n *= 2
    results = tuple(row if form.a.ndim else row[0] for row in out)
    return results if several else results[0]


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
    panels: tuple  # transport panel counts along (gamma_x, gamma_y)
    error_estimate: tuple  # transport error estimates along (gamma_x, gamma_y)


def monodromies(params: ConnectionParams) -> MonodromyResult:
    """Monodromy matrices X, Y along gamma_x, gamma_y and their residuals.

    K = Y^-1 X^-1 Y X is the commutator-loop monodromy (loops composed
    right-to-left); its trace must equal 2 cos(2 pi r), and (x, y, z) must
    satisfy the character equation: one check reported twice, as Fricke's
    identity tr K = x^2 + y^2 + z^2 - xyz - 2 holds for det X = det Y = 1.
    NonGenericChi is raised when the condition number max|entry|^2 of X or
    Y times eps exceeds TOL_MONO, or a panel product overflows: near a
    half-lattice chi or at a large |a|.
    This is monodromy_batch on a batch of one.
    """
    return monodromy_batch([params])[0]


def monodromy_batch(stack: list) -> list:
    """monodromies for every ConnectionParams of stack; all share (chi, r, tau).

    BATCH_CHUNK members at a time go through one stacked ConnectionForm and
    one parallel_transport call over (gamma_x, gamma_y): one pass per level
    (the first covers 16 and 32 panels) for the loops still open, carrying
    only the members still open on one of them.  Each chunk builds its own
    form, so the Baker sections are evaluated once per (chunk, open loops,
    level), and again by every later call.  Every member's result,
    panel counts included, equals its batch of one.  When a chunk's
    transport fails, its members are run again one at a time, so the error
    raised is the one the first failing member raises alone.  BATCH_CHUNK,
    read here alone, sets speed and memory: no result or error depends on it.
    """
    results = []
    for start in range(0, len(stack), BATCH_CHUNK):
        chunk = stack[start : start + BATCH_CHUNK]
        tau = chunk[0].tau
        form = ConnectionForm(chunk)
        try:
            tx, ty = parallel_transport(form, (gamma_x(tau), gamma_y(tau)))
        except (NonGenericChi, StepLimitExceeded):  # the transport errors that depend on the member
            if len(chunk) > 1:
                for params in chunk:
                    monodromies(params)
            raise
        results.extend(map(_monodromy_result, chunk, tx, ty))
    return results


def _monodromy_result(params, tx: TransportResult, ty: TransportResult) -> MonodromyResult:
    X, Y = (algebra.Mat2(*t.matrix.ravel().tolist()) for t in (tx, ty))
    norm = max(math.hypot(e.real, e.imag) for e in (*X, *Y))  # abs(e) raises OverflowError past DBL_MAX
    kappa = norm * norm  # inf, not OverflowError, past ~1.3e154
    if kappa * np.finfo(float).eps > TOL_MONO:
        raise NonGenericChi(f"chi = {complex(params.chi)}, a = {complex(params.a)}: monodromy condition"
                            f" number {kappa:.1e} is beyond double precision")
    K = algebra.inverse(Y) @ algebra.inverse(X) @ Y @ X
    x, y, z = charvar.traces_of_pair(X, Y).astuple()
    char_res = abs(charvar.fricke_torus_residual(x, y, z, params.r))
    comm_res = abs(algebra.trace(K) - 2.0 * math.cos(2.0 * math.pi * params.r))
    return MonodromyResult(
        tx.matrix, ty.matrix, np.array([[K.a, K.b], [K.c, K.d]]), x, y, z, char_res, comm_res,
        max(tx.det_drift, ty.det_drift), (tx.panels, ty.panels), (tx.error_estimate, ty.error_estimate),
    )


def _slice_parametrization(chi0: complex, tau: float):
    """Map t in R to the admissible a-line paired with chi0, or raise.

    For chi0 with Im chi0 in (pi/2) Z the line is a(t) = t - i Im chi0
    (eta cases 1/2: chi0 and a real after a shift by k pi i/2); for
    Re chi0 in (pi/(2 tau)) Z it is a(t) = -Re chi0 + i t (cases 3/4:
    imaginary after a shift by k pi/(2 tau)).
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
    refined: bool


@dataclass
class SweepResult:
    rows: list
    r: float

    def flagged_real(self):
        return [row for row in self.rows if row.is_real]


def _lobatto(degree: int):
    """cos(pi j / degree) for j = 0..degree: the Chebyshev-Lobatto points, from 1 down to -1."""
    return np.cos(math.pi / degree * np.arange(degree + 1))


def _chebyshev_coefficients(values):
    """Coefficients c_k of sum c_k T_k through values (rows) at _lobatto(len(values) - 1).

    A DCT-I written as one cosine-matrix product: c_k = (2/N) sum'' f_j
    cos(pi j k / N), halved at k = 0 and k = N (the double prime halves the
    terms j = 0 and j = N).  jk is reduced mod 2N so every angle is in [0, 2 pi).
    The product is an einsum, which calls no BLAS: no thread count moves a digit.
    """
    degree = len(values) - 1
    k = np.arange(degree + 1)
    ends = np.ones(degree + 1)
    ends[[0, -1]] = 0.5
    cosines = np.cos(math.pi / degree * (np.outer(k, k) % (2 * degree)))
    return (2.0 / degree) * ends[:, None] * np.einsum("jk,kc->jc", cosines, ends[:, None] * values)


def _chebyshev_real_roots(coef, tol):
    """The real roots in [-1, 1] of sum coef_k T_k (coef real), cut after its last |coef_k| > tol.

    They are the eigenvalues of the colleague matrix (Good, Q. J. Math. 12,
    1961), from x T_0 = T_1, x T_k = (T_{k+1} + T_{k-1}) / 2 and T_m
    eliminated with the series.  The matrix is real, so LAPACK returns a
    real eigenvalue with imaginary part exactly 0.  A constant term larger
    than the sum of the others leaves no root in [-1, 1] (|T_k| <= 1 there),
    and no matrix is built: its last row, coef_0 / coef_m, can overflow.
    """
    kept = np.flatnonzero(np.abs(coef) > tol)
    m = kept[-1] if kept.size else 0
    if m < 1 or abs(coef[0]) > np.sum(np.abs(coef[1 : m + 1])):
        return np.empty(0)
    colleague = 0.5 * (np.eye(m, k=1) + np.eye(m, k=-1))
    colleague[-1] -= 0.5 * coef[:m] / coef[m]
    colleague[0] *= 2.0  # x T_0 = T_1; for m = 1 the row is x = -coef_0 / coef_1
    roots = np.linalg.eigvals(colleague)
    return np.sort(roots.real[(roots.imag == 0.0) & (np.abs(roots.real) <= 1.0)])


def _lobatto_t(x, lo, hi):
    """The line parameter t at x in [-1, 1]: lo at x = 1 and hi, exactly, at x = -1."""
    return np.where(x == -1.0, hi, lo + 0.5 * (1.0 - x) * (hi - lo))


def _slice_series(transport, lo: float, hi: float):
    """The traces (x, y, z) over t in [lo, hi] on a slice as one resolved Chebyshev series in x.

    On the admissible line a enters only C00, so x, y and z are entire in
    t.  transport(ts) returns the monodromies at the line parameters ts, as
    one batch.  Nested Chebyshev-Lobatto sets of 17, 33, 65, ... nodes at
    t = _lobatto_t(x, lo, hi) go through it, each level only its new nodes,
    until the last three coefficients of each of x, y and z are within
    TRANSPORT_ATOL + TRANSPORT_RTOL times that trace's largest coefficient,
    the transport's own tolerance (Aurentz and Trefethen, ACM TOMS 43, 2017,
    chop a series at its tolerance).  A series not resolved at
    MAX_SWEEP_NODES nodes raises MaxIterations naming the range, and a range
    whose span is not a finite double ParameterOutOfRange, before any
    transport.  An empty range (lo == hi) is one node, a constant series.
    Returns (coef, tol, ends): coef has a row per coefficient and the
    columns x, y, z, tol is each trace's chop, and ends holds the
    monodromies of the first and the last node, transported at lo and hi.
    """
    if not math.isfinite(hi - lo):
        raise ParameterOutOfRange(f"the a range {(lo, hi)} must have a finite span")

    def traces(results):
        return np.array([(m.x, m.y, m.z) for m in results], dtype=complex)

    if lo == hi:
        (end,) = transport([lo])
        coef = traces([end])
        return coef, TRANSPORT_ATOL + TRANSPORT_RTOL * np.abs(coef[0]), (end, end)
    results = transport(_lobatto_t(_lobatto(16), lo, hi))
    values = traces(results)
    while True:
        coef = _chebyshev_coefficients(values)
        tol = TRANSPORT_ATOL + TRANSPORT_RTOL * np.max(np.abs(coef), axis=0)
        if np.all(np.abs(coef[-3:]) <= tol):
            return coef, tol, (results[0], results[-1])
        degree = 2 * (len(values) - 1)
        if degree + 1 > MAX_SWEEP_NODES:
            raise MaxIterations(f"the a range {(lo, hi)} is not resolved by {len(values)} Chebyshev nodes")
        finer = np.empty((degree + 1, 3), dtype=complex)
        finer[0::2] = values
        finer[1::2] = traces(transport(_lobatto_t(_lobatto(degree)[1::2], lo, hi)))
        values = finer


def real_locus_sweep(
    r: float,
    tau: float,
    chi0: complex,
    a_range,
    n: int,
) -> SweepResult:
    """Sweep a along the admissible line through chi0, flagging real points.

    Rows carry (a, x, y, z, eta-locus residual, real flag) in the order of
    the line parameter t, with t running over n equally spaced samples of
    a_range; a row is flagged real when |Im z| <= TOL_MONO.  Every row is
    read from the one Chebyshev series of _slice_series over the range, in
    one cosine einsum: a sample row at each of the n samples, and a refined
    row at each real root of Im z in the range (the series of Im z cut after
    its last coefficient above z's tolerance, rooted by its colleague
    matrix), flagged real by its own |Im z|.  So a sweep transports its
    nodes alone, whatever n is (an empty range one node), and a pair of
    crossings between two samples is found.
    """
    check_tau(tau)
    if n < 1:
        raise ParameterOutOfRange(f"a sweep needs n >= 1 samples, got {n}")
    if n > MAX_SWEEP_POINTS:
        raise ParameterOutOfRange(f"{n} sweep samples exceed the cap of {MAX_SWEEP_POINTS}")
    lo, hi = float(a_range[0]), float(a_range[1])
    line = _slice_parametrization(chi0, tau)

    def transport(ts):
        return monodromy_batch([ConnectionParams(line(t), chi0, r, tau) for t in ts])

    coef, tol, _ = _slice_series(transport, lo, hi)

    def sweep_row(t, x, y, z, refined):
        return SweepRow(t, line(t), x, y, z, charvar.eta_locus_residual(x.real, y.real, r),
                        abs(z.imag) <= TOL_MONO, refined)

    roots = _chebyshev_real_roots(coef[:, 2].imag, tol[2])
    xs = np.concatenate([np.linspace(1.0, -1.0, n), roots])  # the samples' x, as in _lobatto_t
    ts = np.concatenate([np.linspace(lo, hi, n), _lobatto_t(roots, lo, hi)])
    series = np.einsum("jk,kc->jc", np.cos(np.outer(np.arccos(xs), np.arange(len(coef)))), coef)
    rows = [sweep_row(t, *row, i >= n) for i, (t, row) in enumerate(zip(ts.tolist(), series.tolist()))]
    return SweepResult(sorted(rows, key=lambda row: row.t), r)


def _require_finite(*values):
    if not all(math.isfinite(v) for v in values):
        raise ParameterOutOfRange(f"target and bracket must be finite, got {values}")


@dataclass
class MatchResult:
    a: complex
    t: float  # the slice's line parameter: a = line(t), and t = a on the chi0 = pi/(4 tau) slice
    tau: float
    result: MonodromyResult
    evaluations: int


def match_y(
    y_target: float,
    r: float,
    tau: float,
    chi0: complex,
    bracket,
    max_evals: int = MAX_SWEEP_NODES + 1,
) -> MatchResult:
    """Find t in bracket on the admissible line through chi0 where Re tr Y = y_target.

    Re y is taken from the series of _slice_series over the bracket, whose
    first node is at bracket[0] and last at bracket[1].  An end node within
    TOL_ROOT of the target is returned as it is, bracket[0] first.
    Otherwise the root of the series of Re y - y_target nearest bracket[0]
    is transported once and returned; the ends need not differ in sign
    (y_target = 2 on (0.05, 1.5) at r = 0.1, tau = 1 has roots at t ~ 0.652
    and 0.925, and 0.652 is returned).  A series with no root in the
    bracket raises BracketDoesNotStraddle.  evaluations counts the nodes
    and the root; a batch that would take it past max_evals (by default
    enough for any bracket the series resolves) raises MaxIterations.
    """
    check_tau(tau)
    _require_finite(y_target, *bracket)
    line = _slice_parametrization(chi0, tau)
    lo, hi = float(bracket[0]), float(bracket[1])
    evals = 0

    def transport(ts):
        nonlocal evals
        evals += len(ts)
        if evals > max_evals:
            raise MaxIterations(f"budget of {max_evals} monodromy evaluations")
        return monodromy_batch([ConnectionParams(line(t), chi0, r, tau) for t in ts])

    coef, tol, ends = _slice_series(transport, lo, hi)
    for t, m in zip((lo, hi), ends):
        if abs(m.y.real - y_target) <= TOL_ROOT:
            return MatchResult(line(t), t, tau, m, evals)
    shifted = coef[:, 1].real.copy()
    shifted[0] -= y_target
    roots = _chebyshev_real_roots(shifted, tol[1])
    if not roots.size:
        raise BracketDoesNotStraddle(f"Re y - {y_target} has no root for t in the bracket {(lo, hi)}")
    t = float(_lobatto_t(roots[-1], lo, hi))
    (m,) = transport([t])
    return MatchResult(line(t), t, tau, m, evals)


def _on_slice(a, tau, r) -> ConnectionParams:
    """The connection at a on the trivializing slice chi0 = pi/(4 tau)."""
    return ConnectionParams(a, complex(math.pi / (4.0 * tau)), r, tau)


def _graze_point(ev):
    """Locate the isolated real point (Im z sign change) on a fixed-tau slice.

    ev(ts) returns the monodromies at a = t for every t of ts, as one batch.
    The sum(GRAZE_BATCHES) points of GRAZE_SCAN are scanned from its start
    in the batches of GRAZE_BATCHES, up to the first that holds a real point
    or a bracket; points where y <= 1 neither end a bracket nor count as real.
    Returns (t, monodromy) at the first point with |Im z| <= TOL_IM, or else
    at the secant point of the first bracket, which costs one evaluation.
    """
    t0 = f0 = None
    grid = np.linspace(GRAZE_SCAN[0], GRAZE_SCAN[1], sum(GRAZE_BATCHES))
    for batch in np.split(grid, np.cumsum(GRAZE_BATCHES)[:-1]):
        for t, m in zip(batch, ev(batch)):
            f = complex(m.z).imag
            if complex(m.y).real > 1.0:
                if abs(f) <= TOL_IM:
                    return t, m
                if f0 is not None and f0 * f < 0:
                    t_sec = (t0 * f - t * f0) / (f - f0)
                    return t_sec, ev([t_sec])[0]
            t0, f0 = t, f
    raise BracketDoesNotStraddle(f"no real point found on the slice over a in {GRAZE_SCAN}")


def match_on_locus(
    y_target: float,
    r: float,
    tau_bracket=(2.0, 3.5),
) -> MatchResult:
    """Match tr Y on the real locus itself by moving the modulus tau.

    The trivializing slice chi0 = pi/(4 tau) can meet the real locus in
    several points per tau (at r = 0.1, a in (0.05, 1.6) holds 3 at tau = 5
    and 4 at tau = 8).  The solve follows the one _graze_point finds, the
    smallest-a point with y > 1, and tr Y is a global coordinate on the
    locus, so the matched point is a regular root of
    F(a, tau) = (Im z, Re y - y_target).
    The dodecahedral representation is recovered at y_target =
    sqrt(3 + sqrt 5) with r = 1/10.

    Newton on (a, tau) starts from the graze point that a scan of GRAZE_SCAN
    finds at the midpoint of tau_bracket (which does not confine tau), or at
    TAU_MAX - h if the midpoint lies above that.  Its forward-difference
    Jacobian, step h = 1e-6, takes both stencil points at tau + h, in one
    batch: the tau column from (a, tau + h) - (a, tau), the a column from
    (a + h, tau + h) - (a, tau + h).  Each step is halved until a lies in
    GRAZE_SCAN, tau in [TAU_MIN, TAU_MAX - h] (so the stencil stays in the
    domain), Re y > 1 and |F| decreases.  Every member of every monodromy
    batch, stencil points included, counts against MAX_EVALS; exhausting it
    or a singular Jacobian raises MaxIterations.  The dodecahedral solve
    takes 21 evaluations in 10 batches from the default bracket and 18 in 8
    from (2.6, 3.2).
    """
    for end in tau_bracket:
        check_tau(end)
    _require_finite(y_target)
    evals = 0

    def ev(a_values, tau):
        nonlocal evals
        if evals + len(a_values) > MAX_EVALS:
            raise MaxIterations(f"budget of {MAX_EVALS} monodromy evaluations")
        evals += len(a_values)
        return monodromy_batch([_on_slice(a, tau, r) for a in a_values])

    def residual(m):
        return np.array([complex(m.z).imag, complex(m.y).real - y_target])

    h = 1e-6
    tau = min(0.5 * (float(tau_bracket[0]) + float(tau_bracket[1])), TAU_MAX - h)
    a, m = _graze_point(lambda ts: ev(ts, tau))
    f = residual(m)
    while abs(f[0]) > TOL_IM or abs(f[1]) > TOL_ROOT:
        f_tau, f_a = map(residual, ev([a, a + h], tau + h))
        jac = np.column_stack([f_a - f_tau, f_tau - f]) / h
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            raise MaxIterations("singular finite-difference Jacobian") from None
        for halvings in range(64):
            a_new, tau_new = (a, tau) + step / 2**halvings
            if GRAZE_SCAN[0] <= a_new <= GRAZE_SCAN[1] and TAU_MIN <= tau_new <= TAU_MAX - h:
                m_new = ev([a_new], tau_new)[0]
                f_new = residual(m_new)
                if complex(m_new.y).real > 1.0 and np.linalg.norm(f_new) < np.linalg.norm(f):
                    break
        else:
            raise MaxIterations("no step along the Newton direction decreases |F|")
        a, tau, m, f = float(a_new), float(tau_new), m_new, f_new
    return MatchResult(complex(a, 0.0), a, tau, m, evals)


@dataclass
class JacobianResult:
    jacobian: np.ndarray
    singular_values: tuple
    rank: int


def jacobian_rank(a: float, tau: float, r: float, h: float = 1e-4) -> JacobianResult:
    """Finite-difference Jacobian of (a, tau) -> (x, y) on the slice chi0 = pi/(4 tau).

    Rank 2 is declared when the smaller singular value exceeds RANK_FLOOR.
    The excluded center a0 = -pi/(4 tau) must be at distance >= 0.05.
    h must be finite and >= 1e-8 max(1, |a|, tau); below that rounding swamps
    the differences (at h = 1e-16, tau + h == tau and a column vanishes).
    The stencil tau +- h must lie in [TAU_MIN, TAU_MAX].
    """
    check_tau(tau)
    h_min = 1e-8 * max(1.0, abs(a), tau)
    if not h_min <= h < math.inf:
        raise ParameterOutOfRange(f"finite-difference step h must be finite and >= {h_min:.1e}")
    if not (TAU_MIN <= tau - h and tau + h <= TAU_MAX):
        raise ParameterOutOfRange(f"tau +- h must lie in [{TAU_MIN:g}, {TAU_MAX:g}]")
    if abs(a - (-math.pi / (4.0 * tau))) < 0.05:
        raise SlicePreconditionError(
            "a is within 0.05 of the excluded point -pi/(4 tau)"
        )

    def xy(res):
        return np.array([complex(res.x).real, complex(res.y).real])

    plus, minus = monodromy_batch([_on_slice(a + h, tau, r), _on_slice(a - h, tau, r)])
    col_a = (xy(plus) - xy(minus)) / (2.0 * h)
    col_tau = (
        xy(monodromies(_on_slice(a, tau + h, r)))
        - xy(monodromies(_on_slice(a, tau - h, r)))
    ) / (2.0 * h)
    jac = np.column_stack([col_a, col_tau])
    svals = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.sum(svals > RANK_FLOOR))
    return JacobianResult(jac, (float(svals[0]), float(svals[1])), rank)
