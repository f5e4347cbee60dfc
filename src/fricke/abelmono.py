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
import functools
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
MAX_EVALS = 60  # monodromy evaluations per trace-matching solve
BATCH_CHUNK = 8  # a values transported in one array by monodromy_batch
# The most samples real_locus_sweep takes (locus --n): a CLI sweep took 0.6 s
# at 600 samples (2-vCPU x86 host), 1.2 s at 3000 and 5.6 s at 10000.
MAX_SWEEP_POINTS = 10_000
GRAZE_SCAN, GRAZE_POINTS = (0.02, 1.8), 30  # match_on_locus's graze-point scan over a


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


class _BakerSections:
    """The a-independent part of ConnectionForm at one (chi, r, tau).

    Holds lam, p and scale (see ConnectionForm) once the input checks pass:
    chi at a half-lattice point, or with theta1(pi p) not finite or 0 in
    double precision, raises NonGenericChi; an |Im chi| that takes gamma_y
    past the theta series' reach raises ParameterOutOfRange.  off_diagonal
    evaluates the sections at any nodes.  nodes memoizes the read-only
    velocities, C01 and C10 of each (paths, levels) pass of _magnus_product
    over gamma_x(tau) and gamma_y(tau) alone that cleared the pole check.
    Built through _baker_sections, so every ConnectionForm at the same
    (chi, r, tau) shares one.
    """

    def __init__(self, chi: complex, r: float, tau: float):
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
        self.scale = -r * math.pi * lat._theta1_d0 / theta_p
        self.nodes = {}

    def off_diagonal(self, w, wdot):
        """(C01, C10) = (-psi_- wdot, -psi_+ wdot) at w, with one theta1 call."""
        theta = self.lat.theta1(w, [0.0, self.p, -self.p])
        theta_w, theta_minus, theta_plus = theta[..., 0], theta[..., 1], theta[..., 2]
        scale = self.scale / theta_w * wdot
        phase = np.exp(2j * self.lam * w.imag)
        return scale / phase * theta_plus, -scale * phase * theta_minus


@functools.lru_cache(maxsize=8)
def _baker_sections(chi: complex, r: float, tau: float) -> _BakerSections:
    return _BakerSections(chi, r, tau)


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

    params may also be a list of ConnectionParams that share (chi, r, tau):
    a stack along a.  The ndarray a is 0-d for one ConnectionParams and 1-D
    for a list; coefficient takes w of any shape and returns the sl(2)
    coordinates (C00, C01, C10) stacked on axis 0, shape
    (3,) + a.shape + w.shape, with psi_+- evaluated once for all members.
    Members never leave the stack: parallel_transport carries every member
    along a loop to the panel level of the last one to pass on that loop.

    Nothing but C00 depends on a: the rest is sections, shared by every form
    at the same (chi, r, tau) while it is among the 8 most recently used.
    """

    def __init__(self, params: ConnectionParams | list):
        stacked = isinstance(params, list)
        stack = params if stacked else [params]
        params = stack[0]
        if any((p.chi, p.r, p.tau) != (params.chi, params.r, params.tau) for p in stack):
            raise ParameterOutOfRange("a stack of connections must share chi, r and tau")
        self.a = np.array([p.a for p in stack] if stacked else params.a, dtype=complex)
        self.chi = complex(params.chi)
        self.sections = _baker_sections(self.chi, float(params.r), float(params.tau))

    def coefficient(self, w, wdot):
        """-(A_w wdot + A_wbar conj(wdot)), the traceless right-hand side of the ODE.

        Returned as its sl(2) coordinates (C00, C01, C10) = (-(a wdot + chi
        conj(wdot)), -psi_- wdot, -psi_+ wdot) on axis 0.
        """
        w = np.asarray(w, dtype=complex)
        wdot = np.asarray(wdot, dtype=complex)
        return self._coordinates(wdot, *self.sections.off_diagonal(w, wdot))

    def _coordinates(self, wdot, c01, c10):
        """(C00, C01, C10) on axis 0, with C00 built per member: a's axes, then c01's node axes."""
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

    A value: equal fields make the same loop, so a pass over a freshly built
    gamma_x(tau) finds the nodes memo of an earlier one.  point and velocity
    act on arrays of s; velocity is the constant step when amplitude is 0.
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
    covers every (member, loop, level).  A pass found in form.sections.nodes
    under (paths, levels) builds only A00 = -(a wdot + chi conj(wdot)) per
    member.  Any other is pole-checked (PathTooCloseToPole, nothing stored)
    and takes every A_k from one form.coefficient call; over gamma_x(tau)
    and gamma_y(tau) alone it then stores its velocities and the first
    member's (A01, A10).  Each level's panel factors are then multiplied
    pairwise, later panels on the left, as L[:, :1] R[:1] + L[:, 1:] R[1:] over
    the whole array (a stacked matmul hands BLAS one 2x2 product at a time).
    Returns one product array per level, in the order of levels, of shape
    form.a.shape + (len(paths), 2, 2): one product per member and loop.
    """
    h = np.concatenate([np.full(n, 1.0 / n) for n in levels])
    key = (tuple(paths), levels)
    nodes = form.sections.nodes.get(key)
    if nodes is not None:
        x = form._coordinates(*nodes)
    else:
        s = np.concatenate([(np.arange(n) + _GAUSS_NODES[:, None]) * (1.0 / n) for n in levels],
                           axis=-1)  # each node set contiguous
        w = np.stack([path.point(s) for path in paths])
        dist = form.sections.lat.lattice_distance(w)
        near = np.min(dist, axis=(1, 2)) < [path.delta for path in paths]
        if near.any():
            k = int(np.argmax(near))
            raise PathTooCloseToPole(
                f"{paths[k].label}: point {w[k].flat[np.argmin(dist[k])]} within {paths[k].delta} of the lattice"
            )
        wdot = np.stack([np.broadcast_to(path.velocity(s), s.shape) for path in paths])
        x = form.coefficient(w, wdot)
        tau = form.sections.lat.tau
        if all(path in (gamma_x(tau), gamma_y(tau)) for path in paths):  # caller-made loops are not kept
            # (C01, C10) of the first member: every member has the same
            off = x[1:].reshape((2, -1) + w.shape)[:, 0].copy()
            for array in (wdot, off):
                array.flags.writeable = False
            form.sections.nodes[key] = wdot, *off
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
    comparison), each later pass the next level alone, for every open
    (member, path) pair; each level is tested as one (open paths, members)
    array.  A pair keeps the product of the level at which it first passed
    its own test, so its entry equals the result for that path alone and a
    form over that member alone.  A path whose members have all passed
    leaves the array.  A path at another tau than the form's raises
    ParameterOutOfRange before any pass, one within its delta of the
    lattice at any node of a pass PathTooCloseToPole before it is tested.
    For the whole call, named after the first such path, a non-finite product
    of an open (member, path) raises NonGenericChi, the budget StepLimitExceeded.
    """
    several = isinstance(paths, tuple)
    paths = paths if several else (paths,)
    for path in paths:
        if path.tau != form.sections.lat.tau:
            raise ParameterOutOfRange(f"{path.label}: a loop at tau = {path.tau}, not {form.sections.lat.tau}")
    out = [[None] * form.a.size for _ in paths]
    n, pending, coarse = _FIRST_PANELS, [], None
    with np.errstate(all="ignore"):
        while open_ := [k for k, row in enumerate(out) if None in row]:
            if n > PANEL_BUDGET:
                raise StepLimitExceeded(f"{paths[open_[0]].label}: budget of {PANEL_BUDGET} panels")
            if not pending:
                levels = (n,) if coarse is not None else (n, 2 * n)
                pending = _magnus_product(form, [paths[k] for k in open_], levels)
            fine = np.moveaxis(pending.pop(0).reshape(-1, len(open_), 2, 2), 1, 0)
            todo = np.array([[res is None for res in out[k]] for k in open_])
            failed = todo & ~np.all(np.isfinite(fine), axis=(2, 3))
            if failed.any():
                k = open_[int(np.argmax(failed.any(axis=1)))]
                raise NonGenericChi(f"{paths[k].label}: non-finite panel product at {n} panels:"
                                    " the monodromy is beyond double precision")
            if coarse is not None:
                err = np.max(np.abs(fine - coarse[open_]), axis=(2, 3)) / 63.0
                tol = TRANSPORT_ATOL + TRANSPORT_RTOL * np.max(np.abs(fine), axis=(2, 3))
                for j, i in zip(*np.nonzero(todo & (err <= tol))):
                    p = fine[j, i]
                    out[open_[j]][i] = TransportResult(p, abs(algebra.det(p) - 1.0), n, float(err[j, i]))
            else:
                coarse = np.empty_like(fine)  # every path is open at the first level
            coarse[open_] = fine
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
    one parallel_transport call over (gamma_x, gamma_y): one pass for the
    chunk and both loops per level (the first covers 16 and 32 panels) until
    gamma_x or gamma_y closes, then for the open loop alone.  Every chunk
    shares the sections of (chi, r, tau), so the Baker sections are
    evaluated once per (open loops, level) for the whole stack, and not
    again for a later call at the same (chi, r, tau) while the sections stay
    cached.  Every member's result, panel counts included, equals its batch
    of one.
    When a chunk's transport fails, its members are run again one at a time,
    so the error raised is the one the first failing member raises alone.
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
        raise NonGenericChi(
            f"chi = {params.chi}, a = {complex(params.a)}: monodromy condition number {kappa:.1e}"
            " is beyond double precision"
        )
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
    refined: bool = False


@dataclass
class SweepResult:
    rows: list
    r: float

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
    a_range,
    n: int,
) -> SweepResult:
    """Sweep a along the admissible line through chi0, flagging real points.

    Rows carry (a, x, y, z, eta-locus residual, real flag) in the order of
    the line parameter t.  The real locus meets a fixed-tau slice in
    isolated points, so where Im z changes sign between two samples that
    are not flagged real, Illinois closes the crossing to |Im z| <= TOL_MONO
    and the point is inserted as a refined row; a crossing that 48
    evaluations do not close adds no row.
    """
    check_tau(tau)
    if n < 1:
        raise ParameterOutOfRange(f"a sweep needs n >= 1 samples, got {n}")
    if n > MAX_SWEEP_POINTS:
        raise ParameterOutOfRange(f"{n} sweep samples exceed the cap of {MAX_SWEEP_POINTS}")
    if not math.isfinite(float(a_range[1]) - float(a_range[0])):
        raise ParameterOutOfRange(f"the a range {tuple(a_range)} must have a finite span")
    line = _slice_parametrization(chi0, tau)

    def params(t):
        return ConnectionParams(line(t), chi0, r, tau)

    def sweep_row(t, res):
        return SweepRow(
            t,
            line(t),
            res.x,
            res.y,
            res.z,
            charvar.eta_locus_residual(complex(res.x).real, complex(res.y).real, r),
            abs(complex(res.z).imag) <= TOL_MONO,
        )

    def crossing_row(lo, hi):
        evals = 0

        def im_z(t):
            nonlocal evals
            evals += 1
            if evals > 48:
                raise MaxIterations("crossing not closed in 48 evaluations")
            row = sweep_row(t, monodromies(params(t)))
            return complex(row.z).imag, row

        try:
            _t, row = _illinois(im_z, lo.t, complex(lo.z).imag, hi.t, complex(hi.z).imag, TOL_MONO)
        except MaxIterations:
            return None
        row.refined = True
        return row

    grid = np.linspace(a_range[0], a_range[1], n)
    results = monodromy_batch([params(t) for t in grid])
    rows = [sweep_row(t, res) for t, res in zip(grid, results)]
    crossings = [
        crossing_row(lo, hi)
        for lo, hi in zip(rows, rows[1:])
        if not (lo.is_real or hi.is_real) and complex(lo.z).imag * complex(hi.z).imag < 0
    ]
    rows += [row for row in crossings if row]
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
    max_evals: int = MAX_EVALS,
) -> MatchResult:
    """Root-find a on the admissible slice so that tr Y matches y_target.

    Safeguarded secant (Illinois) inside a straddling bracket; the
    returned monodromy satisfies |Re y - y_target| <= TOL_ROOT.
    """
    check_tau(tau)
    _require_finite(y_target, *bracket)
    line = _slice_parametrization(chi0, tau)
    evals = 0

    def g(t):
        nonlocal evals
        if evals >= max_evals:
            raise MaxIterations(f"budget of {max_evals} monodromy evaluations")
        evals += 1
        res = monodromies(ConnectionParams(line(t), chi0, r, tau))
        return complex(res.y).real - y_target, res

    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    f_lo, res_lo = g(t_lo)
    if abs(f_lo) <= TOL_ROOT:
        return MatchResult(line(t_lo), t_lo, tau, res_lo, evals)
    f_hi, res_hi = g(t_hi)
    if abs(f_hi) <= TOL_ROOT:
        return MatchResult(line(t_hi), t_hi, tau, res_hi, evals)
    if f_lo * f_hi > 0:
        raise BracketDoesNotStraddle(
            f"y - y* has the same sign at both bracket ends ({f_lo:+.3e}, {f_hi:+.3e})"
        )
    t, res = _illinois(g, t_lo, f_lo, t_hi, f_hi, TOL_ROOT)
    return MatchResult(line(t), t, tau, res, evals)


def _on_slice(a, tau, r) -> ConnectionParams:
    """The connection at a on the trivializing slice chi0 = pi/(4 tau)."""
    return ConnectionParams(a, complex(math.pi / (4.0 * tau)), r, tau)


def _graze_point(ev):
    """Locate the isolated real point (Im z sign change) on a fixed-tau slice.

    ev(ts) returns the monodromies at a = t for every t of ts, as one batch.
    The GRAZE_POINTS points of GRAZE_SCAN are scanned from its start,
    BATCH_CHUNK at a time, up to the first chunk that holds a real point or a
    bracket; points where y <= 1 neither end a bracket nor count as real.
    Returns (t, monodromy) at the first point with |Im z| <= TOL_IM, or else
    at the secant point of the first bracket, which costs one evaluation.
    """
    t0 = f0 = None
    grid = np.linspace(GRAZE_SCAN[0], GRAZE_SCAN[1], GRAZE_POINTS)
    for start in range(0, GRAZE_POINTS, BATCH_CHUNK):
        chunk = grid[start : start + BATCH_CHUNK]
        for t, m in zip(chunk, ev(chunk)):
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

    The trivializing slice chi0 = pi/(4 tau) meets the real locus in one
    point per tau, and tr Y is a global coordinate on the locus, so the
    matched point is a regular root of F(a, tau) = (Im z, Re y - y_target).
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
