"""Fricke trace-coordinate algebra for the 1-punctured torus and 4-punctured sphere.

Coordinates on the torus side are (x,y,z) = (tr X, tr Y, tr YX); on the
sphere side (xt,yt,zt) = (tr M2M1, tr M3M2, tr M3M1) together with the
common local trace mu.  A weight l/k fixes both conjugacy classes through
rt = l/k in (1/4,1/2) and r = 2*rt - 1/2 in (0,1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra

TOL_CHAR = 1e-8


class CharVarError(ValueError):
    pass


class DegenerateTraces(CharVarError):
    """(xt-2)(yt-2)(zt-2) = 0: the sphere point does not determine a lift."""


class DegenerateTrace(CharVarError):
    """x = +-2: the torus point has no diagonalizable normal form."""


class OffVariety(CharVarError):
    """Trace coordinates do not satisfy the character equation."""


@dataclass(frozen=True)
class Weight:
    """Parabolic weight rt = l/k at the punctures, with derived quantities.

    rt must lie in (1/4,1/2); pass normalize=True to fold rt in (0,1/4)
    to 1/2-rt, which is the identity on trace coordinates.
    """

    l: int
    k: int

    def __post_init__(self):
        if self.l <= 0 or self.k <= 0:
            raise CharVarError("weight numerator and denominator must be positive")
        if math.gcd(self.l, self.k) != 1:
            raise CharVarError(f"weight {self.l}/{self.k} is not in lowest terms")
        rt = self.l / self.k
        if not 0.25 < rt < 0.5:
            raise CharVarError(
                f"weight rt = {self.l}/{self.k} outside (1/4,1/2); "
                "use Weight.parse(..., normalize=True) to fold"
            )

    @classmethod
    def parse(cls, text, normalize=False):
        """Parse 'l/k' (or a float) into a Weight; optionally fold into (1/4,1/2)."""
        if isinstance(text, str) and "/" in text:
            frac = Fraction(text)
        else:
            frac = Fraction(text).limit_denominator(10**6)
        if normalize and 0 < frac < Fraction(1, 4):
            frac = Fraction(1, 2) - frac
        return cls(frac.numerator, frac.denominator)

    @classmethod
    def from_torus(cls, text):
        """Build from the torus-side weight r = l/k in (0,1/2) via rt = (1+2r)/4."""
        frac = Fraction(text) if isinstance(text, str) else Fraction(text).limit_denominator(10**6)
        if not 0 < frac < Fraction(1, 2):
            raise CharVarError(f"torus weight r = {frac} outside (0,1/2)")
        rt = (1 + 2 * frac) / 4
        return cls(rt.numerator, rt.denominator)

    @property
    def rt(self):
        return self.l / self.k

    @property
    def r(self):
        return 2.0 * self.l / self.k - 0.5

    @property
    def mu(self):
        return 2.0 * math.cos(2.0 * math.pi * self.rt)

    @property
    def c(self):
        """2 cos(2 pi r), the constant in the torus character equation."""
        return 2.0 * math.cos(2.0 * math.pi * self.r)

    def __str__(self):
        return f"{self.l}/{self.k}"


@dataclass(frozen=True)
class TraceCoords:
    x: complex
    y: complex
    z: complex

    def astuple(self):
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class SphereTraceCoords:
    xt: complex
    yt: complex
    zt: complex
    mu: float

    def astuple(self):
        return (self.xt, self.yt, self.zt)


def fricke_torus_residual(x, y, z, r: float) -> complex:
    """x^2+y^2+z^2 - xyz - 2 - 2cos(2 pi r), signed, for the torus weight r."""
    return x * x + y * y + z * z - x * y * z - 2.0 - 2.0 * math.cos(2.0 * math.pi * r)


def fricke_sphere_residual(s: SphereTraceCoords) -> complex:
    """xt^2+yt^2+zt^2 + xt*yt*zt - 2mu^2(xt+yt+zt) + 4(mu^2-1) + mu^4, signed."""
    xt, yt, zt = s.astuple()
    mu2 = s.mu * s.mu
    return (
        xt * xt + yt * yt + zt * zt
        + xt * yt * zt
        - 2.0 * mu2 * (xt + yt + zt)
        + 4.0 * (mu2 - 1.0)
        + mu2 * mu2
    )


def abelianize(t: TraceCoords, w: Weight) -> SphereTraceCoords:
    """(x,y,z) -> (2-x^2, 2-y^2, 2-z^2) with mu fixed by rt = (1+2r)/4."""
    x, y, z = t.astuple()
    return SphereTraceCoords(2.0 - x * x, 2.0 - y * y, 2.0 - z * z, w.mu)


def _principal_sqrt(v):
    """Square root with Re >= 0 (and Im >= 0 on the cut Re = 0)."""
    root = complex(np.sqrt(complex(v)))
    if root.real < 0 or (root.real == 0 and root.imag < 0):
        root = -root
    return root


def lift_traces(s: SphereTraceCoords, w: Weight, tol=TOL_CHAR):
    """All torus lifts (+-x,+-y,+-z) of a sphere point that land on the variety.

    x = sqrt(2-xt) etc. with principal branch; the sign classes passing the
    torus character equation are returned (one orbit of even sign flips,
    normally 4 points).
    """
    xt, yt, zt = s.astuple()
    if min(abs(xt - 2.0), abs(yt - 2.0), abs(zt - 2.0)) <= 1e-12:
        raise DegenerateTraces("(xt-2)(yt-2)(zt-2) = 0 admits no unique lift")
    x0 = _principal_sqrt(2.0 - xt)
    y0 = _principal_sqrt(2.0 - yt)
    z0 = _principal_sqrt(2.0 - zt)
    out = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                cand = TraceCoords(sx * x0, sy * y0, sz * z0)
                if abs(fricke_torus_residual(*cand.astuple(), w.r)) <= tol:
                    out.append(cand)
    return out


def solve_z(x, y, w: Weight):
    """The two roots of z^2 - xyz + (x^2+y^2-2-2cos(2 pi r)) = 0.

    For real x, y the pair is real or complex conjugate (Remark on the
    quadratic in z).
    """
    b = complex(x) * complex(y)
    c0 = complex(x) ** 2 + complex(y) ** 2 - 2.0 - w.c
    disc = b * b - 4.0 * c0
    root = complex(np.sqrt(disc))
    z1 = (b + root) / 2.0
    z2 = (b - root) / 2.0
    return z1, z2


def eta_locus_residual(x, y, r: float):
    """x^2 y^2 - 4x^2 - 4y^2 + 8(1+cos(2 pi r)); zero on the real eta-invariant locus.

    This equals the discriminant of the solve_z quadratic, so it vanishes
    exactly where the two z-roots collide into a real double root.
    """
    x2 = x * x
    y2 = y * y
    return x2 * y2 - 4.0 * x2 - 4.0 * y2 + 8.0 * (1.0 + math.cos(2.0 * math.pi * r))


def real_locus_y(x, r: float):
    """Analytic branch y(x) >= 0 of the eta-invariant real locus for |x| > 2."""
    x2 = x * x
    num = 4.0 * x2 - 8.0 * (1.0 + math.cos(2.0 * math.pi * r))
    den = x2 - 4.0
    val = num / den
    if val < 0:
        raise CharVarError(f"no real locus point over x = {x}")
    return math.sqrt(val)


def classify_real(t: TraceCoords, w: Weight, tol=TOL_CHAR):
    """'SU2', ('SL2R', component_id) or 'not-real' for an on-variety point.

    The component id is the sign pattern of the coordinates outside [-2,2]
    ('+'/'-' when |coord| > 2, '.' inside the box), following the
    sign-change description of the four non-compact components.
    """
    res = fricke_torus_residual(*t.astuple(), w.r)
    if not abs(res) <= tol:
        raise OffVariety(f"character-equation residual {abs(res):.3e} exceeds {tol:.1e}")
    coords = t.astuple()
    reals = []
    for v in coords:
        v = complex(v)
        if abs(v.imag) > tol:
            return "not-real"
        reals.append(v.real)
    if all(-2.0 - tol <= v <= 2.0 + tol for v in reals):
        return "SU2"
    pattern = "".join("+" if v > 2.0 else "-" if v < -2.0 else "." for v in reals)
    return ("SL2R", pattern)


def reconstruct_rep(t: TraceCoords, tol=algebra.TOL_ALG):
    """Matrices (X, Y) with the given traces, X diagonal with |lambda| >= 1.

    X = diag(lam, 1/lam) with lam + 1/lam = x, Y = [[alpha,1],[gamma,delta]]
    solving alpha+delta = y, lam*alpha + delta/lam = z, alpha*delta - gamma = 1.
    Raises DegenerateTrace at x = +-2.
    """
    x, y, z = (complex(v) for v in t.astuple())
    if abs(x - 2.0) <= tol or abs(x + 2.0) <= tol:
        raise DegenerateTrace("x = +-2 has no diagonal normal form")
    disc = complex(np.sqrt(x * x - 4.0))
    lam = (x + disc) / 2.0
    if abs(lam) < 1.0:
        lam = (x - disc) / 2.0
    alpha = (z - y / lam) / (lam - 1.0 / lam)
    delta = y - alpha
    gamma = alpha * delta - 1.0
    X = algebra.make(lam, 0.0, 0.0, 1.0 / lam)
    Y = algebra.make(alpha, 1.0, gamma, delta)
    return X, Y


def traces_of_pair(X, Y):
    """(tr X, tr Y, tr YX) with the right-to-left loop convention."""
    return TraceCoords(algebra.trace(X), algebra.trace(Y), algebra.trace(Y @ X))


def sphere_traces(M1, M2, M3):
    """(tr M2M1, tr M3M2, tr M3M1) of a 4-punctured-sphere representation."""
    xt = algebra.trace(M2 @ M1)
    yt = algebra.trace(M3 @ M2)
    zt = algebra.trace(M3 @ M1)
    return xt, yt, zt


def genus_for_order(k: int) -> int:
    """k-1 for odd local order k, k/2-1 for even k."""
    if k < 1:
        raise CharVarError("order must be a positive integer")
    return k - 1 if k % 2 == 1 else k // 2 - 1


def genus_of_weight(w: Weight) -> int:
    """Genus of the covering attached to a weight, from its local order k."""
    return genus_for_order(w.k)
