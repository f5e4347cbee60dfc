"""Hyperboloid model of H^3 in R^{3,1}: reflections and the SL(2,C) action.

Vectors are 4-tuples of floats (x0,x1,x2,x3) with inner product
-x0 y0 + x1 y1 + x2 y2 + x3 y3.  The Hermitian dictionary identifies
(x0,x1,x2,x3) with h = [[x0+x1, x2+i x3],[x2-i x3, x0-x1]], on which
SL(2,C) acts on the right by h . g = conj(g)^T h g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from . import algebra

SQRT5 = math.sqrt(5.0)
TOL_LORENTZ = 1e-9  # reflect's unit-normal test and from_hermitian's Hermitian test
TOL_TETRAHEDRON = 1e-8  # Tetrahedron.validate's incidence and normalisation tests


class LorentzError(ValueError):
    pass


class NotUnitNormal(LorentzError):
    pass


class NotHermitian(LorentzError):
    pass


def vec(x0, x1, x2, x3):
    return (float(x0), float(x1), float(x2), float(x3))


def lorentz_inner(u, v):
    return float(-u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3])


def is_point(v, tol):
    return abs(lorentz_inner(v, v) + 1.0) <= tol and v[0] > 0


def is_unit_spacelike(v, tol):
    return abs(lorentz_inner(v, v) - 1.0) <= tol


def reflect(v, normal):
    """Lorentz reflection v - 2 <v,L> L across the hyperplane with unit normal L."""
    if not is_unit_spacelike(normal, TOL_LORENTZ):
        raise NotUnitNormal(f"<L,L> = {lorentz_inner(normal, normal):.6f} != 1")
    s = 2.0 * lorentz_inner(v, normal)
    return tuple(x - s * n for x, n in zip(v, normal))


def to_hermitian(v):
    return algebra.make(v[0] + v[1], v[2] + 1j * v[3], v[2] - 1j * v[3], v[0] - v[1])


def from_hermitian(h):
    if algebra.norm_inf(h - algebra.adjoint(h)) > TOL_LORENTZ:
        raise NotHermitian("matrix is not Hermitian")
    return vec(0.5 * (h.a + h.d).real, 0.5 * (h.a - h.d).real, h.b.real, h.b.imag)


def act(v, g):
    """Image of a Lorentz vector under the right action h . g = conj(g)^T h g."""
    h = to_hermitian(v)
    return from_hermitian(algebra.adjoint(g) @ h @ g)


@dataclass(frozen=True)
class Tetrahedron:
    vertices: tuple  # P0..P3 on H^3
    normals: tuple  # L0..L3 unit spacelike, L_k normal to the face opposite P_k

    def validate(self):
        tol = TOL_TETRAHEDRON
        for i, p in enumerate(self.vertices):
            if not is_point(p, tol):
                raise LorentzError(f"P{i} is not on H^3")
        for j, n in enumerate(self.normals):
            if not is_unit_spacelike(n, tol):
                raise LorentzError(f"L{j} is not unit spacelike")
        for i, p in enumerate(self.vertices):
            for j, n in enumerate(self.normals):
                if i != j and abs(lorentz_inner(p, n)) > tol:
                    raise LorentzError(f"<P{i},L{j}> = {lorentz_inner(p, n):.3e} != 0")
        return self


def canonical_tetrahedron():
    """The (5,3,4) fundamental tetrahedron, entries in double precision.

    P2 is pinned by the incidence relations <P2,L0> = <P2,L1> = <P2,L3> = 0
    together with <P2,P2> = -1 and the sign convention of the other vertices.
    """
    p0 = vec(1.0, 0.0, 0.0, 0.0)
    p1 = vec(math.sqrt(1.0 + 2.0 / SQRT5), -(5.0 ** -0.25), -(5.0 ** -0.25), 0.0)
    p2 = vec(0.5 * math.sqrt(3.0 + SQRT5), -0.5 * math.sqrt(SQRT5 - 1.0), 0.0, 0.0)
    h = 0.5 * math.sqrt(1.0 + SQRT5)
    p3 = vec(0.5 * math.sqrt(7.0 + 3.0 * SQRT5), -h, -h, h)
    l0 = vec(1.0 / math.sqrt(1.0 + SQRT5), -0.5 * math.sqrt(3.0 + SQRT5), 0.0, 0.0)
    l1 = vec(0.0, 0.0, math.sqrt(0.5), math.sqrt(0.5))
    l2 = vec(0.0, -math.sqrt(0.5), math.sqrt(0.5), 0.0)
    l3 = vec(0.0, 0.0, 0.0, 1.0)
    return Tetrahedron((p0, p1, p2, p3), (l0, l1, l2, l3)).validate()


def dihedral_data(tet: Tetrahedron):
    """Sorted |<L_i,L_j>| over the 6 unordered normal pairs (dihedral cosines)."""
    vals = [abs(lorentz_inner(tet.normals[i], tet.normals[j])) for i, j in combinations(range(4), 2)]
    return sorted(vals)


def compose_reflections(normals):
    """Map v -> R_{k1}(R_{k2}(...(v))) for normals listed outermost first."""

    def apply(v):
        for n in reversed(normals):
            v = reflect(v, n)
        return v

    return apply


def lift_check(g, reflection_map):
    """Max deviation of act(.,g) from the reflection composition on the basis.

    Small values certify that g in SL(2,C) lifts the Lorentz transformation;
    -g gives the same value (kernel of the double cover).
    """
    worst = 0.0
    for k in range(4):
        e = tuple(1.0 if i == k else 0.0 for i in range(4))
        diff = (abs(x - y) for x, y in zip(act(e, g), reflection_map(e)))
        worst = max(worst, *diff)
    return worst


def generators():
    """The six lifted generators g_{m,n}, keyed by (m,n) with 0 <= m < n <= 3."""
    s5 = SQRT5
    a01 = 1.0 + s5 + math.sqrt(2.0 * (s5 - 1.0))
    g01 = algebra.make(0.0, -(1.0 + 1j) / 4.0 * a01, (2.0 - 2.0j) / a01, 0.0)
    b = math.sqrt(1.0 + s5 - math.sqrt(2.0 * (1.0 + s5)))
    g02 = algebra.make(-b / 2.0, -1.0 / b, b / 2.0, -1.0 / b)
    c = math.sqrt(0.5 * (1.0 + s5 + math.sqrt(2.0 * (1.0 + s5))))
    g03 = algebra.make(0.0, -1j * c, -1j / c, 0.0)
    g12 = 0.5 * algebra.make(-1.0 + 1j, 1.0 + 1j, -1.0 + 1j, -1.0 - 1j)
    g13 = algebra.make(-1.0 - 1j, 0.0, 0.0, -1.0 + 1j) / math.sqrt(2.0)
    g23 = (-1j / math.sqrt(2.0)) * algebra.make(1.0, 1.0, 1.0, -1.0)
    return {(0, 1): g01, (0, 2): g02, (0, 3): g03, (1, 2): g12, (1, 3): g13, (2, 3): g23}
