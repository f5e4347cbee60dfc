"""The dodecahedral representation: generators, the J-matrices and their checks.

Builds the lifted reflection products g_{m,n} of the (5,3,4) tetrahedron,
the order-8 element j0 = g_{1,2} g_{1,3}, and the four punctured-sphere
monodromies J_1..J_4 with J_1 = -(g_{0,2})^2 and J_{i+1} = j0 J_i j0^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra, charvar, lorentz
from .lorentz import SQRT5


@dataclass(frozen=True)
class DodecaData:
    generators: dict  # (m,n) -> g_{m,n}
    j0: algebra.Mat2
    J: tuple  # (J1, J2, J3, J4)


def build_dodeca() -> DodecaData:
    gens = lorentz.generators()
    j0 = gens[(1, 2)] @ gens[(1, 3)]
    J1 = -(gens[(0, 2)] @ gens[(0, 2)])
    j0_inv = algebra.inverse(j0)
    Js = [J1]
    for _ in range(3):
        Js.append(j0 @ Js[-1] @ j0_inv)
    return DodecaData(gens, j0, tuple(Js))


def verify_theorem91(tol=algebra.TOL_ALG):
    """Residuals for every identity of the dodecahedral construction.

    Returns a dict mapping check name to (residual, bound); all residuals
    should be <= the bound (default tol).  Covers: the four local traces,
    the product traces, the group relation J4 J3 J2 J1 = Id, the orders of
    j0 / J_k / g_{0,2}, realness of the J's, and the character-equation +
    real-locus residuals of the lifted torus trace coordinates at weight 3/10.
    """
    data = build_dodeca()
    J1, J2, J3, J4 = data.J
    w = charvar.Weight(3, 10)
    checks = {}

    target = 0.5 * (1.0 - SQRT5)
    for k, M in enumerate(data.J, start=1):
        checks[f"tr_J{k}"] = (abs(algebra.trace(M) - target), tol)

    pair_target = -1.0 - SQRT5
    checks["tr_J2J1"] = (abs(algebra.trace(J2 @ J1) - pair_target), tol)
    checks["tr_J3J2"] = (abs(algebra.trace(J3 @ J2) - pair_target), tol)
    rect_target = -1.5 * (1.0 + SQRT5)
    checks["tr_J3J1"] = (abs(algebra.trace(J3 @ J1) - rect_target), tol)
    checks["tr_J4J2"] = (abs(algebra.trace(J4 @ J2) - rect_target), tol)

    checks["J4J3J2J1_id"] = (algebra.norm_inf(J4 @ J3 @ J2 @ J1 - algebra.IDENTITY), tol)

    orders = {"j0": (data.j0, 8), "J1": (J1, 10), "J2": (J2, 10),
              "J3": (J3, 10), "J4": (J4, 10), "g02": (data.generators[(0, 2)], 5)}
    for name, (M, expected) in orders.items():
        got = algebra.order_of(M)
        checks[f"order_{name}"] = (0.0 if got == expected else 1.0, 0.5)

    real_dev = max(abs(v.imag) for M in data.J for v in M)
    checks["J_entries_real"] = (real_dev, tol)

    sphere = charvar.SphereTraceCoords(
        algebra.trace(J2 @ J1), algebra.trace(J3 @ J2), algebra.trace(J3 @ J1), w.mu
    )
    checks["sphere_fricke"] = (abs(charvar.fricke_sphere_residual(sphere)), 1e-8)
    lifts = charvar.lift_traces(sphere, w)
    positive = [t for t in lifts if t.x.real > 0 and t.y.real > 0 and t.z.real > 0]
    checks["lift_exists"] = (0.0 if positive else 1.0, 0.5)
    if positive:
        t = positive[0]
        checks["torus_fricke"] = (abs(charvar.fricke_torus_residual(*t.astuple(), w.r)), 1e-8)
        checks["eta_locus"] = (abs(charvar.eta_locus_residual(t.x.real, t.y.real, w.r)), 1e-8)
    return checks


def theorem91_passed(checks):
    return all(res <= bound for res, bound in checks.values())
