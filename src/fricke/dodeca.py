"""The dodecahedral representation: generators, the J-matrices and their checks.

Builds the lifted reflection products g_{m,n} of the (5,3,4) tetrahedron,
the order-8 element j0 = g_{1,2} g_{1,3}, and the four punctured-sphere
monodromies J_1..J_4 with J_1 = -(g_{0,2})^2 and J_{i+1} = j0 J_i j0^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, charvar, lorentz
from .lorentz import SQRT5

MAX_ORDER = 64  # the largest finite order order_of looks for


@dataclass(frozen=True)
class DodecaData:
    generators: dict  # (m,n) -> g_{m,n}
    j0: np.ndarray
    J: tuple  # (J1, J2, J3, J4)


@dataclass
class RSRReport:
    is_real: bool
    trace_values: dict
    is_symmetric: bool
    is_rectangular: bool
    order_k: int | None
    genus: int | None
    product_is_identity: bool

    def all_flags(self):
        return self.is_real and self.is_symmetric and self.is_rectangular and self.product_is_identity


def build_dodeca() -> DodecaData:
    gens = lorentz.generators()
    j0 = gens[(1, 2)] @ gens[(1, 3)]
    J1 = -(gens[(0, 2)] @ gens[(0, 2)])
    j0_inv = algebra.inverse(j0)
    Js = [J1]
    for _ in range(3):
        Js.append(j0 @ Js[-1] @ j0_inv)
    return DodecaData(gens, j0, tuple(Js))


def rsr_check(M1, M2, M3, M4, w: charvar.Weight, tol=algebra.TOL_ALG) -> RSRReport:
    """Check the Real / Symmetric / Rectangular conditions on four monodromies."""
    mats = (M1, M2, M3, M4)
    xt, yt, zt = charvar.sphere_traces(M1, M2, M3)
    traces = {
        "tr_M": [algebra.trace(M) for M in mats],
        "xt": xt,
        "yt": yt,
        "zt": zt,
        "tr_M1M3": algebra.trace(M1 @ M3),
        "tr_M2M4": algebra.trace(M2 @ M4),
    }
    entries_real = all(float(np.max(np.abs(M.imag))) <= tol for M in mats)
    products_below = all(
        abs(v.imag) <= tol and v.real < -2.0 for v in (xt, yt, zt)
    )
    is_real = entries_real and products_below
    mu = w.mu
    is_symmetric = all(abs(algebra.trace(M) - mu) <= tol for M in mats)
    is_rectangular = abs(traces["tr_M1M3"] - traces["tr_M2M4"]) <= tol
    order_k = algebra.order_of(M1, MAX_ORDER, tol)
    genus = None if order_k is None else charvar.genus_for_order(order_k)
    prod = M4 @ M3 @ M2 @ M1
    product_is_identity = algebra.norm_inf(prod - algebra.IDENTITY) <= tol
    return RSRReport(is_real, traces, is_symmetric, is_rectangular,
                     order_k, genus, product_is_identity)


def verify_theorem91(tol=algebra.TOL_ALG):
    """Residuals for every identity of the dodecahedral construction.

    Returns a dict mapping check name to (residual, bound); all residuals
    should be <= the bound (default tol).  Covers: the four local traces,
    the product traces, the group relation J4 J3 J2 J1 = Id, the orders of
    j0 / J_k / g_{0,2}, the word expressing J1 in the lattice, realness of
    the J's, and the character-equation + real-locus residuals of the
    lifted torus trace coordinates at weight 3/10.
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
        got = algebra.order_of(M, MAX_ORDER, tol)
        checks[f"order_{name}"] = (0.0 if got == expected else 1.0, 0.5)

    g02 = data.generators[(0, 2)]
    checks["J1_word_in_lattice"] = (algebra.norm_inf(J1 + g02 @ g02), tol)

    real_dev = max(float(np.max(np.abs(M.imag))) for M in data.J)
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
