"""Spin-class bookkeeping on the torus and the grafting action.

A spin class is the pair of Z2 holonomies (eps_x, eps_y) of the square
root of the canonical bundle along the two generating loops; grafting
along one loop flips the holonomy along the other.  The dictionary to the
abelianization coordinate sends a class to the half-lattice point chi of
the Jacobian whose unitary connection d + chi dwbar - conj(chi) dw has
exactly those holonomies.  Grafting also composes the rectangular modulus
harmonically with the modulus of the inserted Hopf annulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TOL_HOLONOMY = 1e-10  # largest |holonomy - eps| a spin class's chi may leave


class SpinGraftError(ValueError):
    pass


class NonPositiveInput(SpinGraftError):
    pass


@dataclass(frozen=True)
class SpinClass:
    eps_x: int
    eps_y: int

    def __post_init__(self):
        if self.eps_x not in (1, -1) or self.eps_y not in (1, -1):
            raise SpinGraftError("spin holonomies must be +-1")

    @classmethod
    def parse(cls, text):
        parts = text.split(",")
        if len(parts) != 2 or any(p not in ("+", "-", "+1", "-1") for p in parts):
            raise SpinGraftError("spin state must look like '+,-'")
        return cls(*(1 if p.startswith("+") else -1 for p in parts))

    def __str__(self):
        return f"{'+' if self.eps_x == 1 else '-'},{'+' if self.eps_y == 1 else '-'}"


ALL_SPIN_CLASSES = (
    SpinClass(1, 1),
    SpinClass(-1, 1),
    SpinClass(1, -1),
    SpinClass(-1, -1),
)


def graft_spin(s: SpinClass, curve: str) -> SpinClass:
    """Spin class after grafting along gamma_x or gamma_y.

    Grafting along gamma_y flips the holonomy along gamma_x and vice
    versa: the change is the linear form 'intersection with the grafting
    curve'.
    """
    if curve == "y":
        return SpinClass(-s.eps_x, s.eps_y)
    if curve == "x":
        return SpinClass(s.eps_x, -s.eps_y)
    raise SpinGraftError("curve must be 'x' or 'y'")


def spin_to_chi(s: SpinClass, tau: float) -> complex:
    """Half-lattice representative chi of a spin class in the Jacobian.

    (+,+) -> 0, (-,+) -> i pi/2, (+,-) -> pi/(2 tau),
    (-,-) -> pi/(2 tau) + i pi/2.
    """
    if not 0 < tau < math.inf:
        raise NonPositiveInput("tau must be positive and finite")
    chi = 0.0 + 0.0j
    if s.eps_x == -1:
        chi += 0.5j * math.pi
    if s.eps_y == -1:
        chi += 0.5 * math.pi / tau  # pi / (2 tau) would overflow 2 tau past ~9e307
    return chi


def line_holonomies(chi: complex, tau: float):
    """Z2 holonomies along gamma_x, gamma_y of d + chi dwbar - conj(chi) dw.

    The form is constant, so its line integral over a straight loop with
    velocity wdot is chi conj(wdot) - conj(chi) wdot = 2i Im(chi conj(wdot))
    in closed form; the imaginary part alone stays finite where the real
    part of chi conj(wdot) overflows (Im chi = pi/2 and tau past ~1.1e308).
    """
    chi = complex(chi)

    def holonomy(wdot):
        return cmath.exp(-2j * (chi * wdot.conjugate()).imag)

    return holonomy(1.0 + 0.0j), holonomy(1j * tau)


def verify_spin_dictionary(tau: float):
    """Worst |holonomy - eps| over the four spin classes; raises above TOL_HOLONOMY."""
    worst = 0.0
    for s in ALL_SPIN_CLASSES:
        hx, hy = line_holonomies(spin_to_chi(s, tau), tau)
        worst = max(worst, abs(hx - s.eps_x), abs(hy - s.eps_y))
    if worst > TOL_HOLONOMY:
        raise SpinGraftError(f"spin dictionary holonomy deviation {worst:.2e}")
    return worst


def hopf_modulus(ell: float) -> float:
    """Conformal modulus of the Hopf annulus glued in by grafting.

    2 pi / ell, the quotient-annulus modulus for translation length ell.
    """
    if not 0 < ell < math.inf:
        raise NonPositiveInput("translation length must be positive and finite")
    return 2.0 * math.pi / ell


def graft_modulus(tau: float, ell: float) -> float:
    """Rectangular modulus after grafting: harmonic sum with the Hopf modulus.

    tau_new = (1/tau + 1/tau_Y)^-1 < tau, strictly increasing in tau.
    """
    if not 0 < tau < math.inf:
        raise NonPositiveInput("tau must be positive and finite")
    return 1.0 / (1.0 / tau + 1.0 / hopf_modulus(ell))

