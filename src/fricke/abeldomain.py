"""The numpy-free part of abelmono: tolerances, tau domain, two defaults and typed errors.

The CLI maps these errors and reads these tolerances for every verb, and
its match and jacobian flags default to these defaults, so they live apart
from the numerical code; abelmono re-exports each name.
"""

from __future__ import annotations

TOL_MONO = 1e-6
TOL_ROOT = 1e-6
TAU_MIN, TAU_MAX = 0.1, 12.0  # the moduli a RectangularLattice is built for
TAU_BRACKET = (2.0, 3.5)  # match_on_locus's tau_bracket, and match --on-locus's --tau-min, --tau-max
JACOBIAN_STEP = 1e-4  # jacobian_rank's finite-difference step h, and jacobian's --h


class AbelMonoError(ValueError):
    pass


class ParameterOutOfRange(AbelMonoError):
    """An input (a, chi, r, tau, a step, a count) lies outside its domain."""


class NonGenericChi(AbelMonoError):
    """The monodromy is beyond double precision: chi at or numerically near a
    half-lattice point of the Jacobian, theta1(pi p) not finite or 0, a
    non-finite panel product, or a monodromy condition number past
    TOL_MONO / eps, as a large |a| also gives."""


class StepLimitExceeded(AbelMonoError):
    """A loop's transport did not converge within PANEL_BUDGET panels."""


class PathTooCloseToPole(AbelMonoError):
    pass


class BracketDoesNotStraddle(AbelMonoError):
    pass


class MaxIterations(AbelMonoError):
    pass


class SlicePreconditionError(AbelMonoError):
    pass


def check_tau(tau) -> None:
    """Raise ParameterOutOfRange unless TAU_MIN <= tau <= TAU_MAX (so also for nan)."""
    if not TAU_MIN <= tau <= TAU_MAX:
        raise ParameterOutOfRange(f"tau must lie in [{TAU_MIN:g}, {TAU_MAX:g}], got {tau}")
