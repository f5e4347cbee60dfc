"""Closed-form correctness checks owned by the benchmark.

Every bound here is the benchmark's own and is stated in terms of the scale
of the quantities it compares, so a change to the program's gate constants
(TOL_MONO, TOL_ROOT, ...) can neither hide nor create a failure.  Nothing
in this file imports fricke.
"""

from __future__ import annotations

import math

import numpy as np

# Scale-normalised bound on the monodromy identities: the character equation,
# the commutator trace, det = 1, realness on eta-invariant slices and homotopy
# invariance.  The integrator runs at rtol 1e-10; the worst normalised residual
# seen over the benchmark domains is ~5e-9, so 1e-7 leaves a 20x margin.
REL_BOUND = 1e-7
# Relative deviation of a flagged sweep row from the analytic real-locus branch.
LOCUS_BOUND = 1e-4
# |Re y - target| for match_y and the dodecahedral solve.
ROOT_BOUND = 1e-6
# |z - (3 + sqrt 5)/2| at the dodecahedral point.
DODECA_Z_BOUND = 1e-6
# Smallest singular value of a rank-2 Jacobian.
RANK_FLOOR = 1e-3
# Residuals of the exact-algebra CLI verbs (all O(1) quantities).
EXACT_BOUND = 1e-9
# Residuals below this count as exact when converted to digits.
DIGITS_FLOOR = 1e-16

SQRT5 = math.sqrt(5.0)
YSTAR = math.sqrt(3.0 + SQRT5)
ZSTAR = (3.0 + SQRT5) / 2.0


def digits(worst: float) -> float:
    """-log10 of a scale-normalised residual, capped at 16."""
    return -math.log10(max(worst, DIGITS_FLOOR))


def entry_scale(m) -> float:
    return max(1.0, float(np.max(np.abs(m))))


def det2(m) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def inverse2(m):
    d = det2(m)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / d


def character_residual(x, y, z, r) -> float:
    """|x^2+y^2+z^2-xyz-2-2cos(2 pi r)| over the size of its terms."""
    x, y, z = complex(x), complex(y), complex(z)
    c = 2.0 * math.cos(2.0 * math.pi * r)
    res = abs(x * x + y * y + z * z - x * y * z - 2.0 - c)
    scale = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2 + abs(x * y * z) + 2.0 + abs(c)
    return res / scale


def commutator_residual(X, Y, r) -> float:
    """|tr(Y^-1 X^-1 Y X) - 2cos(2 pi r)| over |X|^2 |Y|^2 (max-entry norms)."""
    K = inverse2(Y) @ inverse2(X) @ Y @ X
    res = abs(complex(np.trace(K)) - 2.0 * math.cos(2.0 * math.pi * r))
    return res / (entry_scale(X) ** 2 * entry_scale(Y) ** 2)


def det_residual(M) -> float:
    return abs(det2(M) - 1.0) / entry_scale(M) ** 2


def realness(v) -> float:
    v = complex(v)
    return abs(v.imag) / max(1.0, abs(v))


def mismatch(reported, computed) -> float:
    return abs(complex(reported) - complex(computed)) / max(1.0, abs(complex(computed)))


def monodromy_residuals(X, Y, x, y, z, r) -> dict:
    """Residuals of one monodromy result, recomputed from its matrices.

    The traces are recomputed from X and Y (z = tr YX, loops composed right
    to left) and compared with the reported (x, y, z).
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    tx, ty, tz = complex(np.trace(X)), complex(np.trace(Y)), complex(np.trace(Y @ X))
    return {
        "character": character_residual(tx, ty, tz, r),
        "commutator": commutator_residual(X, Y, r),
        "det": max(det_residual(X), det_residual(Y)),
        "traces": max(mismatch(x, tx), mismatch(y, ty), mismatch(z, tz)),
    }


def homotopy_residual(A, B) -> float:
    return float(np.max(np.abs(np.asarray(A) - np.asarray(B)))) / entry_scale(A)


def locus_y(x: float, r: float):
    """y(x) = sqrt((4x^2 - 8(1+cos 2 pi r)) / (x^2 - 4)), or None off the branch."""
    den = x * x - 4.0
    if den == 0.0:
        return None
    val = (4.0 * x * x - 8.0 * (1.0 + math.cos(2.0 * math.pi * r))) / den
    return math.sqrt(val) if val >= 0.0 else None


def locus_deviation(x: float, y: float, r: float):
    target = locus_y(x, r)
    if target is None:
        return None
    return abs(abs(y) - target) / max(1.0, target)


def torus_z_roots(x, y, r):
    """The two z with (x, y, z) on the torus character variety of weight r."""
    x, y = complex(x), complex(y)
    c = 2.0 * math.cos(2.0 * math.pi * r)
    b = x * y
    disc = b * b - 4.0 * (x * x + y * y - 2.0 - c)
    root = complex(np.sqrt(disc))
    return (b + root) / 2.0, (b - root) / 2.0


def json_matrix(entries):
    """Inverse of the CLI's row-major [[re, im], ...] matrix encoding."""
    vals = [complex(re, im) for re, im in entries]
    return np.array(vals, dtype=complex).reshape(2, 2)


def json_complex(pair) -> complex:
    return complex(pair[0], pair[1])
