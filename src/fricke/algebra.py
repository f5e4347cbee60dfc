"""Complex 2x2 matrix algebra for SL(2,C) computations.

Matrices are plain 2x2 complex numpy arrays with determinant 1 (up to
``TOL_ALG``).  Group words are sequences of ``(generator_index, exponent)``
pairs with exponent +1 or -1, evaluated right-to-left: the last letter of
the word acts first, so ``evaluate_word([(0,1),(1,1)], [A,B]) == A @ B``
is the matrix of "first do B's loop, then A's".
"""

from __future__ import annotations

import numpy as np

TOL_ALG = 1e-9
MAX_ORDER = 64  # the largest finite order order_of looks for

IDENTITY = np.eye(2, dtype=complex)


class AlgebraError(ValueError):
    pass


class IndexOutOfAlphabet(AlgebraError):
    """A group word refers to a generator index outside the alphabet."""


def make(a, b, c, d):
    """Build a 2x2 complex matrix from its row-major entries."""
    return np.array([[a, b], [c, d]], dtype=complex)


def det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def trace(m):
    return m[0, 0] + m[1, 1]


def inverse(m):
    """Inverse of a unimodular matrix via the adjugate (exact for det=1)."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def norm_inf(m):
    """Max-abs entry norm; cheap and basis-stable at 2x2."""
    return float(np.max(np.abs(m)))


def order_of(m, tol=TOL_ALG):
    """Smallest n <= MAX_ORDER with m^n = Id (entrywise within tol), else None."""
    acc = m
    for n in range(1, MAX_ORDER + 1):
        if norm_inf(acc - IDENTITY) <= tol:
            return n
        acc = acc @ m
    return None


def evaluate_word(word, alphabet):
    """Product of word letters over the alphabet, rightmost letter first.

    ``word`` is iterated left to right and multiplied on the right, so the
    returned matrix is letters[0] @ letters[1] @ ... which composes loops
    right-to-left.
    """
    out = IDENTITY.copy()
    for idx, exp in word:
        if not 0 <= idx < len(alphabet):
            raise IndexOutOfAlphabet(f"generator index {idx} not in alphabet of size {len(alphabet)}")
        g = alphabet[idx]
        out = out @ (g if exp == 1 else inverse(g))
    return out


def commutator(a, b):
    """b^-1 a^-1 b a, the monodromy of a commutator loop (a's loop first)."""
    return inverse(b) @ inverse(a) @ b @ a


def to_json_entries(m):
    """Row-major [[re,im],...] encoding used by the CLI."""
    return [[float(np.real(x)), float(np.imag(x))] for x in np.asarray(m).reshape(-1)]

