"""Complex 2x2 matrix algebra for SL(2,C) computations, in plain Python.

Matrices are ``Mat2`` values with determinant 1 (up to ``TOL_ALG``).  They
take ``@``, ``-`` and multiplication or division by a scalar as numpy
arrays do, and ``m[i, j]`` reads an entry, so ``det``, ``trace`` and
``to_json_entries`` also accept a 2x2 numpy array.  Group words are
sequences of ``(generator_index, exponent)`` pairs with exponent +1 or -1,
evaluated right-to-left: the last letter of the word acts first, so
``evaluate_word([(0,1),(1,1)], [A,B]) == A @ B`` is the matrix of "first do
B's loop, then A's".
"""

from __future__ import annotations

TOL_ALG = 1e-9
MAX_ORDER = 64  # the largest finite order order_of looks for


class AlgebraError(ValueError):
    pass


class IndexOutOfAlphabet(AlgebraError):
    """A group word refers to a generator index outside the alphabet."""


class Mat2:
    """The 2x2 complex matrix [[a, b], [c, d]]; iterating gives the entries row-major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __getitem__(self, index):
        i, j = index
        return (self.a, self.b, self.c, self.d)[2 * i + j]

    def __iter__(self):
        return iter((self.a, self.b, self.c, self.d))

    def __matmul__(self, o):
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def __sub__(self, o):
        return Mat2(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, s):
        return Mat2(s * self.a, s * self.b, s * self.c, s * self.d)

    __rmul__ = __mul__

    def __truediv__(self, s):
        return Mat2(self.a / s, self.b / s, self.c / s, self.d / s)


def make(a, b, c, d) -> Mat2:
    """Build a 2x2 complex matrix from its row-major entries."""
    return Mat2(complex(a), complex(b), complex(c), complex(d))


IDENTITY = make(1, 0, 0, 1)


def det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def trace(m):
    return m[0, 0] + m[1, 1]


def inverse(m: Mat2) -> Mat2:
    """Inverse of a unimodular matrix via the adjugate (exact for det=1)."""
    return Mat2(m.d, -m.b, -m.c, m.a)


def adjoint(m: Mat2) -> Mat2:
    """Conjugate transpose."""
    return Mat2(m.a.conjugate(), m.c.conjugate(), m.b.conjugate(), m.d.conjugate())


def norm_inf(m: Mat2) -> float:
    """Max-abs entry norm; cheap and basis-stable at 2x2."""
    return max(map(abs, m))


def order_of(m):
    """Smallest n <= MAX_ORDER with m^n = Id (entrywise within TOL_ALG), else None."""
    acc = m
    for n in range(1, MAX_ORDER + 1):
        if norm_inf(acc - IDENTITY) <= TOL_ALG:
            return n
        acc = acc @ m
    return None


def evaluate_word(word, alphabet):
    """Product of word letters over the alphabet, rightmost letter first.

    ``word`` is iterated left to right and multiplied on the right, so the
    returned matrix is letters[0] @ letters[1] @ ... which composes loops
    right-to-left.
    """
    out = IDENTITY
    for idx, exp in word:
        if not 0 <= idx < len(alphabet):
            raise IndexOutOfAlphabet(f"generator index {idx} not in alphabet of size {len(alphabet)}")
        g = alphabet[idx]
        out = out @ (g if exp == 1 else inverse(g))
    return out


def to_json_entries(m):
    """Row-major [[re,im],...] encoding used by the CLI."""
    entries = (complex(m[i, j]) for i in (0, 1) for j in (0, 1))
    return [[z.real, z.imag] for z in entries]
