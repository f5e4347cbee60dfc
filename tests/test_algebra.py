import cmath
import math

import numpy as np
import pytest

from fricke import algebra, lorentz


def random_unimodular(rng):
    while True:
        re, im = rng.normal(size=(2, 4))
        m = algebra.make(*(complex(x, y) for x, y in zip(re, im)))
        d = algebra.det(m)
        if abs(d) > 0.1:
            return m / cmath.sqrt(d)


def test_multiply_g12_g13_gives_j0():
    gens = lorentz.generators()
    j0 = gens[(1, 2)] @ gens[(1, 3)]
    expected = algebra.make(1, -1, 1, 1) / math.sqrt(2)
    assert algebra.norm_inf(j0 - expected) <= 1e-12


def test_multiply_identity_and_inverse():
    rng = np.random.default_rng(0)
    a = random_unimodular(rng)
    assert algebra.norm_inf(a @ algebra.IDENTITY - a) == 0
    gens = lorentz.generators()
    j0 = gens[(1, 2)] @ gens[(1, 3)]
    assert algebra.norm_inf(j0 @ algebra.inverse(j0) - algebra.IDENTITY) <= 1e-12


def test_multiply_det_within_tolerance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_unimodular(rng), random_unimodular(rng)
        assert abs(algebra.det(a @ b) - algebra.det(a) * algebra.det(b)) <= 1e-12


def test_trace_cyclicity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_unimodular(rng), random_unimodular(rng)
        assert abs(algebra.trace(a @ b) - algebra.trace(b @ a)) <= 1e-12


@pytest.mark.parametrize(
    "name,expected",
    [("j0", 8), ("g02", 5), ("id", 1)],
)
def test_order_of(name, expected):
    gens = lorentz.generators()
    mats = {
        "j0": gens[(1, 2)] @ gens[(1, 3)],
        "g02": gens[(0, 2)],
        "id": algebra.IDENTITY,
    }
    assert algebra.order_of(mats[name]) == expected


def test_order_of_powers_divide():
    gens = lorentz.generators()
    j0 = gens[(1, 2)] @ gens[(1, 3)]
    n = algebra.order_of(j0)
    rng = np.random.default_rng(3)
    for k in rng.integers(1, 12, size=6):
        power = algebra.IDENTITY
        for _ in range(k):
            power = power @ j0
        nk = algebra.order_of(power)
        assert nk is not None and n % nk == 0


def test_order_of_none_for_infinite_order():
    hyp = algebra.make(2.0, 0.0, 0.0, 0.5)
    assert algebra.order_of(hyp) is None


def test_evaluate_word_right_to_left():
    gens = lorentz.generators()
    j0 = gens[(1, 2)] @ gens[(1, 3)]
    g02 = gens[(0, 2)]
    j1 = -(g02 @ g02)
    js = [j1]
    for _ in range(3):
        js.append(j0 @ js[-1] @ algebra.inverse(j0))
    # gamma_4 gamma_3 gamma_2 gamma_1 evaluates with the rightmost loop first
    word = [(3, 1), (2, 1), (1, 1), (0, 1)]
    assert algebra.norm_inf(algebra.evaluate_word(word, js) - algebra.IDENTITY) <= 1e-12
    assert algebra.norm_inf(algebra.evaluate_word([], js) - algebra.IDENTITY) == 0
    assert (
        algebra.norm_inf(
            algebra.evaluate_word([(0, -1), (0, 1)], js) - algebra.IDENTITY
        )
        <= 1e-12
    )


def test_evaluate_word_bad_index():
    with pytest.raises(algebra.IndexOutOfAlphabet):
        algebra.evaluate_word([(2, 1)], [algebra.IDENTITY])


def test_json_roundtrip():
    rng = np.random.default_rng(4)
    m = random_unimodular(rng)
    entries = algebra.to_json_entries(m)
    assert entries == [[v.real, v.imag] for v in (m[0, 0], m[0, 1], m[1, 0], m[1, 1])]


# Oracle: the pure-Python products against numpy's @ on random SL(2,C) matrices.
# Each computes an entry as a sum of two complex products, so each is within
# (sqrt(5) + 1) eps of the exact entry, relative to the same entry of |A| @ |B|
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.6); the
# two then differ by at most 2 (sqrt(5) + 1) eps < 7 eps on that scale, and a
# word of n letters by at most 7 n eps of the product of its |letters|.
ULPS = 7.0
EPS = np.finfo(float).eps


def _as_array(m):
    return np.array([[m[0, 0], m[0, 1]], [m[1, 0], m[1, 1]]], dtype=complex)


def _np_inverse(m):
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def _np_order(m, tol=algebra.TOL_ALG):
    acc = m
    for n in range(1, algebra.MAX_ORDER + 1):
        if np.max(np.abs(acc - np.eye(2))) <= tol:
            return n
        acc = acc @ m
    return None


def test_products_match_numpy_within_a_few_ulps():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(2000):
        a, b = random_unimodular(rng), random_unimodular(rng)
        na, nb = _as_array(a), _as_array(b)
        scale = np.abs(na) @ np.abs(nb)
        worst = max(worst, float(np.max(np.abs(_as_array(a @ b) - na @ nb) / scale)))
        assert _as_array(algebra.inverse(a)).tolist() == _np_inverse(na).tolist()
        assert algebra.trace(a) == complex(np.trace(na))
        det_scale = abs(a[0, 0] * a[1, 1]) + abs(a[0, 1] * a[1, 0])
        assert abs(algebra.det(a) - np.linalg.det(na)) <= ULPS * EPS * det_scale
    assert worst <= ULPS * EPS, worst / EPS


def test_evaluate_word_matches_numpy_within_a_few_ulps():
    rng = np.random.default_rng(31)
    alphabet = [random_unimodular(rng) for _ in range(3)]
    arrays = [_as_array(g) for g in alphabet]
    for _ in range(300):
        length = rng.integers(1, 9)
        word = [(int(rng.integers(3)), int(rng.choice((1, -1)))) for _ in range(length)]
        letters = [arrays[i] if e == 1 else _np_inverse(arrays[i]) for i, e in word]
        expected, scale = np.eye(2, dtype=complex), np.eye(2)
        for letter in letters:
            expected, scale = expected @ letter, scale @ np.abs(letter)
        got = _as_array(algebra.evaluate_word(word, alphabet))
        assert np.all(np.abs(got - expected) <= ULPS * len(word) * EPS * scale)


def test_lattice_orders_match_numpy():
    """order_of on the lattice generators and the J's is what the numpy product gives."""
    gens = lorentz.generators()
    j0 = gens[(1, 2)] @ gens[(1, 3)]
    g02 = gens[(0, 2)]
    js = [-(g02 @ g02)]
    for _ in range(3):
        js.append(j0 @ js[-1] @ algebra.inverse(j0))
    mats = [*gens.values(), j0, *js]
    assert [algebra.order_of(m) for m in mats] == [_np_order(_as_array(m)) for m in mats]
    assert [algebra.order_of(m) for m in mats[6:]] == [8, 10, 10, 10, 10]
    relation = algebra.evaluate_word([(3, 1), (2, 1), (1, 1), (0, 1)], js)
    assert algebra.norm_inf(relation - algebra.IDENTITY) <= 1e-12
