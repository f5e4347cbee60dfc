import math

import numpy as np
import pytest

from fricke import algebra, lorentz


def random_unimodular(rng):
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = algebra.det(m)
        if abs(d) > 0.1:
            return m / np.sqrt(d)


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
        nk = algebra.order_of(np.linalg.matrix_power(j0, int(k)))
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
