import math

import pytest

from fricke import algebra, dodeca

SQRT5 = math.sqrt(5.0)


@pytest.fixture(scope="module")
def data():
    return dodeca.build_dodeca()


def test_build_j0(data):
    expected = algebra.make(1, -1, 1, 1) / math.sqrt(2)
    assert algebra.norm_inf(data.j0 - expected) <= 1e-12


def test_build_g23(data):
    expected = (-1j / math.sqrt(2)) * algebra.make(1, 1, 1, -1)
    assert algebra.norm_inf(data.generators[(2, 3)] - expected) <= 1e-12


def test_tr_j1(data):
    assert abs(algebra.trace(data.J[0]) - (1 - SQRT5) / 2) <= 1e-12


def test_conjugation_chain(data):
    j0_inv = algebra.inverse(data.j0)
    for prev, nxt in zip(data.J[:-1], data.J[1:]):
        assert algebra.norm_inf(nxt - data.j0 @ prev @ j0_inv) <= 1e-12


def test_j0_fourth_power_commutes_with_j1(data):
    j4 = data.j0 @ data.j0 @ data.j0 @ data.j0
    J1 = data.J[0]
    assert algebra.norm_inf(j4 @ J1 - J1 @ j4) <= 1e-9


def test_verify_theorem91_all_pass():
    checks = dodeca.verify_theorem91()
    failing = {k: v for k, v in checks.items() if v[0] > v[1]}
    assert not failing, failing


def test_verify_theorem91_key_values():
    checks = dodeca.verify_theorem91()
    assert checks["tr_J3J1"][0] <= 1e-9
    assert checks["J4J3J2J1_id"][0] <= 1e-9
    assert checks["torus_fricke"][0] <= 1e-8
    assert checks["eta_locus"][0] <= 1e-8
