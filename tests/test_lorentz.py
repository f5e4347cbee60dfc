import math

import numpy as np
import pytest

from fricke import algebra, lorentz

SQRT5 = math.sqrt(5.0)


@pytest.fixture(scope="module")
def tet():
    return lorentz.canonical_tetrahedron()


@pytest.fixture(scope="module")
def gens():
    return lorentz.generators()


def test_inner_product_values(tet):
    p0 = tet.vertices[0]
    assert abs(lorentz.lorentz_inner(p0, p0) + 1.0) <= 1e-12
    l1, l2 = tet.normals[1], tet.normals[2]
    assert abs(lorentz.lorentz_inner(l1, l2) - 0.5) <= 1e-12
    l0 = tet.normals[0]
    assert abs(lorentz.lorentz_inner(l0, l2) - math.cos(math.pi / 5)) <= 1e-12
    assert abs(lorentz.lorentz_inner(l0, l2) - 0.5 * math.sqrt((3 + SQRT5) / 2)) <= 1e-12


def test_vertices_and_normals_valid(tet):
    tet.validate()
    # validate's conditions, at 1e-12 rather than TOL_TETRAHEDRON
    assert all(lorentz.is_point(p, 1e-12) for p in tet.vertices)
    assert all(lorentz.is_unit_spacelike(n, 1e-12) for n in tet.normals)
    for i, p in enumerate(tet.vertices):
        for j, n in enumerate(tet.normals):
            assert i == j or abs(lorentz.lorentz_inner(p, n)) <= 1e-12


def test_validate_names_each_failed_condition(tet):
    """A vertex off H^3, a normal of norm 2 and swapped vertices each raise LorentzError naming it."""
    p, n = tet.vertices, tet.normals
    cases = [
        (lorentz.Tetrahedron((lorentz.vec(2.0, 0.0, 0.0, 0.0),) + p[1:], n), r"^P0 is not on H\^3$"),
        (lorentz.Tetrahedron(p, (tuple(2.0 * x for x in n[0]),) + n[1:]), "^L0 is not unit spacelike$"),
        (lorentz.Tetrahedron((p[1], p[0]) + p[2:], n), r"^<P0,L1> = -4\.729e-01 != 0$"),
    ]
    for bad, message in cases:
        with pytest.raises(lorentz.LorentzError, match=message):
            bad.validate()


def test_reflect_involution_and_fixed_points(tet):
    l0 = tet.normals[0]
    assert np.allclose(lorentz.reflect(l0, l0), [-x for x in l0], atol=1e-12)
    # vector in the fixed hyperplane
    v = tet.vertices[1]  # <P1, L0> = 0
    assert np.allclose(lorentz.reflect(v, l0), v, atol=1e-12)
    p1 = tet.vertices[1]
    twice = lorentz.reflect(lorentz.reflect(p1, tet.normals[2]), tet.normals[2])
    assert np.allclose(twice, p1, atol=1e-12)


def test_reflect_requires_unit_normal():
    with pytest.raises(lorentz.NotUnitNormal):
        lorentz.reflect(lorentz.vec(1, 0, 0, 0), lorentz.vec(0, 2, 0, 0))


def test_reflect_preserves_inner(tet):
    rng = np.random.default_rng(5)
    for _ in range(30):
        u = lorentz.vec(*rng.normal(size=4))
        v = lorentz.vec(*rng.normal(size=4))
        n = tet.normals[rng.integers(0, 4)]
        lhs = lorentz.lorentz_inner(lorentz.reflect(u, n), lorentz.reflect(v, n))
        assert abs(lhs - lorentz.lorentz_inner(u, v)) <= 1e-12


def test_act_identity_and_det(tet, gens):
    p0 = tet.vertices[0]
    assert np.allclose(lorentz.act(p0, algebra.IDENTITY), p0, atol=1e-14)
    rng = np.random.default_rng(9)
    g = gens[(0, 1)] @ gens[(2, 3)] @ gens[(0, 2)]
    for _ in range(10):
        v = lorentz.vec(*rng.normal(size=4))
        before = lorentz.lorentz_inner(v, v)
        after_v = lorentz.act(v, g)
        assert abs(lorentz.lorentz_inner(after_v, after_v) - before) <= 1e-10


def test_act_not_hermitian():
    with pytest.raises(lorentz.NotHermitian):
        lorentz.from_hermitian(algebra.make(1.0, 1.0j, 1.0j, 1.0))


def test_act_matches_reflections(tet, gens):
    g23 = gens[(2, 3)]
    ref = lorentz.compose_reflections([tet.normals[2], tet.normals[3]])
    p0 = tet.vertices[0]
    assert np.allclose(lorentz.act(p0, g23), ref(p0), atol=1e-12)


def test_act_preserves_h3(tet, gens):
    rng = np.random.default_rng(12)
    keys = list(gens)
    p = tet.vertices[2]
    for _ in range(12):
        g = gens[keys[rng.integers(0, len(keys))]]
        p = lorentz.act(p, g)
        assert lorentz.is_point(p, tol=1e-9)


def test_dihedral_data_canonical(tet):
    got = lorentz.dihedral_data(tet)
    expected = sorted(
        [0, 0, 0, math.cos(math.pi / 5), math.cos(math.pi / 3), math.cos(math.pi / 4)]
    )
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-9


def test_dihedral_data_degenerate():
    n = lorentz.vec(0, 0, 0, 1)
    degenerate = lorentz.Tetrahedron(
        tuple(lorentz.vec(1, 0, 0, 0) for _ in range(4)), tuple(n for _ in range(4))
    )
    assert lorentz.dihedral_data(degenerate) == [1.0] * 6


def test_dihedral_data_permutation_invariant(tet):
    perm = lorentz.Tetrahedron(
        tuple(tet.vertices[i] for i in (2, 0, 3, 1)),
        tuple(tet.normals[i] for i in (2, 0, 3, 1)),
    )
    assert np.allclose(lorentz.dihedral_data(perm), lorentz.dihedral_data(tet))


def test_lift_check_all_generators(tet, gens):
    for (m, n), g in gens.items():
        ref = lorentz.compose_reflections([tet.normals[m], tet.normals[n]])
        assert lorentz.lift_check(g, ref) <= 1e-8, (m, n)


def test_lift_check_identity_and_sign(tet, gens):
    assert lorentz.lift_check(algebra.IDENTITY, lambda v: v) == 0
    g = gens[(1, 3)]
    ref = lorentz.compose_reflections([tet.normals[1], tet.normals[3]])
    assert abs(lorentz.lift_check(g, ref) - lorentz.lift_check(-g, ref)) <= 1e-15
