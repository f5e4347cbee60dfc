import math

import numpy as np
import pytest

from fricke import spingraft as sg


def test_graft_spin_table():
    assert sg.graft_spin(sg.SpinClass(1, 1), "y") == sg.SpinClass(-1, 1)
    assert sg.graft_spin(sg.SpinClass(1, 1), "x") == sg.SpinClass(1, -1)
    s = sg.SpinClass(-1, 1)
    assert sg.graft_spin(sg.graft_spin(s, "y"), "y") == s
    with pytest.raises(sg.SpinGraftError):
        sg.graft_spin(s, "z")


def test_graft_spin_generates_klein_four_group():
    orbits = set()
    for s in sg.ALL_SPIN_CLASSES:
        reached = {s}
        frontier = [s]
        while frontier:
            cur = frontier.pop()
            for c in "xy":
                nxt = sg.graft_spin(cur, c)
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        orbits.add(frozenset(reached))
    assert orbits == {frozenset(sg.ALL_SPIN_CLASSES)}
    # the two flips commute and are involutions
    for s in sg.ALL_SPIN_CLASSES:
        assert sg.graft_spin(sg.graft_spin(s, "x"), "y") == sg.graft_spin(
            sg.graft_spin(s, "y"), "x"
        )


def test_spin_to_chi_dictionary():
    tau = 2.0
    assert sg.spin_to_chi(sg.SpinClass(1, 1), tau) == 0
    assert sg.spin_to_chi(sg.SpinClass(-1, 1), tau) == 0.5j * math.pi
    assert abs(sg.spin_to_chi(sg.SpinClass(1, -1), tau) - math.pi / 4) <= 1e-15
    assert abs(
        sg.spin_to_chi(sg.SpinClass(-1, -1), tau) - (math.pi / 4 + 0.5j * math.pi)
    ) <= 1e-15


@pytest.mark.parametrize(("eps_x", "eps_y"), [(0, 1), (1, 2), (-1, 0)])
def test_spin_class_holonomies_are_signs(eps_x, eps_y):
    with pytest.raises(sg.SpinGraftError, match="^spin holonomies must be \\+-1$"):
        sg.SpinClass(eps_x, eps_y)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
def test_spin_to_chi_needs_a_positive_finite_tau(tau):
    with pytest.raises(sg.NonPositiveInput, match="^tau must be positive and finite$"):
        sg.spin_to_chi(sg.SpinClass(1, -1), tau)


def test_spin_dictionary_past_its_tolerance(monkeypatch):
    """A deviation above TOL_HOLONOMY raises SpinGraftError naming it: i pi/2 leaves 1.2e-16 at tau = 1."""
    worst = sg.verify_spin_dictionary(1.0)
    assert 0.0 < worst <= 1e-15
    monkeypatch.setattr(sg, "TOL_HOLONOMY", worst / 2)
    with pytest.raises(sg.SpinGraftError, match=f"^spin dictionary holonomy deviation {worst:.2e}$"):
        sg.verify_spin_dictionary(1.0)


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 1e308, 1.7e308])
def test_spin_holonomies_match(tau):
    """Oracle: line integral of the unitary connection along both loops."""
    assert sg.verify_spin_dictionary(tau) <= 1e-10
    s = sg.SpinClass(-1, 1)
    hx, hy = sg.line_holonomies(sg.spin_to_chi(s, tau), tau)
    assert abs(hx + 1.0) <= 1e-12 and abs(hy - 1.0) <= 1e-12


@pytest.mark.parametrize("tau", [1e-300, 1.0, 1e307, 1e308, 1.7e308])
def test_spin_to_chi_keeps_large_tau(tau):
    """chi = pi/(2 tau) to the last bit; 2 tau would overflow past ~9e307 and give chi = 0."""
    chi = sg.spin_to_chi(sg.SpinClass(1, -1), tau)
    assert chi.imag == 0.0 and chi.real > 0.0
    if 2.0 * tau < math.inf:
        assert chi.real == math.pi / (2.0 * tau)


def test_spin_example_tau_two():
    hx, hy = sg.line_holonomies(sg.spin_to_chi(sg.SpinClass(1, -1), 2.0), 2.0)
    assert abs(hy + 1.0) <= 1e-12 and abs(hx - 1.0) <= 1e-12


def test_hopf_modulus_contract():
    assert sg.hopf_modulus(1.0) > sg.hopf_modulus(2.0)
    assert sg.hopf_modulus(1e6) < 1e-4
    assert sg.hopf_modulus(1e-6) > 1e4
    assert abs(sg.hopf_modulus(2 * math.pi) - 1.0) <= 1e-15
    with pytest.raises(sg.NonPositiveInput):
        sg.hopf_modulus(0.0)


def test_graft_modulus_limits():
    # tau_Y -> infinity: result -> tau
    assert abs(sg.graft_modulus(1.3, 1e-9) - 1.3) <= 1e-6
    # tau = tau_Y: harmonic mean gives tau/2
    tau = sg.hopf_modulus(2.0)
    assert abs(sg.graft_modulus(tau, 2.0) - tau / 2.0) <= 1e-12
    with pytest.raises(sg.NonPositiveInput):
        sg.graft_modulus(-1.0, 1.0)


def test_graft_modulus_monotone_in_tau():
    for ell in (0.5, 1.0, 3.0):
        assert sg.graft_modulus(2.0, ell) > sg.graft_modulus(1.0, ell)


def test_graft_modulus_strictly_decreasing_iteration():
    tau = 3.0
    seen = [tau]
    for _ in range(12):
        tau = sg.graft_modulus(tau, 1.7)
        assert 0.0 < tau < seen[-1]
        seen.append(tau)


def test_graft_modulus_injective_on_grid():
    ell = 2.2
    grid = np.linspace(0.2, 5.0, 60)
    images = [sg.graft_modulus(t, ell) for t in grid]
    assert all(b > a for a, b in zip(images, images[1:]))
    assert len({round(v, 12) for v in images}) == len(images)


def test_spin_parse():
    assert sg.SpinClass.parse("+,-") == sg.SpinClass(1, -1)
    with pytest.raises(sg.SpinGraftError):
        sg.SpinClass.parse("+0,-")
