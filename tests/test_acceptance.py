"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here exactly as contracted.
"""

import math
import time

import numpy as np
import pytest

from fricke import abelmono as am
from fricke import algebra, charvar, covering, dodeca, lorentz, spingraft

SQRT5 = math.sqrt(5.0)
YSTAR = math.sqrt(3.0 + SQRT5)


def _report(num, label, passed, detail=""):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{state}] {label}" + (f" ({detail})" if detail else ""))
    return passed


def test_criterion_1_theorem91():
    t0 = time.time()
    checks = dodeca.verify_theorem91(tol=1e-9)
    elapsed = time.time() - t0
    worst = max(res for res, _ in checks.values())
    ok = dodeca.theorem91_passed(checks) and elapsed < 1.0
    assert _report(1, "Theorem 9.1 suite", ok, f"worst={worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_tetrahedron():
    t0 = time.time()
    tet = lorentz.canonical_tetrahedron()
    got = lorentz.dihedral_data(tet)
    expected = sorted(
        [0, 0, 0, math.cos(math.pi / 5), math.cos(math.pi / 3), math.cos(math.pi / 4)]
    )
    angle_dev = max(abs(a - b) for a, b in zip(got, expected))
    lift_dev = 0.0
    for (m, n), g in lorentz.generators().items():
        ref = lorentz.compose_reflections([tet.normals[m], tet.normals[n]])
        lift_dev = max(lift_dev, lorentz.lift_check(g, ref))
    elapsed = time.time() - t0
    ok = angle_dev <= 1e-9 and lift_dev <= 1e-8 and elapsed < 1.0
    assert _report(
        2, "Tetrahedron suite", ok,
        f"angles={angle_dev:.2e}, lifts={lift_dev:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_character_variety():
    t0 = time.time()
    rng = np.random.default_rng(42)
    weights = [charvar.Weight(3, 10), charvar.Weight(2, 7), charvar.Weight(5, 12)]
    worst_sphere = 0.0
    count = 0
    while count < 1000:
        w = weights[count % len(weights)]
        x = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1, 1))
        y = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1, 1))
        z1, z2 = charvar.solve_z(x, y, w)
        t = charvar.TraceCoords(x, y, z1 if count % 2 else z2)
        if abs(charvar.fricke_torus_residual(*t.astuple(), w.r)) > 1e-10:
            continue
        count += 1
        s = charvar.abelianize(t, w)
        worst_sphere = max(worst_sphere, abs(charvar.fricke_sphere_residual(s)))

    # round trips on a subsample
    roundtrip_ok = True
    rng2 = np.random.default_rng(43)
    for _ in range(100):
        w = weights[rng2.integers(0, len(weights))]
        x, y = rng2.uniform(-2.5, 2.5, size=2)
        z1, _ = charvar.solve_z(x, y, w)
        t = charvar.TraceCoords(x, y, z1)
        s = charvar.abelianize(t, w)
        if min(abs(s.xt - 2), abs(s.yt - 2), abs(s.zt - 2)) < 1e-6:
            continue
        lifts = charvar.lift_traces(s, w)
        hit = any(
            max(abs(a - b) for a, b in zip(l.astuple(), t.astuple())) <= 1e-7
            for l in lifts
        )
        back_ok = all(
            max(abs(a - b) for a, b in zip(charvar.abelianize(l, w).astuple(), s.astuple())) <= 1e-8
            for l in lifts
        )
        roundtrip_ok = roundtrip_ok and hit and back_ok

    w10 = charvar.Weight(3, 10)
    dodeca_point = charvar.TraceCoords(YSTAR, YSTAR, (3 + SQRT5) / 2)
    char_res = abs(charvar.fricke_torus_residual(*dodeca_point.astuple(), w10.r))
    eta_res = abs(charvar.eta_locus_residual(YSTAR, YSTAR, w10.r))
    elapsed = time.time() - t0
    ok = (
        worst_sphere <= 1e-8
        and roundtrip_ok
        and char_res <= 1e-8
        and eta_res <= 1e-8
        and elapsed < 5.0
    )
    assert _report(
        3, "Character-variety suite", ok,
        f"sphere={worst_sphere:.2e}, dodeca char={char_res:.2e}, eta={eta_res:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_monodromy_grid():
    t0 = time.time()
    r = 0.1
    target = 2.0 * math.cos(math.pi / 5.0)
    a_vals = [-0.8, -0.35, 0.1, 0.55, 1.0]
    chi_vals = [0.3 + 0.2j, -0.25 + 0.15j, 0.2 - 0.35j, 0.45 + 0.4j, -0.15 - 0.2j]
    taus = [0.8, 1.0, 1.25]
    worst_comm = worst_char = worst_drift = 0.0
    for tau in taus:
        for a in a_vals:
            for chi in chi_vals:
                m = am.monodromies(am.ConnectionParams(a, chi, r, tau))
                worst_comm = max(worst_comm, abs(algebra.trace(m.K) - target))
                worst_char = max(worst_char, m.char_residual)
                worst_drift = max(worst_drift, m.det_drift)
    worst_homotopy = 0.0
    for tau in taus:
        for a, chi in ((0.55, 0.3 + 0.2j), (-0.35, 0.2 - 0.35j)):
            form = am.ConnectionForm(am.ConnectionParams(a, chi, r, tau))
            straight = am.parallel_transport(form, am.gamma_x(tau))
            wiggly = am.parallel_transport(form, am.gamma_x_wiggled(tau, 0.05, 2))
            worst_homotopy = max(
                worst_homotopy, float(np.max(np.abs(straight.matrix - wiggly.matrix)))
            )
    elapsed = time.time() - t0
    ok = (
        worst_comm <= 1e-6
        and worst_char <= 1e-6
        and worst_drift <= 1e-8
        and worst_homotopy <= 1e-6
        and elapsed < 300.0
    )
    assert _report(
        4, "Monodromy grid suite", ok,
        f"comm={worst_comm:.2e}, char={worst_char:.2e}, drift={worst_drift:.2e}, "
        f"homotopy={worst_homotopy:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_eta_invariance():
    t0 = time.time()
    r = 0.1
    w = charvar.Weight(3, 10)
    worst_im = worst_root = 0.0
    for a in (-0.6, -0.2, 0.2, 0.6):
        for chi in (0.1, 0.22, 0.34, 0.46):
            m = am.monodromies(am.ConnectionParams(a, chi, r, 1.0))
            worst_im = max(worst_im, abs(complex(m.x).imag), abs(complex(m.y).imag))
            z1, z2 = charvar.solve_z(complex(m.x).real, complex(m.y).real, w)
            nearest = min(abs(m.z - z1), abs(m.z - z2))
            other = z2 if abs(m.z - z1) < abs(m.z - z2) else z1
            worst_root = max(
                worst_root, nearest, abs(other - complex(m.z).conjugate())
            )
    elapsed = time.time() - t0
    ok = worst_im <= 1e-6 and worst_root <= 1e-5 and elapsed < 60.0
    assert _report(
        5, "Eta-invariance suite", ok,
        f"im={worst_im:.2e}, roots={worst_root:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_covering():
    t0 = time.time()
    all_pass = True
    odd_all_positive = True
    for w in covering.admissible_weights():
        rep = covering.covering_triviality_check(w)
        all_pass = all_pass and rep.passed
        if w.k % 2 == 1:
            odd_all_positive = odd_all_positive and rep.all_positive
    elapsed = time.time() - t0
    ok = all_pass and odd_all_positive and elapsed < 1.0
    assert _report(6, "Covering suite", ok, f"{elapsed:.2f}s")


def test_criterion_7_locus_figure():
    t0 = time.time()
    r = 0.1
    chi0 = math.pi / 4.0
    sweep = am.real_locus_sweep(r, 1.0, chi0, (0.05, 1.6), 60)
    flagged = sweep.flagged_real()
    on_locus = bool(flagged)
    worst_dev = 0.0
    for row in flagged:
        x = complex(row.x).real
        y = complex(row.y).real
        if x * x > 4.0 + 1e-9:
            dev = abs(abs(y) - charvar.real_locus_y(x, r))
            worst_dev = max(worst_dev, dev)
            on_locus = on_locus and dev <= 1e-4
        else:
            on_locus = on_locus and abs(row.eta_residual) <= 1e-4
    through_dodeca = abs(charvar.real_locus_y(YSTAR, r) - YSTAR) <= 1e-9
    elapsed = time.time() - t0
    ok = on_locus and through_dodeca and elapsed < 120.0
    assert _report(
        7, "Locus figure", ok,
        f"{len(flagged)} real point(s), dev={worst_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_matching():
    """Trace matching lands on y* = 2.2882456 on the SL(2,R) real locus.

    A fixed slice cannot reach y*: on tau = 1, chi0 = pi/4, sampled at
    a = -3, -2.99, ..., 4, |tr Y| stays below 2.02 (largest 2.0187, at
    a = 0.79 and, with y < 0, at a = -2.36).  The slice's only real-locus
    point with y > 1 is its graze point a ~ 0.8085, y ~ 2.0183, well below
    y* ~ 2.2882.  So match_y on that slice must raise
    BracketDoesNotStraddle.  tr Y is a global coordinate on the real-locus
    component swept by tau, and match_on_locus (the matcher behind
    `fricke match --on-locus`) reaches y* there from its default tau
    bracket within the 60-evaluation budget.
    """
    t0 = time.time()
    with pytest.raises(am.BracketDoesNotStraddle):
        am.match_y(2.2882456, 0.1, 1.0, math.pi / 4.0, (0.05, 1.5), max_evals=60)
    res = am.match_on_locus(2.2882456, 0.1)
    matched = abs(complex(res.result.y).real - 2.2882456) <= 1e-6
    point = charvar.TraceCoords(
        complex(res.result.x).real,
        complex(res.result.y).real,
        res.result.z,
    )
    verdict = charvar.classify_real(point, charvar.Weight(3, 10), tol=1e-6)
    sl2r = isinstance(verdict, tuple) and verdict[0] == "SL2R"
    eta_ok = (
        abs(
            charvar.eta_locus_residual(
                complex(res.result.x).real,
                complex(res.result.y).real,
                charvar.Weight(3, 10).r,
            )
        )
        <= 1e-4
    )
    ok = matched and sl2r and eta_ok and res.evaluations <= 60
    detail = f"tau={res.tau:.4f}, evals={res.evaluations}, {time.time()-t0:.1f}s"
    assert _report(8, "Matching on the real locus (tau = 1 slice bounded below y*)", ok, detail)


def test_criterion_9_jacobian_rank():
    t0 = time.time()
    r = 0.1
    samples = [
        (0.15, 0.9), (0.3, 0.9), (0.45, 0.9), (0.6, 0.9), (0.9, 0.9),
        (0.15, 1.1), (0.3, 1.1), (0.45, 1.1), (0.6, 1.1), (0.9, 1.1),
    ]
    all_rank2 = True
    worst_change = 0.0
    for a, tau in samples:
        j1 = am.jacobian_rank(a, tau, r, h=1e-4)
        j2 = am.jacobian_rank(a, tau, r, h=5e-5)
        all_rank2 = all_rank2 and j1.rank == 2 and j2.rank == 2
        rel = float(
            np.max(
                np.abs(j1.jacobian - j2.jacobian)
                / np.maximum(1e-12, np.abs(j2.jacobian))
            )
        )
        worst_change = max(worst_change, rel)
    elapsed = time.time() - t0
    ok = all_rank2 and worst_change < 0.05 and elapsed < 300.0
    assert _report(
        9, "Jacobian rank check", ok,
        f"step-halving change={worst_change:.2%}, {elapsed:.1f}s",
    )


def test_criterion_10_spin_grafting():
    t0 = time.time()
    # Klein four-group action
    flips_x = {s: spingraft.graft_spin(s, "x") for s in spingraft.ALL_SPIN_CLASSES}
    flips_y = {s: spingraft.graft_spin(s, "y") for s in spingraft.ALL_SPIN_CLASSES}
    klein = all(
        flips_x[flips_x[s]] == s
        and flips_y[flips_y[s]] == s
        and flips_x[flips_y[s]] == flips_y[flips_x[s]]
        for s in spingraft.ALL_SPIN_CLASSES
    )
    orbit = {spingraft.SpinClass(1, 1)}
    frontier = list(orbit)
    while frontier:
        cur = frontier.pop()
        for c in "xy":
            nxt = spingraft.graft_spin(cur, c)
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    klein = klein and len(orbit) == 4

    worst_holonomy = max(
        spingraft.verify_spin_dictionary(tau) for tau in (0.5, 1.0, 2.0)
    )

    tau = 3.0
    decreasing = True
    seen = [tau]
    for _ in range(10):
        tau = spingraft.graft_modulus(tau, 1.7)
        decreasing = decreasing and 0.0 < tau < seen[-1]
        seen.append(tau)
    grid = np.linspace(0.2, 5.0, 50)
    images = [spingraft.graft_modulus(t, 2.2) for t in grid]
    injective = all(b > a for a, b in zip(images, images[1:]))
    elapsed = time.time() - t0
    ok = klein and worst_holonomy <= 1e-10 and decreasing and injective and elapsed < 1.0
    assert _report(
        10, "Spin/grafting suite", ok,
        f"holonomy={worst_holonomy:.2e}, {elapsed:.2f}s",
    )
