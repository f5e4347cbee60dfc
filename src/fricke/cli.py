"""Command-line front end.

Exit codes: 0 all checks passed / output produced, 1 a verification
failed (report still emitted), 2 invalid input.  Errors go to stderr as
single-line records ``E:<code>:<message>``; warnings as ``W:<code>:...``.
Identical argv + config produce byte-identical JSON/CSV output (SVG is
identical up to the version comment line).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, abelmono, algebra, charvar, covering, dodeca, lorentz, spingraft

USAGE_EXIT = 2
CHECK_EXIT = 1
FORMATS = ("json", "csv", "text")
# The formats each verb can write; a verb not listed writes json only.
VERB_FORMATS = {"verify": ("json", "text"), "locus": ("csv",)}
SVG_WIDTH, SVG_HEIGHT = 640, 480


class CliInputError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    tol_alg: float = algebra.TOL_ALG
    tol_char: float = charvar.TOL_CHAR
    tol_mono: float = abelmono.TOL_MONO
    tol_root: float = abelmono.TOL_ROOT
    steps: int = abelmono.DEFAULT_STEP_BUDGET
    format: str | None = None  # None: the verb's own default

    def __post_init__(self):
        for name, value in self.tolerances().items():
            if not (math.isfinite(value) and value > 0):
                raise CliInputError(f"{name} must be positive and finite")
        if self.steps < 100:
            raise CliInputError("panel budget (steps) must be >= 100")
        if self.format is not None and self.format not in FORMATS:
            raise CliInputError(f"unknown output format {self.format!r}")

    def tolerances(self):
        return {
            "tol_alg": self.tol_alg,
            "tol_char": self.tol_char,
            "tol_mono": self.tol_mono,
            "tol_root": self.tol_root,
        }


_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?i?$"
)


def finite_float(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def parse_complex(text: str) -> complex:
    """Parse the flag syntax RE+IMi (either part optional, signs allowed); finite parts only."""
    s = text.strip().replace(" ", "")
    if not s:
        raise CliInputError("empty complex literal")
    if s.endswith("i"):
        m = _COMPLEX_RE.match(s)
        if not (m and (m.group("re") or m.group("im"))):
            raise CliInputError(f"cannot parse complex literal {text!r}")
        re_part, im_part = m.group("re"), m.group("im")
        if im_part is None:
            # pure imaginary like '0.2i' or '-0.2i'
            value = complex(0.0, float(re_part))
        else:
            value = complex(float(re_part or 0.0), float(im_part))
    else:
        try:
            value = complex(float(s), 0.0)
        except ValueError as exc:
            raise CliInputError(f"cannot parse complex literal {text!r}") from exc
    if not cmath.isfinite(value):
        raise CliInputError(f"complex literal {text!r} is not finite")
    return value


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    types = {f.name: str if f.default is None else type(f.default) for f in fields(RunConfig)}
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliInputError(f"cannot read config file {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliInputError(f"bad config line {line!r}")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key not in types:
            raise CliInputError(f"unknown config key {key!r}")
        try:
            values[key] = types[key](raw)
        except ValueError as exc:
            raise CliInputError(f"bad value for config key {key!r}: {raw!r}") from exc
    return RunConfig(**values)


def apply_flag_overrides(config: RunConfig, args) -> RunConfig:
    updates = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return replace(config, **updates) if updates else config


def write_json(payload, config: RunConfig, **tolerances):
    """Print payload as sorted-key JSON with its tolerances block (config, then extras)."""
    payload = {**payload, "tolerances": {**config.tolerances(), **tolerances}}
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def error(code: str, message: str):
    print(f"E:{code}:{message}", file=sys.stderr)


def warn(code: str, message: str):
    print(f"W:{code}:{message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# verbs


def cmd_verify(args, config: RunConfig) -> int:
    if args.target != "dodeca":
        raise CliInputError(f"unknown verification target {args.target!r}")
    tol = args.tol if args.tol is not None else config.tol_alg
    checks = dodeca.verify_theorem91(tol)
    passed = dodeca.theorem91_passed(checks)
    if args.json or config.format != "text":
        payload = {
            "target": "dodeca",
            "passed": passed,
            "residuals": {name: res for name, (res, _bound) in checks.items()},
            "bounds": {name: bound for name, (_res, bound) in checks.items()},
        }
        write_json(payload, config, tol=tol)
    else:
        for name, (res, bound) in checks.items():
            state = "ok" if res <= bound else "FAIL"
            print(f"{state:4s} {name:24s} {res:.3e} <= {bound:.1e}")
        print("passed" if passed else "failed")
    return 0 if passed else CHECK_EXIT


def _parse_coords(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise CliInputError("coords must be three comma-separated numbers")
    return tuple(parse_complex(p) for p in parts)


def cmd_charvar(args, config: RunConfig) -> int:
    # torus-side actions read --weight as r in (0,1/2); sphere-side as rt in (1/4,1/2)
    torus_side = args.action in ("abelianize", "classify") or (
        args.action == "residual" and args.surface == "torus"
    )
    if torus_side:
        w = charvar.Weight.from_torus(args.weight)
    else:
        w = charvar.Weight.parse(args.weight, normalize=args.normalize_weight)
    if args.action == "residual":
        x, y, z = _parse_coords(args.coords)
        if args.surface == "torus":
            res = charvar.fricke_torus_residual(x, y, z, w.r)
        else:
            res = charvar.fricke_sphere_residual(
                charvar.SphereTraceCoords(x, y, z, w.mu)
            )
        payload = {"surface": args.surface, "weight": str(w), "residual": [res.real, res.imag]}
        write_json(payload, config)
        return 0
    if args.action == "abelianize":
        x, y, z = _parse_coords(args.coords)
        s = charvar.abelianize(charvar.TraceCoords(x, y, z), w)
        payload = {
            "weight": str(w),
            "mu": s.mu,
            "xt": [s.xt.real, s.xt.imag],
            "yt": [s.yt.real, s.yt.imag],
            "zt": [s.zt.real, s.zt.imag],
            "residual": abs(charvar.fricke_sphere_residual(s)),
        }
        write_json(payload, config)
        return 0
    if args.action == "lift":
        xt, yt, zt = _parse_coords(args.coords)
        s = charvar.SphereTraceCoords(xt, yt, zt, w.mu)
        lifts = charvar.lift_traces(s, w, config.tol_char)
        payload = {
            "weight": str(w),
            "count": len(lifts),
            "lifts": [
                {
                    "x": [t.x.real, t.x.imag],
                    "y": [t.y.real, t.y.imag],
                    "z": [t.z.real, t.z.imag],
                    "residual": abs(charvar.fricke_torus_residual(*t.astuple(), w.r)),
                }
                for t in lifts
            ],
        }
        write_json(payload, config)
        return 0
    if args.action == "classify":
        x, y, z = _parse_coords(args.coords)
        verdict = charvar.classify_real(charvar.TraceCoords(x, y, z), w, config.tol_char)
        if isinstance(verdict, tuple):
            payload = {"class": verdict[0], "component": verdict[1]}
        else:
            payload = {"class": verdict}
        write_json(payload, config)
        return 0
    raise CliInputError(f"unknown charvar action {args.action!r}")


def cmd_lorentz(args, config: RunConfig) -> int:
    if args.action != "angles":
        raise CliInputError(f"unknown lorentz action {args.action!r}")
    tet = lorentz.canonical_tetrahedron()
    data = lorentz.dihedral_data(tet)
    gens = lorentz.generators()
    lifts = {}
    for (m, n), g in gens.items():
        ref = lorentz.compose_reflections([tet.normals[m], tet.normals[n]])
        lifts[f"g{m}{n}"] = lorentz.lift_check(g, ref)
    payload = {
        "dihedral_cosines": data,
        "expected": sorted(
            [0.0, 0.0, 0.0, math.cos(math.pi / 5), math.cos(math.pi / 3), math.cos(math.pi / 4)]
        ),
        "residuals": lifts,
    }
    write_json(payload, config)
    worst_angle = max(
        abs(a - b) for a, b in zip(payload["dihedral_cosines"], payload["expected"])
    )
    ok = worst_angle <= 1e-9 and all(v <= 1e-8 for v in lifts.values())
    return 0 if ok else CHECK_EXIT


def cmd_covering(args, config: RunConfig) -> int:
    if args.action != "check":
        raise CliInputError(f"unknown covering action {args.action!r}")
    w = charvar.Weight.parse(args.weight, normalize=args.normalize_weight)
    signs = covering.SignChoice.parse(args.signs)
    report = covering.covering_triviality_check(w, signs, config.tol_alg)
    payload = {
        "weight": str(w),
        "sheets": report.sheets,
        "passed": report.passed,
        "all_positive": report.all_positive,
        "signs": report.signs,
        "residuals": {"worst": report.worst_residual},
    }
    write_json(payload, config)
    return 0 if report.passed else CHECK_EXIT


def _monodromy_payload(res: abelmono.MonodromyResult):
    return {
        "x": [complex(res.x).real, complex(res.x).imag],
        "y": [complex(res.y).real, complex(res.y).imag],
        "z": [complex(res.z).real, complex(res.z).imag],
        "X": algebra.to_json_entries(res.X),
        "Y": algebra.to_json_entries(res.Y),
        "K": algebra.to_json_entries(res.K),
        "residuals": {
            "character_equation": res.char_residual,
            "commutator_trace": res.commutator_residual,
            "det_drift": res.det_drift,
        },
    }


def cmd_monodromy(args, config: RunConfig) -> int:
    params = abelmono.ConnectionParams(
        parse_complex(args.a), parse_complex(args.chi), args.r, args.tau
    )
    res = abelmono.monodromies(params, steps=config.steps)
    write_json(_monodromy_payload(res), config)
    ok = (
        res.char_residual <= config.tol_mono
        and res.commutator_residual <= config.tol_mono
    )
    return 0 if ok else CHECK_EXIT


def _chi0_value(text: str, tau: float) -> complex:
    if text == "pi/(4tau)":
        return complex(math.pi / (4.0 * tau), 0.0)
    if text == "ipi/4":
        return complex(0.0, math.pi / 4.0)
    return parse_complex(text)


def _parse_bracket(text: str):
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise CliInputError(f"bracket must be two comma-separated numbers: {text!r}") from exc
    return lo, hi


def locus_rows_to_csv(result: abelmono.SweepResult) -> str:
    lines = ["a_re,a_im,x_re,x_im,y_re,y_im,z_re,z_im,eta_residual"]
    for row in result.rows:
        vals = []
        for v in (row.a, row.x, row.y, row.z):
            c = complex(v)
            vals.extend((c.real, c.imag))
        vals.append(row.eta_residual)
        lines.append(",".join(f"{v:.12g}" for v in vals))
    return "\n".join(lines) + "\n"


def emit_locus_svg(result: abelmono.SweepResult) -> str:
    """Standalone SVG: flagged-real sample points, analytic overlay, axes.

    The dodecahedral point is marked when r = 1/10.  Raises on an empty
    table.
    """
    if not result.rows:
        raise CliInputError("empty locus table")
    r = result.r
    xs_min, xs_max = 2.0005, 12.0
    overlay = []
    for x in np.linspace(xs_min, xs_max, 400):
        try:
            overlay.append((float(x), charvar.real_locus_y(float(x), r)))
        except charvar.CharVarError:
            continue
    flagged = [
        (complex(row.x).real, complex(row.y).real) for row in result.flagged_real()
    ]
    pts_x = [p[0] for p in overlay + flagged]
    pts_y = [p[1] for p in overlay + flagged]
    x_lo, x_hi = min(pts_x) - 0.3, min(max(pts_x) + 0.3, 13.0)
    y_lo, y_hi = min(pts_y) - 0.3, max(pts_y) + 0.5
    margin = 50.0

    def to_px(x, y):
        px = margin + (x - x_lo) / (x_hi - x_lo) * (SVG_WIDTH - 2 * margin)
        py = SVG_HEIGHT - margin - (y - y_lo) / (y_hi - y_lo) * (SVG_HEIGHT - 2 * margin)
        return px, py

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- fricke locus svg v{__version__} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    ax_x0, ax_y0 = to_px(x_lo, y_lo)
    ax_x1, ax_y1 = to_px(x_hi, y_hi)
    parts.append(
        f'<line x1="{ax_x0:.2f}" y1="{ax_y0:.2f}" x2="{ax_x1:.2f}" y2="{ax_y0:.2f}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{ax_x0:.2f}" y1="{ax_y0:.2f}" x2="{ax_x0:.2f}" y2="{ax_y1:.2f}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{SVG_WIDTH/2:.0f}" y="{SVG_HEIGHT-12}" font-size="13" text-anchor="middle">'
        "x = tr X</text>"
    )
    parts.append(
        f'<text x="14" y="{SVG_HEIGHT/2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {SVG_HEIGHT/2:.0f})">y = tr Y</text>'
    )
    if overlay:
        path = " ".join(
            ("M" if i == 0 else "L") + f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}"
            for i, (x, y) in enumerate(overlay)
        )
        parts.append(
            f'<path d="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        )
    for x, y in flagged:
        px, py = to_px(x, y)
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="#d62728" '
            'fill-opacity="0.85"/>'
        )
    if abs(r - 0.1) <= 1e-12:
        dx = math.sqrt(3.0 + lorentz.SQRT5)
        px, py = to_px(dx, dx)
        parts.append(
            f'<g stroke="#2ca02c" stroke-width="1.5">'
            f'<line x1="{px-6:.2f}" y1="{py:.2f}" x2="{px+6:.2f}" y2="{py:.2f}"/>'
            f'<line x1="{px:.2f}" y1="{py-6:.2f}" x2="{px:.2f}" y2="{py+6:.2f}"/></g>'
        )
        parts.append(
            f'<text x="{px+8:.2f}" y="{py-8:.2f}" font-size="11" fill="#2ca02c">'
            "dodecahedral point</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_locus(args, config: RunConfig) -> int:
    chi0 = _chi0_value(args.chi0, args.tau)
    result = abelmono.real_locus_sweep(
        args.r,
        args.tau,
        chi0,
        (args.a_min, args.a_max),
        args.n,
        tol=config.tol_mono,
        refine=not args.no_refine,
        steps=config.steps,
    )
    csv_text = locus_rows_to_csv(result)
    if args.csv:
        Path(args.csv).write_text(csv_text)
    if args.svg:
        Path(args.svg).write_text(emit_locus_svg(result))
    if not result.flagged_real():
        warn("locus", "no flagged-real rows; overlay only")
    if config.format == "csv" or not (args.csv or args.svg):
        sys.stdout.write(csv_text)
    return 0


def cmd_match(args, config: RunConfig) -> int:
    if args.on_locus:
        res = abelmono.match_on_locus(
            args.y_target,
            args.r,
            tau_bracket=(args.tau_min, args.tau_max),
            tol_root=config.tol_root,
            steps=config.steps,
        )
        payload = {
            "mode": "on-locus",
            "tau": res.tau,
            "a": [res.a.real, res.a.imag],
            "evaluations": res.evaluations,
            **_monodromy_payload(res.result),
        }
    else:
        res = abelmono.match_y(
            args.y_target,
            args.r,
            args.tau,
            _chi0_value(args.chi0, args.tau),
            _parse_bracket(args.bracket),
            tol_root=config.tol_root,
            steps=config.steps,
        )
        payload = {
            "mode": "fixed-tau",
            "a": [res.a.real, res.a.imag],
            "t": res.t,
            "evaluations": res.evaluations,
            **_monodromy_payload(res.result),
        }
    mismatch = abs(complex(res.result.y).real - args.y_target)
    payload["residuals"]["y_mismatch"] = mismatch
    write_json(payload, config)
    return 0 if mismatch <= config.tol_root else CHECK_EXIT


def cmd_jacobian(args, config: RunConfig) -> int:
    res = abelmono.jacobian_rank(args.a, args.tau, args.r, args.h, steps=config.steps)
    payload = {
        "jacobian": [[float(v) for v in row] for row in res.jacobian],
        "singular_values": list(res.singular_values),
        "rank": res.rank,
        "step": res.step,
        "residuals": {"smallest_singular_value": res.singular_values[1]},
    }
    write_json(payload, config)
    return 0 if res.rank == 2 else CHECK_EXIT


def cmd_spin(args, config: RunConfig) -> int:
    state = spingraft.SpinClass.parse(args.state)
    sequence = args.graft or ""
    if any(c not in "xy" for c in sequence):
        raise CliInputError("graft sequence must consist of 'x' and 'y'")
    trace = [str(state)]
    for c in sequence:
        state = spingraft.graft_spin(state, c)
        trace.append(str(state))
    chi = spingraft.spin_to_chi(state, args.tau)
    hx, hy = spingraft.line_holonomies(chi, args.tau)
    payload = {
        "initial": trace[0],
        "sequence": sequence,
        "trace": trace,
        "final": str(state),
        "chi": [chi.real, chi.imag],
        "tau": args.tau,
        "residuals": {
            "holonomy_x": abs(hx - state.eps_x),
            "holonomy_y": abs(hy - state.eps_y),
        },
    }
    write_json(payload, config)
    return 0


# ---------------------------------------------------------------------------
# dispatch


INPUT_ERRORS = (
    CliInputError,
    charvar.CharVarError,
    covering.CoveringError,
    spingraft.SpinGraftError,
    algebra.AlgebraError,
    lorentz.LorentzError,
    abelmono.ParameterOutOfRange,
    abelmono.NonGenericChi,
    abelmono.SlicePreconditionError,
)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as CliInputError, i.e. one ``E:input`` line."""

    def error(self, message):
        raise CliInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fricke",
        description="Character varieties, numerical monodromy and the dodecahedral lattice checks",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--tol-alg", dest="tol_alg", type=finite_float)
    parser.add_argument("--tol-char", dest="tol_char", type=finite_float)
    parser.add_argument("--tol-mono", dest="tol_mono", type=finite_float)
    parser.add_argument("--tol-root", dest="tol_root", type=finite_float)
    parser.add_argument("--steps", type=int, help="panel budget per transport")
    parser.add_argument("--format", choices=FORMATS)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="run a bundled verification suite")
    p.add_argument("target", choices=("dodeca",))
    p.add_argument("--tol", type=finite_float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("charvar", help="trace-coordinate computations")
    p.add_argument("action", choices=("residual", "abelianize", "lift", "classify"))
    p.add_argument("--surface", choices=("torus", "sphere"), default="torus")
    p.add_argument("--coords", required=True, help="x,y,z (complex entries RE+IMi)")
    p.add_argument("--weight", required=True, help="parabolic weight l/k")
    p.add_argument("--normalize-weight", action="store_true",
                   help="fold weights in (0,1/4) to 1/2 - rt instead of rejecting")
    p.set_defaults(func=cmd_charvar)

    p = sub.add_parser("lorentz", help="hyperboloid-model data")
    p.add_argument("action", choices=("angles",))
    p.set_defaults(func=cmd_lorentz)

    p = sub.add_parser("covering", help="covering triviality checks")
    p.add_argument("action", choices=("check",))
    p.add_argument("--weight", required=True)
    p.add_argument("--signs", default="1,-1,-1", help="s2,s3,s4 with 1+s2+s3+s4=0")
    p.add_argument("--normalize-weight", action="store_true")
    p.set_defaults(func=cmd_covering)

    p = sub.add_parser("monodromy", help="monodromy of one connection")
    p.add_argument("--a", required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--r", type=finite_float, required=True)
    p.add_argument("--tau", type=finite_float, required=True)
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("locus", help="sweep an eta-invariant slice, flag real points")
    p.add_argument("--r", type=finite_float, required=True)
    p.add_argument("--tau", type=finite_float, default=1.0)
    p.add_argument("--chi0", default="pi/(4tau)",
                   help="'pi/(4tau)', 'ipi/4' or an explicit complex value")
    p.add_argument("--a-min", dest="a_min", type=finite_float, default=0.05)
    p.add_argument("--a-max", dest="a_max", type=finite_float, default=1.6)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--csv", help="write the table to this path")
    p.add_argument("--svg", help="write the locus figure to this path")
    p.set_defaults(func=cmd_locus)

    p = sub.add_parser("match", help="root-find a monodromy trace target")
    p.add_argument("--y-target", dest="y_target", type=finite_float, required=True)
    p.add_argument("--r", type=finite_float, required=True)
    p.add_argument("--tau", type=finite_float, default=1.0)
    p.add_argument("--chi0", default="pi/(4tau)")
    p.add_argument("--bracket", default="0.05,1.5", help="t_lo,t_hi along the slice")
    p.add_argument("--on-locus", action="store_true",
                   help="match along the real locus by moving tau")
    p.add_argument("--tau-min", dest="tau_min", type=finite_float, default=2.0)
    p.add_argument("--tau-max", dest="tau_max", type=finite_float, default=3.5)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("jacobian", help="finite-difference rank check on the real slice")
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--tau", type=finite_float, required=True)
    p.add_argument("--r", type=finite_float, required=True)
    p.add_argument("--h", type=finite_float, default=1e-4)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("spin", help="spin classes and grafting bookkeeping")
    p.add_argument("--state", required=True, help="initial class, e.g. '+,-'")
    p.add_argument("--graft", default="", help="sequence of grafts, e.g. 'xyy'")
    p.add_argument("--tau", type=finite_float, default=1.0)
    p.set_defaults(func=cmd_spin)

    return parser


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = apply_flag_overrides(load_config(args.config), args)
        if config.format not in (None, *VERB_FORMATS.get(args.verb, ("json",))):
            raise CliInputError(f"{args.verb} cannot write format {config.format!r}")
        return args.func(args, config)
    except SystemExit as exc:  # --help
        return USAGE_EXIT if exc.code not in (0, None) else 0
    except INPUT_ERRORS as exc:
        error("input", str(exc))
        return USAGE_EXIT
    except abelmono.AbelMonoError as exc:
        error("check", str(exc))
        return CHECK_EXIT


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
