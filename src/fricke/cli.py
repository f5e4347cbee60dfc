"""Command-line front end.

Exit codes: 0 all checks passed / output produced, 1 a verification
failed (report still emitted), 2 invalid input.  Errors go to stderr as
single-line records ``E:<code>:<message>``; warnings as ``W:<code>:...``.
Identical argv produce byte-identical JSON/CSV output (SVG is identical up
to the version comment line).  ``dispatch`` is the only writer of stdout:
it adds the ``tolerances`` block to a verb's JSON payload.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from pathlib import Path

from . import __version__, abeldomain, algebra, charvar, covering, dodeca, lorentz, spingraft

USAGE_EXIT = 2
CHECK_EXIT = 1
FORMATS = ("json", "csv", "text")
# The formats each verb can write; a verb not listed writes json only.
VERB_FORMATS = {"verify": ("json", "text"), "locus": ("csv",)}
SVG_WIDTH, SVG_HEIGHT = 640, 480
# The targets of `verify`, each with its check function; dodeca.theorem91_passed
# judges the checks.  The function is looked up on its module at call time, so
# a wrapper installed there (perfbench's tracer) sees the call.
VERIFY_TARGETS = {"dodeca": lambda: dodeca.verify_theorem91()}
# The four check tolerances, reported in every JSON payload's tolerances block.
TOLERANCES = {
    "tol_alg": algebra.TOL_ALG,
    "tol_char": charvar.TOL_CHAR,
    "tol_mono": abeldomain.TOL_MONO,
    "tol_root": abeldomain.TOL_ROOT,
}


class CliInputError(ValueError):
    pass


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


def error(code: str, message: str):
    print(f"E:{code}:{message}", file=sys.stderr)


def warn(code: str, message: str):
    print(f"W:{code}:{message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# verbs: each returns (output, ok) and writes nothing to stdout.  output is a
# JSON payload (dict), text to print, or None; ok False exits CHECK_EXIT.


def _pair(z) -> list:
    """A complex number as its JSON pair [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def cmd_verify(args):
    if args.json and args.format == "text":
        raise CliInputError("--json and --format text conflict")
    checks = VERIFY_TARGETS[args.target]()
    passed = dodeca.theorem91_passed(checks)
    if args.format != "text":
        return {
            "target": args.target,
            "passed": passed,
            "residuals": {name: res for name, (res, _bound) in checks.items()},
            "bounds": {name: bound for name, (_res, bound) in checks.items()},
        }, passed
    lines = [
        f"{'ok' if res <= bound else 'FAIL':4s} {name:24s} {res:.3e} <= {bound:.1e}"
        for name, (res, bound) in checks.items()
    ]
    return "\n".join([*lines, "passed" if passed else "failed"]) + "\n", passed


def _parse_coords(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise CliInputError("coords must be three comma-separated numbers")
    return tuple(parse_complex(p) for p in parts)


def cmd_charvar(args):
    if args.surface and args.action != "residual":
        raise CliInputError(f"charvar {args.action} does not read --surface")
    surface = args.surface or "torus"
    # torus-side actions read --weight as r in (0,1/2); sphere-side as rt in (1/4,1/2)
    if args.action != "lift" and surface == "torus":
        w = charvar.Weight.from_torus(args.weight)
    else:
        w = charvar.Weight.parse(args.weight)
    x, y, z = _parse_coords(args.coords)
    if args.action == "residual":
        if surface == "torus":
            res = charvar.fricke_torus_residual(x, y, z, w.r)
        else:
            res = charvar.fricke_sphere_residual(charvar.SphereTraceCoords(x, y, z, w.mu))
        return {"surface": surface, "weight": str(w), "residual": _pair(res)}, True
    if args.action == "abelianize":
        s = charvar.abelianize(charvar.TraceCoords(x, y, z), w)
        return {
            "weight": str(w),
            "mu": s.mu,
            "xt": _pair(s.xt),
            "yt": _pair(s.yt),
            "zt": _pair(s.zt),
            "residual": abs(charvar.fricke_sphere_residual(s)),
        }, True
    if args.action == "lift":
        lifts = charvar.lift_traces(charvar.SphereTraceCoords(x, y, z, w.mu), w)
        return {
            "weight": str(w),
            "count": len(lifts),
            "lifts": [
                {
                    "x": _pair(t.x),
                    "y": _pair(t.y),
                    "z": _pair(t.z),
                    "residual": abs(charvar.fricke_torus_residual(*t.astuple(), w.r)),
                }
                for t in lifts
            ],
        }, True
    verdict = charvar.classify_real(charvar.TraceCoords(x, y, z), w)
    if isinstance(verdict, tuple):
        return {"class": verdict[0], "component": verdict[1]}, True
    return {"class": verdict}, True


def cmd_lorentz(args):
    tet = lorentz.canonical_tetrahedron()
    data = lorentz.dihedral_data(tet)
    lifts = {}
    for (m, n), g in lorentz.generators().items():
        ref = lorentz.compose_reflections([tet.normals[m], tet.normals[n]])
        lifts[f"g{m}{n}"] = lorentz.lift_check(g, ref)
    expected = sorted(
        [0.0, 0.0, 0.0, math.cos(math.pi / 5), math.cos(math.pi / 3), math.cos(math.pi / 4)]
    )
    worst_angle = max(abs(a - b) for a, b in zip(data, expected))
    ok = worst_angle <= 1e-9 and all(v <= 1e-8 for v in lifts.values())
    return {"dihedral_cosines": data, "expected": expected, "residuals": lifts}, ok


def cmd_covering(args):
    w = charvar.Weight.parse(args.weight)
    signs = covering.SignChoice.parse(args.signs)
    report = covering.covering_triviality_check(w, signs)
    return {
        "weight": str(w),
        "sheets": report.sheets,
        "passed": report.passed,
        "all_positive": report.all_positive,
        "signs": report.signs,
        "residuals": {"worst": report.worst_residual},
    }, report.passed


def _monodromy_payload(res):
    return {
        "x": _pair(res.x),
        "y": _pair(res.y),
        "z": _pair(res.z),
        "X": algebra.to_json_entries(res.X),
        "Y": algebra.to_json_entries(res.Y),
        "K": algebra.to_json_entries(res.K),
        "residuals": {
            "character_equation": res.char_residual,
            "commutator_trace": res.commutator_residual,
            "det_drift": res.det_drift,
        },
    }


def cmd_monodromy(args):
    from . import abelmono

    params = abelmono.ConnectionParams(
        parse_complex(args.a), parse_complex(args.chi), args.r, args.tau
    )
    res = abelmono.monodromies(params)
    ok = res.char_residual <= abeldomain.TOL_MONO and res.commutator_residual <= abeldomain.TOL_MONO
    return _monodromy_payload(res), ok


def _chi0_value(text: str, tau: float) -> complex:
    abeldomain.check_tau(tau)
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


def locus_rows_to_csv(result) -> str:
    lines = ["a_re,a_im,x_re,x_im,y_re,y_im,z_re,z_im,eta_residual"]
    for row in result.rows:
        vals = []
        for v in (row.a, row.x, row.y, row.z):
            c = complex(v)
            vals.extend((c.real, c.imag))
        vals.append(row.eta_residual)
        lines.append(",".join(f"{v:.12g}" for v in vals))
    return "\n".join(lines) + "\n"


def emit_locus_svg(result) -> str:
    """Standalone SVG: flagged-real sample points, analytic overlay, axes.

    The dodecahedral point is marked when r = 1/10.  Raises on an empty
    table.
    """
    if not result.rows:
        raise CliInputError("empty locus table")
    r = result.r
    xs_min, xs_max = 2.0005, 12.0
    # real_locus_y is defined for x > 2, whatever r
    # the points of numpy.linspace(xs_min, xs_max, 400), bit for bit
    step = (xs_max - xs_min) / 399
    xs = [xs_min + i * step for i in range(399)] + [xs_max]
    overlay = [(x, charvar.real_locus_y(x, r)) for x in xs]
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
    path = " ".join(
        ("M" if i == 0 else "L") + f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}"
        for i, (x, y) in enumerate(overlay)
    )
    parts.append(f'<path d="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
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


def _write_file(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def cmd_locus(args):
    from . import abelmono

    chi0 = _chi0_value(args.chi0, args.tau)
    result = abelmono.real_locus_sweep(args.r, args.tau, chi0, (args.a_min, args.a_max), args.n)
    csv_text = locus_rows_to_csv(result)
    if args.csv:
        _write_file(args.csv, csv_text)
    if args.svg:
        _write_file(args.svg, emit_locus_svg(result))
    if not result.flagged_real():
        warn("locus", "no flagged-real rows; overlay only")
    printed = args.format == "csv" or not (args.csv or args.svg)
    return (csv_text if printed else None), True


# The flags only one mode of match reads, with their defaults, keyed by --on-locus.
MATCH_MODE_FLAGS = {
    True: {"tau_min": 2.0, "tau_max": 3.5},
    False: {"tau": 1.0, "chi0": "pi/(4tau)", "bracket": "0.05,1.5"},
}


def cmd_match(args):
    for name in MATCH_MODE_FLAGS[not args.on_locus]:
        if getattr(args, name) is not None:
            without = "" if args.on_locus else "out"
            flag = "--" + name.replace("_", "-")
            raise CliInputError(f"match with{without} --on-locus does not read {flag}")
    for name, default in MATCH_MODE_FLAGS[args.on_locus].items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    from . import abelmono

    if args.on_locus:
        res = abelmono.match_on_locus(
            args.y_target,
            args.r,
            tau_bracket=(args.tau_min, args.tau_max),
        )
        mode = {"mode": "on-locus", "tau": res.tau}
    else:
        res = abelmono.match_y(
            args.y_target,
            args.r,
            args.tau,
            _chi0_value(args.chi0, args.tau),
            _parse_bracket(args.bracket),
        )
        mode = {"mode": "fixed-tau", "t": res.t}
    payload = {**mode, "a": _pair(res.a), "evaluations": res.evaluations,
               **_monodromy_payload(res.result)}
    mismatch = abs(complex(res.result.y).real - args.y_target)
    payload["residuals"]["y_mismatch"] = mismatch
    return payload, mismatch <= abeldomain.TOL_ROOT


def cmd_jacobian(args):
    from . import abelmono

    res = abelmono.jacobian_rank(args.a, args.tau, args.r, args.h)
    return {
        "jacobian": [[float(v) for v in row] for row in res.jacobian],
        "singular_values": list(res.singular_values),
        "rank": res.rank,
        "step": args.h,
        "residuals": {"smallest_singular_value": res.singular_values[1]},
    }, res.rank == 2


def cmd_spin(args):
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
    residuals = {"holonomy_x": abs(hx - state.eps_x), "holonomy_y": abs(hy - state.eps_y)}
    return {
        "initial": trace[0],
        "sequence": sequence,
        "trace": trace,
        "final": str(state),
        "chi": _pair(chi),
        "tau": args.tau,
        "residuals": residuals,
    }, all(v <= spingraft.TOL_HOLONOMY for v in residuals.values())


# ---------------------------------------------------------------------------
# dispatch


INPUT_ERRORS = (
    CliInputError,
    charvar.CharVarError,
    covering.CoveringError,
    spingraft.SpinGraftError,
    algebra.AlgebraError,
    lorentz.LorentzError,
    abeldomain.ParameterOutOfRange,
    abeldomain.NonGenericChi,
    abeldomain.SlicePreconditionError,
)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as CliInputError, i.e. one ``E:input`` line.

    Flags must be spelled out: a prefix of a flag is an unknown flag.  An
    unknown flag is named as such wherever it stands among a verb's tokens
    (the top-level parser stops at the verb, whose own parser reads the
    rest); argparse would take its value for a positional and name the
    value, or call it an unrecognized argument.  A token that starts with
    '-' and then a digit, '.' or ',' is a value (no flag starts that way),
    so ``--coords -1,1,1``, ``--chi -0.3+0.2i`` and ``--state -,+`` need no
    '=' (argparse takes only a plain -1 or -.5 for a value).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.,]")

    def parse_known_args(self, args, namespace):
        i = 0
        while i < len(args) and args[i] != "--":
            if not args[i].startswith("-") or self._negative_number_matcher.match(args[i]):
                if self._subparsers is not None:  # the verb
                    break
                i += 1
                continue
            flag, eq, _ = args[i].partition("=")
            action = self._option_string_actions.get(flag)
            if action is None:
                self.error(f"unknown flag {flag}")
            i += 1 if eq or action.nargs == 0 else 2
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise CliInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fricke",
        description="Character varieties, numerical monodromy and the dodecahedral lattice checks",
    )
    parser.add_argument("--format", choices=FORMATS)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="run a bundled verification suite")
    p.add_argument("target", choices=tuple(VERIFY_TARGETS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("charvar", help="trace-coordinate computations")
    p.add_argument("action", choices=("residual", "abelianize", "lift", "classify"))
    p.add_argument("--surface", choices=("torus", "sphere"), help="residual only; default torus")
    p.add_argument("--coords", required=True, help="x,y,z (complex entries RE+IMi)")
    p.add_argument("--weight", required=True, help="parabolic weight l/k")
    p.set_defaults(func=cmd_charvar)

    p = sub.add_parser("lorentz", help="hyperboloid-model data")
    p.add_argument("action", choices=("angles",))
    p.set_defaults(func=cmd_lorentz)

    p = sub.add_parser("covering", help="covering triviality checks")
    p.add_argument("action", choices=("check",))
    p.add_argument("--weight", required=True)
    p.add_argument("--signs", default="1,-1,-1", help="s2,s3,s4 with 1+s2+s3+s4=0")
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
    p.add_argument("--csv", help="write the table to this path")
    p.add_argument("--svg", help="write the locus figure to this path")
    p.set_defaults(func=cmd_locus)

    p = sub.add_parser("match", help="root-find a monodromy trace target")
    p.add_argument("--y-target", dest="y_target", type=finite_float, required=True)
    p.add_argument("--r", type=finite_float, required=True)
    # the defaults of --tau ... --tau-max are in MATCH_MODE_FLAGS
    p.add_argument("--tau", type=finite_float)
    p.add_argument("--chi0")
    p.add_argument("--bracket", help="t_lo,t_hi along the slice")
    p.add_argument("--on-locus", action="store_true",
                   help="match along the real locus by moving tau")
    p.add_argument("--tau-min", dest="tau_min", type=finite_float)
    p.add_argument("--tau-max", dest="tau_max", type=finite_float)
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
        if args.format not in (None, *VERB_FORMATS.get(args.verb, ("json",))):
            raise CliInputError(f"{args.verb} cannot write format {args.format!r}")
        output, ok = args.func(args)
    except SystemExit as exc:  # --help
        return USAGE_EXIT if exc.code not in (0, None) else 0
    except INPUT_ERRORS as exc:
        error("input", str(exc))
        return USAGE_EXIT
    except abeldomain.AbelMonoError as exc:
        error("check", str(exc))
        return CHECK_EXIT
    if isinstance(output, dict):
        output["tolerances"] = TOLERANCES
        try:
            output = json.dumps(output, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            error("check", f"output is not finite: {exc}")
            return CHECK_EXIT
    if output:
        sys.stdout.write(output)
    return 0 if ok else CHECK_EXIT


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
