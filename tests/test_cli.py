import argparse
import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fricke import abeldomain, abelmono, algebra, charvar, cli


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex():
    assert cli.parse_complex("0.3+0.2i") == 0.3 + 0.2j
    assert cli.parse_complex("-0.25-0.15i") == -0.25 - 0.15j
    assert cli.parse_complex("2") == 2.0
    assert cli.parse_complex("-1.5e-3") == -0.0015
    assert cli.parse_complex("0.2i") == 0.2j
    assert cli.parse_complex("-0.4i") == -0.4j
    with pytest.raises(cli.CliInputError):
        cli.parse_complex("abc")


def test_verify_dodeca_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "dodeca", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "tolerances" in payload and "residuals" in payload
    assert max(payload["residuals"].values()) <= 1e-8


def test_verify_text_and_json_flags_conflict(capsys):
    code, out, err = run(capsys, "--format", "text", "verify", "dodeca", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("E:input:") and len(err.splitlines()) == 1


def test_verify_tol_flag_removed(capsys):
    code, out, err = run(capsys, "verify", "dodeca", "--tol", "1e-9")
    assert (code, out) == (2, "")
    assert err.startswith("E:input:") and len(err.splitlines()) == 1


def test_charvar_residual_torus(capsys):
    code, out, _ = run(
        capsys, "charvar", "residual", "--surface", "torus",
        "--coords", "2,2,2", "--weight", "1/10",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["residual"][0] - (2 - 2 * math.cos(math.pi / 5))) <= 1e-12


def test_charvar_lift_dodeca(capsys):
    s5 = math.sqrt(5.0)
    coords = f"{-1-s5},{-1-s5},{-1.5*(1+s5)}"
    code, out, _ = run(capsys, "charvar", "lift", "--coords", coords, "--weight", "3/10")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert all(l["residual"] <= 1e-8 for l in payload["lifts"])


def test_charvar_rejects_bad_weight(capsys):
    code, _, err = run(
        capsys, "charvar", "residual", "--surface", "sphere",
        "--coords", "0,0,0", "--weight", "1/10",
    )
    assert code == 2
    assert err.startswith("E:input:")


def test_lorentz_angles(capsys):
    code, out, _ = run(capsys, "lorentz", "angles")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["dihedral_cosines"]) == 6
    diffs = [
        abs(a - b)
        for a, b in zip(payload["dihedral_cosines"], payload["expected"])
    ]
    assert max(diffs) <= 1e-9


def test_covering_check(capsys):
    code, out, _ = run(
        capsys, "covering", "check", "--weight", "2/5", "--signs", "1,-1,-1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["all_positive"]
    assert payload["residuals"]["worst"] == 0.0


def test_covering_check_failure_exits_one(capsys):
    code, out, err = run(capsys, "covering", "check", "--weight", "3/10", "--signs=-1,1,-1")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["passed"] is False and payload["signs"].count(0) == 10
    assert abs(payload["residuals"]["worst"] - 2.0 * math.sin(math.pi / 10.0)) <= 1e-12


def test_monodromy_verb(capsys):
    code, out, _ = run(
        capsys, "monodromy", "--a", "0.2", "--chi", "0.3+0.2i",
        "--r", "0.1", "--tau", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["character_equation"] <= 1e-6
    assert payload["residuals"]["commutator_trace"] <= 1e-6
    assert len(payload["X"]) == 4


def test_monodromy_rejects_half_lattice_chi(capsys):
    code, _, err = run(
        capsys, "monodromy", "--a", "0.2", "--chi", "0", "--r", "0.1", "--tau", "1"
    )
    assert code == 2
    assert err.startswith("E:input:")


def test_spin_verb(capsys):
    code, out, _ = run(capsys, "spin", "--state", "+,+", "--graft", "yx", "--tau", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["final"] == "-,-"
    assert payload["residuals"]["holonomy_x"] <= 1e-10


def test_spin_exit_status_follows_its_residuals(capsys, monkeypatch):
    """A residual above TOL_HOLONOMY still prints the report, and the exit is 1."""
    code, out, err = run(capsys, "spin", "--state", "+,-", "--tau", "1e308")
    residuals = json.loads(out)["residuals"]
    assert (code, err) == (0, "") and 0.0 < residuals["holonomy_y"] <= 1e-15
    monkeypatch.setattr(cli.spingraft, "TOL_HOLONOMY", residuals["holonomy_y"] / 2)
    code, out, err = run(capsys, "spin", "--state", "+,-", "--tau", "1e308")
    assert code == 1 and err == ""
    assert json.loads(out)["residuals"] == residuals


def test_non_generic_chi_prints_one_form(capsys):
    """jacobian and locus build the same slice chi, name it the same way, and name the failing a."""
    _, _, jacobian = run(capsys, "jacobian", "--a", "500", "--tau", "1", "--r", "0.1")
    _, _, locus = run(capsys, "locus", "--r", "0.1", "--a-min", "400", "--a-max", "700",
                      "--n", "8")
    assert jacobian == ("E:input:chi = (0.7853981633974483+0j), a = (500.0001+0j): "
                        "monodromy condition number inf is beyond double precision\n")
    assert locus == jacobian.replace("500.0001+0j", "400-0j")
    _, _, sweep = run(capsys, "locus", "--r", "0.1", "--n", "10000", "--a-min", "-100",
                      "--a-max", "100")
    assert sweep.startswith("E:input:chi = (0.7853981633974483+0j), a = (-100-0j): ")
    _, _, single = run(capsys, "monodromy", "--a", "500", "--chi", "0.3", "--r", "0.1",
                       "--tau", "1")
    assert single.startswith("E:input:chi = (0.3+0j), a = (500+0j): ")


def test_locus_edge_ranges(capsys):
    """An empty span, one sample and a reversed range are results: the series never divides by the span."""
    code, out, err = run(capsys, "locus", "--r", "0.1", "--a-min", "0.5", "--a-max", "0.5", "--n", "3")
    rows = out.splitlines()[1:]
    assert (code, len(rows)) == (0, 3) and rows[0] == rows[1] == rows[2]
    assert rows[0].startswith("0.5,-0,3.76511679574,")
    code, out, err = run(capsys, "locus", "--r", "0.1", "--n", "1")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and err == ""
    assert len(rows) == 2 and rows[0][0] == "0.05"  # the sample, then the slice's real point
    assert abs(float(rows[1][0]) - 0.808516475) <= 1e-8
    code, forward, _ = run(capsys, "locus", "--r", "0.1", "--n", "7")
    code_reversed, backward, _ = run(capsys, "locus", "--r", "0.1", "--n", "7", "--a-min", "1.6",
                                     "--a-max", "0.05")
    assert code == code_reversed == 0
    assert [line.split(",")[0] for line in backward.splitlines()] == [
        line.split(",")[0] for line in forward.splitlines()]


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "verify", "dodeca", "--frobnicate")
    assert code == 2


def test_locus_csv_svg_deterministic(tmp_path, capsys):
    args = [
        "locus", "--r", "0.1", "--n", "12", "--a-min", "0.7", "--a-max", "0.95",
    ]
    csv1 = tmp_path / "a.csv"
    svg1 = tmp_path / "a.svg"
    code, _, _ = run(capsys, *args, "--csv", str(csv1), "--svg", str(svg1))
    assert code == 0
    csv2 = tmp_path / "b.csv"
    svg2 = tmp_path / "b.svg"
    code, _, _ = run(capsys, *args, "--csv", str(csv2), "--svg", str(svg2))
    assert code == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    body1 = [l for l in svg1.read_text().splitlines() if not l.startswith("<!--")]
    body2 = [l for l in svg2.read_text().splitlines() if not l.startswith("<!--")]
    assert body1 == body2
    header = csv1.read_text().splitlines()[0]
    assert header == "a_re,a_im,x_re,x_im,y_re,y_im,z_re,z_im,eta_residual"
    assert "<svg" in svg1.read_text() and "dodecahedral point" in svg1.read_text()


@pytest.mark.parametrize("argv, beyond, flagged", [
    (["--r", "0.1", "--tau", "12", "--a-min", "-11", "--a-max", "11"], 64, 85),
    (["--r", "0.3", "--tau", "5", "--a-min", "-3", "--a-max", "4"], 2, 11),
])
def test_locus_svg_counts_the_flagged_points_it_leaves_out(tmp_path, capsys, argv, beyond, flagged):
    """The figure's x axis ends at SVG_X_MAX; one W:locus: line counts the flagged points past it.

    Those points are still written, off the canvas, so the count is that of the
    circles right of SVG_WIDTH; the figure and the exit status are as without the line.
    """
    svg = tmp_path / "locus.svg"
    code, out, err = run(capsys, "locus", *argv, "--svg", str(svg))
    assert (code, out) == (0, "")
    assert err == f"W:locus:{beyond} of {flagged} flagged-real rows lie past x = 13, outside the figure\n"
    circles = re.findall(r'<circle cx="([-0-9.]+)"', svg.read_text())
    assert (len(circles), sum(float(cx) > cli.SVG_WIDTH for cx in circles)) == (flagged, beyond)


def test_match_and_jacobian_defaults_have_one_home():
    """match --on-locus's tau bracket and jacobian's --h are abeldomain's, as are the library's defaults."""
    parse = cli.build_parser().parse_args
    assert inspect.signature(abelmono.match_on_locus).parameters["tau_bracket"].default is abeldomain.TAU_BRACKET
    assert tuple(cli.MATCH_MODE_FLAGS[True].values()) == abeldomain.TAU_BRACKET == (2.0, 3.5)
    assert inspect.signature(abelmono.jacobian_rank).parameters["h"].default is abeldomain.JACOBIAN_STEP
    assert parse(["jacobian", "--a", "0.3", "--tau", "1", "--r", "0.1"]).h is abeldomain.JACOBIAN_STEP == 1e-4


def test_match_fixed_tau(capsys):
    code, out, _ = run(
        capsys, "match", "--y-target", "1.8", "--r", "0.1", "--tau", "1",
        "--bracket", "0.05,0.7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["y_mismatch"] <= 1e-6
    assert payload["evaluations"] <= 60


def test_match_fixed_tau_ends_of_one_sign(capsys):
    """The default bracket (0.05, 1.5) has y - 2 < 0 at both ends and two roots: the first is matched."""
    code, out, _ = run(capsys, "match", "--y-target", "2.0", "--r", "0.1")
    payload = json.loads(out)
    assert code == 0 and abs(payload["t"] - 0.6519) <= 1e-4
    assert payload["residuals"]["y_mismatch"] <= 1e-9 and payload["evaluations"] == 18


def test_match_reports_straddle_failure(capsys):
    code, _, err = run(
        capsys, "match", "--y-target", "50", "--r", "0.1", "--tau", "1",
        "--bracket", "0.1,0.5",
    )
    assert code == 1
    assert err.startswith("E:check:")


def test_jacobian_verb(capsys):
    code, out, _ = run(
        capsys, "jacobian", "--a", "0.3", "--tau", "1", "--r", "0.1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2


@pytest.mark.parametrize("bracket", ["0.05", "0.05,x", "0.05,0.3,0.7"])
def test_match_rejects_malformed_bracket(capsys, bracket):
    code, out, err = run(
        capsys, "match", "--y-target", "1.8", "--r", "0.1", "--bracket", bracket,
    )
    assert code == 2 and out == ""
    assert err.startswith("E:input:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["monodromy", "--a", "0.2", "--chi", "0.3+0.2i", "--r", "0.7", "--tau", "1"], "input"),
        (["monodromy", "--a", "0.2", "--chi", "0.3+0.2i", "--r", "0.1", "--tau=-1"], "input"),
        (["jacobian", "--a", "0.3", "--tau", "1", "--r", "0.1", "--h", "0"], "input"),
        # tau = 0.05 is below TAU_MIN: the theta series would miss the Legendre check there
        (["monodromy", "--a", "0.2", "--chi", "0.3+0.2i", "--r", "0.1", "--tau", "0.05"], "input"),
        # chi = 1e-3 is generic, but its monodromy is too ill-conditioned to check
        (["monodromy", "--a", "0.2", "--chi", "0.001", "--r", "0.1", "--tau", "1"], "input"),
        # above TAU_MAX: theta1'(0) would round to 0 (at 1/150; at 300 the nome underflows)
        (["monodromy", "--a", "0.2", "--chi", "0.3", "--r", "0.1", "--tau", "150"], "input"),
        (["monodromy", "--a", "0.2", "--chi", "0.3", "--r", "0.1", "--tau", "300"], "input"),
        (["monodromy", "--a", "0.2", "--chi", "0.3", "--r", "0.1", "--tau", "1e300"], "input"),
        (["monodromy", "--a", "nan", "--chi", "0.3", "--r", "0.1", "--tau", "1"], "input"),
        (["monodromy", "--a", "0.2", "--chi", "nan", "--r", "0.1", "--tau", "1"], "input"),
        (["monodromy", "--a", "0.2", "--chi", "0.3", "--r", "0.1", "--tau", "nan"], "input"),
        (["monodromy", "--a", "0.2", "--chi", "0.3", "--r", "0.1", "--tau", "inf"], "input"),
        (["jacobian", "--a", "0.3", "--tau", "nan", "--r", "0.1"], "input"),
        (["jacobian", "--a", "0.3", "--tau", "1", "--r", "0.1", "--h", "nan"], "input"),
        (["jacobian", "--a", "0.3", "--tau", "1", "--r", "0.1", "--h", "inf"], "input"),
        (["jacobian", "--a", "nan", "--tau", "1", "--r", "0.1"], "input"),
        (["match", "--y-target", "2.6", "--r", "0.1", "--on-locus", "--tau-min", "nan"], "input"),
        (["match", "--y-target", "nan", "--r", "0.1"], "input"),
        (["match", "--y-target", "1.8", "--r", "0.1", "--bracket", "nan,0.5"], "input"),
        (["locus", "--r", "0.1", "--n", "3", "--a-min", "nan"], "input"),
        (["locus", "--r", "0.1", "--n", "0"], "input"),
        (["locus", "--r", "0.1", "--n=-3"], "input"),
        (["spin", "--state", "+,-", "--tau", "nan"], "input"),
        (["charvar", "residual", "--coords", "nan,1,1", "--weight", "1/10"], "input"),
        (["charvar", "classify", "--coords", "nan,1,1", "--weight", "1/10"], "input"),
        # an output file that cannot be written: its directory is a file
        (["locus", "--r", "0.1", "--n", "2", f"--csv={os.devnull}/x.csv"], "input"),
        (["locus", "--r", "0.1", "--n", "2", f"--svg={os.devnull}/x.svg"], "input"),
        # below the step floor 1e-8 max(1, |a|, tau): tau + h rounds to tau
        (["jacobian", "--a", "0.3", "--tau", "1", "--r", "0.1", "--h", "1e-16"], "input"),
        # far from the lattice theta1(pi p) is finite, but the monodromy is too
        # ill-conditioned to check (condition number 8.2e34)
        (["monodromy", "--a", "0.2", "--chi", "40", "--r", "0.1", "--tau", "1"], "input"),
        # read exactly, 30000001/100000000 needs 5e7 sheets, past covering.MAX_SHEETS
        (["covering", "check", "--weight", "0.30000001"], "input"),
        (["locus", "--r", "0.1", "--n", "10001"], "input"),  # past abelmono.MAX_SWEEP_POINTS
        # member 1 is ill-conditioned; member 7's product overflows, but member 1 fails first
        (["locus", "--r", "0.1", "--a-min", "5", "--a-max", "800", "--n", "8"], "input"),
        # entries past ~1.3e154: the condition number overflows to inf
        (["monodromy", "--a", "500", "--chi", "0.3", "--r", "0.1", "--tau", "1"], "input"),
        (["jacobian", "--a", "500", "--tau", "1", "--r", "0.1"], "input"),
        # a payload that is not finite is not JSON
        (["charvar", "residual", "--coords", "1e200,1,1", "--weight", "1/10"], "check"),
        (["charvar", "abelianize", "--coords", "1e200,1,1", "--weight", "1/10"], "check"),
        (["spin", "--state", "+,-", "--tau", "1e-320"], "check"),
        # a '-' led value must be a number: -x is a flag, so --coords has no value
        (["charvar", "residual", "--coords", "-x", "--weight", "1/10"], "input"),
        (["monodromy", "--a", "0.2", "--chi", "-x", "--r", "0.1", "--tau", "1"], "input"),
        # tau = TAU_MAX is in the domain, but the stencil tau + h is not
        (["jacobian", "--a", "0.3", "--tau", "12", "--r", "0.1"], "input"),
        # |Im chi| past the theta series' reach at tau = 0.1: the monodromies would be wrong
        (["locus", "--r", "0.1", "--tau", "0.1", "--chi0", "0.5+20.420352248333657i", "--n", "4"],
         "input"),
        (["monodromy", "--a", "0.2", "--chi", "0.3+20i", "--r", "0.1", "--tau", "0.1"], "input"),
        # condition number 3.1e17: ill-conditioned, as at chi = 40
        (["monodromy", "--a", "0.2", "--chi", "20", "--r", "0.3", "--tau", "3"], "input"),
    ],
)
def test_parameter_errors_are_typed(capsys, argv, kind):
    code, out, err = run(capsys, *argv)
    assert err.startswith(f"E:{kind}:") and len(err.splitlines()) == 1
    assert code == (2 if kind == "input" else 1)
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["charvar", "residual", "--coords", "-1,1,1", "--weight", "1/10"],
        ["charvar", "residual", "--coords", "-.5,1,1", "--weight", "1/10"],
        ["charvar", "lift", "--coords", "-3.23606797749979,-3.23606797749979,-4.854101966249685",
         "--weight", "3/10"],
        ["monodromy", "--a", "-0.2", "--chi", "-0.3+0.2i", "--r", "0.1", "--tau", "1"],
        ["monodromy", "--a", "0.2", "--chi", "-0.3-0.2i", "--r", "0.1", "--tau", "1"],
        ["spin", "--state", "-,+", "--graft", "y"],
    ],
)
def test_value_starting_with_minus_needs_no_equals_sign(capsys, argv):
    """A token of '-' then a digit, '.' or ',' after a value-taking flag is that flag's value."""
    spaced = run(capsys, *argv)
    flag = argv.index(next(a for a in argv if re.match(r"-[\d.,]", a)))
    joined = run(capsys, *argv[: flag - 1], f"{argv[flag - 1]}={argv[flag]}", *argv[flag + 1 :])
    assert spaced == joined and spaced[0] == 0


TORUS_POINT = ["--coords", "2,2,2", "--weight", "1/10"]
DODECA_TORUS = ["--coords=2.288245611270737,2.288245611270737,2.618033988749895",
                "--weight", "1/10"]
ON_LOCUS = ["match", "--y-target", "2.2882456", "--r", "0.1", "--on-locus"]
FIXED_TAU = ["match", "--y-target", "1.8", "--r", "0.1", "--bracket", "0.05,0.7"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["charvar", "abelianize", "--surface", "torus", *TORUS_POINT], "--surface"),
        (["charvar", "classify", "--surface", "torus", *DODECA_TORUS], "--surface"),
        (["charvar", "lift", "--surface", "sphere", "--coords", "1,1,1", "--weight", "3/10"],
         "--surface"),
        (["charvar", "abelianize", "--surface", "sphere", *TORUS_POINT], "--surface"),
        (["charvar", "classify", "--surface", "sphere", *DODECA_TORUS], "--surface"),
        (["charvar", "lift", "--surface", "torus", "--coords", "1,1,1", "--weight", "3/10"],
         "--surface"),
        ([*ON_LOCUS, "--chi0", "pi/(4tau)"], "--chi0"),  # its default value, but given
        ([*ON_LOCUS, "--tau", "1"], "--tau"),
        ([*ON_LOCUS, "--chi0", "ipi/4"], "--chi0"),
        ([*ON_LOCUS, "--bracket", "0.05,0.7"], "--bracket"),
        ([*FIXED_TAU, "--tau-min", "2"], "--tau-min"),
        ([*FIXED_TAU, "--tau-max", "3"], "--tau-max"),
    ],
)
def test_flag_the_mode_does_not_read_rejected(capsys, argv, flag):
    """A flag that the chosen action or mode does not read is E:input, not dropped."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:") and err.endswith(f" does not read {flag}\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("surface", ["torus", "sphere"])
@pytest.mark.parametrize("weight", ["abc", "nan", "inf", "1/0", ""])
def test_malformed_weight_is_input_error(capsys, surface, weight):
    code, out, err = run(
        capsys, "charvar", "residual", "--surface", surface, "--coords", "2,2,2",
        f"--weight={weight}",
    )
    assert (code, out) == (2, "")
    assert err.startswith("E:input:malformed weight ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["covering", "check", "--weight", "3/10", "--signs", "a,b,c"],
        ["covering", "check", "--weight", "3/10", "--signs", "1,-1,-1.0"],
        ["covering", "check", "--weight", "abc"],
        ["covering", "check", "--weight", "1/0"],
    ],
)
def test_malformed_covering_input_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["locus", "--r", "0.1", "--tau", "0"],
        ["locus", "--r", "0.1", "--tau", "1e-320"],
        ["match", "--y-target", "1.8", "--r", "0.1", "--tau", "0"],
        ["jacobian", "--a", "0.3", "--tau", "0", "--r", "0.1"],
        ["match", "--y-target", "2.6", "--r", "0.1", "--on-locus", "--tau-min", "0",
         "--tau-max", "0"],
    ],
)
def test_tau_out_of_range_names_tau(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:tau ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "removed",
    [["--format", "svg"], ["--threads", "2"], ["--steps", "100"], ["--config", "run.cfg"],
     ["--tol-mono", "1"], ["--tol-alg", "1"], ["--tol-char", "5"], ["--tol-root", "1"]],
)
def test_removed_options_rejected(capsys, removed):
    """The message names the flag, not its value (argparse would read the value as the verb)."""
    code, _, err = run(capsys, *removed, "lorentz", "angles")
    assert code == 2
    assert err.startswith("E:input:") and len(err.splitlines()) == 1
    assert removed[0] in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["charvar", "--bogus", "3", "residual", *TORUS_POINT], "--bogus"),
        (["--steps=100", "lorentz", "angles"], "--steps"),
        (["-x", "3", "lorentz", "angles"], "-x"),
        (["verify", "dodeca", "--frob"], "--frob"),
        (["covering", "check", "--weight", "3/10", "--sign", "1,-1,-1"], "--sign"),
        (["charvar", "residual", *TORUS_POINT, "--bogus=1"], "--bogus"),
        (["lorentz", "angles", "-x"], "-x"),
    ],
)
def test_unknown_flag_is_named(capsys, argv, flag):
    """Before or after a verb's positional action, an unknown flag is named as such."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"E:input:unknown flag {flag}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["charvar", "abelianize", "--normalize-weight", *TORUS_POINT], "--normalize-weight"),
        (["charvar", "classify", "--normalize-weight", *DODECA_TORUS], "--normalize-weight"),
        (["charvar", "residual", "--normalize-weight", *TORUS_POINT], "--normalize-weight"),
        (["charvar", "residual", "--surface", "torus", "--normalize-weight", *TORUS_POINT],
         "--normalize-weight"),
        (["locus", "--r", "0.1", "--n", "2", "--no-refine"], "--no-refine"),
    ],
)
def test_removed_verb_flags_are_unknown(capsys, argv, flag):
    """Flags that only tests set are gone: the sweep always refines, and a weight never folds."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"E:input:unknown flag {flag}\n")


@pytest.mark.parametrize("flag", [["--format=-1e-3"], ["--format", "-1e-3"]])
def test_known_flag_with_negative_value_keeps_its_message(capsys, flag):
    """The value -1e-3 of a global flag is that flag's (bad) value, not an unknown flag."""
    code, out, err = run(capsys, *flag, *MONODROMY)
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith("E:input:argument --format: invalid choice: '-1e-3'")


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("fricke ")]


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    """Every command in the README's CLI block exits 0."""
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line}: {err}"
        if line.startswith("fricke charvar lift"):
            assert json.loads(out)["count"] == 4, line


def test_readme_numeric_lines_print_the_same_bytes_warm(tmp_path, monkeypatch, capsys):
    """Each README monodromy, match, locus and jacobian line, run twice in one process,
    prints the same bytes and writes the same files the second time."""
    lines = [line for line in _readme_cli_lines()
             if line.split()[1] in ("monodromy", "match", "locus", "jacobian")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        outputs = []
        for _ in range(2):
            code, out, err = run(capsys, *shlex.split(line)[1:])
            files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
            outputs.append((code, out, err, files))
        code, out, _err, files = outputs[0]
        assert code == 0 and (out or files), line
        assert outputs[1] == outputs[0], line


MONODROMY = ["monodromy", "--a", "0.2", "--chi", "0.3+0.2i", "--r", "0.1", "--tau", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "dodeca"],
        ["charvar", "residual", *TORUS_POINT],
        ["charvar", "abelianize", "--coords", "1,1,1", "--weight", "3/10"],
        ["charvar", "lift", "--coords", "1,1,1", "--weight", "3/10"],
        ["charvar", "classify", *DODECA_TORUS],
        ["lorentz", "angles"],
        ["covering", "check", "--weight", "3/10"],
        MONODROMY,
        FIXED_TAU,
        ["jacobian", "--a", "0.3", "--tau", "1", "--r", "0.1"],
        ["spin", "--state", "+,+"],
    ],
    ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")),
)
def test_tolerances_block_reports_the_constants(capsys, argv):
    """Every JSON payload's tolerances block is the four module constants."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["tolerances"] == {
        "tol_alg": algebra.TOL_ALG,
        "tol_char": charvar.TOL_CHAR,
        "tol_mono": abeldomain.TOL_MONO,
        "tol_root": abeldomain.TOL_ROOT,
    }


@pytest.mark.parametrize("flag", [["--tol-mono", "nan"], ["--tol-mono", "inf"]])
def test_non_finite_tolerance_flag_rejected(capsys, flag):
    code, out, err = run(capsys, *flag, *MONODROMY)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "csv", *MONODROMY],
        ["--format", "text", "locus", "--r", "0.1", "--n", "3"],
        ["--format", "json", "locus", "--r", "0.1", "--n", "2"],
    ],
)
def test_format_the_verb_cannot_write_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "dodeca", "--js"],
        ["--form", "json", "lorentz", "angles"],
        ["locus", "--r", "0.1", "--n", "2", "--a-mi", "0.1"],
    ],
)
def test_flag_prefixes_rejected(capsys, argv):
    """A flag is matched only when spelled out, on the parser and on every verb."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:") and len(err.splitlines()) == 1


def test_locus_sweep_receives_step_budget(monkeypatch, capsys):
    """The sweep's batched grid runs under PANEL_BUDGET: one panel level cannot close gamma_x."""
    monkeypatch.setattr(abelmono, "PANEL_BUDGET", abelmono._FIRST_PANELS)
    code, out, err = run(capsys, "locus", "--r", "0.1", "--n", "8")
    assert (code, out) == (1, "")
    assert err == f"E:check:gamma_x: budget of {abelmono._FIRST_PANELS} panels\n"


def test_monodromy_budget_of_one_level(monkeypatch, capsys):
    """The first pass evaluates 16 and 32 panels, but a 16-panel budget still stops at 16."""
    monkeypatch.setattr(abelmono, "PANEL_BUDGET", abelmono._FIRST_PANELS)
    code, out, err = run(capsys, "monodromy", "--a", "0.2", "--chi", "0.3+0.2i", "--r", "0.1", "--tau", "1")
    assert (code, out, err) == (1, "", "E:check:gamma_x: budget of 16 panels\n")


def test_non_finite_product_fails_at_the_first_level(capsys):
    """Near a half-lattice chi, or at a huge a, the 16-panel product overflows: NonGenericChi,
    naming chi, a and the loop, and the fused first pass names 16 (the README's two lines)."""
    for a, chi, named in (("0.2", "1e-7", "chi = (1e-07+0j), a = (0.2+0j)"),
                          ("1e200", "0.3", "chi = (0.3+0j), a = (1e+200+0j)")):
        code, out, err = run(capsys, "monodromy", "--a", a, "--chi", chi, "--r", "0.1", "--tau", "1")
        assert (code, out) == (2, "")
        assert err == (f"E:input:{named}: gamma_x: non-finite panel product at 16 panels:"
                       " the monodromy is beyond double precision\n")


@pytest.mark.parametrize("chi", ["3+0.3i", "3-0.3i", "-3+0.3i", "-3-0.3i"])
def test_large_chi_at_tau_max_is_a_result(capsys, chi):
    """At tau = 12, exp(eta1 p^2/2) overflows a double; the theta1-only sections never build it.

    Measured residuals are 1.0e-11 to 1.2e-10.
    """
    code, out, err = run(capsys, "monodromy", "--a", "0.2", f"--chi={chi}", "--r", "0.1",
                         "--tau", "12")
    assert (code, err) == (0, "")
    residuals = json.loads(out)["residuals"]
    assert residuals["character_equation"] <= 1e-9 and residuals["commutator_trace"] <= 1e-9


def test_theta1_at_p_past_double_precision_is_an_input_error(capsys):
    """At tau = 12 and Im chi = 3, theta1(pi p) is not finite: NonGenericChi, exit 2.

    Im chi = 3 is inside the reach (up to 6.71); the transport used to fail with
    E:check on a non-finite 16-panel product.
    """
    code, out, err = run(capsys, "monodromy", "--a", "0.2", "--chi", "0.3+3i", "--r", "0.1",
                         "--tau", "12")
    assert (code, out) == (2, "")
    assert err == "E:input:chi = (0.3+3j): theta1(pi p) = (nan+nanj) is beyond double precision\n"


def _stdout_writes(node):
    """The calls under node that write stdout: print, sys.stdout.write and write_json."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id in ("print", "write_json"):
            yield func.id
        elif isinstance(func, ast.Attribute) and func.attr == "write_json":
            yield func.attr
        elif ast.unparse(func) == "sys.stdout.write":
            yield "sys.stdout.write"


def test_flags_are_the_only_source_of_run_config():
    """--format is the one global flag, and cli.py reads no file."""
    dests = {a.dest for a in cli.build_parser()._actions if a.option_strings} - {"help"}
    assert dests == {"format"}
    tree = ast.parse(Path(cli.__file__).read_text())
    reads = [
        ast.unparse(call.func) for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) == "open"
             or getattr(call.func, "attr", None) in ("open", "read_text", "read_bytes"))
    ]
    assert not reads, reads


def test_verbs_do_not_write_stdout():
    """dispatch is the one writer of stdout; a verb returns its output (warn to stderr is fine)."""
    tree = ast.parse(Path(cli.__file__).read_text())
    verbs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("cmd_")]
    assert verbs
    writes = {verb.name: list(_stdout_writes(verb)) for verb in verbs}
    assert not any(writes.values()), writes


# Runs one verb in a fresh interpreter and prints its exit code and which of
# numpy, numpy.fft, numpy.polynomial and fricke.abelmono the run loaded.
_COLD_PROBE = """
import contextlib, io, json, sys
from fricke import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.dispatch(sys.argv[1:])
print(json.dumps([code, sorted({"numpy", "numpy.fft", "numpy.polynomial", "fricke.abelmono"}
                                & set(sys.modules))]))
"""


def _fresh_interpreter(*args):
    """Run python with args on this checkout's src, as a subprocess."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)


def _cold_run(argv):
    proc = _fresh_interpreter("-c", _COLD_PROBE, *argv)
    proc.check_returncode()
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "line",
    [
        "locus --r 0.1 --a-min -1e308 --a-max 1e308 --n 3",
        "locus --r 0.1 --a-min -1e308 --a-max 1e308 --n 1",
        "monodromy --a 1e200 --chi 0.3 --r 0.1 --tau 1",
        "monodromy --a 0.2 --chi 0.3+3i --r 0.1 --tau 12",
        "locus --r 0.45 --tau 12 --n 20",
        "match --y-target 1e300 --r 0.1 --on-locus",
    ],
)
def test_stderr_holds_only_tagged_lines(line):
    """The stderr contract at edge inputs, in a fresh interpreter with the default warning filters:
    every stderr line starts with E: or W:, and at most one with E:."""
    proc = _fresh_interpreter("-m", "fricke.cli", *line.split())
    lines = proc.stderr.splitlines()
    assert lines and all(entry.startswith(("E:", "W:")) for entry in lines), proc.stderr
    assert sum(entry.startswith("E:") for entry in lines) <= 1, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "dodeca", "--json"],
        ["lorentz", "angles"],
        ["covering", "check", "--weight", "3/10"],
        ["charvar", "residual", *TORUS_POINT],
        ["charvar", "lift", "--coords", "-3.23606797749979,-3.23606797749979,-4.854101966249685",
         "--weight", "3/10"],
        ["charvar", "classify", *DODECA_TORUS],
        ["spin", "--state", "+,-", "--graft", "xy"],
    ],
)
def test_exact_verbs_run_without_numpy(argv):
    """The exact verbs load neither numpy nor abelmono in a fresh interpreter."""
    assert _cold_run(argv) == [0, []]


def test_monodromy_still_loads_numpy():
    assert _cold_run(MONODROMY) == [0, ["fricke.abelmono", "numpy"]]


def test_locus_loads_neither_fft_nor_polynomial():
    """The sweep's Chebyshev series is a cosine-matrix product and a hand-built colleague matrix:
    a locus run imports nothing of numpy past numpy.linalg (numpy.polynomial costs ~3 ms at import)."""
    assert _cold_run(["locus", "--r", "0.1"]) == [0, ["fricke.abelmono", "numpy"]]


def test_every_error_class_has_an_exit_code():
    """Each exception class a fricke module defines is caught by dispatch as E:input or E:check."""
    package = Path(cli.__file__).parent
    handled = (*cli.INPUT_ERRORS, abeldomain.AbelMonoError)
    classes = []
    for info in pkgutil.iter_modules([str(package)]):
        module = importlib.import_module(f"fricke.{info.name}")
        classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module.__name__ and issubclass(cls, BaseException)]
    assert classes
    assert [cls.__qualname__ for cls in classes if not issubclass(cls, handled)] == []


def test_every_flag_is_in_the_readme():
    """Each option string that build_parser registers, globally or on a verb, is in README.md."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    top = cli.build_parser()
    verbs = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag
        for parser in (top, *verbs.choices.values())
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert flags
    missing = [f for f in sorted(flags) if not re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", readme)]
    assert missing == []


# ---------------------------------------------------------------------------
# The exit rule: each verb returns (output, checks), checks {name: (residual,
# bound)}, and dispatch exits 1 exactly when a residual exceeds its bound.


def _failing_verify(monkeypatch):
    """verify's dodeca rows with tr_J1's residual set to 1."""
    rows = cli.dodeca.verify_theorem91()
    rows["tr_J1"] = (1.0, rows["tr_J1"][1])
    monkeypatch.setattr(cli.dodeca, "verify_theorem91", lambda: rows)


def test_verify_exit_status_follows_its_rows(capsys, monkeypatch):
    """A verify row past its bound still prints the whole report, JSON and text, and the exit is 1."""
    rows = cli.dodeca.verify_theorem91()
    _failing_verify(monkeypatch)
    code, out, err = run(capsys, "verify", "dodeca")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["passed"] is False and payload["residuals"]["tr_J1"] == 1.0
    assert payload["residuals"].keys() == rows.keys()
    code, out, err = run(capsys, "--format", "text", "verify", "dodeca")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert len(lines) == len(rows) + 1 and lines[-1] == "failed"
    assert lines[0].startswith("FAIL tr_J1 ") and lines[1].startswith("ok   tr_J2 ")


def test_lorentz_exit_status_follows_its_lifts(capsys, monkeypatch):
    """A lift residual above 1e-8 still prints the report, and the exit is 1; below, 0."""
    code, out, err = run(capsys, "lorentz", "angles")
    report = json.loads(out)
    assert (code, err) == (0, "")
    for residual, expected in ((5e-9, 0), (2e-8, 1)):
        monkeypatch.setattr(cli.lorentz, "lift_check", lambda g, ref, residual=residual: residual)
        code, out, err = run(capsys, "lorentz", "angles")
        assert (code, err) == (expected, "")
        payload = json.loads(out)
        assert payload["residuals"] == dict.fromkeys(report["residuals"], residual)
        assert payload["dihedral_cosines"] == report["dihedral_cosines"]


def test_monodromy_exit_status_follows_its_residuals(capsys, monkeypatch):
    """A character-equation residual above TOL_MONO still prints the report, and the exit is 1."""
    code, out, err = run(capsys, *MONODROMY)
    residuals = json.loads(out)["residuals"]
    assert (code, err) == (0, "") and residuals["character_equation"] > 0.0
    monkeypatch.setattr(cli.abeldomain, "TOL_MONO", residuals["character_equation"] / 2)
    code, out, err = run(capsys, *MONODROMY)
    assert (code, err) == (1, "")
    assert json.loads(out)["residuals"] == residuals


def test_match_exit_status_follows_its_y_mismatch(capsys, monkeypatch):
    """A y_mismatch above TOL_ROOT still prints the report, and the exit is 1."""
    argv = ["match", "--y-target", "1.8", "--r", "0.1", "--tau", "1", "--bracket", "0.05,0.7"]
    code, out, err = run(capsys, *argv)
    report = json.loads(out)
    assert (code, err) == (0, "") and report["residuals"]["y_mismatch"] > 0.0
    monkeypatch.setattr(cli.abeldomain, "TOL_ROOT", report["residuals"]["y_mismatch"] / 2)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert json.loads(out) == report


def test_jacobian_exit_status_follows_its_rank(capsys, monkeypatch):
    """A rank below 2 still prints the report, and the exit is 1."""
    argv = ["jacobian", "--a", "0.3", "--tau", "1", "--r", "0.1"]
    code, out, err = run(capsys, *argv)
    report = json.loads(out)
    assert (code, err, report["rank"]) == (0, "", 2)
    monkeypatch.setattr(abelmono, "RANK_FLOOR", 2 * report["singular_values"][1])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert json.loads(out) == {**report, "rank": 1}


# Lines that exit 1 on a failed check, each with the patch that makes it fail (None: none needed).
FAILING_LINES = [
    ("verify dodeca", _failing_verify),
    ("--format text verify dodeca", _failing_verify),
    ("lorentz angles", lambda mp: mp.setattr(cli.lorentz, "lift_check", lambda g, ref: 1.0)),
    ("covering check --weight 3/10 --signs=-1,1,-1", None),
    ("monodromy --a 3 --chi 2+2i --r 0.1 --tau 1", None),
    ("monodromy --a 0.2 --chi 0.3+0.2i --r 0.1 --tau 1",
     lambda mp: mp.setattr(cli.abeldomain, "TOL_MONO", 0.0)),
    ("match --y-target 1.8 --r 0.1 --tau 1 --bracket 0.05,0.7",
     lambda mp: mp.setattr(cli.abeldomain, "TOL_ROOT", 0.0)),
    ("jacobian --a 0.3 --tau 1 --r 0.1", lambda mp: mp.setattr(abelmono, "RANK_FLOOR", 1e3)),
    ("spin --state +,- --tau 1e308", lambda mp: mp.setattr(cli.spingraft, "TOL_HOLONOMY", 0.0)),
]


def test_verbs_return_rows_and_dispatch_alone_judges_them(tmp_path, monkeypatch, capsys):
    """Each README line and each failing line: the verb returns a mapping of (residual, bound)
    pairs, and dispatch exits 1 exactly when some residual exceeds its bound."""
    monkeypatch.chdir(tmp_path)
    cases = [(line.split(maxsplit=1)[1], None, False) for line in _readme_cli_lines()]
    cases += [(line, patch, True) for line, patch in FAILING_LINES]
    for line, patch, fails in cases:
        with monkeypatch.context() as mp:
            if patch:
                patch(mp)
            argv = shlex.split(line)
            args = cli.build_parser().parse_args(argv)
            _output, checks = args.func(args)
            assert isinstance(checks, dict), line
            for name, pair in checks.items():
                assert isinstance(name, str) and len(pair) == 2, line
                assert all(isinstance(v, float) for v in pair), line
            assert any(not res <= bound for res, bound in checks.values()) == fails, line
            code, _out, err = run(capsys, *argv)
            assert (code, err) == (int(fails), ""), line


def test_widest_sweep_prints_the_same_bytes_under_one_and_two_blas_threads(monkeypatch):
    """The sweep's Chebyshev coefficients and rows are products that call no BLAS, so the
    number of OpenBLAS threads moves no digit of its CSV (a fresh interpreter per count)."""
    line = "locus --r 0.1 --tau 12 --a-min -11 --a-max 11"
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        proc = _fresh_interpreter("-m", "fricke.cli", *line.split())
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 146
    assert outputs[1] == outputs[0]
