import json
import math
import re
import shlex
from pathlib import Path

import pytest

from fricke import abelmono, cli


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
    # leading '-' values need the '=' form under argparse
    code, out, _ = run(
        capsys, "charvar", "lift", "--coords=" + coords, "--weight", "3/10"
    )
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


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "verify", "dodeca", "--frobnicate")
    assert code == 2


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol_mono=1e-5\nsteps=2000\n# comment\n")
    code, out, _ = run(
        capsys, "--config", str(cfg), "--tol-mono", "1e-4",
        "monodromy", "--a", "0.2", "--chi", "0.3+0.2i", "--r", "0.1", "--tau", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tolerances"]["tol_mono"] == 1e-4  # flag wins over file


def test_config_rejects_bad_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobs=3\n")
    code, _, err = run(capsys, "--config", str(cfg), "lorentz", "angles")
    assert code == 2
    assert err.startswith("E:input:")


def test_config_validates_budget(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=10\n")
    code, _, err = run(capsys, "--config", str(cfg), "lorentz", "angles")
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


def test_match_fixed_tau(capsys):
    code, out, _ = run(
        capsys, "match", "--y-target", "1.8", "--r", "0.1", "--tau", "1",
        "--bracket", "0.05,0.7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["y_mismatch"] <= 1e-6
    assert payload["evaluations"] <= 60


def test_match_on_locus_forwards_step_budget(monkeypatch, capsys):
    budgets = []
    transport = abelmono.monodromies

    def spy(params, steps=abelmono.DEFAULT_STEP_BUDGET, *args, **kwargs):
        budgets.append(steps)
        return transport(params, steps, *args, **kwargs)

    monkeypatch.setattr(abelmono, "monodromies", spy)
    code, out, _ = run(
        capsys, "--steps", "4321", "match", "--y-target", "2.2882456",
        "--r", "0.1", "--on-locus",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["y_mismatch"] <= 1e-6
    assert payload["evaluations"] <= 60
    assert budgets and set(budgets) == {4321}
    assert len(budgets) == payload["evaluations"]


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
        # tau = 0.05 is in range, but the theta series fails the Legendre check there
        (["monodromy", "--a", "0.2", "--chi", "0.3+0.2i", "--r", "0.1", "--tau", "0.05"], "check"),
        # chi = 1e-3 is generic, but its monodromy is too ill-conditioned to check
        (["monodromy", "--a", "0.2", "--chi", "0.001", "--r", "0.1", "--tau", "1"], "input"),
        # in range, but theta1'(0) rounds to 0 (at 1/150, and at 300 where the nome underflows)
        (["monodromy", "--a", "0.2", "--chi", "0.3", "--r", "0.1", "--tau", "150"], "check"),
        (["monodromy", "--a", "0.2", "--chi", "0.3", "--r", "0.1", "--tau", "300"], "check"),
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
        (["locus", "--r", "0.1", "--n", "3", "--a-min", "nan", "--no-refine"], "input"),
        (["locus", "--r", "0.1", "--n", "0"], "input"),
        (["locus", "--r", "0.1", "--n=-3"], "input"),
        (["spin", "--state", "+,-", "--tau", "nan"], "input"),
        (["charvar", "residual", "--coords", "nan,1,1", "--weight", "1/10"], "input"),
        (["charvar", "classify", "--coords", "nan,1,1", "--weight", "1/10"], "input"),
    ],
)
def test_parameter_errors_are_typed(capsys, argv, kind):
    code, out, err = run(capsys, *argv)
    assert err.startswith(f"E:{kind}:") and len(err.splitlines()) == 1
    assert code == (2 if kind == "input" else 1)
    assert out == ""


@pytest.mark.parametrize("removed", [["--format", "svg"], ["--threads", "2"]])
def test_removed_options_rejected(capsys, removed):
    code, _, err = run(capsys, *removed, "lorentz", "angles")
    assert code == 2
    assert err.startswith("E:input:")


@pytest.mark.parametrize("line", ["format=svg", "threads=2", "steps=many"])
def test_config_rejects_removed_keys_and_bad_values(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(capsys, "--config", str(cfg), "lorentz", "angles")
    assert code == 2
    assert err.startswith("E:input:")


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


MONODROMY = ["monodromy", "--a", "0.2", "--chi", "0.3+0.2i", "--r", "0.1", "--tau", "1"]


@pytest.mark.parametrize("flag", [["--tol-mono", "nan"], ["--tol-mono", "inf"]])
def test_non_finite_tolerance_flag_rejected(capsys, flag):
    code, out, err = run(capsys, *flag, *MONODROMY)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:")


def test_non_finite_tolerance_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol_mono=nan\n")
    code, out, err = run(capsys, "--config", str(cfg), *MONODROMY)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "csv", *MONODROMY],
        ["--format", "text", "locus", "--r", "0.1", "--n", "3"],
        ["--format", "json", "locus", "--r", "0.1", "--n", "2", "--no-refine"],
    ],
)
def test_format_the_verb_cannot_write_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("E:input:")


def test_format_config_line_the_verb_cannot_write_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\n")
    code, out, err = run(
        capsys, "--config", str(cfg), "locus", "--r", "0.1", "--n", "2", "--no-refine"
    )
    assert (code, out) == (2, "")
    assert err.startswith("E:input:")
