"""Command-line surface: exit codes, printed reports, written files."""

import shutil
from importlib.resources import files

import pytest

from gaspower.cli import main

BUNDLED = files("gaspower") / "scenarios"


def test_pressure_check_valid_law_exits_zero(capsys):
    assert main(["pressure-check", "gamma(1,1.4)"]) == 0
    out = capsys.readouterr().out
    assert "VALID" in out


def test_pressure_check_invalid_law_exits_one(capsys):
    assert main(["pressure-check", "gamma(1,3.5)"]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_pressure_check_accepts_a_power_law_next_to_delta_minus_two(capsys):
    assert main(["pressure-check", "generalized(1.0,-1.99)"]) == 0
    assert "=> VALID" in capsys.readouterr().out


def test_pressure_check_accepts_a_mixed_combination_next_to_delta_minus_two(capsys):
    law = "linear_combination(1.0*generalized(1.0,-1.99),1.0*gamma(1,1.4))"
    assert main(["pressure-check", law]) == 0
    out = capsys.readouterr().out
    assert "=> VALID" in out and "inconclusive" not in out


@pytest.mark.parametrize("law, code, worst", [
    ("gamma(0.7142857142857143,1.4)", 0, "0.000e+00"),
    ("inverse", 0, "0.000e+00"),
    ("log", 0, "0.000e+00"),
    ("sum_gamma", 0, "0.000e+00"),
    ("gamma_integral", 0, "0.000e+00"),
    ("isothermal(1.0)", 0, "0.000e+00"),
    ("linear_combination(8.17*generalized(1.0,-1.99),0.077*gamma_integral)", 0, "0.000e+00"),
    ("gamma(1,3.5)", 1, "1.111e-01"),
])
def test_pressure_check_worst_violation_counts_only_deciding_conditions(capsys, law,
                                                                        code, worst):
    """The decay bound p' <= -p/rho, which an unbounded p cannot meet, does
    not enter the worst violation of a law that the growth of p settles."""
    assert main(["pressure-check", law]) == code
    out = capsys.readouterr().out
    assert f"  worst violation: {worst}\n" in out
    assert out.endswith("=> VALID\n" if code == 0 else "=> INVALID\n")


def test_pressure_check_bad_selector_reports_category(capsys):
    assert main(["pressure-check", "nosuchlaw(1)"]) == 1
    assert "[domain-error]" in capsys.readouterr().err


DEEP_LAW = "linear_combination(" * 2000 + "log" + ")" * 2000


@pytest.mark.parametrize("argv", [
    ["pressure-check", DEEP_LAW],
    ["riemann", "--law", DEEP_LAW, "--left", "4,1", "--right", "3,-1"],
], ids=["pressure-check", "riemann"])
def test_deeply_nested_law_spec_is_a_domain_error(capsys, argv):
    """A law spec nested 2,000 deep is rejected by the parser, not by Python's
    stack."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error [domain-error] law spec nests deeper than ")
    assert "Traceback" not in captured.err + captured.out


def test_deeply_nested_law_spec_in_a_scenario_is_a_schema_error(capsys, tmp_path):
    local = tmp_path / "deep.scn"
    text = (BUNDLED / "validation.scn").read_text()
    local.write_text(text.replace("pressure_law: gamma(1.0,1.4)", f"pressure_law: {DEEP_LAW}"))
    assert main(["simulate-gas", str(local)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [schema-error] {local}.pressure_law: law spec nests deeper ")


def test_riemann_reports_rarefactions_for_large_draw(capsys):
    code = main(["riemann", "--law", "gamma(1,1.4)", "--left", "4,1",
                 "--right", "3,-1", "--epsilon", "3.25"])
    assert code == 0
    out = capsys.readouterr().out
    assert "r-r" in out
    assert "rho*" in out


def test_riemann_without_epsilon_is_the_zero_extraction_junction(capsys):
    """No ``--epsilon`` prints the same report as ``--epsilon 0``."""
    states = ["riemann", "--law", "gamma(1,1.4)", "--left", "4,1", "--right", "3,-1"]
    assert main(states) == 0
    default = capsys.readouterr().out
    assert main(states + ["--epsilon", "0"]) == 0
    assert capsys.readouterr().out == default
    assert "rho*" in default


def test_riemann_excessive_draw_is_machine_readable(capsys):
    code = main(["riemann", "--law", "gamma(1,1.4)", "--left", "4,1",
                 "--right", "3,-1", "--epsilon", "4.5"])
    assert code == 1
    assert "[invalid-demand]" in capsys.readouterr().err


def test_powerflow_prints_converged_table(capsys, tmp_path):
    local = tmp_path / "gaslib9.scn"
    shutil.copy(str(BUNDLED / "gaslib9.scn"), local)
    assert main(["powerflow", str(local)]) == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert "N9" in out


def test_simulate_gas_writes_outputs(capsys, tmp_path):
    local = tmp_path / "validation.scn"
    text = (BUNDLED / "validation.scn").read_text()
    # a short, coarse variant keeps the smoke test quick
    text = text.replace("dt: 5.0e-5", "dt: 5.0e-4")
    text = text.replace("dx: 5.0e-4", "dx: 5.0e-3")
    text = text.replace("t_end: 0.1", "t_end: 0.01")
    text = text.replace("time: 0.1", "time: 0.01")
    local.write_text(text)
    outdir = tmp_path / "results"
    assert main(["simulate-gas", str(local), "--outdir", str(outdir)]) == 0
    written = sorted(p.name for p in outdir.iterdir())
    assert any(name.startswith("rho@LEFT") for name in written)
    assert any(name.startswith("rho@RIGHT") for name in written)


def test_schema_error_exit_path(capsys, tmp_path):
    bad = tmp_path / "broken.scn"
    bad.write_text("")
    assert main(["simulate-gas", str(bad)]) == 1
    assert "[schema-error]" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe"),
    lambda path: path.write_bytes(b"name: \xff\xfe\n"),
], ids=["directory", "utf-16-bom", "not-utf-8"])
def test_unreadable_scenario_is_a_schema_error_naming_it(capsys, tmp_path, make):
    path = tmp_path / "unreadable.scn"
    make(path)
    assert main(["simulate-gas", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error [schema-error] {path}: "), captured.err
    assert "Traceback" not in captured.err + captured.out


def test_riemann_malformed_states_name_the_option(capsys):
    for left, right, option in (("x,0", "3,-1", "--left"), ("4,1", "3", "--right"),
                                ("4,1,2", "3,-1", "--left")):
        code = main(["riemann", "--law", "gamma(1,1.4)", "--left", left,
                     "--right", right])
        assert code == 1
        err = capsys.readouterr().err
        assert "[domain-error]" in err and option in err, err


def test_riemann_nan_extraction_is_a_domain_error(capsys):
    code = main(["riemann", "--law", "gamma(1,1.4)", "--left", "4,1",
                 "--right", "3,-1", "--epsilon", "nan"])
    assert code == 1
    assert "[domain-error]" in capsys.readouterr().err


def test_cosim_varying_boundary_series_is_a_schema_error(capsys, tmp_path):
    local = tmp_path / "gaslib9.scn"
    text = (BUNDLED / "gaslib9.scn").read_text()
    varying = "value: [[0, 60 bar], [100, 61 bar]]"
    local.write_text(text.replace("value: 60 bar", varying))
    assert main(["cosim", str(local), "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "[schema-error]" in err and "'S5'" in err, err
