"""Tests for the command-line front end and the report emitter."""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kgalilei
from kgalilei import equivalence, gridrep, hopf, hydrogen, masses
from kgalilei.cli import run
from kgalilei.report import RunReport, canonical_json, format_number
from kgalilei.scalars import I, sym
from kgalilei.weyl import scalar


def test_format_number():
    assert format_number(0.46) == "0.46"
    assert format_number(1.0) == "1"
    assert format_number(0.0) == "0"
    assert format_number(1e-9) == "1.00000000000e-09"
    assert format_number(-0.1304348) == "-0.1304348"


def test_canonical_json_sorted_keys():
    text = canonical_json({"b": 1, "a": [2.5, {"d": 0.0, "c": True}]})
    assert text == '{"a": [2.5, {"c": true, "d": 0}], "b": 1}'


def test_canonical_json_non_finite_as_strings():
    text = canonical_json({"a": math.inf, "b": -math.inf, "c": math.nan, "d": [1.5]})
    assert text == '{"a": "inf", "b": "-inf", "c": "nan", "d": [1.5]}'
    assert canonical_json(json.loads(text)) == text


def test_report_rejects_duplicate_checks():
    report = RunReport("x", {})
    report.check("a", [()], lambda _: 0.0, tol=0.0)
    with pytest.raises(ValueError):
        report.check("a", [()], lambda _: 0.0, tol=0.0)


def test_report_exit_code():
    report = RunReport("x", {})
    report.check("a", [()], lambda _: 0.0, tol=0.0)
    assert report.exit_code == 0
    report.check("b", [()], lambda _: 1.0, tol=0.0)
    assert report.exit_code == 1


def test_mass_compose_example(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["mass", "compose", "--k", "1", "0.3", "0.4",
                "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["command"] == "mass compose"
    assert abs(data["results"]["M_f"] - 0.46) <= 1e-12


def test_mass_compose_fixed_point(tmp_path):
    out = tmp_path / "report.json"
    code = run(["mass", "compose", "--k", "1", "0.5", "0.2",
                "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["results"]["M_f"] == 0.5


def test_json_round_trip_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    for argv in (
        ["mass", "reduced", "--k", "1", "0.3", "0.4"],
        ["mass", "convert", "--k", "2", "--to", "physical", "0.25", "1.5"],
        ["verify", "equivalence", "--mf", "0.3", "--mfp", "0.4", "--k", "1"],
    ):
        assert run(argv + ["--format", "json", "--out", str(out)]) == 0
        text = out.read_text()
        reparsed = canonical_json(json.loads(text)) + "\n"
        assert reparsed == text


@pytest.mark.parametrize("argv", [
    ["mass", "compose", "--k", "inf", "0.3", "0.4"],
    ["mass", "reduced", "--k", "inf", "0.3", "0.4"],
    ["mass", "convert", "--k", "inf", "--to", "algebra", "0.3"],
    ["verify", "equivalence", "--mf", "0.3", "--mfp", "0.4", "--k", "inf"],
    ["hydrogen", "spectrum", "--mf", "0.3", "--mfp", "0.4", "--k", "inf"],
])
def test_classical_limit_json_round_trip(argv, capsys):
    # k = inf is in the documented domain; its report is valid JSON that
    # re-serializes byte for byte
    assert run(argv + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    data = json.loads(text)
    assert data["params"]["k"] == "inf"
    assert canonical_json(data) + "\n" == text


def test_classical_limit_text_and_csv_unchanged(capsys):
    assert run(["mass", "compose", "--k", "inf", "0.3", "0.4"]) == 0
    assert "  k = inf\n" in capsys.readouterr().out
    assert run(["mass", "reduced", "--k", "inf", "0.3", "0.4", "--format", "csv"]) == 0
    assert "first_order_coefficient,result,0\n" in capsys.readouterr().out


def _python(*argv):
    """Run a fresh interpreter with this kgalilei on its path."""
    src = str(Path(kgalilei.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("module", ["kgalilei", "kgalilei.cli"])
def test_python_m_runs_the_cli(module):
    done = _python("-m", module, "mass", "compose", "--k", "1", "0.3", "0.4", "--format", "json")
    assert done.returncode == 0 and done.stderr == ""
    report = json.loads(done.stdout)
    assert report["command"] == "mass compose"
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("algebra-additivity", "pass")]
    assert abs(report["results"]["M_f"] - 0.46) <= 1e-12
    done = _python("-m", module, "mass", "compose", "--k", "1", "0.7", "0.3")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("kgalilei: error: ")


def test_no_command_loads_scipy():
    # work guard, in a fresh interpreter: neither the hydrogen module nor
    # the CLI's `mass compose`, `verify hopf` and radial `hydrogen spectrum`
    # load any scipy module
    script = """
import contextlib, io, sys
scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']
import kgalilei.hydrogen
assert not scipy(), 'hydrogen loads scipy'
from kgalilei import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(['mass', 'compose', '--k', '1', '0.3', '0.4']) == 0
    assert cli.run(['verify', 'hopf']) == 0
    assert cli.run(['hydrogen', 'spectrum', '--mf', '0.3', '--mfp', '0.4', '--k', '1',
                    '--nmax', '4', '--solver', 'both']) == 0
assert not scipy(), 'cli loads scipy'
"""
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    # a hydrogen domain error raised in a fresh interpreter is still one line
    done = _python("-m", "kgalilei", *_SPECTRUM, "--nmax", "2", "--l", "5")
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kgalilei: error: need 0 <= l < n_max")


def test_cocycle_demo_names_non_projective_pair(monkeypatch, capsys):
    # an action that is off by a p-dependent phase is not projective: the
    # demo fails both checks and names the first draw, with no traceback.
    # The phase goes onto every factor that a factor-wise resample writes
    exact_resample = gridrep._resample

    def broken_resample(out, values, taps):
        exact_resample(out, values, taps)
        if out.ndim == 1:
            out *= np.exp(0.1j * np.arange(out.size))

    monkeypatch.setattr(gridrep, "_resample", broken_resample)
    assert run(["cocycle", "demo", "--seed", "0", "--pairs", "3", "--n", "16",
                "--format", "json"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    details = {c["name"]: c["detail"] for c in report["checks"] if c["status"] == "fail"}
    assert set(details) == {"cocycle-closed-form", "cocycle-identity"}
    assert details["cocycle-closed-form"].startswith("pair 0: composition ratio varies")
    assert details["cocycle-identity"].startswith("triple 0: composition ratio varies")
    lines = captured.err.splitlines()
    assert len(lines) == 2 and all(line.startswith("FAIL cocycle-") for line in lines)
    assert "(pair 0: " in lines[0] and "spread" in lines[0]
    assert "Traceback" not in captured.err


def _failed_checks(argv, capsys) -> dict:
    """Run a command that must exit 1; the failed checks' residuals by name."""
    assert run([*argv, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    return {c["name"]: c["residual"] for c in report["checks"] if c["status"] == "fail"}


def test_cocycle_demo_fails_on_a_nan_angle(monkeypatch, capsys):
    # a NaN mismatch is the worst draw, not one that the fold skips
    monkeypatch.setattr(gridrep, "cocycle_angle", lambda *args: math.nan)
    failed = _failed_checks(["cocycle", "demo", "--pairs", "3", "--n", "16"], capsys)
    assert failed == {"cocycle-closed-form": "nan", "cocycle-identity": "nan"}


def test_verify_equivalence_fails_on_a_nan_us(monkeypatch, capsys):
    monkeypatch.setattr(equivalence, "us_matrix", lambda m_f, k: np.full((4, 4), math.nan))
    failed = _failed_checks(["verify", "equivalence", "--mf", "0.3", "--mfp", "0.4", "--k", "1"],
                            capsys)
    assert failed["us-reverses-relative-sign"] == "nan"
    assert failed["projector-idempotence"] == "nan"


def test_verify_equivalence_reports_a_failed_theta_gate(monkeypatch, capsys):
    # find_theta raises past its gate; the command names the failed check
    # with its residual and one line of detail, and prints no traceback
    monkeypatch.setattr(equivalence, "THETA_TOL", -1.0)
    assert run(["verify", "equivalence", "--mf", "0.3", "--mfp", "0.4", "--k", "1",
                "--format", "json"]) == 1
    captured = capsys.readouterr()
    (check,) = json.loads(captured.out)["checks"]
    assert check["name"] == "theta-maps-all-variables" and check["status"] == "fail"
    assert 0.0 <= check["residual"] <= 1e-10
    assert check["detail"].startswith("theta* = ") and "\n" not in check["detail"]
    assert captured.err.startswith("FAIL theta-maps-all-variables: residual = ")
    assert "Traceback" not in captured.err


def test_verify_equivalence_fails_on_a_nan_fermi_projector(monkeypatch, capsys):
    # the Bose projector stays finite: its residual must not hide the NaN one
    project = equivalence.project

    def nan_fermi(sign, us, f):
        out = project(sign, us, f)
        return out if sign > 0 else (lambda p, pp: out(p, pp) * math.nan)

    monkeypatch.setattr(equivalence, "project", nan_fermi)
    failed = _failed_checks(["verify", "equivalence", "--mf", "0.3", "--mfp", "0.4", "--k", "1"],
                            capsys)
    assert failed["projector-idempotence"] == "nan"


def test_mass_convert_fails_on_a_nan_round_trip(monkeypatch, capsys):
    monkeypatch.setattr(masses, "to_algebra", lambda m, k: math.nan)
    failed = _failed_checks(["mass", "convert", "--k", "1", "0.3"], capsys)
    assert failed == {"round-trip": "nan"}


def test_hydrogen_spectrum_fails_on_a_nan_level(monkeypatch, capsys):
    # only the second level is NaN: the finite first one must not hide it
    radial_solve = hydrogen.radial_solve

    def nan_second(cfg):
        levels = np.array(radial_solve(cfg))
        levels[1] = math.nan
        return levels

    monkeypatch.setattr(hydrogen, "radial_solve", nan_second)
    failed = _failed_checks(["hydrogen", "spectrum", "--mf", "0.3", "--mfp", "0.4", "--k", "1"],
                            capsys)
    assert failed == {"radial-vs-closed": "nan"}


def test_hydrogen_spectrum_csv(tmp_path):
    out = tmp_path / "spectrum.csv"
    code = run(["hydrogen", "spectrum", "--mf", "0.3", "--mfp", "0.4",
                "--k", "1", "--nmax", "2", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,l,E_closed,E_radial,rel_err"
    assert len(lines) == 3
    n, l, e_closed, e_radial, rel = lines[1].split(",")
    assert (n, l) == ("1", "0")
    assert abs(float(e_closed) + 0.1304348) <= 1e-6
    assert float(rel) <= 1e-6


def test_closed_solver_only(tmp_path):
    out = tmp_path / "report.json"
    code = run(["hydrogen", "spectrum", "--mf", "0.3", "--mfp", "0.4", "--k", "1",
                "--solver", "closed", "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert abs(data["results"]["E_1"] + 0.1304348) <= 1e-6


def test_verify_equivalence_passes(capsys):
    assert run(["verify", "equivalence", "--mf", "0.2", "--mfp", "0.1", "--k", "1"]) == 0
    captured = capsys.readouterr()
    assert "theta" in captured.out


def test_perturbed_mass_exits_one(capsys):
    code = run(["verify", "realization", "--perturb"])
    assert code == 1
    captured = capsys.readouterr()
    # the failing residual is printed
    assert "FAIL" in captured.err
    assert "one-particle-brackets" in captured.err


def test_perturbed_realization_names_the_failing_bracket(capsys):
    # the first failing bracket is [K1, P1], and its canonical residual is
    # exactly i (m_f - (k/2)(1 - lam^2))
    assert run(["verify", "realization", "--perturb", "--format", "json"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    k, lam, mf = sym("k"), sym("lam"), sym("mf")
    assert check["detail"] == "[K1,P1]: " + repr(scalar(I * (mf - (k / 2) * (1 - lam ** 2))))


def test_verify_equivalence_forms_us_once(monkeypatch, capsys):
    # theta* for the pair and theta* for identical masses (the one US):
    # two find_theta calls, where forming US per check took five
    calls = []
    find_theta = equivalence.find_theta

    def counting(*args):
        calls.append(args)
        return find_theta(*args)

    monkeypatch.setattr(equivalence, "find_theta", counting)
    assert run(["verify", "equivalence", "--mf", "0.3", "--mfp", "0.4", "--k", "1"]) == 0
    assert len(calls) <= 2


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


#: k finite, infinite, drawn over six decades, or log-uniform over the
#: normal floats, where the products of masses underflow and overflow.
_EDGE_K = (st.sampled_from([1.0, math.inf]) | st.floats(1e-3, 1e3)
           | st.floats(math.log(sys.float_info.min), math.log(1e308)).map(math.exp))


def _edge_mass(k):
    """m_f in {0, 1e-9 k, (k/2)(1 - 2e-7), k/2, interior} (the first ones are inf at k = inf)."""
    interior = (st.floats(0.01, 0.49).map(lambda x: x * k) if math.isfinite(k)
                else st.floats(1e-3, 1e3))
    return st.sampled_from([0.0, 1e-9 * k, (k / 2) * (1 - 2e-7), k / 2]) | interior


@st.composite
def _mass_argv(draw):
    k = draw(_EDGE_K)
    mass = _edge_mass(k)
    op = draw(st.sampled_from([["compose"], ["convert", "--to", "physical"],
                               ["convert", "--to", "algebra"], ["reduced"]]))
    count = 2 if op == ["reduced"] else draw(st.integers(1, 3))
    values = [repr(draw(mass)) for _ in range(count)]
    return ["mass", *op, "--k", repr(k), *values]


@settings(max_examples=300, deadline=None)
@example(["mass", "reduced", "--k", "1.0", "0.0", "0.4"])
@example(["mass", "reduced", "--k", "inf", "0.0", "0.4"])
@example(["mass", "compose", "--k", "1.0", "0.4999999", "0.4999999"])
@example(["mass", "compose", "--k", "inf", "inf", "0.3"])
@example(["mass", "compose", "--k", "7", "3.4999999999999996", "3.4999999999999996"])
@example(["mass", "compose", "--k", "7", *["3.4999999999999996"] * 3])
@example(["mass", "compose", "--k", "3", "1.4999999999999998", "1.4999999999999998"])
# 2 m_f m'_f underflows, yet the cross term is a tenth of the total
@example(["mass", "compose", "--k", "1e-300", "1e-301", "1e-301"])
@example(["mass", "reduced", "--k", "1e-300", "1e-301", "1e-301"])
# a mass at k/2, where the total is one ulp of k/2 off
@example(["mass", "compose", "--k", "12120.246422388824", "6060.123211194412",
          "6060.12199916977"])
# a subnormal k, below the domain
@example(["mass", "compose", "--k", "1e-310", "1e-311", "1e-311"])
# algebra masses, or their sum, above the largest float; and 2m above it
@example(["mass", "compose", "--k", "3.023383144276055e+307", "1.511691269799713e+307"])
@example(["mass", "compose", "--k", "1.7e+308", "6.6e+307", "6.6e+307"])
@example(["mass", "convert", "--to", "physical", "--k", "1.7e+308", "1.7e+308"])
@given(_mass_argv())
def test_mass_commands_at_domain_edges_hypothesis(argv):
    # m_f in {0, 1e-9 k, (k/2)(1 - 2e-7), k/2, interior}, k finite or inf:
    # a correct report (exit 0, valid JSON, no NaN) or a one-line domain
    # error (exit 2), and never an escaping exception
    code, out, err = _run_quietly(argv + ["--format", "json"])
    assert code in (0, 2), (code, err)
    if code == 0:
        json.loads(out)
        assert '"nan"' not in out
    else:
        assert out == "" and err.startswith("kgalilei: error: ")


@pytest.mark.parametrize("values", [["0.3", "0.4"], ["0.4999999", "0.3"],
                                    ["0.4999999", "0.4999999"]])
def test_mass_compose_gate_catches_a_wrong_total(values, monkeypatch):
    # the additivity gate allows for the rounding of M_f near k/2, and no
    # more: a composed mass off by 1e-11 k fails it, inside and at the edge
    exact = masses.compose_many
    monkeypatch.setattr(masses, "compose_many", lambda ms, k: exact(ms, k) - 1e-11 * k)
    code, _, err = _run_quietly(["mass", "compose", "--k", "1", *values])
    assert code == 1 and err.startswith("FAIL algebra-additivity")


def test_mass_compose_past_the_float_range(monkeypatch):
    # two valid masses whose algebra masses sum past the largest float: the
    # total reads "inf", and additivity is checked in units of k/2, where it
    # still catches a composed mass off by 1e-11 k
    argv = ["mass", "compose", "--k", "1.7e+308", "6.6e+307", "6.6e+307"]
    code, out, err = _run_quietly(argv + ["--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["results"]["M_algebra"] == "inf"
    assert math.isclose(report["results"]["M_f"], masses.compose(6.6e307, 6.6e307, 1.7e308),
                        rel_tol=1e-11)  # the report keeps 12 digits
    assert [(c["name"], c["status"]) for c in report["checks"]] == [("algebra-additivity", "pass")]
    exact = masses.compose_many
    monkeypatch.setattr(masses, "compose_many", lambda ms, k: exact(ms, k) - 1e-11 * k)
    code, _, err = _run_quietly(argv)
    assert code == 1 and err.startswith("FAIL algebra-additivity")


@contextlib.contextmanager
def _off_at(module, name, index, row=None):
    """Patch ``module.name`` so that its call number ``index`` (from 0) returns
    a value off by a relative 1e-6; with ``row``, only that row of the array."""
    exact, calls = getattr(module, name), itertools.count()

    def faulty(*args):
        value = exact(*args)
        if next(calls) != index:
            return value
        if row is not None:
            value = value.copy()
            value[row] *= 1 + 1e-6j
            return value
        # a phase is a complex array, a mass a float: each is off by 1e-6
        return value * (1 + 1e-6j if isinstance(value, np.ndarray) else 1 + 1e-6)

    with mock.patch.object(module, name, faulty):
        yield


def _in_domain(argv) -> bool:
    """Run a command unpatched: it passes (True) or is outside the domain
    (exit 2, False), and never fails a check."""
    code, _, err = _run_quietly(argv)
    assert code in (0, 2), (code, err)
    return code == 0


def _failed_details(argv) -> dict:
    """Run a command that must exit 1; the failed checks' details by name."""
    code, out, err = _run_quietly([*argv, "--format", "json"])
    assert code == 1, (code, err)
    return {c["name"]: c.get("detail", "") for c in json.loads(out)["checks"]
            if c["status"] == "fail"}


#: k finite over the normal floats.
_FINITE_K = st.floats(math.log(sys.float_info.min), math.log(1e308)).map(math.exp)


def _below(top):
    """A normal float log-uniform over 300 decades below ``top``."""
    return (st.floats(0.0, 690.0).map(lambda u: top * math.exp(-u))
            .filter(lambda m: m >= sys.float_info.min))


def _normal_mass(k):
    """A physical mass up to k/4, or within a relative 1e-15 - 1e-1 of k/2."""
    near = st.floats(math.log(1e-15), math.log(1e-1)).map(lambda d: (k / 2) * (1 - math.exp(d)))
    return _below(k / 4) | near.filter(lambda m: m >= sys.float_info.min)


@settings(max_examples=100, deadline=None)
@given(k=_FINITE_K, data=st.data())
def test_mass_compose_catches_to_physical_off_by_1e_6_hypothesis(k, data):
    # fault injection: the one to_physical call that maps the summed algebra
    # mass back is off by a relative 1e-6, whatever the masses' size
    # against k; additivity, the check's single item, fails
    values = data.draw(st.lists(_normal_mass(k), min_size=1, max_size=3))
    argv = ["mass", "compose", "--k", repr(k), *map(repr, values)]
    assume(_in_domain(argv))
    with _off_at(masses, "to_physical", 0):
        failed = _failed_details(argv)
    assert list(failed) == ["algebra-additivity"]


@settings(max_examples=100, deadline=None)
@given(k=_FINITE_K | st.just(math.inf), to=st.sampled_from(["physical", "algebra"]),
       data=st.data())
def test_mass_convert_catches_to_physical_off_by_1e_6_hypothesis(k, to, data):
    # fault injection: to_physical is off by a relative 1e-6 on one mass
    # only, in either direction; the round trip names that mass.  Algebra
    # masses are drawn up to 18 k, where the way back amplifies the
    # rounding of the physical mass by about e^36 / 36, and a fault pushes
    # it above k/2 from about 7 k on
    mass = (_below(1e300) if math.isinf(k) else _normal_mass(k) if to == "algebra"
            else _below(k) | st.floats(1.0, 18.0).map(lambda r: r * k).filter(math.isfinite))
    values = data.draw(st.lists(mass, min_size=1, max_size=3))
    index = data.draw(st.integers(0, len(values) - 1))
    argv = ["mass", "convert", "--k", repr(k), "--to", to, *map(repr, values)]
    assume(_in_domain(argv))
    with _off_at(masses, "to_physical", index):
        failed = _failed_details(argv)
    assert list(failed) == ["round-trip"]
    assert failed["round-trip"].startswith(f"{index + 1}: ")


@st.composite
def _reduced_argv(draw):
    """mass reduced at a drawn k, finite or inf, of two positive masses."""
    k = draw(_FINITE_K | st.just(math.inf))
    mass = _below(1e308) if math.isinf(k) else _normal_mass(k)
    return ["mass", "reduced", "--k", repr(k), repr(draw(mass)), repr(draw(mass))]


@settings(max_examples=100, deadline=None)
@example(["mass", "reduced", "--k", "1e+300", "1e-20", "1e-20"])
@example(["mass", "reduced", "--k", "1e+300", "4.9999999999999996e+299", "1e-20"])
@example(["mass", "reduced", "--k", "1.0", "0.4999999999999999", "0.4999999999999999"])
@example(["mass", "reduced", "--k", "1e-300", "1e-301", "1e-301"])
@example(["mass", "reduced", "--k", "inf", "1e-300", "1e-300"])
@example(["mass", "reduced", "--k", "inf", "1e+308", "1e+308"])
@given(_reduced_argv())
def test_mass_reduced_catches_reduced_off_by_1e_6_hypothesis(argv):
    # fault injection: the deformed reduced mass is off by a relative 1e-6;
    # the ratio identity, the check's single item, fails, at k = inf too
    assume(_in_domain(argv))
    with _off_at(masses, "reduced", 0):
        failed = _failed_details(argv)
    assert list(failed) == ["ratio-identity"]


@pytest.mark.parametrize("k, m", [(1.0, 10.0), (1.0, 18.0), (3e-300, 5.1e-299), (1e300, 9e300)])
def test_mass_convert_to_physical_far_above_k_passes(k, m):
    # the physical mass (k/2)(1 - e^(-2m/k)) is correct to its rounding, and
    # the round trip allows what the way back's conditioning makes of it
    code, out, err = _run_quietly(["mass", "convert", "--k", repr(k), "--to", "physical",
                                   repr(m), "--format", "json"])
    assert (code, err) == (0, ""), err
    report = json.loads(out)
    assert math.isclose(report["results"]["value_1"], -(k / 2) * math.expm1(-2 * m / k),
                        rel_tol=1e-11)  # the report keeps 12 digits
    assert [(c["name"], c["status"]) for c in report["checks"]] == [("round-trip", "pass")]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 32), pairs=st.integers(1, 4),
       data=st.data())
def test_cocycle_demo_catches_a_phase_off_by_1e_6_hypothesis(seed, n, pairs, data):
    # fault injection: one of the three factor-wise actions of one drawn
    # pair gets a phase off by a relative 1e-6, a constant angle that the
    # spread cannot see; the closed form names that pair.  A pair's one
    # _phase call returns the three actions' phases as its rows
    index = data.draw(st.integers(0, 3 * pairs - 1))
    with _off_at(gridrep, "_phase", index // 3, row=index % 3):
        failed = _failed_details(["cocycle", "demo", "--seed", str(seed), "--pairs", str(pairs),
                                  "--n", str(n)])
    assert list(failed) == ["cocycle-closed-form"]
    assert failed["cocycle-closed-form"].startswith(f"pair {index // 3}: ")


@pytest.mark.parametrize("k, values", [
    ("7", ["3.4999999999999996", "3.4999999999999996"]),
    ("7", ["3.4999999999999996"] * 3),
    ("3", ["1.4999999999999998", "1.4999999999999998"]),
])
def test_mass_compose_near_the_bound_passes(k, values):
    # valid masses whose total rounds to k/2 (or above it, before the clamp)
    code, out, err = _run_quietly(["mass", "compose", "--k", k, *values, "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["results"]["M_f"] == float(k) / 2
    assert report["checks"][0]["name"] == "algebra-additivity"


@st.composite
def _pair_argv(draw):
    k = draw(_EDGE_K)
    mass = _edge_mass(k)
    command = draw(st.sampled_from([["verify", "equivalence"], ["hydrogen", "spectrum"]]))
    return [*command, "--mf", repr(draw(mass)), "--mfp", repr(draw(mass)), "--k", repr(k)]


@settings(max_examples=200, deadline=None)
@example(["verify", "equivalence", "--mf", "1e-09", "--mfp", "0.3", "--k", "1"])
@example(["verify", "equivalence", "--mf", "1.0000000000000002e-06", "--mfp", "300",
          "--k", "1000"])
# masses whose product m_f m'_f underflows, down to the smallest subnormal
@example(["verify", "equivalence", "--mf", "1e-170", "--mfp", "1e-170", "--k", "1"])
@example(["hydrogen", "spectrum", "--mf", "1e-162", "--mfp", "1e-162", "--k", "1"])
@example(["mass", "reduced", "--k", "1", "1e-161", "1e-161"])
@example(["verify", "equivalence", "--mf", "5e-324", "--mfp", "5e-324", "--k", "1"])
@example(["hydrogen", "spectrum", "--mf", "5e-324", "--mfp", "5e-324", "--k", "1"])
@example(["mass", "reduced", "--k", "1", "5e-324", "5e-324"])
# masses whose product m_f m'_f overflows, with 2 m_f m'_f / k far below k
@example(["mass", "compose", "--k", "6.221138091977962e+296", "9.232684596437353e+150",
          "1.6088209741652738e+176"])
@example(["mass", "reduced", "--k", "6.221138091977962e+296", "9.232684596437353e+150",
          "1.6088209741652738e+176"])
@example(["hydrogen", "spectrum", "--mf", "1.19e+73", "--mfp", "6.89e+247", "--k", "2.69e+259"])
@example(["verify", "equivalence", "--mf", "3.623730029388059e+220",
          "--mfp", "4.1058744948544265e+160", "--k", "1.2348930276464552e+223"])
# k (1 + lam lam') above the largest float
@example(["verify", "equivalence", "--mf", "9.31267570173388e+298",
          "--mfp", "2.32816892543347e+307", "--k", "9.31267570173388e+307"])
# 2 m_f m'_f underflows, yet the cross term is a tenth of the total
@example(["hydrogen", "spectrum", "--mf", "1e-301", "--mfp", "1e-301", "--k", "1e-300",
          "--solver", "closed"])
@given(_pair_argv())
def test_pair_commands_at_domain_edges_hypothesis(argv):
    # `verify equivalence` and `hydrogen spectrum` (default --nmax) over the
    # same edge masses: a correct report or a one-line domain error.  The
    # spectrum's v_f matches m_f m'_f / M_f in exact arithmetic, to the 12
    # digits a report prints
    code, out, err = _run_quietly(argv + ["--format", "json"])
    assert code in (0, 2), (code, err)
    if code == 0:
        report = json.loads(out)
        assert '"nan"' not in out
        if report["command"] == "hydrogen spectrum":
            m, mp, k = (float(argv[argv.index(flag) + 1]) for flag in ("--mf", "--mfp", "--k"))
            m, mp = Fraction(m), Fraction(mp)
            exact = float(m * mp / (m + mp - (0 if math.isinf(k) else 2 * m * mp / Fraction(k))))
            assert abs(report["results"]["v_f"] - exact) <= 1e-11 * exact
    else:
        assert out == "" and err.startswith("kgalilei: error: ")
        assert len(err.splitlines()) == 1


def test_reduced_mass_where_the_product_underflows():
    # m_f m'_f = 1e-322 is subnormal, but v_f = m_f / (2 (1 - m_f)) is a
    # normal float: 5e-162 to the last bit, as is the classical 5e-162
    assert masses.reduced(1e-161, 1e-161, 1.0) == 5e-162
    assert masses.classical_reduced(1e-161, 1e-161) == 5e-162
    code, out, err = _run_quietly(["mass", "reduced", "--k", "1", "1e-161", "1e-161",
                                   "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["v_f"] == 5e-162
    # a reduced mass below the smallest normal float is out of the domain
    with pytest.raises(masses.MassDomainError, match="smallest normal float"):
        masses.reduced(5e-324, 5e-324, 1.0)


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "must be a non-negative integer, got -1"),
    ("--n", "100000", "must be at most 128, got 100000"),
])
def test_cocycle_demo_rejects_a_negative_seed_and_an_oversized_grid(flag, value, message,
                                                                     capsys):
    # numpy's generator takes no negative seed, and a 100000-point grid per
    # axis would need petabytes: usage errors, before the demo starts
    with pytest.raises(SystemExit) as info:
        run(["cocycle", "demo", flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kgalilei cocycle demo")
    assert captured.err.splitlines()[-1] == (
        f"kgalilei cocycle demo: error: argument {flag}: {message}")


@pytest.mark.parametrize("argv", [["mass", "compose", "--k", "1", "0.3", "0.4"],
                                  ["verify", "equivalence", "--mf", "0.3", "--mfp", "0.4",
                                   "--k", "1"]])
def test_unwritable_out_path_exits_two(argv, tmp_path, capsys):
    # a missing directory, or a directory itself: one error line, no report
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"kgalilei: error: cannot write {out}: ")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        run(["mass", "compose", "--bogus-flag", "1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 2


_SPECTRUM = ["hydrogen", "spectrum", "--mf", "0.3", "--mfp", "0.4", "--k", "1"]


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--pairs", "0"), ("--pairs", "-2")])
def test_cocycle_demo_needs_positive_counts(flag, value, capsys):
    # a demo on no grid points, or over no draws, checks nothing: usage error
    with pytest.raises(SystemExit) as info:
        run(["cocycle", "demo", flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kgalilei cocycle demo")
    assert f"argument {flag}: must be a positive integer" in captured.err


def test_hydrogen_spectrum_text_rows_are_plain_floats(capsys):
    assert run(_SPECTRUM + ["--nmax", "3", "--l", "1", "--solver", "radial"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if "rows:" in line]
    assert len(rows) == 1 and "np.float64" not in rows[0]
    assert rows[0].startswith("  rows: [[2, 1, None, -0.0326086")


@pytest.mark.parametrize("solver", ["radial", "both"])
@pytest.mark.parametrize("nmax", [16, 20])
def test_radial_solve_at_large_nmax(nmax, solver):
    # the default box of 2 n_max^2 + 20 n_max Bohr radii holds every
    # requested state: exit 0, and the radial levels agree with the closed form
    code, out, err = _run_quietly(_SPECTRUM + ["--nmax", str(nmax), "--solver", solver,
                                               "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    name = "radial-vs-closed" if solver == "both" else "radial-solver-completed"
    assert [(c["name"], c["status"]) for c in report["checks"]] == [(name, "pass")]
    rows = report["results"]["rows"]
    assert len(rows) == nmax
    for n, _, _, e_radial, _ in rows:
        closed = -report["results"]["v_f"] / (2.0 * n ** 2)
        assert abs(e_radial - closed) / abs(closed) <= 1e-6


@pytest.mark.parametrize("solver", ["radial", "both"])
@pytest.mark.parametrize("nmax", [16, 20])
def test_radial_grid_without_convergence_is_a_failed_check(nmax, solver, monkeypatch):
    # meshes that hold too few bound states (stood in for by non-negative
    # levels on both): one named failing check, exit 1, valid JSON and no traceback
    monkeypatch.setattr(hydrogen, "_radial_eigenvalues",
                        lambda potential, g, l, box, n_points, count: ((0.0,) * count,) * 2)
    code, out, err = _run_quietly(_SPECTRUM + ["--nmax", str(nmax), "--solver", solver,
                                               "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("radial-grid-convergence", "fail")]
    assert report["checks"][0]["residual"] == nmax
    assert len(report["results"]["rows"]) == nmax
    assert ("E_1" in report["results"]) is (solver == "both")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "FAIL radial-grid-convergence: ") and "no bound state" in lines[0]
    assert "Traceback" not in err


def test_coarse_radial_grid_is_a_failed_check(monkeypatch):
    # radial_solve's other GridConvergenceError, raised when refinement moves
    # the levels beyond its tolerance, is reported the same way
    def too_coarse(cfg):
        raise hydrogen.GridConvergenceError("grid too coarse: refinement changes "
                                            "eigenvalues by 1.000e-03 relative",
                                            cfg.n_max - cfg.l)

    monkeypatch.setattr(hydrogen, "radial_solve", too_coarse)
    code, out, err = _run_quietly(_SPECTRUM + ["--solver", "radial", "--format", "csv"])
    assert code == 1
    assert out.splitlines()[1] == "1,0,,,"
    assert err == ("FAIL radial-grid-convergence: residual = 3 (grid too coarse: "
                   "refinement changes eigenvalues by 1.000e-03 relative)\n")


def test_cocycle_demo_on_eight_points(capsys):
    # the smallest grid that admits a boost: one cell per axis, which the
    # tuple sampler keeps within the guard for every partial product
    assert run(["cocycle", "demo", "--n", "8", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["status"] for c in report["checks"]] == ["pass", "pass"]


@pytest.mark.parametrize("n", range(1, 17))
def test_cocycle_demo_grid_sizes(n):
    # below 8 points per axis no whole-cell boost fits the p_max/4 guard: a
    # one-line domain error; from 8 points on, one passing pair
    code, out, err = _run_quietly(["cocycle", "demo", "--n", str(n), "--pairs", "1",
                                   "--format", "json"])
    if n < 8:
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("kgalilei: error: ")
    else:
        assert (code, err) == (0, "")
        assert [c["status"] for c in json.loads(out)["checks"]] == ["pass", "pass"]


@settings(max_examples=100, deadline=None)
@given(nmax=st.integers(1, 20), l=st.integers(-1, 20),
       solver=st.sampled_from(["closed", "radial", "both"]))
def test_hydrogen_spectrum_quantum_numbers_hypothesis(nmax, l, solver):
    # any --nmax 1..20, --l and --solver: a report whose only failing checks
    # are the radial cross-checks (exit 1), a passing report (exit 0), or a
    # one-line domain error (exit 2); never a traceback
    code, out, err = _run_quietly(_SPECTRUM + ["--nmax", str(nmax), "--l", str(l),
                                               "--solver", solver, "--format", "json"])
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("kgalilei: error: ")
        return
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert bool(failed) is (code == 1)
    assert failed <= {"radial-vs-closed", "radial-grid-convergence"}


def test_cocycle_demo_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["cocycle", "demo", "--seed", "0", "--pairs", "3", "--n", "16",
            "--format", "json"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    del da["wall_ms"], db["wall_ms"]
    assert da == db
    assert all(c["status"] == "pass" for c in da["checks"])
    # a passing check carries no detail
    assert all(set(c) == {"name", "status", "residual"} for c in da["checks"])


@pytest.mark.parametrize("argv", [
    ["mass", "compose", "--k", "1", "nan", "0.2"],
    ["mass", "compose", "--k", "1", "0.7", "0.3"],
    ["mass", "compose", "--k", "inf", "inf", "0.3"],
    ["mass", "reduced", "--k", "1", "0", "0"],
    ["mass", "compose", "--k", "1e-310", "1e-311", "1e-311"],
    ["cocycle", "demo", "--n", "4"],
    _SPECTRUM + ["--nmax", "2", "--l", "5"],
    _SPECTRUM + ["--nmax", "0"],
    _SPECTRUM + ["--l", "-1"],
    _SPECTRUM + ["--nmax", "6000", "--solver", "radial"],
    _SPECTRUM + ["--nmax", "1000", "--l", "999"],
    _SPECTRUM + ["--nmax", "100000", "--l", "99999", "--solver", "radial"],
    _SPECTRUM + ["--nmax", str(hydrogen.MAX_N_MAX + 1), "--solver", "closed"],
])
def test_out_of_domain_input_exits_two(argv, capsys):
    # a mass outside [0, k/2] (or NaN), a k below the smallest normal float,
    # quantum numbers outside 0 <= l < n_max, an n_max above the radial
    # solver's cap and a grid too small for the demo are reported in one
    # line, with no traceback and no report
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kgalilei: error: ")
    assert "Traceback" not in captured.err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden, code", [
    (["verify", "hopf"], "verify_hopf.json", 0),
    (["verify", "realization"], "verify_realization.json", 0),
    (["verify", "realization", "--perturb"], "verify_realization_perturb.json", 1),
])
def test_exact_reports_match_golden(argv, golden, code, capsys):
    # the JSON report, apart from its wall time, is byte for byte the stored one
    assert run(argv + ["--format", "json"]) == code
    report = json.loads(capsys.readouterr().out)
    del report["wall_ms"]
    assert canonical_json(report) + "\n" == (GOLDEN / golden).read_text()


_GROUPS = ("verify", "mass", "hydrogen", "cocycle")
_LEAVES = (("verify", "hopf"), ("verify", "realization"), ("verify", "equivalence"),
           ("mass", "compose"), ("mass", "convert"), ("mass", "reduced"),
           ("hydrogen", "spectrum"), ("cocycle", "demo"))
#: Every help text and a usage error of each kind: an unknown group or leaf,
#: a surplus argument, and a missing required option.
_USAGE_ARGVS = ([["--help"]] + [[group, "--help"] for group in _GROUPS]
                + [[*leaf, "--help"] for leaf in _LEAVES]
                + [[], ["nope"]] + [[group, "nope"] for group in _GROUPS]
                + [["verify", "hopf", "extra"],
                   ["verify", "equivalence", "--mfp", "0.4", "--k", "1"],
                   ["mass", "compose", "0.3", "0.4"],
                   ["hydrogen", "spectrum", "--mfp", "0.4", "--k", "1"]])


def _usage_transcript(argvs) -> str:
    """Each invocation's exit status, stdout and stderr, as one text."""
    blocks = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        blocks.append(f"$ kgalilei {' '.join(argv)}\nexit {code}\n"
                      f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "".join(blocks)


def test_usage_and_help_texts_match_golden(monkeypatch):
    # every help text and usage error, with its exit status, byte for byte as
    # stored (written by _usage_transcript with COLUMNS=80)
    monkeypatch.setenv("COLUMNS", "80")
    assert _usage_transcript(_USAGE_ARGVS) == (GOLDEN / "cli_usage.txt").read_text()


def test_a_named_leaf_builds_only_its_own_parser(monkeypatch, capsys):
    # work guard: a command line naming a leaf builds the top parser, the
    # four groups its usage line names and that leaf, 6 of the tree's 13
    # parsers; any other command line builds the whole tree
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["verify", "hopf"]) == 0
    assert len(built) == 6
    built.clear()
    with pytest.raises(SystemExit) as info:
        run(["--help"])
    assert info.value.code == 0
    assert len(built) == 13
    capsys.readouterr()



#: The engines as the helpers below call them, unpatched.
_FIND_THETA, _PROJECT, _RADIAL_SOLVE = (equivalence.find_theta, equivalence.project,
                                        hydrogen.radial_solve)
_TO_ALGEBRA = masses.to_algebra
_PAIR = ["--mf", "0.3", "--mfp", "0.4", "--k", "1"]


def _nan_back_from_the_second_value(m, k):
    # the round trip of the second value, 0.2, comes back NaN
    return math.nan if m == masses.to_physical(0.2, k) else _TO_ALGEBRA(m, k)


def _us_off_in_the_boost_plane(m_f, k):
    # US with a wrong K2 coefficient: R and rho go wrong, rho most, P and Pi not
    us = _FIND_THETA(m_f, m_f, k).matrix @ equivalence.EXCHANGE
    us[3, 3] = 1e3
    return us


def _theta_with_a_nan_entry(m_f, mp_f, k):
    theta = _FIND_THETA(m_f, mp_f, k)
    matrix = theta.matrix.copy()
    matrix[3, 3] = math.nan
    return equivalence.ThetaResult(theta.theta, theta.residual, matrix)


def _nan_fermi_projector(sign, us, f):
    out = _PROJECT(sign, us, f)
    return out if sign > 0 else (lambda p, pp: out(p, pp) * math.nan)


def _radial_levels_off(cfg):
    # level 2 is NaN and level 3 far off: the NaN is the worst
    levels = np.array(_RADIAL_SOLVE(cfg))
    levels[1], levels[2] = math.nan, 2 * levels[2]
    return levels


@pytest.mark.parametrize("argv, owner, name, patch, check, worst", [
    (["mass", "convert", "--k", "1", "0.1", "0.2", "0.3"], masses, "to_algebra",
     _nan_back_from_the_second_value, "round-trip", "2: nan"),
    (["verify", "equivalence", *_PAIR], equivalence, "us_matrix", _us_off_in_the_boost_plane,
     "us-reverses-relative-sign", "rho: "),
    (["hydrogen", "spectrum", *_PAIR, "--nmax", "3"], hydrogen, "radial_solve",
     _radial_levels_off, "radial-vs-closed", "2: nan"),
    (["verify", "equivalence", *_PAIR], equivalence, "find_theta", _theta_with_a_nan_entry,
     "pairing-preservation", "p1, K2: nan"),
    (["verify", "equivalence", *_PAIR], equivalence, "project", _nan_fermi_projector,
     "projector-idempotence", "-1: nan"),
])
def test_failing_float_check_names_its_worst_item(argv, owner, name, patch, check, worst,
                                                  monkeypatch):
    # the detail names the worst item (a value index, a variable, a level n,
    # an entry of A^T Omega A - Omega, a projector's sign) with its residual,
    # and the stderr FAIL line repeats it
    monkeypatch.setattr(owner, name, patch)
    code, out, err = _run_quietly([*argv, "--format", "json"])
    assert code == 1
    (failed,) = [c for c in json.loads(out)["checks"] if c["name"] == check]
    assert failed["status"] == "fail" and failed["detail"].startswith(worst)
    assert failed["detail"].endswith(": " + format_number(float(failed["residual"])))
    assert f"FAIL {check}: residual = " in err and f"({failed['detail']})" in err


def test_verify_hopf_makes_one_check_call_per_item(monkeypatch, capsys):
    # work guard for the benchmark's item structure, calls and not time:
    # 2,392 check calls in order, the 2,197 Jacobi triples, then the 169
    # coproduct pairs, then each generator's coassociativity and Hopf axiom
    calls = []

    def record(name):
        method = getattr(hopf.GalileiHopf, name)
        monkeypatch.setattr(hopf.GalileiHopf, name,
                            lambda alg, *args: calls.append((name, args)) or method(alg, *args))

    for name in ("check_jacobi", "check_hom", "check_coassoc", "check_hopf_axiom"):
        record(name)
    assert run(["verify", "hopf"]) == 0
    capsys.readouterr()
    names = hopf.GENERATOR_NAMES
    assert calls == ([("check_jacobi", t) for t in itertools.product(names, repeat=3)]
                     + [("check_hom", p) for p in itertools.product(names, repeat=2)]
                     + [("check_coassoc", (g,)) for g in names]
                     + [("check_hopf_axiom", (g,)) for g in names])
    assert len(calls) == 2392


def _exact_reduced(m_f, mp_f) -> Fraction:
    return Fraction(m_f) * Fraction(mp_f) / (Fraction(m_f) + Fraction(mp_f))


@pytest.mark.parametrize("m_f, mp_f", [(1e308, 1e308), (1.79e308, 1e306),
                                       (sys.float_info.max, sys.float_info.max)])
def test_mass_reduced_where_the_total_overflows(m_f, mp_f):
    # k = inf with m_f + m'_f above the largest float: the total is no float,
    # but the reduced mass m_f m'_f / (m_f + m'_f) is
    code, out, err = _run_quietly(["mass", "reduced", "--k", "inf", repr(m_f), repr(mp_f),
                                   "--format", "json"])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    exact = float(f"{float(_exact_reduced(m_f, mp_f)):.12g}")   # the report keeps 12 digits
    assert results["v_f"] == results["v_classical"] == exact


@pytest.mark.parametrize("m_f, mp_f", [(1e308, 1e308), (1.79e308, 1e306),
                                       (sys.float_info.max, sys.float_info.max)])
def test_hydrogen_spectrum_where_the_total_overflows(m_f, mp_f):
    # the radial solve runs in Bohr units and scales by v_f (up to 8.99e307)
    # only at the end, so nothing overflows and no warning is printed
    code, out, err = _run_quietly(["hydrogen", "spectrum", "--mf", repr(m_f), "--mfp", repr(mp_f),
                                   "--k", "inf", "--solver", "both", "--format", "json"])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    v = _exact_reduced(m_f, mp_f)
    assert results["v_f"] == float(f"{float(v):.12g}")
    assert results["E_1"] == float(f"{float(-v / 2):.12g}")
    closed = hydrogen.bohr_levels(hydrogen.HydrogenConfig(m_f=m_f, mp_f=mp_f, k=math.inf))
    assert len(results["rows"]) == len(closed) == 3
    for (_, _, _, e_radial, _), e_closed in zip(results["rows"], closed):
        assert abs(e_radial - e_closed) <= 1e-6 * abs(e_closed)


def test_radial_solve_through_nmax_60_and_at_the_cap():
    # `--solver both` passes at l = 0 and at l = n_max - 1 for every n_max
    # from 1 to 60, and at the cap
    for nmax in [*range(1, 61), hydrogen.MAX_N_MAX]:
        for l in sorted({0, nmax - 1}):
            code, out, err = _run_quietly(_SPECTRUM + ["--nmax", str(nmax), "--l", str(l),
                                                       "--format", "json"])
            assert (code, err) == (0, ""), (nmax, l, err)
            report = json.loads(out)
            assert len(report["results"]["rows"]) == nmax - l


def test_mass_compose_past_the_float_range_at_k_inf():
    # the composed mass itself exceeds the largest float: exit 2, naming why
    code, out, err = _run_quietly(["mass", "compose", "--k", "inf", "1e308", "1e308"])
    assert (code, out) == (2, "")
    assert err == ("kgalilei: error: the composed mass of 1e+308 and 1e+308 exceeds the "
                   f"largest float {sys.float_info.max}\n")
