import ast
import csv
import importlib
import io
import json
import os
import pathlib
import pkgutil
import re
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import lkapprox
from lkapprox import cli
from lkapprox.cli import main
from lkapprox.discretize import _unit_tau
from lkapprox.oracle import build_delay_lyap, k1_quad


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_OK
    return json.loads(out)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "A0": [[-2.0, 0.0], [0.0, -0.9]],
        "A1": [[-1.0, 0.0], [-1.0, -1.0]],
        "h": 2.0,
        "Q0": [[1.0, 0.0], [0.0, 1.0]],
        "Q1": [[1.0, 0.0], [0.0, 1.0]],
        "Q2": [[0.0, 0.0], [0.0, 0.0]],
        "scheme": "legendre",
        "N": 20,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["k1", "--config", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["k1", "--config", str(bad)]) == cli.EXIT_CONFIG
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"A0": [[-1.0]], "h": 1.0}))
    assert main(["k1", "--config", str(incomplete)]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, scheme="fourier")]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, N=0)]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, N=True)]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, h=True)]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, phi="pulse")]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, phi={"constant": [1.0]})]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, A0=[[1.0, 0.0]])]) == cli.EXIT_CONFIG
    capsys.readouterr()
    # A typo such as "q2" would otherwise silently mean Q2 = 0.
    assert main(["k1", "--config",
                 write_config(tmp_path, q2=[[1.0, 0.0], [0.0, 1.0]])]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "lk: config error: config has unknown key 'q2'\n")


# A string or a boolean where a number belongs, each in a config that is
# otherwise valid.  NumPy would read "2.2" as 2.2 and true as 1.0.
_NOT_NUMBERS = {
    "h": ({"h": "2.2"}, "'2.2'"),
    "A0": ({"A0": [[True, 0.0], [0.0, -0.9]]}, "True"),
    "A1": ({"A1": [[-1.0, 0.0], ["-1", -1.0]]}, "'-1'"),
    "Q0": ({"Q0": [["1", 0.0], [0.0, 1.0]]}, "'1'"),
    "Q1": ({"Q1": [[True, False], [False, True]]}, "True"),
    "Q2": ({"Q2": [[0.0, 0.0], [0.0, "0.5"]]}, "'0.5'"),
    "phi constant": ({"phi": {"constant": ["1", 2.0]}}, "'1'"),
    "phi polynomial": ({"phi": {"polynomial": [["1", 0.0], [True, 0.0]]}}, "'1'"),
}


# Config errors, each with the message `lk` prints for it: the config's
# overrides (a list stands for the whole JSON document) and the arguments
# after the config.
_CONFIG_ERRORS = {
    "array": ([1.0, 2.0], ["k1"], "config must be a JSON object"),
    "phi form": ({"phi": {"sine": [1]}}, ["k1"], "unknown phi form 'sine'"),
    "phi list": ({"phi": [1]}, ["k1"],
                 'config phi must be a built-in name, {"constant": [...]}, '
                 'or {"polynomial": [[...], ...]}'),
    "allow_incomplete": ({"allow_incomplete": 1}, ["k1"],
                         "config allow_incomplete must be a boolean"),
    "N flag": ({}, ["k1", "-N", "0"], "N must be an integer >= 1, got 0"),
    "N sweep": ({}, ["sweep", "--axis", "N", "--range", "0:3"],
                "N sweep range must stay >= 1"),
    "range": ({}, ["sweep", "--axis", "h", "--range", "a:3"],
              "range endpoints must be numbers: 'a:3'"),
}


@pytest.mark.parametrize("case", _CONFIG_ERRORS)
def test_config_error_messages(tmp_path, capsys, case):
    overrides, argv, message = _CONFIG_ERRORS[case]
    if isinstance(overrides, list):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overrides))
        config = str(path)
    else:
        config = write_config(tmp_path, **overrides)
    assert main([argv[0], "--config", config, *argv[1:]]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"lk: config error: {message}\n")


@pytest.mark.parametrize("key", _NOT_NUMBERS)
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, key):
    overrides, shown = _NOT_NUMBERS[key]
    assert main(["k1", "--config", write_config(tmp_path, **overrides)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"lk: config error: config {key} must hold JSON numbers, got {shown}\n")


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_exit_code_numeric_failure(tmp_path, capsys):
    # A root at the origin makes the Lyapunov solve singular.
    cfg = write_config(tmp_path, A0=[[0.0]], A1=[[0.0]], h=1.0,
                       Q0=[[1.0]], Q1=[[1.0]], Q2=[[0.0]])
    assert main(["build", "--config", cfg]) == cli.EXIT_NUMERIC
    # A0 = 1, A1 = 0 makes M = diag(2, 0) semidefinite: alpha-max is unbounded.
    cfg = write_config(tmp_path, "unbounded.json", A0=[[1.0]], A1=[[0.0]], h=1.0,
                       Q0=[[1.0]], Q1=[[1.0]], Q2=[[0.0]])
    assert main(["k1", "--config", cfg]) == cli.EXIT_NUMERIC
    assert "ConvergenceError" in capsys.readouterr().err
    # A root at -1e-4 against Q0 = 1e306: P ~ 5e309 is past the double range.
    cfg = write_config(tmp_path, "overflow.json", A0=[[-1e-4]], A1=[[0.0]], h=1.0,
                       Q0=[[1e306]], Q1=[[1.0]], Q2=[[0.0]])
    assert main(["build", "--config", cfg]) == cli.EXIT_NUMERIC
    assert "RangeError" in capsys.readouterr().err


def test_k1_exits_3_at_the_residual_gate(capsys, monkeypatch):
    # P off by 1e-6 relative fails the 1e-9 gate of the delay-free build.
    trsyl = lkapprox.linalg._trsyl

    def perturbed(T, B, C):
        Y, scale = trsyl(T, B, C)
        return Y * (1.0 + 1e-6), scale

    monkeypatch.setattr(lkapprox.linalg, "_trsyl", perturbed)
    assert main(["k1", "--config", "delay-free"]) == cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "lk: numerical failure: NumericalFailureError: Lyapunov residual ")


def test_exit_code_io_failure(tmp_path, capsys):
    missing_dir = str(tmp_path / "nodir" / "out.bin")
    assert main(["build", "--config", "example1", "--out",
                 missing_dir]) == cli.EXIT_IO
    assert main(["k1", "--config", "example1", "--out",
                 missing_dir + ".json"]) == cli.EXIT_IO
    capsys.readouterr()


def test_spectrum_example1(capsys):
    payload = run_json(capsys, "spectrum", "--config", "example1", "-N", "40")
    assert payload["hurwitz"] is True
    assert payload["rightmost"][0] < 0.0
    assert len(payload["eigenvalues"]) == 41


def test_spectrum_contains_delay_free_eigenvalues(tmp_path, capsys):
    cfg = write_config(tmp_path, A0=[[-1.0, 0.0], [0.0, -2.0]],
                       A1=[[0.0, 0.0], [0.0, 0.0]], h=1.0, N=16)
    payload = run_json(capsys, "spectrum", "--config", cfg)
    lam = np.array([complex(re, im) for re, im in payload["eigenvalues"]])
    assert np.min(np.abs(lam - (-1.0))) < 1e-8
    assert np.min(np.abs(lam - (-2.0))) < 1e-8


def test_spectrum_both_schemes(capsys):
    payload = run_json(capsys, "spectrum", "--config", "example2", "--both")
    assert set(payload) == {"cheb", "legendre"}
    for part in payload.values():
        assert part["hurwitz"] is True


def test_spectrum_rightmost_persists(capsys):
    a = run_json(capsys, "spectrum", "--config", "example1", "-N", "40")
    b = run_json(capsys, "spectrum", "--config", "example1", "-N", "80")
    ra = complex(*a["rightmost"])
    rb = complex(*b["rightmost"])
    assert min(abs(ra - rb), abs(ra - rb.conjugate())) < 1e-6


def test_build_artifact_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "p1.bin"
    out2 = tmp_path / "p2.bin"
    for out in (out1, out2):
        assert main(["build", "--config", "example1", "-N", "24",
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "p1.bin.meta.json").read_text())
    assert meta["residual"] <= 1e-9
    assert meta["rows"] == meta["cols"] == 25
    assert meta["dtype"] == "float64-le" and meta["order"] == "row-major"
    P = np.frombuffer(out1.read_bytes(), dtype="<f8").reshape(25, 25)
    npt.assert_allclose(P, P.T, atol=1e-12)

    from lkapprox import build_functional
    from lkapprox.discretize import RfdeSystem
    fa = build_functional(RfdeSystem([[-0.5]], [[-1.0]], 2.2),
                          cli._load_config("example1").weights, "legendre", 24)
    npt.assert_allclose(P, fa.P, atol=1e-12)


def test_build_flags_unstable_delay(tmp_path, capsys):
    cfg = write_config(tmp_path, h=7.0, N=40)
    out = tmp_path / "p.bin"
    assert main(["build", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    meta = json.loads((tmp_path / "p.bin.meta.json").read_text())
    assert meta["psd"] is False and meta["hurwitz"] is False


def test_build_summary_to_stdout(capsys):
    payload = run_json(capsys, "build", "--config", "example2")
    assert payload["scheme"] == "legendre" and payload["N"] == 20
    assert payload["psd"] is True


def test_eval_zero_segment(tmp_path, capsys):
    cfg = write_config(tmp_path, phi={"constant": [0.0, 0.0]})
    payload = run_json(capsys, "eval", "--config", cfg)
    assert payload["value"] == 0.0
    assert payload["phi"] == "constant"


def test_eval_matches_library(capsys):
    payload = run_json(capsys, "eval", "--config", "example1", "-N", "40")
    from lkapprox import FunctionSpec, build_functional, evaluate
    from lkapprox.discretize import RfdeSystem
    fa = build_functional(RfdeSystem([[-0.5]], [[-1.0]], 2.2),
                          cli._load_config("example1").weights, "legendre", 40)
    assert payload["value"] == evaluate(fa, FunctionSpec.named("one", 1))


def test_eval_phi_override(capsys):
    base = run_json(capsys, "eval", "--config", "example1")
    over = run_json(capsys, "eval", "--config", "example1", "--phi", "sin")
    assert over["phi"] == "sin"
    assert over["value"] != base["value"]


def test_eval_polynomial_phi(tmp_path, capsys):
    cfg = write_config(tmp_path, phi={"polynomial": [[1.0, 0.0], [0.5, -1.0]]})
    payload = run_json(capsys, "eval", "--config", cfg)
    assert payload["phi"] == "polynomial" and payload["value"] > 0.0


@pytest.mark.parametrize("phi", [{"constant": [float("nan"), 1.0]},
                                 {"polynomial": [[1.0, float("inf")]]}])
def test_eval_rejects_non_finite_phi(tmp_path, capsys, phi):
    # json.dumps writes the literals NaN and Infinity, which json.loads accepts.
    cfg = write_config(tmp_path, phi=phi)
    assert main(["eval", "--config", cfg]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


def test_k1_delay_free_builtin(capsys):
    payload = run_json(capsys, "k1", "--config", "delay-free")
    npt.assert_allclose(payload["k1"], 0.5, atol=1e-8)
    npt.assert_allclose(payload["baseline_norm_ratio"], 0.5, atol=1e-8)
    npt.assert_allclose(payload["baseline_alpha_max"], 0.5, atol=1e-7)
    assert payload["delay_free"] is True


def test_k1_example2_payload(capsys):
    payload = run_json(capsys, "k1", "--config", "example2", "-N", "40")
    from lkapprox import CostWeights, RfdeSystem, build_functional, k1
    fa = build_functional(
        RfdeSystem([[-2.0, 0.0], [0.0, -0.9]], [[-1.0, 0.0], [-1.0, -1.0]], 2.0),
        CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2))), "legendre", 40)
    assert payload["k1"] == k1(fa)
    assert payload["delay_free"] is False
    assert payload["k1"] > payload["baseline_norm_ratio"]
    assert payload["k1"] > payload["baseline_alpha_max"]


def test_k1_cross_command_agreement(capsys):
    k1_payload = run_json(capsys, "k1", "--config", "example2", "-N", "80")
    report = run_json(capsys, "validate", "--config", "example2", "-N", "80")
    for key in ("quad_cc", "quad_gauss"):
        npt.assert_allclose(k1_payload["k1"], report["k1"][key], rtol=1e-3)


def _no_alpha_config(tmp_path):
    # x' = x: the loss matrix [[2, 0], [0, 0]] is not sign-definite, so the
    # alpha-max baseline raises, while the build and norm-ratio (0.5) do not.
    return write_config(tmp_path, A0=[[1.0]], A1=[[0.0]], h=1.0,
                        Q0=[[1.0]], Q1=[[1.0]], Q2=[[0.0]], N=8)


def test_k1_failing_baseline_reads_nan(tmp_path, capsys):
    code = main(["k1", "--config", _no_alpha_config(tmp_path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    payload = json.loads(captured.out)
    assert payload["baseline_alpha_max"] == "nan"
    assert payload["baseline_norm_ratio"] == 0.5
    assert np.isfinite(payload["k1"]) and payload["n"] == 1
    (line,) = captured.err.splitlines()
    assert "baseline_alpha_max" in line and "ConvergenceError" in line


def test_critical_delay_example2(capsys):
    payload = run_json(capsys, "critical-delay", "--config", "example2",
                       "-N", "20", "--bracket", "1:10", "--tol", "1e-4")
    assert abs(payload["h_critical"] - 6.172557) <= 1e-2
    assert payload["bracket"] == [1.0, 10.0]


def test_critical_delay_errors(tmp_path, capsys):
    assert main(["critical-delay", "--config", "example2",
                 "--bracket", "5"]) == cli.EXIT_CONFIG
    assert main(["critical-delay", "--config", "delay-free"]) == cli.EXIT_NUMERIC
    capsys.readouterr()
    assert main(["critical-delay", "--config", "example2",
                 "--bracket", "1:inf"]) == cli.EXIT_CONFIG
    assert "'1:inf'" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--bracket", "0:5"], ["--bracket=-1:5"],
                                  ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
                                  ["--tol", "1e-16"]])
def test_critical_delay_bad_arguments_are_usage_errors(capsys, args):
    assert main(["critical-delay", "--config", "example2", *args]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_sweep_k1_past_the_margin_is_minus_inf(capsys):
    # Example 2's margin is 6.1726; past it V has no lower bound.
    code, out = run(capsys, "sweep", "--config", "example2", "--axis", "h",
                    "--range", "7:8", "--steps", "2")
    assert code == cli.EXIT_OK
    header, rows = parse_csv(out)
    assert [row[header.index("k1")] for row in rows] == ["-inf", "-inf"]


def test_sweep_h_axis_baselines(capsys):
    code, out = run(capsys, "sweep", "--config", "example2", "-N", "40",
                    "--axis", "h", "--range", "1:6", "--steps", "6")
    assert code == cli.EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["h", "k1", "max_re", "psd", "residual", "wall_time_ms",
                      "baseline_norm_ratio", "baseline_alpha_max", "error"]
    assert len(rows) == 6
    assert [float(r[0]) for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    for r in rows:
        assert float(r[1]) > float(r[6])
        assert float(r[1]) > float(r[7])
        assert r[3] == "true" and r[8] == ""
    assert len({r[6] for r in rows}) == 1


def test_sweep_psd_flips_with_abscissa(capsys):
    code, out = run(capsys, "sweep", "--config", "example2", "-N", "40",
                    "--axis", "h", "--range", "5:7", "--steps", "9")
    assert code == cli.EXIT_OK
    _, rows = parse_csv(out)
    flags = [r[3] == "true" for r in rows]
    stable = [float(r[2]) < 0.0 for r in rows]
    assert flags == stable
    assert True in flags and False in flags


def test_sweep_N_axis_roundtrip(capsys):
    code, out = run(capsys, "sweep", "--config", "example2",
                    "--axis", "N", "--range", "10:40", "--steps", "4")
    assert code == cli.EXIT_OK
    header, rows = parse_csv(out)
    assert header[0] == "N" and "baseline_norm_ratio" not in header
    assert [r[0] for r in rows] == ["10", "20", "30", "40"]
    for r in rows:
        for cell in r[1:3] + [r[4]]:
            assert cli._fmt(float(cell)) == cell


def test_sweep_out_file_equals_stdout(tmp_path, capsys):
    # The same rows to a file as to stdout, wall_time_ms (column 6) aside.
    argv = ["sweep", "--config", "example2", "--axis", "h", "--range", "1:3",
            "--steps", "4"]
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_OK
    path = tmp_path / "sweep.csv"
    code, printed = run(capsys, *argv, "--out", str(path))
    assert (code, printed) == (cli.EXIT_OK, "")
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()

    def masked(csv_text):
        return [line.split(",")[:5] + line.split(",")[6:]
                for line in csv_text.split("\n")]

    assert masked(text) == masked(out) and len(masked(text)) == 6


def test_sweep_N_axis_builds_each_order_once(capsys):
    # 5 steps over 1:3 round to 1, 2, 2, 2, 3.
    code, out = run(capsys, "sweep", "--config", "example2",
                    "--axis", "N", "--range", "1:3", "--steps", "5")
    assert code == cli.EXIT_OK
    assert [r[0] for r in parse_csv(out)[1]] == ["1", "2", "3"]


def test_sweep_reuses_order_tables_and_completeness(capsys, monkeypatch):
    # A sweep point pays for its solves, not for tables that depend on the
    # order or the weights alone: no np.kron (the assemblies broadcast),
    # one tau table per order, and one completeness test for the run's
    # weights.  Q2 enters an eigensolve only through that test.
    counts = {"kron": 0, "Q2": 0}
    loaded = []
    load, kron, eigvalsh = cli._load_config, np.kron, np.linalg.eigvalsh

    def counting_kron(*args):
        counts["kron"] += 1
        return kron(*args)

    def counting_eigvalsh(M, *args, **kwargs):
        counts["Q2"] += any(M is cfg.weights.Q2 for cfg in loaded)
        return eigvalsh(M, *args, **kwargs)

    monkeypatch.setattr(cli, "_load_config",
                        lambda name: loaded.append(load(name)) or loaded[-1])
    monkeypatch.setattr(np, "kron", counting_kron)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    _unit_tau.cache_clear()
    code, out = run(capsys, "sweep", "--config", "example2", "--axis", "h",
                    "--range", "0.5:8", "--steps", "12")
    assert code == cli.EXIT_OK and len(parse_csv(out)[1]) == 12
    assert counts == {"kron": 0, "Q2": 1}
    assert _unit_tau.cache_info().misses == 1

    code, out = run(capsys, "sweep", "--config", "example2", "--axis", "N",
                    "--range", "4:20", "--steps", "5")
    assert code == cli.EXIT_OK
    assert [r[0] for r in parse_csv(out)[1]] == ["4", "8", "12", "16", "20"]
    # Order 20 was built by the h sweep; each other order once.
    assert _unit_tau.cache_info().misses == 5
    assert counts == {"kron": 0, "Q2": 2}


@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--config", "example2", "--both"], id="spectrum"),
    pytest.param(["build", "--config", "example1", "--out", "{tmp}/P.bin"], id="build"),
    pytest.param(["eval", "--config", "example2", "--phi", "sin"], id="eval"),
    pytest.param(["k1", "--config", "example2", "-N", "40"], id="k1"),
    # d = 82: a closure order large enough for a thread gated on order to start.
    pytest.param(["critical-delay", "--config", "example2", "-N", "40"],
                 id="critical-delay"),
    pytest.param(["sweep", "--config", "example2", "-N", "20", "--axis", "h",
                  "--range", "1:4", "--steps", "5"], id="sweep"),
    pytest.param(["validate", "--config", "example2", "-N", "12"], id="validate"),
])
def test_command_starts_no_threads(capsys, monkeypatch, tmp_path, argv):
    # Every command runs on the calling thread: Python threads cannot
    # overlap a build's NumPy glue, and a kept worker slowed later builds.
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    code, out = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == cli.EXIT_OK
    if argv[0] == "sweep":
        assert len(parse_csv(out)[1]) == 5
    assert started == []


def test_commands_call_no_numpy_sort(capsys, monkeypatch):
    # The first np.sort or np.searchsorted call in a process maps about
    # 0.65 MB of NumPy's sort kernels; a screen built on them raised every
    # benchmark workload's peak RSS by 0.3-0.6 MB and saved no time.
    def refuse(*args, **kwargs):
        raise AssertionError("a command called a NumPy sort function")

    monkeypatch.setattr(np, "sort", refuse)
    monkeypatch.setattr(np, "searchsorted", refuse)
    for argv in (["k1", "--config", "example2"],
                 ["build", "--config", "example2", "--scheme", "cheb", "-N", "40"],
                 ["sweep", "--config", "example2", "--axis", "h",
                  "--range", "0.5:9.5", "--steps", "40"],
                 ["critical-delay", "--config", "example2"],
                 ["validate", "--config", "example2", "-N", "24"]):
        assert run(capsys, *argv)[0] == cli.EXIT_OK, argv


def test_sweep_records_failures_in_rows(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, A0=[[0.0]], A1=[[0.0]], h=1.0,
                       Q0=[[1.0]], Q1=[[1.0]], Q2=[[0.0]])
    code, out = run(capsys, "sweep", "--config", cfg,
                    "--axis", "N", "--range", "4:8", "--steps", "2")
    assert code == cli.EXIT_NUMERIC
    _, rows = parse_csv(out)
    assert len(rows) == 2
    for r in rows:
        assert r[1] == "nan" and r[-1] != ""

    # One failing point of an h sweep: every column but the axis value, the
    # psd verdict and the error reads nan, the baselines included.  The
    # failing pass over all points is followed by one pass per point.
    build = cli.functional._build_pass

    def failing_build(systems, *args, **kwargs):
        if any(system.h == 2.0 for system in systems):
            raise ValueError("no build at h = 2")
        return build(systems, *args, **kwargs)

    monkeypatch.setattr(cli.functional, "_build_pass", failing_build)
    code, out = run(capsys, "sweep", "--config", "example2",
                    "--axis", "h", "--range", "1:3", "--steps", "3")
    assert code == cli.EXIT_NUMERIC
    header, rows = parse_csv(out)
    assert header == ["h", "k1", "max_re", "psd", "residual", "wall_time_ms",
                      "baseline_norm_ratio", "baseline_alpha_max", "error"]
    assert rows[1] == ["2", "nan", "nan", "false", "nan", "nan", "nan", "nan",
                       "ValueError: no build at h = 2"]
    for r in (rows[0], rows[2]):
        assert r[3] == "true" and r[-1] == "" and "nan" not in r


@pytest.mark.parametrize("scheme", ["legendre", "cheb"])
def test_sweep_h_rows_equal_lone_builds(capsys, scheme):
    # The one pass over an h sweep across the margin (~6.17) writes, for
    # each point, the cells of that point's lone build and k1; every
    # wall_time_ms is the pass's time split evenly.
    code, out = run(capsys, "sweep", "--config", "example2", "--scheme", scheme,
                    "-N", "16", "--axis", "h", "--range", "4:8", "--steps", "9")
    assert code == cli.EXIT_OK
    header, rows = parse_csv(out)
    cfg = cli._load_config("example2")
    for row in rows:
        cells = dict(zip(header, row))
        system = lkapprox.RfdeSystem(cfg.system.A0, cfg.system.A1, float(cells["h"]))
        fa = lkapprox.build_functional(system, cfg.weights, scheme, 16)
        assert cells["k1"] == cli._fmt(lkapprox.k1(fa, check_psd=False))
        assert cells["max_re"] == cli._fmt(fa.max_re)
        assert cells["psd"] == ("true" if fa.psd else "false")
        assert cells["residual"] == cli._fmt(fa.residual)
    assert "-inf" in [r[1] for r in rows] and rows[0][1] != "-inf"
    assert len({r[5] for r in rows}) == 1


def test_sweep_h_takes_k1_once_per_row(capsys, monkeypatch):
    # Each point of an h sweep takes its k1 from one lone functional.k1,
    # looked up on the module, across the margin and over several passes.
    calls = []
    k1 = cli.functional.k1
    monkeypatch.setattr(cli.functional, "k1",
                        lambda fa, **kwargs: calls.append(fa.system.h) or k1(fa, **kwargs))
    code, out = run(capsys, "sweep", "--config", "example2", "--axis", "h",
                    "--range", "0.5:9.5", "--steps", "40")
    assert code == cli.EXIT_OK
    _, rows = parse_csv(out)
    assert [cli._fmt(h) for h in calls] == [r[0] for r in rows]
    assert "-inf" in [r[1] for r in rows]


def test_sweep_h_splits_into_passes_within_their_bytes(capsys, monkeypatch):
    # A pass holds a stack of order-d matrices per stage, so the points of
    # an h sweep split evenly into the fewest passes that keep a stack
    # within cli._PASS_BYTES: 18 points at d = 42, 2 at d = 122 and 1 at
    # d = 242, where each point is built alone.
    sizes = []
    build = cli.functional._build_pass
    monkeypatch.setattr(cli.functional, "_build_pass",
                        lambda systems, *args, **kwargs: sizes.append(len(systems))
                        or build(systems, *args, **kwargs))
    for N, steps, expected in ((20, 40, [14, 14, 12]), (60, 5, [2, 2, 1]),
                               (120, 2, [1, 1])):
        sizes.clear()
        code, out = run(capsys, "sweep", "--config", "example2", "-N", str(N),
                        "--axis", "h", "--range", "1:9", "--steps", str(steps))
        assert code == cli.EXIT_OK and len(parse_csv(out)[1]) == steps
        assert sizes == expected, N


def test_sweep_h_failing_baseline_reads_nan(tmp_path, capsys):
    code = main(["sweep", "--config", _no_alpha_config(tmp_path),
                 "--axis", "h", "--range", "1:2", "--steps", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    header, rows = parse_csv(captured.out)
    assert header[-3:] == ["baseline_norm_ratio", "baseline_alpha_max", "error"]
    assert [r[0] for r in rows] == ["1", "1.5", "2"]
    for r in rows:
        assert r[-3:] == ["0.5", "nan", ""] and "nan" not in r[1:6]
    (line,) = captured.err.splitlines()
    assert "baseline_alpha_max" in line and "ConvergenceError" in line


def test_sweep_argument_validation(capsys):
    assert main(["sweep", "--config", "example2",
                 "--range", "1:4"]) == cli.EXIT_CONFIG
    assert main(["sweep", "--config", "example2", "--axis", "h"]) == cli.EXIT_CONFIG
    assert main(["sweep", "--config", "example2", "--axis", "h",
                 "--range", "4:1"]) == cli.EXIT_CONFIG
    assert main(["sweep", "--config", "example2", "--axis", "h",
                 "--range", "0:4", "--steps", "3"]) == cli.EXIT_CONFIG
    assert main(["sweep", "--config", "example2", "--axis", "h",
                 "--range", "1:4", "--steps", "0"]) == cli.EXIT_CONFIG
    capsys.readouterr()
    for text in ("1:inf", "-inf:4", "nan:4"):
        assert main(["sweep", "--config", "example2", "--axis", "h",
                     f"--range={text}", "--steps", "3"]) == cli.EXIT_CONFIG
        assert f"{text!r}" in capsys.readouterr().err


def test_flags_rejected_where_they_do_not_act(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["k1", "--config", "example1", "--tol", "1e-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", "example1", "--scheme", "cheb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_no_split_flag_rejected(capsys):
    # The cheb build always splits off the history terms; there is no
    # switch for an unsplit cost.
    for command in ("build", "eval", "k1"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "example2", "--scheme", "cheb", "--no-split"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_public_names_resolve():
    # perfbench/tracer.py wraps every name in the __all__ of these modules,
    # so a stale entry would break every traced run.
    init = pathlib.Path(lkapprox.__file__)
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"lkapprox.{node.module}").__all__
            for alias in node.names:
                assert alias.name in exported, (node.module, alias.name)
    for short in ("linalg", "spectral", "discretize", "functional", "oracle", "cli"):
        mod = importlib.import_module(f"lkapprox.{short}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (short, name)
    # Every name the demos, the benchmark harness and the README quickstart
    # take from the top level must be bound there; perfbench is outside
    # tier-1, so this is what keeps its imports covered.
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    sources = {"README.md": "\n".join(re.findall(r"```python\n(.*?)```", readme, re.S))}
    for path in sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        sources[str(path.relative_to(root))] = path.read_text(encoding="utf-8")
    submodules = {m.name for m in pkgutil.iter_modules(lkapprox.__path__)}
    taken = 0
    for where, source in sources.items():
        for name in _names_taken_from_lkapprox(source) - submodules:
            assert hasattr(lkapprox, name), (where, name)
            taken += 1
    assert taken > 0


def _names_taken_from_lkapprox(source):
    """Names a Python source takes from the top-level lkapprox, by
    `from lkapprox import name` or as `lkapprox.name`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "lkapprox":
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "lkapprox"):
            names.add(node.attr)
    return names


def test_validate_example1(capsys, ex1_system, ex1_weights):
    report = run_json(capsys, "validate", "--config", "example1", "-N", "40")
    assert report["failures"] == {}
    # The CC k1 comes from the matrix behind matrix_deviation, unchanged.
    dl = build_delay_lyap(ex1_system, ex1_weights)
    for rule in ("cc", "gauss"):
        assert report["k1"][f"quad_{rule}"] == k1_quad(
            dl, ex1_weights, rule=rule, N=40, check_psd=False)
    dev = report["matrix_deviation"]["legendre_vs_quad_cc"]
    assert dev <= 5e-2 * report["matrix_scale"]
    res = report["psi_residuals"]
    assert res["dynamic"] <= 1e-6
    assert res["symmetry"] <= 1e-7
    assert res["algebraic"] <= 1e-7


def test_validate_delay_free_all_methods(capsys):
    report = run_json(capsys, "validate", "--config", "delay-free")
    for key in ("cheb", "legendre", "quad_cc", "quad_gauss"):
        npt.assert_allclose(report["k1"][key], 0.5, atol=1e-8)


def test_validate_example2_spread(capsys):
    report = run_json(capsys, "validate", "--config", "example2", "-N", "80")
    assert report["k1"]["rel_spread"] <= 1e-3


def _count_order(monkeypatch, name, d):
    """A list that records each np.linalg.<name> call on a d x d matrix."""
    calls = []
    routine = getattr(np.linalg, name)

    def counting(M, *args, **kwargs):
        if np.shape(M)[-2:] == (d, d):
            calls.append(name)
        return routine(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("command", ["build", "eval", "k1"])
def test_summary_reads_the_spectrum_of_p_once(capsys, monkeypatch, command):
    # The summary reads lam_min/lam_max before psd, so the one eigvalsh of
    # P (order 42) gives the verdict too, and no Cholesky factorization of
    # P runs.
    cholesky = _count_order(monkeypatch, "cholesky", 42)
    eigvalsh = _count_order(monkeypatch, "eigvalsh", 42)
    report = run_json(capsys, command, "--config", "example2")
    assert report["psd"] is True and report["lam_min"] > 0.0
    assert (cholesky, eigvalsh) == ([], ["eigvalsh"])


def test_sweep_factors_each_p_once(capsys, monkeypatch):
    # A sweep row reads psd alone: one Cholesky factorization of P per
    # point, and eigvalsh(P) only where it fails, past the margin 6.17.
    cholesky = _count_order(monkeypatch, "cholesky", 42)
    eigvalsh = _count_order(monkeypatch, "eigvalsh", 42)
    code, out = run(capsys, "sweep", "--config", "example2", "--axis", "h",
                    "--range", "5:7", "--steps", "5")
    assert code == cli.EXIT_OK
    psd = [row[3] for row in parse_csv(out)[1]]
    assert psd == ["true"] * 3 + ["false"] * 2
    assert (len(cholesky), len(eigvalsh)) == (5, 2)


def test_validate_takes_no_psd_verdict_of_the_closures(capsys, monkeypatch):
    # validate reads neither closure's psd, so neither order-50 P is
    # factored: the 4 Cholesky factorizations are of history blocks.
    orders = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda M: orders.append(len(M)) or cholesky(M))
    run_json(capsys, "validate", "--config", "example2", "-N", "24")
    assert orders == [48] * 4


def test_validate_past_the_margin(tmp_path, capsys, monkeypatch):
    # Every route gives -inf at h = 7, and the spread of equal values is 0.
    cfg = write_config(tmp_path, h=7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_json(capsys, "validate", "--config", cfg, "-N", "12")
    k1s = report["k1"]
    assert k1s.pop("rel_spread") == 0.0
    assert k1s == dict.fromkeys(("cheb", "legendre", "quad_cc", "quad_gauss"), "-inf")
    # One -inf among finite values spreads infinitely.
    finite = lkapprox.functional.k1
    monkeypatch.setattr(lkapprox.functional, "k1", lambda fa, check_psd=True: (
        -np.inf if fa.scheme == "cheb" else finite(fa, check_psd)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_json(capsys, "validate", "--config", "example2", "-N", "12")
    assert report["k1"]["cheb"] == "-inf" and report["k1"]["rel_spread"] == "inf"


def test_validate_marks_failures(tmp_path, capsys):
    cfg = write_config(tmp_path, A0=[[0.0]], A1=[[0.0]], h=1.0,
                       Q0=[[1.0]], Q1=[[1.0]], Q2=[[0.0]])
    code, out = run(capsys, "validate", "--config", cfg)
    assert code == cli.EXIT_NUMERIC
    report = json.loads(out)
    assert report["failures"]


def test_cli_loads_no_scipy():
    # Where NumPy's OpenBLAS exports the LAPACK routines the package needs,
    # no `lk` command imports SciPy: importing it took ~0.33 s of the
    # ~0.7 s start of each `lk` process.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, json, sys\n"
        "import lkapprox.cli, lkapprox.linalg\n"
        "for argv in (['critical-delay', '--config', 'example2'],\n"
        "             ['k1', '--config', 'example2'],\n"
        "             ['sweep', '--config', 'example2', '--axis', 'h',\n"
        "              '--range', '0.5:8', '--steps', '4'],\n"
        "             ['validate', '--config', 'example2', '-N', '12']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = lkapprox.cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "print(json.dumps([lkapprox.linalg._LAPACK_SOURCE,\n"
        "                  sorted(name for name in sys.modules\n"
        "                         if name.split('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    source, loaded = json.loads(proc.stdout)
    if source == "scipy":
        pytest.skip("NumPy's OpenBLAS lacks the routines: the SciPy fallback is bound")
    assert loaded == []


def test_console_script_smoke():
    exe = shutil.which("lk")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "k1", "--config", "delay-free"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    npt.assert_allclose(payload["k1"], 0.5, atol=1e-8)
