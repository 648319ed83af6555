import ast
import csv
import importlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

import lkapprox
from lkapprox import cli
from lkapprox.cli import main
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
                 write_config(tmp_path, phi="pulse")]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, phi={"constant": [1.0]})]) == cli.EXIT_CONFIG
    assert main(["k1", "--config",
                 write_config(tmp_path, A0=[[1.0, 0.0]])]) == cli.EXIT_CONFIG
    capsys.readouterr()


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


def test_sweep_starts_no_threads(capsys, monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    code, out = run(capsys, "sweep", "--config", "example2", "-N", "20",
                    "--axis", "h", "--range", "1:4", "--steps", "5")
    assert code == cli.EXIT_OK
    assert len(parse_csv(out)[1]) == 5
    assert started == []


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
    # psd verdict and the error reads nan, the baselines included.
    build = cli.functional.build_functional

    def failing_build(system, *args, **kwargs):
        if system.h == 2.0:
            raise ValueError("no build at h = 2")
        return build(system, *args, **kwargs)

    monkeypatch.setattr(cli.functional, "build_functional", failing_build)
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


def test_validate_marks_failures(tmp_path, capsys):
    cfg = write_config(tmp_path, A0=[[0.0]], A1=[[0.0]], h=1.0,
                       Q0=[[1.0]], Q1=[[1.0]], Q2=[[0.0]])
    code, out = run(capsys, "validate", "--config", cfg)
    assert code == cli.EXIT_NUMERIC
    report = json.loads(out)
    assert report["failures"]


def test_cli_loads_only_scipy_linalg():
    # Every other SciPy subpackage (scipy.optimize alone adds ~0.3 s and
    # ~19 MB) would slow the start of each `lk` process.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, json, sys\n"
        "import lkapprox.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = lkapprox.cli.main(['critical-delay', '--config', 'example2'])\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(name for name, mod in sys.modules.items()\n"
        "                        if name.count('.') == 1 and name.startswith('scipy.')\n"
        "                        and not name.split('.')[1].startswith('_')\n"
        "                        and hasattr(mod, '__path__'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["scipy.linalg"]


def test_console_script_smoke():
    exe = shutil.which("lk")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "k1", "--config", "delay-free"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    npt.assert_allclose(payload["k1"], 0.5, atol=1e-8)
