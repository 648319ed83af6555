"""Golden outputs of every `lk` command on the three packaged configs.

Each case runs one command in-process and records its exit code, its
stderr, the warnings it raised and its parsed output: JSON as it is, sweep
CSV as rows of cells (finite numbers as floats, other cells as strings),
and for `build --out` the .meta.json sidecar plus the shape, trace and
Frobenius norm of P.bin.  The `wall_time_ms` cells are masked.

A case matches its record when strings, ints and bools are equal, floats
agree to 1e-9 max(1, |x|), and `h_critical` agrees to within the run's
`tol`.

After an intended output change, regenerate the data and review its diff:

    PYTHONPATH=src python tests/test_golden.py --update
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import sys
import tempfile
import warnings

import numpy as np
import pytest

from lkapprox import cli

DATA = pathlib.Path(__file__).with_name("data") / "golden.json"
OUT = "{out}"   # stands for a fresh file path in `build --out`


def _cases():
    for name in ("example1", "example2", "delay-free"):
        cfg = ["--config", name]
        yield ["spectrum", *cfg, "--both"]
        yield ["build", *cfg]
        yield ["build", *cfg, "--out", OUT]
        for phi in ("one", "sin", "exp-decay"):
            yield ["eval", *cfg, "--phi", phi]
        for scheme in ("legendre", "cheb"):
            yield ["k1", *cfg, "--scheme", scheme]
            yield ["critical-delay", *cfg, "--scheme", scheme]
        yield ["sweep", *cfg, "--axis", "h", "--range", "0.5:8", "--steps", "12"]
        yield ["sweep", *cfg, "--axis", "N", "--range", "4:20", "--steps", "5"]
        yield ["validate", *cfg, "-N", "12"]


CASES = [" ".join(argv) for argv in _cases()]


def _cell(text):
    try:
        x = float(text)
    except ValueError:
        return text
    return x if math.isfinite(x) else text


def _parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        row.update({k: _cell(v) for k, v in row.items()})
        if "wall_time_ms" in row:
            row["wall_time_ms"] = "*"
    return rows


def record(case):
    """Run one case of CASES and return its record."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "P.bin")
        argv = [path if a == OUT else a for a in case.split()]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        rec = {"exit": code, "stderr": err.getvalue(),
               "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}
        text = out.getvalue()
        if argv[0] == "sweep":
            rec["stdout"] = _parse_csv(text)
        else:
            rec["stdout"] = json.loads(text) if text else text
        if OUT in case:
            meta = json.loads(pathlib.Path(path + ".meta.json").read_text())
            P = np.fromfile(path, dtype="<f8").reshape(meta["rows"], meta["cols"])
            rec["meta"] = meta
            rec["P"] = {"shape": list(P.shape), "trace": float(np.trace(P)),
                        "fro": float(np.linalg.norm(P, "fro"))}
    return rec


def _compare(got, want, where, tol=None):
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            # h_critical is the midpoint of a bracket `tol` wide.
            sub_tol = want["tol"] if key == "h_critical" else None
            _compare(got[key], want[key], f"{where}.{key}", sub_tol)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        bound = tol if tol is not None else 1e-9 * max(1.0, abs(want))
        assert abs(got - want) <= bound, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_golden_output(golden, case):
    _compare(record(case), golden[case], case)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    data = {case: record(case) for case in CASES}
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {DATA}")
