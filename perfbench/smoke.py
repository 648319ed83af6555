"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once traced and once untraced, for a
short time, and fails unless each run is correct and reports every metric
BENCHMARK.json names, with its unit.  Takes a few minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((1, "per_layer"), (0, "end_to_end")):
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", "1",
                                     "--seconds", "2", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180, check=False)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{label}: metric {metric['name']} missing")
                elif got.get("unit") != metric["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{label}: metric {metric['name']} reads {got}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops", flush=True)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
