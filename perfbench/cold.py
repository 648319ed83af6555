"""One cold op: a fresh interpreter imports lkapprox and runs a workload's op.

    python3 perfbench/cold.py <workload> <seed> <config dir>

run.py times this process from start to exit as the workload's set-up time,
the cost a one-shot `lk` command pays.  Exits 1 when the op's output fails
its check.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (imports lkapprox)


def main(name, seed, out_dir):
    workload = workloads.prepare(name, int(seed), out_dir)
    try:
        workload.check(workload.run())
    except workloads.CheckFailed as exc:
        print(f"cold {name}: check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
