"""Every workload, untraced and traced, from one command.

Runs ``run.py`` for each workload with ``--trace 0`` and ``--trace 1``,
prints every metric by name with its unit, and fails unless

* the result line carries exactly the metrics that ``BENCHMARK.json`` names
  for that mode, each with the unit it declares;
* every check of every pass ran (no pass ended in an exception);
* the traced pass was bitwise equal to the untraced one.

The default ``--size smoke`` is the self-test: tiny inputs, a few seconds
per run.  Tiny inputs are too small for the accuracy checks to hold, so
their verdicts are asserted only at ``--size bench``.  Usage, from the
repository root::

    python3 bench/suite.py                         # self-test, about 20 s
    python3 bench/suite.py --size bench --seconds 35   # about 4 minutes
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, END_TO_END, OUT, PER_LAYER, ROOT, _bootstrap


def _fail(message: str) -> None:
    raise SystemExit(f"suite: FAILED: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=("smoke", "bench"), default="smoke")
    parser.add_argument("--seconds", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    _bootstrap()
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared[0] != END_TO_END or declared[1] != PER_LAYER:
        _fail("metric tables in run.py and BENCHMARK.json disagree")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        _fail("workloads in BENCHMARK.json and workloads.py disagree")

    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            if proc.returncode != 0:
                _fail(f"{name} trace={trace} exited {proc.returncode}:\n"
                      f"{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{name} trace={trace}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                _fail(f"{name} trace={trace}: metrics {got}")
            record = json.loads((
                OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            rows = {r["check"]: r for r in record["checks"]}
            labels = ("pass0", "traced0") if trace else ("pass0",)
            for label in labels:
                for check in workload.checks:
                    row = rows.get(f"{label}:{check}")
                    if row is None or "error" in row:
                        _fail(f"{name} trace={trace}: {label}:{check} "
                              f"did not run ({row})")
            if trace and not rows["traced0:bitwise_equal_untraced"]["passed"]:
                _fail(f"{name}: traced outputs differ from untraced ones")
            if args.size == "bench" and not result["correct"]:
                _fail(f"{name} trace={trace}: {result['failed']} of "
                      f"{result['attempted']} checks failed")
            print(f"{name} trace={trace}: {len(rows)} checks ran, "
                  f"{result['failed']} failed")
            for metric, v in result["metrics"].items():
                print(f"  {metric:34s} {v['value']:.6g} {v['unit']}")
    print("suite: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
