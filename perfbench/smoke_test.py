#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload of BENCHMARK.json with tracing off and on. Asserts that each run exits 0,
checks its answers (correct, nothing failed), and emits exactly the
metrics BENCHMARK.json names for that mode, each with its declared unit
and a finite value. Run from the repository root:

    python3 perfbench/smoke_test.py
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), "--tiny"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    assert r.returncode == 0, f"{workload} trace {trace}: exit {r.returncode}"
    assert lines, f"{workload} trace {trace}: no output"
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in [wl["name"] for wl in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload} trace {trace}"
            try:
                out = run(spec, workload, trace)
                assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
                assert out["correct"] is True and out["failed"] == 0, out
                assert isinstance(out["attempted"], int) and out["attempted"] >= 1
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = out["metrics"]
                assert set(got) == set(want), (
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}")
                for metric, unit in want.items():
                    assert got[metric]["unit"] == unit, (metric, got[metric])
                    v = got[metric]["value"]
                    assert isinstance(v, (int, float)) and math.isfinite(v), (metric, v)
                print(f"ok   {name}: {len(got)} metrics")
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as e:
                failures.append(name)
                print(f"FAIL {name}: {e}")
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
