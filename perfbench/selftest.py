#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with tiny budgets, untraced and
traced, through perfbench/run.py. For each run it asserts that the
correctness gate passed, that the printed metric names and units are
exactly the end-to-end (untraced) or per-layer (traced) metrics that
BENCHMARK.json declares, and that the host and build context line was
printed from an optimised build. Exits non-zero on the first failure.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: str) -> tuple:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", trace, "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise AssertionError("%s trace %s exited %d"
                             % (workload, trace, done.returncode))
    lines = done.stdout.strip().splitlines()
    context = [json.loads(l)["perfbench_context"] for l in lines
               if l.startswith('{"perfbench_context"')]
    return context, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            context, result = run(workload, trace)
            where = "%s --trace %s" % (workload, trace)
            assert len(context) == 1 and context[0]["optimized"], where
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, where
            assert result["correct"] and result["failed"] == 0, \
                "%s: correctness gate failed: %s" % (where, result)
            assert result["attempted"] >= 1, where
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], "%s: metrics differ: %s" % (
                where, sorted(set(got.items()) ^ set(expected[trace].items())))
            print("ok  %-18s trace %s  %d metrics, %d operations"
                  % (workload, trace, len(got), result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
