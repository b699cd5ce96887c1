#!/usr/bin/env python3
"""Small-size self-test of the e2ebench driver.

Runs every workload of BENCHMARK.json at the driver's --small scale, once
untraced and once traced, and checks that the last stdout line is the result
object with exactly the keys correct/attempted/failed/metrics, that the run
is correct, and that every end-to-end (trace 0) or per-layer (trace 1)
metric of BENCHMARK.json is emitted with its declared unit and nothing else.

Usage (from the root of a checkout):
    python3 e2ebench/selftest.py
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            tag = f"{w['name']} trace {trace}"
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                failures.append(f"{tag}: exit {r.returncode}: {r.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{tag}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                failures.append(f"{tag}: not correct (failed {result['failed']})")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                failures.append(f"{tag}: attempted {result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and
                               got[k] != expected[trace][k])
                failures.append(f"{tag}: missing {missing} extra {extra} wrong unit {wrong}")
            print(f"ok   {tag}" if not failures or not failures[-1].startswith(tag)
                  else f"FAIL {tag}", flush=True)
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
