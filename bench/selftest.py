"""Self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

Runs every workload once untraced and once traced with minimal inputs,
and checks that each run exits 0 with a result line that names exactly
the metrics BENCHMARK.json lists, each a finite number with its unit.
It also checks the independent oracles on known values, and that a
directory holding only the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import oracles  # noqa: E402


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300,
                          check=False)


def check_oracles() -> None:
    # B(C5): g^5 (-g)^5 factors as g^5 * (-g)^5 or as five copies of g(-g)
    seq = ((1,),) * 5 + ((4,),) * 5
    assert oracles.block_catenary_oracle((5,), seq) == 5
    # B(C2+C2): e1 e2 (e1+e2) times itself has a length-2 and a length-3
    # factorization; the distance between them is 3
    e1, e2, e3 = (0, 1), (1, 0), (1, 1)
    assert oracles.block_catenary_oracle((2, 2), tuple(sorted(
        (e1, e2, e3) * 2))) == 3
    assert oracles.threshold_catenary([0, 5, 7], lambda x, y: abs(x - y)) == 5


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check_oracles()
    failures = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, wl["name"], trace)
            tag = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"} \
                    or not last["correct"] or last["failed"] != 0 \
                    or last["attempted"] < 1:
                failures.append(f"{tag}: bad result keys or counts")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != names[trace]:
                failures.append(f"{tag}: metrics {sorted(got)} != BENCHMARK.json")
            for k, v in last["metrics"].items():
                if not isinstance(v["value"], (int, float)) \
                        or not math.isfinite(v["value"]):
                    failures.append(f"{tag}: {k} = {v['value']!r}")
            print(f"ok   {tag}: {last['attempted']} answers")

    # a directory with only the benchmark must fail without a result line
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(dir=out)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            failures.append("a checkout without src/ did not fail cleanly")
        else:
            print("ok   bare benchmark directory fails without a result")
    finally:
        shutil.rmtree(bare)

    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
