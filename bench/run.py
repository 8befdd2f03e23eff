"""factorum benchmark: one workload, one run, every metric by name and unit.

    python3 bench/run.py --workload apl-sweep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
Workloads: apl-sweep, distance-pairs, block-catenary, cli-mix (see
``workloads.py`` for what each one stresses and why).

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s``: median cold import of the package (several fresh
  interpreters) plus the median per-round handle and engine construction;
* ``solve_s``: median wall time of one round's query set;
* ``query_p50_ms``, ``query_tail_ms``: median and tail of the per-query
  latencies, each query timed as its median over the rounds (every round
  runs the same queries); the tail is the highest percentile that leaves
  at least ten queries beyond it;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``exact_ratio``: element-level answers certified exact over those given
  (sweep-level certifications are printed per query, not scored).

Failed or wrong answers are the ``failed`` count of the result line, so
``error_ratio`` is ``failed / attempted``; it is printed with the report.
``--trace 1`` spends a third of the time untraced and the rest with every
layer's entry points wrapped in spans, and reports per-layer self times
and counts per round plus ``trace.overhead_ratio``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("apl-sweep", "distance-pairs", "block-catenary", "cli-mix")
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 10
TIMEOUT_S = 170      # the whole run, probes included

# cold import in a fresh interpreter, with calibration chunks around it
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {here!r})
import calibration as c
c.chunk()
before = [c.timed_chunk() for _ in range(4)]
t = time.perf_counter()
import factorum, factorum.cli
dt = time.perf_counter() - t
after = [c.timed_chunk() for _ in range(4)]
print(dt, dt * c.scale(*before, *after))
"""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _child_env(root: str, seed: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def _run(cmd, env, timeout) -> str:
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          timeout=timeout, check=False, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited with {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs, for the self-test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "factorum", "__init__.py")):
        print("error: run from the root of a factorum checkout "
              "(src/factorum not found)", file=sys.stderr)
        return 2
    env = _child_env(root, args.seed)
    started = time.monotonic()
    try:
        probe = _IMPORT_PROBE.format(here=HERE)
        imports = [[float(x) for x in _run([sys.executable, "-c", probe],
                                           env, PROBE_TIMEOUT_S).split()]
                   for _ in range(IMPORT_PROBES)]
        worker = _run([sys.executable, os.path.join(HERE, "worker.py"),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--size", args.size], env,
                      TIMEOUT_S - (time.monotonic() - started))
        raw = json.loads(worker.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 2

    rounds = raw["rounds"]
    plain = rounds if not args.trace else rounds[:len(rounds) - raw["traced_rounds"]]
    med = statistics.median
    import_s = med(x[1] for x in imports)
    e2e = {
        "setup_s": (import_s + med(r["setup_s"] for r in plain), "s"),
        "solve_s": (med(r["solve_s"] for r in plain), "s"),
        "query_p50_ms": (raw["latency"]["p50_ms"], "ms"),
        "query_tail_ms": (raw["latency"]["tail_ms"], "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "exact_ratio": (raw["element_exact"] / max(1, raw["element_answers"]),
                        "ratio"),
    }
    error_ratio = raw["failed"] / max(1, raw["attempted"])

    print(f"# factorum benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"# machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
          f"python={platform.python_version()} "
          f"PYTHONHASHSEED={env['PYTHONHASHSEED']}")
    lat = raw["latency"]
    beyond = lat["queries"] - round(lat["queries"] * lat["tail_pct"] / 100)
    print(f"# rounds: {len(plain)} untraced, {len(rounds) - len(plain)} traced; "
          f"{lat['queries']} queries per round, each timed as its median over "
          f"{lat['rounds']} untraced rounds; p50 over {lat['queries']} samples; "
          f"tail = p{lat['tail_pct']:g} over {lat['queries']} samples "
          f"({beyond} beyond)")
    print(f"# import (median of {IMPORT_PROBES} fresh interpreters): "
          f"{import_s:.6f} s scaled, {med(x[0] for x in imports):.6f} s raw")
    print(f"# raw wall times: setup {med(r['raw_setup_s'] for r in plain):.6f} s"
          f" + import, solve {med(r['raw_solve_s'] for r in plain):.6f} s; "
          f"calibration chunk {med(r['chunk_s'] for r in plain) * 1e3:.4f} ms"
          " (times below are scaled to a reference speed, see calibration.py)")
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6f} {unit}")
    print(f"error_ratio = {error_ratio:.6f} ratio "
          f"({raw['failed']} of {raw['attempted']} answers)")
    for name, certs in raw["sweep_certifications"].items():
        print(f"# sweep-level certification (not scored): {name}: "
              f"{', '.join(certs)}")
    for note in raw["notes"]:
        print(f"# {note}")
    for msg in raw["failures"]:
        print(f"# FAILED {msg}")

    if args.trace:
        metrics = {}
        for name, value in raw["layers"].items():
            unit = ("s" if name.endswith("self_s") else
                    "ratio" if name.endswith("ratio") or name.endswith("per_class")
                    else "bytes" if name.endswith("bytes_out") else "count")
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6f} {unit} (per traced round)")
        print(f"# spans: {raw['spans_written']} written to {raw['spans_file']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}

    correct = raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
