"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with PYTHONHASHSEED derived from the workload seed
(ball exploration iterates frozensets) and with the checkout's ``src`` on
PYTHONPATH.  A single caller runs a closed loop: each query starts when
the previous one has returned.  Rounds repeat the same seeded inputs on
cold engines until the time budget is spent.  The last stdout line is a
JSON document with the raw samples for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """Highest listed percentile that leaves at least ten samples beyond it."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def run_round(wl):
    """One round: set-up, then every query, with calibration chunks
    interleaved.  Times are kept raw and scaled to reference seconds by
    the chunks run on either side of them."""
    clock = time.perf_counter
    c0 = calibration.timed_chunk()
    t0 = clock()
    ctx = wl.setup()
    setup = clock() - t0
    c1 = calibration.timed_chunk()
    chunks = [c0, c1]
    latencies, scaled, labels, results, errors = [], [], [], [], {}
    window, since, prev = [], 0.0, c1
    try:
        for label, fn in wl.queries(ctx):
            q0 = clock()
            try:
                r = fn()
            except Exception as exc:  # a failed query is counted, not fatal
                r = None
                errors[len(results)] = f"{type(exc).__name__}: {exc}"
            dt = clock() - q0
            latencies.append(dt)
            labels.append(label)
            results.append(r)
            window.append(dt)
            since += dt
            if since >= calibration.EVERY_S:
                c = calibration.timed_chunk()
                f = calibration.scale(prev, c)
                scaled.extend(x * f for x in window)
                chunks.append(c)
                window, since, prev = [], 0.0, c
    except Exception as exc:  # the query generator itself failed
        errors[len(results)] = f"{type(exc).__name__}: {exc}"
    if window:
        c = calibration.timed_chunk()
        f = calibration.scale(prev, c)
        scaled.extend(x * f for x in window)
        chunks.append(c)
    return {"setup": setup * calibration.scale(c0, c1), "raw_setup": setup,
            "solve": sum(scaled), "raw_solve": sum(latencies),
            "latencies": scaled, "labels": labels, "results": results,
            "errors": errors, "chunks": chunks}


class Runner:
    """Checks every round's answers and counts them and their failures."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = None      # (labels, summaries) of the first round
        self.bad = {}              # query index -> reason (first round)
        self.attempted = 0
        self.failed = 0
        self.element_answers = 0
        self.element_exact = 0
        self.sweep = {}            # query description -> certified flags
        self.failures = []
        self.bytes_out = 0

    def absorb(self, rnd) -> None:
        """Summarize a round outside the timed region and count failures."""
        summaries = []
        for i, (label, r) in enumerate(zip(rnd["labels"], rnd["results"])):
            if i in rnd["errors"]:
                summaries.append(None)
                continue
            value, element_certs, sweep_certs = self.wl.summarize(label, r)
            summaries.append(value)
            self.element_answers += len(element_certs)
            self.element_exact += sum(1 for c in element_certs if c)
            if sweep_certs:
                self.sweep.setdefault(self.wl.describe(label), sweep_certs)
            self.bytes_out += self.wl.bytes_out(r)
        if self.reference is None:
            self.reference = (list(rnd["labels"]), summaries)
            ok = [i for i, s in enumerate(summaries) if i not in rnd["errors"]]
            self.bad = self.wl.check([rnd["labels"][i] for i in ok],
                                     [summaries[i] for i in ok])
            self.bad = {ok[q] if q < len(ok) else q: why
                        for q, why in self.bad.items()}
        ref_labels, ref_summaries = self.reference
        n = max(len(ref_labels), len(rnd["labels"]))
        self.attempted += n
        for i in range(n):
            why = None
            if i in rnd["errors"]:
                why = rnd["errors"][i]
            elif i >= len(rnd["labels"]) or i >= len(ref_labels) \
                    or rnd["labels"][i] != ref_labels[i]:
                why = "query stream differs from the first round"
            elif summaries[i] != ref_summaries[i]:
                why = "answer differs from the first round"
            elif i in self.bad:
                why = self.bad[i]
            if why is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    label = rnd["labels"][i] if i < len(rnd["labels"]) else i
                    self.failures.append(f"query {label}: {why}")
        extra = [q for q in self.bad if q >= n]
        self.attempted += len(extra)
        self.failed += len(extra)
        for q in extra[:5]:
            self.failures.append(self.bad[q])


def round_stats(rnd):
    return {"setup_s": rnd["setup"], "solve_s": rnd["solve"],
            "queries": len(rnd["latencies"]),
            "raw_setup_s": rnd["raw_setup"], "raw_solve_s": rnd["raw_solve"],
            "chunk_s": sum(rnd["chunks"]) / len(rnd["chunks"])}


def latency_stats(rounds):
    """Every round runs the same queries in the same order, so each query's
    latency is taken as its median over the rounds (a pause that hits one
    round does not move it); p50 and tail are taken over those."""
    n = min(len(r) for r in rounds)
    per_query = sorted(median([r[i] for r in rounds]) for i in range(n))
    p_tail = tail_percentile(n)
    return {"p50_ms": percentile(per_query, 50.0) * 1e3,
            "tail_ms": percentile(per_query, p_tail) * 1e3,
            "tail_pct": p_tail, "queries": n, "rounds": len(rounds)}


def run_phase(runner, seconds, min_rounds, tracer=None):
    deadline = time.perf_counter() + seconds
    stats, latencies = [], []
    while len(stats) < min_rounds or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.begin_round()
        rnd = run_round(runner.wl)
        if tracer is not None:
            tracer.end_round()
        runner.absorb(rnd)
        stats.append(round_stats(rnd))
        latencies.append(rnd["latencies"])
    return stats, latencies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.size)
    runner = Runner(wl)
    out = {"workload": wl.name, "seed": args.seed}
    if args.trace:
        # a third untraced, the rest traced: the same inputs in both phases
        plain, latencies = run_phase(runner, args.seconds / 3, 2)
        tracer = tracing.Tracer()
        runner.bytes_out = 0
        tracer.install()
        try:
            traced, _ = run_phase(runner, args.seconds * 2 / 3, 2, tracer)
        finally:
            tracer.uninstall()
        time_scale = calibration.NOMINAL_S * len(traced) / sum(
            s["chunk_s"] for s in traced)
        layers = tracer.layer_metrics(runner.bytes_out, time_scale)
        layers["trace.overhead_ratio"] = (
            median([s["solve_s"] for s in traced])
            / median([s["solve_s"] for s in plain]))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.tsv.gz")
        out["spans_written"] = tracer.write_spans(path)
        out["spans_file"] = os.path.relpath(path)
        out["layers"] = layers
        out["traced_rounds"] = len(traced)
        rounds = plain + traced
    else:
        rounds, latencies = run_phase(runner, args.seconds, MIN_ROUNDS)
    out["rounds"] = rounds
    out["latency"] = latency_stats(latencies)
    out["attempted"] = runner.attempted
    out["failed"] = runner.failed
    out["failures"] = runner.failures
    out["element_answers"] = runner.element_answers
    out["element_exact"] = runner.element_exact
    out["sweep_certifications"] = {
        k: ["exact" if c else "lower-bound" for c in v]
        for k, v in sorted(runner.sweep.items())}
    out["notes"] = wl.notes(*runner.reference)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
