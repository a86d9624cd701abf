"""Benchmark of the matching-boosting library, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload static_mpc --seed 1 --seconds 30 --trace 0

Workloads (see ``scenarios.py`` and ``BENCHMARK.json``): ``static_mpc``,
``dynamic_churn`` and ``dynamic_large``.  One process, no threads or pools.

A run prepares its verification references untimed, then repeats
"set up a fresh input, run one timed pass, verify it" until the next pass
would overrun ``--seconds`` (at least one pass; with ``--trace 1`` at least
one untraced and one traced pass, alternating).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from the
traced passes, with the untraced passes as the overhead baseline.

Timings: every pass repeats identical work, so an operation's latency is
its median over the passes of the run, and every measured interval is
scaled to a reference CPU speed by a calibration kernel timed between
operations (``calibration.py``); raw pass times are printed beside them.
Self times of the traced run are shares of the raw traced wall time.

Correctness: every solve, every fixed verification index of a dynamic
stream, and the crash drill's end state are checked outside the timed
region; counts must repeat exactly across the passes of a run and across
runs of the same seed on the same source tree (recorded under
``.perfbench/`` in the working directory).  Any failure sets ``correct`` to
false and the exit code to 1.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibration
from tracing import Tracer, layer_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    """Digest of the library and benchmark sources: counts recorded under
    one digest are only compared with runs of the same code."""
    digest = hashlib.sha256()
    for top in (SRC, os.path.dirname(os.path.abspath(__file__))):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, min(len(sorted_values), -(-len(sorted_values) * q // 1)))
    return sorted_values[int(rank) - 1]


def _pass_counts(result) -> dict:
    """The counts that must repeat exactly for one seed."""
    counts = dict(sorted(result.counters.items()))
    counts["size_over_opt_min"] = result.min_ratio
    counts["ops"] = result.ops
    return counts


def _check_recorded(name: str, seed: int, digest: str, counts: dict):
    """Compare with (or record) the counts of earlier runs of this seed."""
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"counts-{name}-{seed}-{digest}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
        drift = sorted(k for k in set(recorded) | set(counts)
                       if recorded.get(k) != counts.get(k))
        if drift:
            return [f"counts differ from an earlier run of seed {seed}: "
                    + ", ".join(f"{k} {recorded.get(k)} -> {counts.get(k)}"
                                for k in drift[:6])]
        return []
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counts, handle, sort_keys=True)
    return []


def _measure(workload, seconds: float, trace: bool):
    """Prepare, then alternate set-up + timed pass until the budget ends."""
    setups = []

    def timed_setup():
        factor = calibration.speed_factor()
        start = time.perf_counter()
        inst = workload.setup()
        setups.append((time.perf_counter() - start) * factor)
        return inst

    workload.prepare(timed_setup)
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    begin = time.perf_counter()
    while True:
        gc.collect()
        pass_start = time.perf_counter()
        inst = timed_setup()
        if trace and len(traced) < len(untraced):
            with tracer:
                traced.append(workload.run_pass(inst))
        else:
            untraced.append(workload.run_pass(inst))
        del inst
        now = time.perf_counter()
        owed = trace and not traced
        if not owed and (now - begin) + (now - pass_start) > seconds:
            break
    return setups, untraced, traced, tracer


def _typical_of_passes(results):
    """Per-operation latencies and pass time, each the median over the
    passes of a run.

    Every pass repeats identical work (same inputs, same seed, checked by
    the count self-check), so operation ``i`` does the same work in every
    pass and its latency across passes differs only by measurement noise:
    what the speed scaling of ``calibration.py`` leaves of the machine's
    speed swings.  The median over passes discards the passes that swing
    most either way.  The time between operations (checkpoints, restores,
    the harness loop) is the median over passes as well.
    """
    columns = [r.latencies_ns for r in results]
    if len({len(c) for c in columns}) != 1:
        # a pass failed part-way; its failure is reported, pool the rest
        return sorted(ns for c in columns for ns in c), statistics.median(
            r.wall_s for r in results)
    per_op = [statistics.median(samples) for samples in zip(*columns)]
    between = statistics.median(r.wall_s - sum(r.latencies_ns) / 1e9
                                for r in results)
    return sorted(per_op), sum(per_op) / 1e9 + max(0.0, between)


def _end_to_end(results, setups, import_s):
    latencies, wall_s = _typical_of_passes(results)
    return {
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops_per_s": results[0].ops / wall_s,
        "op_p50_us": statistics.median(latencies) / 1e3,
        "op_p99_us": _percentile(latencies, 0.99) / 1e3,
        "size_over_opt_min": min(r.min_ratio for r in results),
    }


def _per_layer(traced, untraced, tracer):
    from layers import LAYERS

    passes = len(traced)
    # the tracer's spans are raw times, so shares are of the raw wall
    wall = sum(r.raw_wall_s for r in traced)
    frac = (lambda s: s / wall) if wall else (lambda s: 0.0)
    counters = {}
    for r in traced:
        for key, value in r.counters.items():
            counters[key] = counters.get(key, 0.0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    weak_calls = counters.get("weak_oracle_calls", 0.0)
    extras = {
        "dynamic.rebuild.zero_gain_frac": ratio(
            tracer.extra.get("dynamic.rebuild.zero_gain", 0.0),
            tracer.calls.get("dynamic.rebuild", 0)),
        "oracle.weak.bottom_frac": ratio(
            counters.get("weak_oracle_bottom", 0.0), weak_calls),
        "oracle.weak.useful_frac": ratio(
            counters.get("augmentations", 0.0)
            + counters.get("overtakes", 0.0), weak_calls),
        "mpc.round.message_words": counters.get("mpc_messages", 0.0) / passes,
        "resilience.checkpoint.bytes": tracer.extra.get(
            "resilience.checkpoint.bytes", 0.0) / passes,
    }
    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics = {
        "traced_wall_s": traced_wall,
        "unattributed_frac": frac(wall - tracer.total_self_s()),
        "trace_overhead_frac": traced_wall
        / statistics.median(r.wall_s for r in untraced) - 1.0,
    }
    for layer in LAYERS:
        metrics[f"{layer.name}.calls"] = tracer.calls.get(layer.name,
                                                          0) / passes
        metrics[f"{layer.name}.self_frac"] = frac(tracer.self_s(layer.name))
        for extra in layer.extras:
            key = f"{layer.name}.{extra}"
            metrics[key] = extras[key]
    ops = sum(r.ops for r in traced)
    metrics["oracle_calls"] = counters.get("oracle_calls", 0.0) / passes
    metrics["mpc_total_rounds"] = counters.get("mpc_total_rounds",
                                               0.0) / passes
    metrics["weak_oracle_calls_per_update"] = (
        ratio(weak_calls, ops) if counters.get("dyn_updates") else 0.0)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library at {SRC}/repro; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace
                                     else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    sys.path.insert(0, SRC)
    factor = calibration.speed_factor()
    start = time.perf_counter()
    import numpy
    import scenarios
    import_s = (time.perf_counter() - start) * factor

    if args.workload not in scenarios.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2
    digest = _source_digest()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} commit={_git_commit()} "
          f"source={digest}")

    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = scenarios.WORKLOADS[args.workload](args.seed, workdir)
        setups, untraced, traced, tracer = _measure(
            workload, args.seconds, bool(args.trace))
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    results = untraced + traced
    failures = workload.failures + [f for r in results for f in r.failures]
    first = _pass_counts(results[0])
    for i, r in enumerate(results[1:], start=2):
        if _pass_counts(r) != first:
            failures.append(f"counts of pass {i} differ from pass 1")
    failures += _check_recorded(args.workload, args.seed, digest, first)

    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{workload.op}s per pass: {results[0].ops}")
    print("  pass wall, raw (s):      "
          + " ".join(f"{r.raw_wall_s:.3f}" for r in results))
    print("  pass wall, scaled (s):   "
          + " ".join(f"{r.wall_s:.3f}" for r in results))
    print("  speed factor:            "
          + " ".join(f"{r.speed:.3f}" for r in results))
    notes = {k: statistics.median(r.notes[k] for r in untraced)
             for k in untraced[0].notes}
    for key, value in {**notes, "oracle_calls": first.get("oracle_calls", 0),
                       "mpc_total_rounds": first.get("mpc_total_rounds", 0),
                       "weak_oracle_calls": first.get("weak_oracle_calls",
                                                      0)}.items():
        print(f"  {key:24s} {value:.6g}")

    if args.trace:
        metrics_raw = _per_layer(traced, untraced, tracer)
        print(layer_table(tracer,
                          sum(r.raw_wall_s for r in traced) / len(traced),
                          len(traced)))
        if tracer.missing:
            print("not found in this library: " + ", ".join(tracer.missing))
    else:
        metrics_raw = _end_to_end(untraced, setups, import_s)
    if set(metrics_raw) != set(units):
        print("perfbench: metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics_raw) ^ set(units))}", file=sys.stderr)
        return 2
    for name, value in metrics_raw.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for failure in failures:
        print(f"FAILED: {failure}")

    attempted = sum(r.attempted for r in results)
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics_raw.items()},
    }
    print(json.dumps(out))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
