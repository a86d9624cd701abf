"""The unified benchmark CLI: ``python -m repro.bench``.

Subcommands::

    run      execute registered scenarios and emit JSON (+ a summary table)
             e.g. ``python -m repro.bench run --suite table1 --smoke``
             ``--eps 0.5 0.25 0.125`` runs every scenario once per value
             (one record each); ``--all`` writes ``BENCH_all.json`` with
             ``--smoke`` and ``BENCH_paper.json`` without it
             ``--jobs N`` fans independent runs out over N worker processes
             (deterministic record order; exit 1 if any scenario failed);
             ``--list`` prints the selected scenarios and their suites and
             exits without running
    list     show registered scenarios and suites
    compare  diff two suite JSON files and fail on regressions
             e.g. ``python -m repro.bench compare old.json new.json --fail-over 1.2``

Exit codes: 0 success, 1 failed scenario (``run``) or regression found
(``compare``), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.bench import compare as compare_mod
from repro.bench import discovery, registry, results, runner
from repro.instrumentation.reporting import Table, records_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Unified benchmark harness: run registered scenarios, "
                    "emit JSON records, diff baselines.")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run scenarios and emit JSON records")
    run_p.add_argument("--list", action="store_true", dest="list_only",
                       help="list the selected scenarios (all registered "
                            "ones when nothing is selected) with their "
                            "suites, then exit without running anything")
    run_p.add_argument("--suite", help="run every scenario of one suite")
    run_p.add_argument("--all", action="store_true",
                       help="run every registered scenario")
    run_p.add_argument("--scenario", action="append", default=[],
                       help="run a specific scenario (repeatable)")
    run_p.add_argument("--smoke", action="store_true",
                       help="seconds-scale configuration")
    run_p.add_argument("--eps", type=float, nargs="+", default=None,
                       help="pin the approximation parameter; several "
                            "values sweep it, one record per scenario and "
                            "value (default: each scenario's own eps)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--repeats", type=int, default=1,
                       help="timed repetitions (>= 1); wall_s is their "
                            "minimum")
    run_p.add_argument("--warmup", type=int, default=0,
                       help="untimed warmup executions per spec (>= 0)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="run specs in N worker processes (default 1 = "
                            "in-process); records are merged in deterministic "
                            "spec order, so output is identical to --jobs 1 "
                            "apart from wall_s/timestamp, and a failing "
                            "scenario only fails itself")
    run_p.add_argument("--profile", action="store_true",
                       help="after the timed runs, cProfile one execution "
                            "per spec and write top-N cumulative hotspots to "
                            "results/profile_<scenario>.txt")
    run_p.add_argument("--no-files", action="store_true",
                       help="skip JSON emission (print records only)")

    sub.add_parser("list", help="list registered scenarios and suites")

    cmp_p = sub.add_parser("compare",
                           help="diff two suite JSON files; non-zero exit on "
                                "regression")
    cmp_p.add_argument("old")
    cmp_p.add_argument("new")
    cmp_p.add_argument("--fail-over", type=float, default=1.2,
                       help="fail when new/old exceeds this ratio "
                            "(default 1.2)")
    cmp_p.add_argument("--metric", default="wall_s",
                       help="'wall_s' (default) or any counter name")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    discovery.load_benchmark_modules()
    if args.scenario:
        try:
            selected = [registry.get_scenario(name) for name in args.scenario]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        # label by scenario name, not suite (even when --suite is also
        # passed): a partial run must not overwrite the full-suite
        # BENCH_<suite>.json trajectory
        label = selected[0].name if len(selected) == 1 else "custom"
    elif args.suite:
        selected = registry.scenarios(args.suite)
        label = args.suite
        if not selected and args.suite == "all":
            # "--suite all" reads naturally as "every scenario"; honour it
            # unless a literal suite named "all" is registered
            selected = registry.scenarios()
        if not selected:
            print(f"error: no scenarios registered for suite {args.suite!r}; "
                  f"known suites: {registry.suite_names()}", file=sys.stderr)
            return 2
    elif args.all:
        selected = registry.scenarios()
        label = "all"
        if not selected:
            print("error: no scenarios registered", file=sys.stderr)
            return 2
    elif args.list_only:
        # bare "run --list" enumerates everything that could be run
        selected = registry.scenarios()
    else:
        print("error: choose --suite NAME, --scenario NAME or --all",
              file=sys.stderr)
        return 2

    if args.list_only:
        return _print_scenarios(selected)

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    def progress(record):
        params = record["params"]
        print(f"[{params['suite']}] {record['scenario']} "
              f"wall_s={record['wall_s']:.4f}")

    failures = []
    start = time.perf_counter()
    try:
        records = runner.run_scenarios(
            selected, progress=progress, jobs=args.jobs, failures=failures,
            eps=args.eps, seed=args.seed, repeats=args.repeats,
            warmup=args.warmup, smoke=args.smoke)
    except ValueError as exc:
        # a RunSpec rejects repeats < 1 and warmup < 0 when the specs are
        # expanded, before any scenario runs; scenario errors land in
        # ``failures`` instead
        print(f"error: {exc}", file=sys.stderr)
        return 2
    suite_wall = time.perf_counter() - start
    print("\n" + records_table(records).render())
    if not args.no_files and records:
        meta = {"jobs": args.jobs, "suite_wall_s": round(suite_wall, 4)}
        path = results.write_suite(
            records, runner.suite_label(label, args.smoke, args.eps),
            meta=meta)
        print(f"\nwrote {len(records)} records to {path}")
    if args.profile and not failures:
        # profile separately from the timed repeats (never pollutes wall_s)
        work = runner.expand_all(selected, eps=args.eps, seed=args.seed,
                                 smoke=args.smoke)
        paths = runner.profile_specs(work, results.output_root() / "results")
        for p in paths:
            print(f"wrote profile to {p}")
    elif args.profile:
        print("skipping --profile: scenario failures above", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure['scenario']}: "
              f"{failure['error'].strip().splitlines()[-1]}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} scenario run(s) failed "
              f"({len(records)} succeeded)", file=sys.stderr)
        return 1
    return 0


def _print_scenarios(selected) -> int:
    """Render a scenario inspection table (``run --list`` / ``list``)."""
    table = Table("Registered benchmark scenarios",
                  ["scenario", "suite", "description"])
    for scenario in selected:
        table.add_row(scenario.name, scenario.suite, scenario.description)
    print(table.render())
    suites = sorted({s.suite for s in selected})
    print(f"\nsuites: {', '.join(suites) or '(none)'}")
    return 0


def _cmd_list() -> int:
    discovery.load_benchmark_modules()
    return _print_scenarios(registry.scenarios())


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        old = results.load_records(args.old)
        new = results.load_records(args.new)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = compare_mod.compare_records(old, new, fail_over=args.fail_over,
                                           metric=args.metric)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = Table(f"Benchmark diff ({args.metric}, fail over "
                  f"{args.fail_over:g}x)",
                  ["scenario", "status", "old", "new", "ratio", "regressed"])
    for row in rows:
        table.add_row(row["scenario"], row["status"],
                      "-" if row["old"] is None else row["old"],
                      "-" if row["new"] is None else row["new"],
                      "-" if row["ratio"] is None else row["ratio"],
                      "YES" if row["regressed"] else "no")
    print(table.render())
    bad = compare_mod.regressions(rows)
    if bad:
        worst = max(row["ratio"] for row in bad)
        print(f"\nFAIL: {len(bad)} regression(s), worst ratio {worst:.3f}x "
              f"> {args.fail_over:g}x", file=sys.stderr)
        return 1
    compared = sum(1 for row in rows if row["status"] == "compared")
    print(f"\nOK: {compared} record(s) within {args.fail_over:g}x")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "compare":
        return _cmd_compare(args)
    parser.print_help()
    return 2
