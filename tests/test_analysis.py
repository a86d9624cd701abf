"""Tests for the determinism & contract linter (``repro.analysis``).

Per rule family: a planted positive fixture (the acceptance criterion --
every family must *detect*), a negative that idiomatic code stays clean,
and a pragma-suppressed variant.  Plus the pragma grammar/hygiene, the
line-number-free fingerprints, the baseline add/remove flows, the CLI exit
codes, the JSON report schema round-trip, and the runtime
``@invalidates`` registry the memo-contract family reads.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import (
    Baseline,
    analyze_paths,
    findings_from_report,
    from_findings,
    load_baseline,
    render_json,
    save_baseline,
    validate_report,
)
from repro.analysis.baseline import stale_fingerprints
from repro.analysis.cli import main as cli_main
from repro.analysis.engine import find_repo_root
from repro.analysis.sanitizer import (
    canonical_bytes,
    compare_record_sets,
    normalize_record,
    run_sanitizer,
)
from repro.utils.contracts import (
    declared_hot_paths,
    declared_mutators,
    hot_path,
    invalidates,
    is_hot_path,
)


def plant(tmp_path, rel, text):
    """Write a fixture module under a synthetic ``repro`` package root.

    ``module_name_for`` anchors at the last ``repro`` path component, so
    ``<tmp>/repro/core/fx.py`` is analyzed as module ``repro.core.fx`` --
    fixtures land in whichever package a rule scopes to.
    """
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def lint(tmp_path, *, baseline=None):
    return analyze_paths([tmp_path], baseline=baseline, root=tmp_path)


def new_rules(report):
    return {f.rule for f in report.new_findings}


# --------------------------------------------------------------- hash-order
class TestHashOrderFamily:
    def test_set_iteration_detected(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f(s: set):
                for v in s:
                    print(v)
        """)
        assert "set-iteration" in new_rules(lint(tmp_path))

    def test_sorted_iteration_is_clean(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f(s: set):
                for v in sorted(s):
                    print(v)
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_list_materialization_detected(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f():
                s = {1, 2, 3}
                return list(s)
        """)
        assert "set-iteration" in new_rules(lint(tmp_path))

    def test_set_minmax_and_pop_detected(self, tmp_path):
        plant(tmp_path, "matching/fx.py", """\
            def f():
                s = set((1, 2))
                lo = min(s)
                return lo, s.pop()
        """)
        rules = new_rules(lint(tmp_path))
        assert {"set-minmax", "set-pop"} <= rules

    def test_id_order_detected(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f(items):
                return sorted(items, key=id)
        """)
        assert "id-order" in new_rules(lint(tmp_path))

    def test_dict_views_and_counting_are_clean(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f(s: set, d: dict):
                for k in d:
                    print(k)
                return len(s), sum(s), sorted(s)
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_rule_scoped_to_algorithm_packages(self, tmp_path):
        # identical offending code outside core/dynamic/mpc/congest/
        # matching/graph is out of scope (report tooling, utils)
        plant(tmp_path, "utils/fx.py", """\
            def f(s: set):
                for v in s:
                    print(v)
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_unseeded_random_detected_everywhere_but_seeding(self, tmp_path):
        plant(tmp_path, "bench/fx.py", """\
            import random

            def f():
                return random.random()
        """)
        plant(tmp_path, "utils/seeding.py", """\
            import random

            def f():
                return random.random()
        """)
        report = lint(tmp_path)
        offenders = {f.path for f in report.new_findings
                     if f.rule == "unseeded-random"}
        assert any(p.endswith("bench/fx.py") for p in offenders)
        assert not any(p.endswith("seeding.py") for p in offenders)

    def test_np_default_rng_is_clean_module_draw_is_not(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            import numpy as np

            def good(seed):
                return np.random.default_rng(seed)

            def bad():
                return np.random.rand(3)
        """)
        report = lint(tmp_path)
        hits = [f for f in report.new_findings if f.rule == "unseeded-random"]
        assert len(hits) == 1
        assert "rand" in hits[0].context


# ---------------------------------------------------------- word-accounting
class TestWordAccountingFamily:
    def test_unsized_send_path_detected(self, tmp_path):
        plant(tmp_path, "mpc/fx.py", """\
            class Sim:
                def send(self, dest, payload):
                    self.storage[dest].append(payload)
        """)
        assert "word-accounting-bypass" in new_rules(lint(tmp_path))

    def test_funnel_reference_satisfies_contract(self, tmp_path):
        plant(tmp_path, "congest/fx.py", """\
            class Sim:
                def send(self, dest, payload):
                    self.budget -= payload_words(payload)
                    self.inboxes[dest].append(payload)
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_stale_check_size_reference_is_not_a_funnel(self, tmp_path):
        # neither simulator defines _check_size any more: a function that
        # merely names it sizes nothing and must not pass the rule
        plant(tmp_path, "congest/fx.py", """\
            class Sim:
                def send(self, dest, payload):
                    self._check_size(payload)
                    self.inboxes[dest].append(payload)
        """)
        assert "word-accounting-bypass" in new_rules(lint(tmp_path))

    def test_counter_charge_without_funnel_detected(self, tmp_path):
        plant(tmp_path, "mpc/fx.py", """\
            class Sim:
                def settle(self, n):
                    self.counters.add("mpc_messages", n)
        """)
        assert "word-accounting-bypass" in new_rules(lint(tmp_path))

    def test_init_allocation_is_exempt(self, tmp_path):
        plant(tmp_path, "mpc/fx.py", """\
            class Sim:
                def __init__(self, n):
                    self.storage = [[] for _ in range(n)]
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_rule_scoped_to_mpc_and_congest(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            class NotASim:
                def stash(self, payload):
                    self.storage.append(payload)
        """)
        assert new_rules(lint(tmp_path)) == set()


# ------------------------------------------------------------ memo-contract
class TestMemoContractFamily:
    def test_declared_mutator_missing_write_detected(self, tmp_path):
        plant(tmp_path, "graph/fx.py", """\
            class Cache:
                @invalidates("_memo")
                def add_item(self, x):
                    self._items = x
        """)
        assert "memo-invalidation-missing" in new_rules(lint(tmp_path))

    def test_delegation_counts_as_write(self, tmp_path):
        plant(tmp_path, "graph/fx.py", """\
            class Cache:
                @invalidates("_memo")
                def add_item(self, x):
                    self._memo = None

                @invalidates("_memo")
                def insert_item(self, x):
                    self.add_item(x)
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_inplace_mutation_counts_as_write(self, tmp_path):
        plant(tmp_path, "graph/fx.py", """\
            class Cache:
                @invalidates("_memo")
                def clear_all(self):
                    self._memo.clear()
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_undeclared_mutator_on_opted_in_class_detected(self, tmp_path):
        plant(tmp_path, "graph/fx.py", """\
            class Cache:
                @invalidates("_memo")
                def add_item(self, x):
                    self._memo = None

                def remove_item(self, x):
                    self._memo = None
        """)
        assert "memo-mutator-undeclared" in new_rules(lint(tmp_path))

    def test_class_without_declarations_is_out_of_scope(self, tmp_path):
        plant(tmp_path, "graph/fx.py", """\
            class Plain:
                def add_item(self, x):
                    self._items = x
        """)
        assert new_rules(lint(tmp_path)) == set()


# ----------------------------------------------------------- repair-journal
class TestRepairJournalFamily:
    def test_mirror_write_outside_funnel_detected(self, tmp_path):
        plant(tmp_path, "dynamic/fx.py", """\
            def fast_path(state, v):
                state.mate_arr[v] = -1
        """)
        assert "mirror-write-outside-funnel" in new_rules(lint(tmp_path))

    def test_funnel_modules_are_allowlisted(self, tmp_path):
        plant(tmp_path, "core/structures.py", """\
            def set_mate(self, v, mate):
                self.mate_arr[v] = mate
        """)
        plant(tmp_path, "core/repair.py", """\
            def restore(self, v, snapshot):
                self.matched_arr[v] = snapshot
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_mirror_reads_are_clean(self, tmp_path):
        plant(tmp_path, "dynamic/fx.py", """\
            def peek(state, v):
                return state.mate_arr[v]
        """)
        assert new_rules(lint(tmp_path)) == set()


# ------------------------------------------------------------- exec-escape
class TestExecEscapeFamily:
    def test_lambda_at_seam_detected(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            def run_all(executor, tasks):
                return executor.map(lambda t: t + 1, tasks)
        """)
        assert "exec-escape" in new_rules(lint(tmp_path))

    def test_local_closure_at_seam_detected(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            def run_all(executor, tasks):
                def work(t):
                    return t + 1
                return executor.map(work, tasks)
        """)
        assert "exec-escape" in new_rules(lint(tmp_path))

    def test_bound_method_at_seam_detected(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            class Driver:
                def run(self, pool, tasks):
                    return pool.map(self.work, tasks)
        """)
        assert "exec-escape" in new_rules(lint(tmp_path))

    def test_unpicklable_default_on_shipped_worker_detected(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            import threading

            def run_item_task(item, lock=threading.Lock()):
                return item

            def dispatch(executor, tasks):
                return executor.map(run_item_task, tasks)
        """)
        assert "exec-escape" in new_rules(lint(tmp_path))

    def test_module_level_and_imported_workers_are_clean(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            from repro.congest.chunks import run_vertex_chunk

            def run_item_task(item, scale=2):
                return item * scale

            def dispatch(executor, tasks):
                a = executor.map(run_item_task, tasks)
                b = executor.map(run_vertex_chunk, tasks)
                return a, b
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_pragma_suppresses(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            def run_all(executor, tasks):
                return executor.map(
                    lambda t: t + 1,  # repro: allow[exec-escape] -- serial-only test helper
                    tasks)
        """)
        report = lint(tmp_path)
        assert report.new_findings == []
        assert report.suppressed_count == 1


# ------------------------------------------------------------ global-write
class TestGlobalWriteFamily:
    def test_worker_assigning_declared_global_detected(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            _TOTAL = 0

            def run_fill_task(item):
                global _TOTAL
                _TOTAL = item
        """)
        assert "global-write" in new_rules(lint(tmp_path))

    def test_reachable_callee_mutating_module_dict_detected(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            _CACHE = {}

            def _record(item):
                _CACHE[item] = True

            def run_fill_task(item):
                _record(item)
                return item
        """)
        assert "global-write" in new_rules(lint(tmp_path))

    def test_seam_shipped_function_is_a_root(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            _SEEN = []

            def note(item):
                _SEEN.append(item)
                return item

            def dispatch(executor, tasks):
                return executor.map(note, tasks)
        """)
        assert "global-write" in new_rules(lint(tmp_path))

    def test_local_writes_and_unreachable_writers_are_clean(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            _CACHE = {}

            def warm(key):
                # module-state write, but not reachable from any worker
                _CACHE[key] = True

            def run_calc_task(item):
                acc = {}
                acc[item] = True
                return acc
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_pragma_suppresses(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            _TOTAL = 0

            def run_fill_task(item):
                global _TOTAL
                _TOTAL = item  # repro: allow[global-write] -- worker-local counter, merged by the parent
        """)
        report = lint(tmp_path)
        assert report.new_findings == []
        assert report.suppressed_count == 1


# ---------------------------------------------------------- hot-path-alloc
class TestHotPathAllocFamily:
    def test_argument_materialization_detected(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            from repro.utils.contracts import hot_path

            @hot_path
            def note_update(self, edges):
                vals = list(edges)
                return vals
        """)
        assert "hot-path-alloc" in new_rules(lint(tmp_path))

    def test_numpy_allocation_detected(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            import numpy as np

            from repro.utils.contracts import hot_path

            @hot_path
            def note_update(self, xs):
                return np.asarray(xs)
        """)
        assert "hot-path-alloc" in new_rules(lint(tmp_path))

    def test_aliased_numpy_allocation_detected(self, tmp_path):
        # the alias comes from the module's imports, not a fixed name list
        plant(tmp_path, "core/fx.py", """\
            import numpy as _np

            from repro.utils.contracts import hot_path

            @hot_path
            def note_update(self, n):
                return _np.zeros(n)
        """)
        assert "hot-path-alloc" in new_rules(lint(tmp_path))

    def test_python_loop_over_array_detected(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            from repro.utils.contracts import hot_path

            @hot_path
            def scan(self, mate_arr):
                total = 0
                for v in mate_arr:
                    total += v
                return total
        """)
        assert "hot-path-alloc" in new_rules(lint(tmp_path))

    def test_o1_body_and_undecorated_functions_are_clean(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            from repro.utils.contracts import hot_path

            @hot_path
            def note_update(self, v):
                self._count += 1
                self._last = v
                return self._count

            def cold_path(edges):
                return list(edges)
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_pragma_suppresses(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            from repro.utils.contracts import hot_path

            @hot_path
            def note_update(self, edges):
                edges = list(edges)  # repro: allow[hot-path-alloc] -- bounded by one phase's augmenting set
                return edges
        """)
        report = lint(tmp_path)
        assert report.new_findings == []
        assert report.suppressed_count == 1


# ------------------------------------------------------ swallowed-exception
class TestSwallowedExceptionFamily:
    def test_broad_pass_handler_detected(self, tmp_path):
        plant(tmp_path, "resilience/fx.py", """\
            def restore(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
        """)
        assert "swallowed-exception" in new_rules(lint(tmp_path))

    def test_bare_except_and_tuple_detected(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            def drain(queue):
                try:
                    queue.get_nowait()
                except:
                    pass
        """)
        plant(tmp_path, "bench/fx.py", """\
            def harvest(future):
                try:
                    future.cancel()
                except (OSError, Exception):
                    pass
        """)
        report = lint(tmp_path)
        hits = [f for f in report.new_findings
                if f.rule == "swallowed-exception"]
        assert len(hits) == 2

    def test_reraise_and_returned_value_are_clean(self, tmp_path):
        plant(tmp_path, "exec/fx.py", """\
            def retry(task):
                try:
                    return task()
                except Exception:
                    raise

            def blame(task):
                try:
                    return task()
                except Exception as exc:
                    return ("ERROR", str(exc))
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_recording_the_failure_is_clean(self, tmp_path):
        plant(tmp_path, "bench/fx.py", """\
            def walk(task, failures):
                try:
                    return task()
                except Exception as exc:
                    failures.append({"error": str(exc)})
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_narrow_handler_is_clean(self, tmp_path):
        plant(tmp_path, "dynamic/fx.py", """\
            def lookup(d, k):
                try:
                    return d[k]
                except KeyError:
                    pass
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_rule_scoped_to_recovery_packages(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def restore(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
        """)
        assert new_rules(lint(tmp_path)) == set()

    def test_pragma_suppresses(self, tmp_path):
        plant(tmp_path, "resilience/fx.py", """\
            def probe(path):
                try:
                    return open(path).read()
                except Exception:  # repro: allow[swallowed-exception] -- best-effort probe, absence is a valid answer
                    pass
        """)
        report = lint(tmp_path)
        assert report.new_findings == []
        assert report.suppressed_count == 1


# --------------------------------------- acceptance: parallel-safety family
def test_parallel_safety_family_detects_planted_fixtures(tmp_path):
    plant(tmp_path, "exec/escape_fx.py", """\
        def run_all(executor, tasks):
            return executor.map(lambda t: t + 1, tasks)
    """)
    plant(tmp_path, "exec/global_fx.py", """\
        _CACHE = {}

        def run_fill_task(item):
            _CACHE[item] = True
    """)
    plant(tmp_path, "core/hot_fx.py", """\
        from repro.utils.contracts import hot_path

        @hot_path
        def note_update(self, edges):
            return list(edges)
    """)
    assert {"exec-escape", "global-write",
            "hot-path-alloc"} <= new_rules(lint(tmp_path))


# ---------------------------------------------------- acceptance: all four
def test_all_four_families_detect_planted_fixtures(tmp_path):
    plant(tmp_path, "core/hash_fx.py", """\
        def f(s: set):
            for v in s:
                print(v)
    """)
    plant(tmp_path, "mpc/words_fx.py", """\
        class Sim:
            def send(self, dest, payload):
                self.storage[dest].append(payload)
    """)
    plant(tmp_path, "graph/memo_fx.py", """\
        class Cache:
            @invalidates("_memo")
            def add_item(self, x):
                self._items = x
    """)
    plant(tmp_path, "dynamic/mirror_fx.py", """\
        def f(state, v):
            state.mate_arr[v] = -1
    """)
    assert {"set-iteration", "word-accounting-bypass",
            "memo-invalidation-missing",
            "mirror-write-outside-funnel"} <= new_rules(lint(tmp_path))


# ------------------------------------------------------------------ pragmas
class TestPragmas:
    OFFENDING = """\
        def f(s: set):
            for v in s:{pragma}
                print(v)
    """

    def test_valid_pragma_suppresses(self, tmp_path):
        plant(tmp_path, "core/fx.py", self.OFFENDING.format(
            pragma="  # repro: allow[set-iteration] -- fixture justification"))
        report = lint(tmp_path)
        assert report.new_findings == []
        assert report.suppressed_count == 1

    def test_family_name_suppresses_every_member_rule(self, tmp_path):
        plant(tmp_path, "core/fx.py", self.OFFENDING.format(
            pragma="  # repro: allow[hash-order] -- fixture justification"))
        report = lint(tmp_path)
        assert report.new_findings == []
        assert report.suppressed_count == 1

    def test_justification_is_mandatory(self, tmp_path):
        plant(tmp_path, "core/fx.py", self.OFFENDING.format(
            pragma="  # repro: allow[set-iteration]"))
        rules = new_rules(lint(tmp_path))
        # nothing suppressed, and the bare pragma is itself reported
        assert {"set-iteration", "pragma-missing-justification"} <= rules

    def test_unused_pragma_reported(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f():  # repro: allow[set-iteration] -- nothing to suppress
                return 1
        """)
        assert "pragma-unused" in new_rules(lint(tmp_path))

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        plant(tmp_path, "core/fx.py", self.OFFENDING.format(
            pragma="  # repro: allow[set-pop] -- wrong rule listed"))
        rules = new_rules(lint(tmp_path))
        assert {"set-iteration", "pragma-unused"} <= rules

    def test_pragma_text_inside_string_is_inert(self, tmp_path):
        # regression: the engine's own error message contains pragma text
        # in a string literal; tokenize-based parsing must not see it
        plant(tmp_path, "core/fx.py", """\
            MSG = "# repro: allow[set-iteration] -- not a real pragma"
        """)
        assert new_rules(lint(tmp_path)) == set()


# ------------------------------------------------- fingerprints & baseline
class TestFingerprintsAndBaseline:
    def test_fingerprint_survives_line_shift(self, tmp_path):
        path = plant(tmp_path, "core/fx.py", """\
            def f(s: set):
                for v in s:
                    print(v)
        """)
        before = {f.fingerprint for f in lint(tmp_path).new_findings}
        path.write_text("# shifted\n# down\n\n" + path.read_text(),
                        encoding="utf-8")
        after = {f.fingerprint for f in lint(tmp_path).new_findings}
        assert before == after

    def test_baseline_grandfathers_and_check_recovers(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f(s: set):
                for v in s:
                    print(v)
        """)
        report = lint(tmp_path)
        assert report.new_findings
        baseline = from_findings(report.new_findings)
        report2 = lint(tmp_path, baseline=baseline)
        assert report2.new_findings == []
        assert report2.baselined_count == len(report.new_findings)

    def test_removed_entry_resurfaces_finding(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f(s: set):
                for v in s:
                    print(v)
        """)
        baseline = from_findings(lint(tmp_path).new_findings)
        fingerprint = next(iter(baseline.fingerprints))
        assert baseline.remove(fingerprint)
        assert not baseline.remove(fingerprint)  # idempotent
        assert lint(tmp_path, baseline=baseline).new_findings

    def test_stale_entries_are_listed(self, tmp_path):
        plant(tmp_path, "core/fx.py", "def f():\n    return 1\n")
        baseline = Baseline(entries={"deadbeefdeadbeef": {
            "fingerprint": "deadbeefdeadbeef", "rule": "set-iteration",
            "path": "repro/core/gone.py", "context": "for v in s:"}})
        report = lint(tmp_path, baseline=baseline)
        assert stale_fingerprints(baseline, report.findings) == \
            ["deadbeefdeadbeef"]

    def test_save_load_round_trip(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f(s: set):
                for v in s:
                    print(v)
        """)
        baseline = from_findings(lint(tmp_path).new_findings)
        target = tmp_path / "baseline.json"
        save_baseline(baseline, target)
        assert load_baseline(target).fingerprints == baseline.fingerprints

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json").fingerprints == set()

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99, "findings": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_baseline(bad)


# ------------------------------------------------------------- JSON report
def test_json_report_schema_round_trip(tmp_path):
    plant(tmp_path, "core/fx.py", """\
        def f(s: set):
            for v in s:
                print(v)
    """)
    report = lint(tmp_path)
    payload = json.loads(render_json(report))
    validate_report(payload)
    rebuilt = findings_from_report(payload)
    assert [(f.rule, f.path, f.line, f.message, f.context)
            for f in rebuilt] == \
        [(f.rule, f.path, f.line, f.message, f.context)
         for f in report.findings]
    assert payload["summary"]["new"] == len(report.new_findings)
    with pytest.raises(ValueError, match="missing key"):
        validate_report({"version": 1})


def test_parse_error_is_a_finding(tmp_path):
    plant(tmp_path, "core/fx.py", "def broken(:\n")
    assert "parse-error" in new_rules(lint(tmp_path))


# --------------------------------------------------------------------- CLI
class TestCLI:
    def _dirty_tree(self, tmp_path):
        plant(tmp_path, "core/fx.py", """\
            def f(s: set):
                for v in s:
                    print(v)
        """)
        return str(tmp_path / "repro"), str(tmp_path / "baseline.json")

    def test_check_exit_codes(self, tmp_path, capsys):
        target, baseline = self._dirty_tree(tmp_path)
        assert cli_main(["--check", "--baseline", baseline, target]) == 1
        assert "set-iteration" in capsys.readouterr().out
        # report-only mode never gates
        assert cli_main(["--baseline", baseline, target]) == 0
        capsys.readouterr()

    def test_update_baseline_flow(self, tmp_path, capsys):
        target, baseline = self._dirty_tree(tmp_path)
        assert cli_main(["--update-baseline", "--baseline", baseline,
                         target]) == 0
        assert cli_main(["--check", "--baseline", baseline, target]) == 0
        capsys.readouterr()

    def test_stale_baseline_fails_check(self, tmp_path, capsys):
        target, baseline = self._dirty_tree(tmp_path)
        assert cli_main(["--update-baseline", "--baseline", baseline,
                         target]) == 0
        # fix the code: the baselined finding disappears, its entry goes
        # stale, and --check demands the entry be retired
        plant(tmp_path, "core/fx.py", "def f():\n    return 1\n")
        assert cli_main(["--check", "--baseline", baseline, target]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target, baseline = self._dirty_tree(tmp_path)
        assert cli_main(["--format", "json", "--baseline", baseline,
                         target]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["summary"]["new"] >= 1

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("set-iteration", "word-accounting-bypass",
                        "memo-invalidation-missing",
                        "mirror-write-outside-funnel",
                        "exec-escape", "global-write",
                        "hot-path-alloc", "swallowed-exception"):
            assert rule_id in out

    def test_bad_path_is_usage_error(self, tmp_path, capsys):
        assert cli_main([str(tmp_path / "no_such_dir")]) == 2
        capsys.readouterr()

    def test_explicit_lint_subcommand(self, tmp_path, capsys):
        target, baseline = self._dirty_tree(tmp_path)
        assert cli_main(["lint", "--check", "--baseline", baseline,
                         target]) == 1
        capsys.readouterr()


# ------------------------------------------------------- CLI: subset modes
class TestCLISubsetModes:
    OFFENDING = """\
        def f(s: set):
            for v in s:
                print(v)
    """

    def test_paths_subset_lints_only_named_files(self, tmp_path, capsys):
        dirty = plant(tmp_path, "core/fx_a.py", self.OFFENDING)
        plant(tmp_path, "core/fx_b.py", self.OFFENDING)
        baseline = str(tmp_path / "baseline.json")
        # a subset run sees only the named file's findings
        assert cli_main(["--check", "--baseline", baseline,
                         "--paths", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "fx_a.py" in out and "fx_b.py" not in out

    def test_paths_subset_restricts_stale_check(self, tmp_path, capsys):
        fixed = plant(tmp_path, "core/fx_a.py", self.OFFENDING)
        still_dirty = plant(tmp_path, "core/fx_b.py", self.OFFENDING)
        baseline = str(tmp_path / "baseline.json")
        assert cli_main(["--update-baseline", "--baseline", baseline,
                         str(tmp_path / "repro")]) == 0
        fixed.write_text("def f():\n    return 1\n", encoding="utf-8")
        # fx_a's baseline entry is now stale, but a subset run over fx_b
        # must not demand its retirement (fx_a was never scanned) ...
        assert cli_main(["--check", "--baseline", baseline,
                         "--paths", str(still_dirty)]) == 0
        capsys.readouterr()
        # ... while a subset run over fx_a itself surfaces the staleness
        assert cli_main(["--check", "--baseline", baseline,
                         "--paths", str(fixed)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def _git(self, cwd, *args):
        subprocess.run(["git", "-c", "user.email=dev@example.org",
                        "-c", "user.name=dev", *args],
                       cwd=str(cwd), check=True, capture_output=True)

    def test_changed_mode_lints_the_diff(self, tmp_path, monkeypatch,
                                         capsys):
        path = plant(tmp_path, "core/fx.py", "def f():\n    return 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        monkeypatch.setattr("repro.analysis.cli.find_repo_root",
                            lambda: tmp_path)
        baseline = str(tmp_path / "baseline.json")
        # clean working tree: nothing to lint, exit 0
        assert cli_main(["--changed", "--check", "--baseline",
                         baseline]) == 0
        assert "nothing to lint" in capsys.readouterr().out
        # dirty the file: --changed lints exactly it and gates
        path.write_text(textwrap.dedent(self.OFFENDING), encoding="utf-8")
        assert cli_main(["--changed", "--check", "--baseline",
                         baseline]) == 1
        assert "set-iteration" in capsys.readouterr().out

    def test_changed_mode_without_git_is_usage_error(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setattr("repro.analysis.cli.find_repo_root",
                            lambda: tmp_path)  # not a git checkout
        assert cli_main(["--changed", "--check"]) == 2
        assert "--changed needs a git checkout" in \
            capsys.readouterr().err


# ------------------------------------------------------- sanitizer helpers
class TestSanitizerNormalization:
    RECORD = {"scenario": "s", "params": {"seed": 0}, "wall_s": 1.23,
              "timestamp": "t", "python": "3.11",
              "counters": {"oracle_calls": 7.0, "repair_ms": 0.4,
                           "phase_s": 0.1}}

    def test_volatile_fields_dropped(self):
        normalized = normalize_record(self.RECORD)
        assert "wall_s" not in normalized and "timestamp" not in normalized
        assert normalized["counters"] == {"oracle_calls": 7.0}

    def test_canonical_bytes_ignore_only_volatile_fields(self):
        other = dict(self.RECORD, wall_s=9.99, timestamp="later")
        assert canonical_bytes([self.RECORD]) == canonical_bytes([other])
        drifted = dict(self.RECORD,
                       counters={"oracle_calls": 8.0, "repair_ms": 0.4,
                                 "phase_s": 0.1})
        ok, diff = compare_record_sets([self.RECORD], [drifted])
        assert not ok and "oracle_calls" in diff

    def test_count_mismatch_reported(self):
        ok, diff = compare_record_sets([self.RECORD], [])
        assert not ok and "record count" in diff


# --------------------------------------------- sanitizer: axis isolation
TOY_SCENARIO = '''\
"""Hash-order canary scenario for the sanitizer axis-isolation test."""

from repro.bench.registry import register


@register("toy_hash_order_probe", suite="test",
          description="set-iteration order leaked into a counter")
def toy_hash_order_probe(spec, counters):
    # string hashes depend on PYTHONHASHSEED (int hashes do not), so the
    # enumerate order below -- folded order-sensitively into the counter --
    # differs between hash seeds but not between worker counts
    toks = {f"tok-{i}" for i in range(128)}
    sig = 0
    for pos, tok in enumerate(toks):
        sig = (sig * 1000003 + (pos + 1) * int(tok.split("-")[1])) % (2**31)
    return {"order_signature": float(sig)}
'''


def test_sanitizer_isolates_the_failing_axis(tmp_path, monkeypatch):
    """A hash-order bug must be blamed on the PYTHONHASHSEED axis alone.

    The sanitizer compares each axis against the same baseline run, so a
    seed-dependent scenario fails the hash-seed variant while the --jobs
    variant (same hash seed) still matches -- the failure report must name
    the axis that actually broke, not both.
    """
    module = tmp_path / "toy_scenarios.py"
    module.write_text(TOY_SCENARIO, encoding="utf-8")
    monkeypatch.setenv("REPRO_BENCH_EXTRA_MODULES", str(module))
    result = run_sanitizer("toy_hash_order_probe", seed=0,
                           repo_root=find_repo_root(), timeout=240.0)
    assert not result.ok, result.render()
    assert any("PYTHONHASHSEED=1" in failure for failure in result.failures)
    assert any("order_signature" in failure for failure in result.failures)
    # the --jobs axis stayed clean: compared, and absent from the failures
    assert all("--jobs 2" not in failure for failure in result.failures)
    assert any("--jobs 2" in label for label in result.compared)


# ------------------------------------------------------- runtime contracts
class TestInvalidatesRegistry:
    def test_decorator_validates_arguments(self):
        with pytest.raises(ValueError, match="at least one"):
            invalidates()
        with pytest.raises(ValueError, match="non-empty strings"):
            invalidates("")

    def test_registry_walks_mro_and_shadows(self):
        class Base:
            @invalidates("_a")
            def add_x(self):
                self._a = None

        class Child(Base):
            @invalidates("_a", "_b")
            def add_x(self):
                self._a = self._b = None

            @invalidates("_b")
            def remove_x(self):
                self._b = None

        assert declared_mutators(Base) == {"add_x": ("_a",)}
        assert declared_mutators(Child) == {"add_x": ("_a", "_b"),
                                            "remove_x": ("_b",)}

    def test_decorator_is_zero_cost(self):
        @invalidates("_flag")
        def mutate(self):
            self._flag = True

        assert mutate.__invalidates__ == ("_flag",)
        assert mutate.__name__ == "mutate"  # no wrapper object


class TestHotPathRegistry:
    def test_decorator_tags_without_wrapping(self):
        @hot_path
        def update(self, v):
            return v

        assert is_hot_path(update)
        assert update.__name__ == "update"  # no wrapper object

    def test_registry_walks_mro(self):
        class Base:
            @hot_path
            def tick(self):
                pass

        class Child(Base):
            @hot_path
            def tock(self):
                pass

            def cold(self):
                pass

        assert declared_hot_paths(Base) == ("tick",)
        assert declared_hot_paths(Child) == ("tick", "tock")
        assert not is_hot_path(Child.cold)
        assert is_hot_path(Child().tick)  # bound methods unwrap

    def test_repair_hot_paths_are_declared(self):
        # the per-update path the latency gate measures is tagged, so the
        # hot-path-alloc rule actually covers it
        from repro.core.repair import MirroredMatching, RepairContext

        assert "note_update" in declared_hot_paths(RepairContext)
        assert {"add", "remove"} <= set(declared_hot_paths(MirroredMatching))


# ------------------------------------------------------ import & packaging
def test_analysis_imports_without_numpy():
    """repro.analysis (the repro-lint entry point) must stay stdlib-only."""
    code = textwrap.dedent("""\
        import sys
        sys.modules["numpy"] = None  # poison: any numpy import now fails
        import repro.analysis
        from repro.analysis.registry import all_rules
        ids = {entry.id for entry in all_rules()}
        need = {"exec-escape", "global-write", "hot-path-alloc"}
        missing = need - ids
        assert not missing, f"missing rules: {missing}"
        print("ok")
    """)
    root = find_repo_root()
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok" in proc.stdout


def test_library_sets_no_collector_policy():
    """Pauses of the cyclic collector are cut by allocating fewer
    containers, never by steering the collector: no module under
    ``src/repro`` calls ``gc.disable``, ``gc.freeze``, ``gc.set_threshold``
    or ``gc.collect`` (imported from ``gc`` by name counts as a call)."""
    forbidden = {"disable", "freeze", "set_threshold", "collect"}
    hits = []
    for path in sorted((find_repo_root() / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = {alias.asname or "gc" for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "gc"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                hits += [f"{path}:{node.lineno}: from gc import {a.name}"
                         for a in node.names if a.name in forbidden]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in forbidden
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in modules):
                hits.append(f"{path}:{node.lineno}: gc.{node.func.attr}()")
    assert not hits, hits


def test_setup_declares_repro_lint_entry_point():
    text = (find_repo_root() / "setup.py").read_text(encoding="utf-8")
    assert "repro-lint=repro.analysis.cli:main" in text
