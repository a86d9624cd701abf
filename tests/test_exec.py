"""Tests for the execution layer (``repro.exec``) and its integrations.

Covers the word-size convention, the bulk barrier's column copies, CONGEST
message validation, and the bench runner's ``--jobs`` path: deterministic
records, exact counter merges, and per-scenario crash isolation.
"""

import os
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import registry, runner
from repro.congest.simulator import CongestSimulator, MessageTooLarge
from repro.exec import payload_words
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.mpc.simulator import MPCSimulator


# -------------------------------------------------------------------- words
class TestPayloadWords:
    def test_convention(self):
        assert payload_words((1, 2, 3)) == 3
        assert payload_words([1, 2]) == 2
        assert payload_words(()) == 1          # floor of one word
        assert payload_words(7) == 1
        assert payload_words(None) == 1
        assert payload_words({"a": 1, "b": 2}) == 4
        assert payload_words({1, 2, 3}) == 3
        assert payload_words("tiny") == 1
        assert payload_words("x" * 80) == 10   # 8 bytes per word

    def test_nesting_cannot_smuggle_words(self):
        # sizing is recursive: wrapping a big payload in a container must
        # not shrink it to the container's length
        assert payload_words((tuple(range(100)),)) == 100
        assert payload_words({"k": tuple(range(100))}) == 101
        assert payload_words([[1, 2], [3, 4, 5]]) == 5
        assert payload_words(("tag", ("x" * 80,))) == 11

    def test_strings_sized_by_encoded_bytes(self):
        # 32 CJK chars are ~96 UTF-8 bytes, not 32: 12 words, not 4
        assert payload_words("日" * 32) == 12
        assert payload_words(b"\xff" * 16) == 2

    def test_unknown_type_uses_default(self):
        class Opaque:
            pass

        assert payload_words(Opaque()) is None
        assert payload_words(Opaque(), default=1) == 1
        # an unsizable element poisons its container under the strict rule
        assert payload_words((1, Opaque())) is None
        assert payload_words((1, Opaque()), default=1) == 2


def generic_words(payload, default=None):
    """The sizing rule spelled out with no fast path: what
    :func:`payload_words` must return for every payload."""
    if isinstance(payload, (int, float, bool, type(None))):
        return 1
    if isinstance(payload, (str, bytes, bytearray)):
        if isinstance(payload, str):
            nbytes = len(payload.encode("utf-8", "surrogatepass"))
        else:
            nbytes = len(payload)
        return max(1, (nbytes + 7) // 8)
    if isinstance(payload, (tuple, list, set, frozenset)):
        total = 0
        for item in payload:
            item_words = generic_words(item, default)
            if item_words is None:
                return None
            total += item_words
        return max(1, total)
    if isinstance(payload, dict):
        total = 0
        for key, value in payload.items():
            key_words = generic_words(key, default)
            value_words = generic_words(value, default)
            if key_words is None or value_words is None:
                return None
            total += key_words + value_words
        return max(1, total)
    return default


class _Unsizable:
    pass


_ASCII = st.characters(max_codepoint=127)
_LEAVES = st.one_of(
    st.integers(), st.booleans(), st.floats(), st.none(),
    st.text(alphabet=_ASCII, max_size=12),
    # around the 8-byte word boundary, where the fast path stops
    st.text(alphabet=_ASCII, min_size=7, max_size=10),
    st.text(min_size=1, max_size=9), st.binary(max_size=20),
    st.builds(_Unsizable))
_KEYS = st.one_of(st.integers(), st.booleans(), st.text(max_size=10))
PAYLOADS = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=5).map(tuple),
    st.lists(children, max_size=5),
    st.sets(_KEYS, max_size=5), st.frozensets(_KEYS, max_size=5),
    st.dictionaries(_KEYS, children, max_size=4)), max_leaves=20)


class TestPayloadWordsFastPath:
    @given(PAYLOADS, st.sampled_from([None, 1, 3]))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_generic_rule(self, payload, default):
        assert payload_words(payload, default) == generic_words(payload,
                                                                default)


# ------------------------------------------------------------- bulk barrier
@pytest.mark.parametrize("model", ["mpc", "congest"])
def test_mutating_a_sent_column_leaves_the_inbox_unchanged(model):
    # both barriers copy every column: a sender that rewrites or reuses its
    # columns after the round cannot touch what the receiver holds
    sim = (MPCSimulator(2) if model == "mpc"
           else CongestSimulator(Graph(2, [(0, 1)])))
    dest, field = [1], [7]
    inboxes = sim.round([(dest, field)], "t")
    field[0] = -1
    field.append(8)
    dest.append(1)
    assert list(inboxes[1][-1]) == [7]


# ------------------------------------------------ CONGEST message validation
def _flood(g, width=2):
    """Every vertex messages each neighbour ``w`` with ``width`` fields
    ``(v, w, w, ...)``."""
    outboxes = []
    for v in range(g.n):
        dest = sorted(g.neighbors(v))
        outboxes.append((dest, [v] * len(dest),
                         *[list(dest) for _ in range(width - 1)]))
    return outboxes


class TestCongestValidation:
    def test_rejects_non_neighbor(self):
        g = erdos_renyi(40, 0.2, seed=3)
        outboxes = _flood(g)
        bad = next(w for w in range(1, g.n) if not g.has_edge(0, w))
        for column, value in zip(outboxes[0], (bad, 0, bad)):
            column.append(value)
        sim = CongestSimulator(g)
        with pytest.raises(ValueError, match=f"vertex 0 tried to message "
                                             f"non-neighbor {bad}"):
            sim.round(outboxes, "flood")

    def test_rejects_oversized(self):
        g = erdos_renyi(40, 0.2, seed=3)
        sim = CongestSimulator(g, strict=True)
        # a 1-word tag and 4 fields: every message of the round is 5 words
        with pytest.raises(MessageTooLarge, match="5 words"):
            sim.round(_flood(g, width=4), "flood")
        sim.round(_flood(g, width=3), "flood")

    @pytest.mark.parametrize("strict", [True, False])
    def test_checks_run_in_message_order(self, strict):
        # every message of the round is 5 words, and vertex 0's comes
        # before vertex 10 messages a non-neighbour: the first offending
        # message decides the error (non-strict counts the size violation,
        # then the edge raises)
        g = Graph(40)
        g.add_edges((v, v + 1) for v in range(39))
        outboxes = [None] * 40
        outboxes[0] = ([1], [0], [1], [2], [3])
        outboxes[10] = ([30], [10], [30], [2], [3])
        counters = Counters()
        sim = CongestSimulator(g, counters=counters, strict=strict)
        with pytest.raises(MessageTooLarge if strict else ValueError):
            sim.round(outboxes, "t")
        assert counters.as_dict() == {"congest_message_violations": 1.0}
        # a message's edge is checked before its size
        counters = Counters()
        sim = CongestSimulator(g, counters=counters, strict=strict)
        with pytest.raises(ValueError, match="vertex 0 tried to message "
                                             "non-neighbor 30"):
            sim.round([([30], [0], [30], [2], [3])], "t")
        assert counters.as_dict() == {}

    def test_rejects_malformed_columns(self):
        sim = CongestSimulator(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match="vertex 1 sent ragged"):
            sim.round([([1], [5]), ([0, 2], [5])], "t")
        with pytest.raises(ValueError, match="vertex 1 sent 0 fields"):
            sim.round([([1], [5]), ([0],)], "t")
        with pytest.raises(TypeError, match="vertex 0 sent a field"):
            sim.round([([1], [1.5])], "t")
        with pytest.raises(ValueError, match="4 outboxes for 3 vertices"):
            sim.round([None] * 4, "t")
        assert sim.counters.get("congest_rounds") == 0


# ---------------------------------------------------- CONGEST size sizing
class TestCongestSizing:
    """Every message carries the round's tag, sized with
    :func:`~repro.exec.payload_words`, plus one word per int field."""

    def _sim(self, strict=True):
        g = Graph(2, [(0, 1)])
        counters = Counters()
        return CongestSimulator(g, counters=counters, strict=strict), counters

    def test_containers_are_sized(self):
        sim, _ = self._sim()
        for tag in ({"a": 1, "b": 2, "c": 3},  # 6 words
                    {1, 2, 3, 4, 5},
                    "a very long string payload that is way over"):
            with pytest.raises(MessageTooLarge):
                sim.round([([1],)], tag)

    def test_unknown_payload_rejected_under_strict(self):
        class Opaque:
            pass

        sim, counters = self._sim(strict=True)
        with pytest.raises(MessageTooLarge, match="cannot size"):
            sim.round([([1],)], Opaque())
        sim2, counters2 = self._sim(strict=False)
        inboxes = sim2.round([([1],), ([0],)], Opaque())
        assert counters2.get("congest_message_violations") == 2
        # non-strict delivers the oversized messages all the same
        assert [list(inbox[0]) for inbox in inboxes] == [[1], [0]]

    def test_small_tuples_still_pass(self):
        sim, counters = self._sim()
        for tag in ("propose", ("propose",), (1, 2, 3, 4), 3):
            sim.round([([1],)], tag)
        # a 1-word tag with 3 fields is exactly the 4-word limit
        sim.round([([1], [1], [2], [3])], "propose")
        assert counters.get("congest_message_violations") == 0


# ------------------------------------------------------ Counters merging
class TestCountersMerge:
    def test_merge_accepts_mapping_and_bag(self):
        a = Counters()
        a.add("x", 2)
        a.merge({"x": 1, "y": 3})
        b = Counters.from_dict({"x": 3, "y": 3})
        assert a == b
        b.merge(a)
        assert b.as_dict() == {"x": 6.0, "y": 6.0}

    def test_partitioned_merge_equals_serial(self):
        parts = [{"w": 1, "z": 2}, {"w": 4}, {"z": 0.5}]
        total = Counters()
        for part in parts:
            total.merge(part)
        serial = Counters()
        for part in parts:
            for key, value in part.items():
                serial.add(key, value)
        assert total == serial


# --------------------------------------------- cross-process determinism
class TestAlgorithmDeterminism:
    def test_weak_boosting_insensitive_to_heap_layout(self):
        """Seeded runs must not depend on object allocation addresses.

        Regression test for the address-hash-ordered StructNode containers
        (``Structure.nodes``, Contract's absorbed-path set) that made
        identical seeded runs diverge between bench worker processes: a pile
        of allocations in between perturbs the heap layout exactly the way a
        different worker history would.
        """
        from repro.core.dynamic_boosting import boost_matching_weak
        from repro.dynamic.weak_oracles import GreedyInducedWeakOracle

        def run():
            g = erdos_renyi(60, 0.08, seed=0)
            counters = Counters()
            m = boost_matching_weak(g, 0.25,
                                    GreedyInducedWeakOracle(g, seed=1),
                                    counters=counters, seed=1)
            return sorted(m.edges()), counters.as_dict()

        first = run()
        junk = [str(i) * 9 for i in range(100000)]  # perturb the heap
        second = run()
        del junk
        assert first == second

    def test_ordered_node_set_is_insertion_ordered(self):
        from repro.core.structures import OrderedNodeSet, Structure

        s = Structure(0)
        nodes = [Structure(i).root for i in range(1, 6)]
        bag = OrderedNodeSet((s.root,))
        for node in nodes:
            bag.add(node)
        bag.add(nodes[0])            # re-adding keeps the original position
        assert list(bag) == [s.root] + nodes
        bag.discard(nodes[2])
        assert list(bag) == [s.root] + nodes[:2] + nodes[3:]
        assert nodes[2] not in bag and nodes[1] in bag
        assert len(bag) == 5
        bag.clear()
        assert list(bag) == [] and len(bag) == 0


# ------------------------------------------------- parallel bench running
EXTRA_MODULE = textwrap.dedent(
    """
    from repro.bench import register

    # two scenarios sharing one body, so a suite run puts two specs in the
    # pool
    @register("_px_ok2", suite="_pxsuite")
    @register("_px_ok", suite="_pxsuite")
    def _ok(spec, counters):
        counters.add("px_work", 2 + spec.seed)
        counters.add("px_runs")
        return {"px_derived": 0.5}

    @register("_px_boom", suite="_pxsuite")
    def _boom(spec, counters):
        raise RuntimeError("intentional scenario crash")

    # _px_exit lives in its own suite so suite-wide "_pxsuite" tests never
    # run it by accident (it kills its worker)
    @register("_px_exit", suite="_pxchaos")
    def _exit(spec, counters):
        import os
        os._exit(1)  # segfault stand-in: the worker dies without a result
    """
)


def test_extra_modules_execute_once_per_process(tmp_path, monkeypatch):
    from repro.bench import discovery

    marker = tmp_path / "execs.log"
    module_path = tmp_path / "extra_counting.py"
    module_path.write_text(
        f"with open({str(marker)!r}, 'a') as fh:\n    fh.write('x')\n")
    monkeypatch.setenv(discovery.EXTRA_MODULES_ENV, str(module_path))
    discovery.load_benchmark_modules(tmp_path)
    discovery.load_benchmark_modules(tmp_path)
    # import semantics: side effects fire once per process, not per call
    assert marker.read_text() == "x"
    # ... but a same-named file in a different directory is a distinct module
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    other_path = other_dir / "extra_counting.py"
    other_path.write_text(
        f"with open({str(marker)!r}, 'a') as fh:\n    fh.write('y')\n")
    monkeypatch.setenv(discovery.EXTRA_MODULES_ENV,
                       os.pathsep.join([str(module_path), str(other_path)]))
    discovery.load_benchmark_modules(tmp_path)
    assert marker.read_text() == "xy"


@pytest.fixture
def parallel_scenarios(tmp_path, monkeypatch):
    """Register the test scenarios from an extra-modules file
    (worker-visible)."""
    module_path = tmp_path / "extra_scenarios.py"
    module_path.write_text(EXTRA_MODULE)
    monkeypatch.setenv("REPRO_BENCH_EXTRA_MODULES", str(module_path))
    # point discovery at tmp_path: no benchmarks/ dir there, so parent and
    # workers load only the extra module (fast and hermetic)
    monkeypatch.setenv("REPRO_BENCH_ROOT", str(tmp_path))
    exec(compile(EXTRA_MODULE, str(module_path), "exec"), {})
    yield
    for name in ("_px_ok", "_px_ok2", "_px_boom", "_px_exit"):
        registry.unregister(name)


def _strip_timing(records):
    out = []
    for record in records:
        record = dict(record)
        record.pop("wall_s")
        record.pop("timestamp")
        out.append(record)
    return out


class TestParallelRunner:
    def test_jobs_records_and_counters_match_serial(self, parallel_scenarios):
        scens = [registry.get_scenario("_px_ok"),
                 registry.get_scenario("_px_ok2")]
        results = {}
        for jobs in (1, 4):
            totals = Counters()
            failures = []
            records = runner.run_scenarios(scens, jobs=jobs, totals=totals,
                                           failures=failures, seed=3)
            assert not failures
            results[jobs] = (_strip_timing(records), totals)
        assert results[1][0] == results[4][0]
        # counters merge exactly: one bag per worker, summed in the parent
        assert results[1][1] == results[4][1]
        assert results[1][1].get("px_runs") == 2  # one per scenario

    def test_worker_crash_fails_only_its_scenario(self, parallel_scenarios):
        scens = [registry.get_scenario("_px_boom"),
                 registry.get_scenario("_px_ok"),
                 registry.get_scenario("_px_ok2")]
        failures = []
        records = runner.run_scenarios(scens, jobs=2, failures=failures)
        assert [r["scenario"] for r in records] == ["_px_ok", "_px_ok2"]
        assert len(failures) == 1
        assert failures[0]["scenario"] == "_px_boom"
        assert "intentional scenario crash" in failures[0]["error"]

    def test_serial_path_isolates_failures_too(self, parallel_scenarios):
        scens = [registry.get_scenario("_px_boom"),
                 registry.get_scenario("_px_ok"),
                 registry.get_scenario("_px_ok2")]
        failures = []
        records = runner.run_scenarios(scens, jobs=1, failures=failures)
        assert [r["scenario"] for r in records] == ["_px_ok", "_px_ok2"]
        assert len(failures) == 1 and failures[0]["scenario"] == "_px_boom"

    def test_without_failures_list_the_first_failure_raises(
            self, parallel_scenarios):
        # legacy contract: scenarios must never silently go missing
        with pytest.raises(RuntimeError, match="intentional scenario crash"):
            runner.run_scenarios([registry.get_scenario("_px_boom")], jobs=1)
        # pooled path (>1 spec): the failure surfaces naming the scenario
        with pytest.raises(RuntimeError, match="_px_boom"):
            runner.run_scenarios([registry.get_scenario("_px_boom"),
                                  registry.get_scenario("_px_ok")], jobs=2)

    def test_records_arrive_in_spec_order(self, parallel_scenarios):
        scens = registry.scenarios("_pxsuite")
        seen = []
        runner.run_scenarios(scens, jobs=3,
                             progress=lambda r: seen.append(r["scenario"]),
                             failures=[])
        assert seen == ["_px_ok", "_px_ok2"]


class TestResilientRunner:
    """Worker-death handling in ``run_scenarios``."""

    def test_hard_worker_death_does_not_abort_the_suite(
            self, parallel_scenarios):
        # regression: a worker os._exit(1) used to surface as
        # BrokenProcessPool and kill every remaining spec in the pool
        scens = [registry.get_scenario("_px_exit"),
                 registry.get_scenario("_px_ok"),
                 registry.get_scenario("_px_ok2")]
        failures = []
        records = runner.run_scenarios(scens, jobs=2, failures=failures)
        # both _px_ok scenarios still produced records, in spec order
        assert [r["scenario"] for r in records] == ["_px_ok", "_px_ok2"]
        assert len(failures) == 1
        assert failures[0]["scenario"] == "_px_exit"
        assert "worker died" in failures[0]["error"]
