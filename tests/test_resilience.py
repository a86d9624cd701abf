"""Tests for the fault-injection layer (``repro.resilience``).

Covers the deterministic :class:`FaultPlan` (site independence, hash-seed
independence, picklability, the CLI parse grammar, the per-site crash
bound), the retry/backoff policy, the SIGALRM deadline guard, and message
faults at both simulator exchange barriers -- including the CONGEST
duplicate-as-stale-redelivery model, final-round expiry, and coexistence
with the :class:`~repro.exec.isolation.IsolationGuard` sanitizer.
"""

import pickle
import threading
import time

import pytest

from repro.congest.simulator import CongestSimulator
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.mpc.simulator import MPCSimulator
from repro.resilience import FaultPlan, RetryPolicy, TaskTimeout, deadline
from repro.resilience.faults import DELIVER, DROP, DUPLICATE
from repro.resilience.retry import call_with_retries
from repro.resilience.timeouts import can_enforce_deadlines


# ------------------------------------------------------------------ FaultPlan
class TestFaultPlan:
    def test_decisions_are_deterministic_across_instances(self):
        a = FaultPlan(seed=7, task_crash_rate=0.5, drop_rate=0.3,
                      duplicate_rate=0.3, reorder_rate=0.5)
        b = FaultPlan(seed=7, task_crash_rate=0.5, drop_rate=0.3,
                      duplicate_rate=0.3, reorder_rate=0.5)
        for site in ("s1", "s2", "s3"):
            for attempt in range(3):
                assert a.crashes_task(site, attempt) == \
                    b.crashes_task(site, attempt)
        for rnd in range(4):
            for sender in range(4):
                for dest in range(4):
                    assert a.message_fault("mpc", rnd, sender, dest, 0) == \
                        b.message_fault("mpc", rnd, sender, dest, 0)
        assert a.permutation("mpc", 1, 2, 6) == b.permutation("mpc", 1, 2, 6)

    def test_different_seeds_differ_somewhere(self):
        a = FaultPlan(seed=0, drop_rate=0.5)
        b = FaultPlan(seed=1, drop_rate=0.5)
        decisions_a = [a.message_fault("mpc", 0, s, 0, 0) for s in range(64)]
        decisions_b = [b.message_fault("mpc", 0, s, 0, 0) for s in range(64)]
        assert decisions_a != decisions_b

    def test_sites_are_independent(self):
        # one site's decision never depends on which other sites were asked
        plan = FaultPlan(seed=3, task_crash_rate=0.5)
        before = plan.crashes_task("x:adjset", 0)
        for i in range(50):
            plan.crashes_task(f"other-{i}", 0)
        assert plan.crashes_task("x:adjset", 0) == before

    def test_crash_bound_guarantees_progress(self):
        plan = FaultPlan(seed=0, task_crash_rate=1.0, update_crash_rate=1.0,
                         max_crashes_per_site=3)
        assert [plan.crashes_task("s", a) for a in range(5)] == \
            [True, True, True, False, False]
        assert [plan.crashes_update(9, a) for a in range(5)] == \
            [True, True, True, False, False]

    def test_crash_updates_fire_on_first_visit_only(self):
        plan = FaultPlan(seed=0, crash_updates=(5,))
        assert plan.crashes_update(5, 0)
        assert not plan.crashes_update(5, 1)
        assert not plan.crashes_update(4, 0)

    def test_zero_update_rate_fires_pinned_indices_only(self, monkeypatch):
        plan = FaultPlan(seed=7, crash_updates=(3, 40))

        def no_hashing(self, *site):
            raise AssertionError(f"rate 0 hashed site {site}")

        monkeypatch.setattr(FaultPlan, "_draw", no_hashing)
        for index in range(200):
            for attempt in range(plan.max_crashes_per_site + 2):
                assert plan.crashes_update(index, attempt) == (
                    index in (3, 40) and attempt == 0), (index, attempt)

    def test_update_decisions_follow_the_draw(self):
        for rate in (0.05, 0.5, 0.95):
            plan = FaultPlan(seed=5, update_crash_rate=rate,
                             max_crashes_per_site=4)
            decisions = []
            for index in range(200):
                for attempt in range(plan.max_crashes_per_site):
                    decision = plan.crashes_update(index, attempt)
                    assert decision == (
                        plan._draw("update-crash", index, attempt) < rate)
                    decisions.append(decision)
            assert any(decisions) and not all(decisions)

    def test_rates_partition_decisions(self):
        drop_all = FaultPlan(seed=0, drop_rate=1.0)
        dup_all = FaultPlan(seed=0, duplicate_rate=1.0)
        neither = FaultPlan(seed=0)
        assert drop_all.message_fault("mpc", 0, 0, 1, 0) == DROP
        assert dup_all.message_fault("mpc", 0, 0, 1, 0) == DUPLICATE
        assert neither.message_fault("mpc", 0, 0, 1, 0) == DELIVER

    def test_validation(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(task_crash_rate=1.5)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=0.6, duplicate_rate=0.6)
        with pytest.raises(ValueError, match="task_delay_s"):
            FaultPlan(task_delay_s=-1)

    def test_plan_is_frozen_and_picklable(self):
        plan = FaultPlan(seed=5, task_crash_rate=0.25, crash_updates=(1, 2))
        with pytest.raises(dataclasses_error()):
            plan.seed = 6
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.crashes_task("s", 0) == plan.crashes_task("s", 0)

    def test_parse_round_trips_cli_spec(self):
        plan = FaultPlan.parse(
            "seed=7, task_crash_rate=0.5, crash_updates=3+9, "
            "max_crashes_per_site=2")
        assert plan.seed == 7
        assert plan.task_crash_rate == 0.5
        assert plan.crash_updates == (3, 9)
        assert plan.max_crashes_per_site == 2

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.parse("seed")

    def test_describe_lists_only_non_defaults_plus_seed(self):
        assert FaultPlan(seed=4).describe() == {"seed": 4}
        described = FaultPlan(seed=4, drop_rate=0.5,
                              crash_updates=(2,)).describe()
        assert described == {"seed": 4, "drop_rate": 0.5,
                             "crash_updates": [2]}

    def test_any_task_faults(self):
        assert not FaultPlan().any_task_faults()
        assert FaultPlan(task_crash_rate=0.1).any_task_faults()
        assert not FaultPlan(task_delay_rate=1.0).any_task_faults()  # no delay_s
        assert FaultPlan(task_delay_rate=1.0, task_delay_s=0.1).any_task_faults()


def dataclasses_error():
    import dataclasses

    return dataclasses.FrozenInstanceError


# ---------------------------------------------------------------- RetryPolicy
class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_retries=4, base_s=1.0, multiplier=2.0,
                             cap_s=5.0)
        assert list(policy.schedule()) == [1.0, 2.0, 4.0, 5.0]
        assert policy.attempts == 5
        assert policy.retryable(4) and not policy.retryable(5)

    def test_zero_retries_never_retries(self):
        policy = RetryPolicy()
        assert policy.attempts == 1
        assert not policy.retryable(1)
        assert list(policy.schedule()) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=-0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=1, multiplier=0.5)

    def test_call_with_retries_retries_then_succeeds(self):
        sleeps = []
        attempts = []

        def flaky(failures):
            attempts.append(failures)
            if failures < 2:
                raise RuntimeError("boom")
            return "done"

        result = call_with_retries(
            flaky, RetryPolicy(max_retries=3, base_s=0.5),
            retry_on=(RuntimeError,), sleep=sleeps.append)
        assert result == "done"
        assert attempts == [0, 1, 2]
        assert sleeps == [0.5, 1.0]

    def test_call_with_retries_exhausts_and_raises(self):
        def always(failures):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            call_with_retries(always, RetryPolicy(max_retries=1, base_s=0.0),
                              retry_on=(RuntimeError,), sleep=lambda s: None)

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def typed(failures):
            calls.append(failures)
            raise KeyError("nope")

        with pytest.raises(KeyError):
            call_with_retries(typed, RetryPolicy(max_retries=5, base_s=0.0),
                              retry_on=(RuntimeError,), sleep=lambda s: None)
        assert calls == [0]


# ------------------------------------------------------------------ deadlines
class TestDeadline:
    def test_deadline_fires_on_overrun(self):
        if not can_enforce_deadlines():  # pragma: no cover - platform guard
            pytest.skip("SIGALRM not available on this platform/thread")
        with pytest.raises(TaskTimeout, match="slow thing"):
            with deadline(0.05, label="slow thing"):
                time.sleep(2.0)

    def test_deadline_noop_when_fast_enough(self):
        with deadline(5.0, label="fast") as enforced:
            value = 42
        assert value == 42
        assert enforced == can_enforce_deadlines()

    def test_deadline_none_disables(self):
        with deadline(None, label="off") as enforced:
            assert enforced is False

    def test_deadline_nonpositive_disables(self):
        # the CLI rejects --timeout-s <= 0; the guard itself degrades to off
        with deadline(0.0, label="x") as enforced:
            assert enforced is False

    def test_deadline_off_main_thread_degrades_to_unenforced(self):
        seen = {}

        def body():
            with deadline(0.05, label="threaded") as enforced:
                seen["enforced"] = enforced
                time.sleep(0.15)
                seen["survived"] = True

        worker = threading.Thread(target=body)
        worker.start()
        worker.join()
        assert seen == {"enforced": False, "survived": True}

    def test_nested_deadlines_restore_outer_timer(self):
        if not can_enforce_deadlines():  # pragma: no cover - platform guard
            pytest.skip("SIGALRM not available on this platform/thread")
        with pytest.raises(TaskTimeout, match="outer"):
            with deadline(0.3, label="outer"):
                with deadline(5.0, label="inner"):
                    time.sleep(0.05)  # inner exits cleanly
                time.sleep(2.0)      # outer must still be armed


# ------------------------------------------------------- MPC message faults
def _ring_graph(n):
    g = Graph(n)
    for v in range(n):
        g.add_edge(v, (v + 1) % n)
    return g


#: every machine of two sends (machine_id, 7) to the other one
_MPC_PING = [([1], [0], [7]), ([0], [1], [7])]


class TestMPCFaults:
    def test_drop_removes_messages_and_counts(self):
        sim = MPCSimulator(num_machines=2, memory_per_machine=64,
                           fault_plan=FaultPlan(seed=1, drop_rate=1.0))
        inboxes = sim.round(_MPC_PING, "ping")
        assert sim.counters.get("mpc_faults_dropped") == 2.0
        assert all(not column for inbox in inboxes for column in inbox)
        # words are charged for what was delivered
        assert sim.counters.get("mpc_messages") == 0.0

    def test_duplicate_delivers_twice_same_round(self):
        sim = MPCSimulator(num_machines=2, memory_per_machine=64,
                           fault_plan=FaultPlan(seed=1, duplicate_rate=1.0))
        inboxes = sim.round(_MPC_PING, "ping")
        assert sim.counters.get("mpc_faults_duplicated") == 2.0
        assert [list(zip(*inbox)) for inbox in inboxes] == [
            [(1, 7), (1, 7)], [(0, 7), (0, 7)]]
        assert sim.counters.get("mpc_messages") == 4 * 3.0

    def test_reorder_is_deterministic(self):
        fan_out = [([1] * 6, list(range(6)))]

        def run():
            sim = MPCSimulator(num_machines=2, memory_per_machine=64,
                               fault_plan=FaultPlan(seed=9, reorder_rate=1.0))
            order = list(sim.round(fan_out, "fan")[1][0])
            count = sim.counters.get("mpc_faults_reordered")
            sim.close()
            return order, count

        first, count = run()
        again, _ = run()
        assert first == again
        assert count == 1.0
        assert first != list(range(6))  # actually permuted
        assert sorted(first) == list(range(6))  # nothing lost
        assert fan_out == [([1] * 6, list(range(6)))]  # sender untouched

    def test_faults_pick_column_positions_by_site(self):
        # the same (model, round, sender, dest, slot) sites decide a drop or
        # duplicate as for one message at a time, and the survivors keep
        # the sender's order
        plan = FaultPlan(seed=4, drop_rate=0.3, duplicate_rate=0.3)
        dest = [0, 1, 2, 1, 0, 2, 2, 1]
        sim = MPCSimulator(num_machines=3, fault_plan=plan)
        inboxes = sim.round([None, (dest, list(range(8)))], "t")
        expected = [[], [], []]
        for slot, target in enumerate(dest):
            action = plan.message_fault("mpc", 0, 1, target, slot)
            copies = {DROP: 0, DUPLICATE: 2}.get(action, 1)
            expected[target].extend([slot] * copies)
        assert [list(inbox[0]) for inbox in inboxes] == expected
        assert sim.counters.get("mpc_faults_dropped") == 1.0
        assert sim.counters.get("mpc_faults_duplicated") == 2.0
        assert sim.counters.get("mpc_messages") == 2 * (8 - 1 + 2)

    def test_no_plan_leaves_counters_untouched(self):
        sim = MPCSimulator(num_machines=2, memory_per_machine=64)
        sim.round(_MPC_PING, "ping")
        assert "mpc_faults_dropped" not in sim.counters.as_dict()

    def test_faults_coexist_with_isolation_guard(self):
        sim = MPCSimulator(num_machines=2, memory_per_machine=64,
                           isolation=True,
                           fault_plan=FaultPlan(seed=1, duplicate_rate=1.0))
        sim.round(_MPC_PING, "ping")
        sim.round(_MPC_PING, "ping")
        sim.close()  # guard.verify() must not trip over injected duplicates
        assert sim.counters.get("mpc_faults_duplicated") == 4.0


# --------------------------------------------------- CONGEST message faults
def _congest_broadcast(graph):
    def program(v, state, inbox):
        state.setdefault("inboxes", []).append(dict(inbox))
        return {nbr: (v,) for nbr in graph.neighbors(v)}

    return program


class TestCongestFaults:
    def test_drop_empties_inboxes_but_charges_messages(self):
        g = _ring_graph(4)
        sim = CongestSimulator(g, fault_plan=FaultPlan(seed=1, drop_rate=1.0))
        sim.round(_congest_broadcast(g))
        assert sim.counters.get("congest_faults_dropped") == 8.0
        assert all(not inbox for inbox in sim._inboxes)
        # the cost model still charges what the programs sent
        assert sim.counters.get("congest_messages") == 8.0
        sim.close()

    def test_duplicate_redelivers_stale_copy_next_round(self):
        g = _ring_graph(4)
        sim = CongestSimulator(g, fault_plan=FaultPlan(seed=1,
                                                       duplicate_rate=1.0))
        program = _congest_broadcast(g)
        sim.round(program)
        assert sim.counters.get("congest_faults_duplicated") == 8.0
        # copies are in flight, not yet visible
        assert all(len(inbox) == 2 for inbox in sim._inboxes)
        sim.round(program)
        assert sim.counters.get("congest_faults_redelivered") == 8.0
        # fresh same-sender messages overwrite every stale copy
        assert all(len(inbox) == 2 for inbox in sim._inboxes)
        sim.close()

    def test_final_round_duplicates_expire_at_close(self):
        g = _ring_graph(4)
        sim = CongestSimulator(g, fault_plan=FaultPlan(seed=1,
                                                       duplicate_rate=1.0))
        sim.round(_congest_broadcast(g))
        sim.close()
        assert sim.counters.get("congest_faults_expired") == 8.0
        assert not sim._delayed

    def test_stale_copy_loses_to_fresh_message(self):
        # vertex 0 sends round-stamped payloads; under duplication the copy
        # of round r must never shadow the round r+1 original
        g = _ring_graph(4)
        sim = CongestSimulator(g, fault_plan=FaultPlan(seed=3,
                                                       duplicate_rate=1.0))
        rounds = {"i": 0}

        def stamped(v, state, inbox):
            state["last_seen"] = dict(inbox)
            return {nbr: (v, rounds["i"]) for nbr in g.neighbors(v)}

        sim.round(stamped)
        rounds["i"] = 1
        sim.round(stamped)
        # after round 2 every inbox holds round-1 payloads, not stale round-0
        for inbox in sim._inboxes:
            assert {payload[1] for payload in inbox.values()} == {1}
        sim.close()

    def test_reorder_permutes_inbox_iteration_order(self):
        def run():
            g = _ring_graph(8)
            sim = CongestSimulator(g, fault_plan=FaultPlan(seed=5,
                                                           reorder_rate=1.0))
            sim.round(_congest_broadcast(g))
            orders = [list(inbox) for inbox in sim._inboxes]
            count = sim.counters.get("congest_faults_reordered")
            sim.close()
            return orders, count

        first, count = run()
        again, _ = run()
        assert first == again
        assert count > 0

    def test_faults_coexist_with_isolation_guard(self):
        g = _ring_graph(4)
        sim = CongestSimulator(g, isolation=True,
                               fault_plan=FaultPlan(seed=1,
                                                    duplicate_rate=1.0))
        program = _congest_broadcast(g)
        sim.round(program)
        sim.round(program)
        sim.close()  # sender-side digests must survive injected duplication
        assert sim.counters.get("congest_faults_duplicated") == 16.0

    def test_no_plan_keeps_historic_delivery(self):
        g = _ring_graph(4)
        sim = CongestSimulator(g)
        sim.round(_congest_broadcast(g))
        assert all(len(inbox) == 2 for inbox in sim._inboxes)
        assert "congest_faults_dropped" not in sim.counters.as_dict()
        sim.close()
