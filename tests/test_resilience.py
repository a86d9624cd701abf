"""Tests for the fault-injection layer (``repro.resilience``).

Covers the deterministic :class:`FaultPlan` (site independence, hash-seed
independence, picklability, the per-site crash bound) and message faults at
both simulator exchange barriers, which pick column positions of the
barrier's copies at the same sites.
"""

import pickle

import pytest

from repro.congest.simulator import CongestSimulator
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.mpc.simulator import MPCSimulator
from repro.resilience import FaultPlan
from repro.resilience.faults import DELIVER, DROP, DUPLICATE


# ------------------------------------------------------------------ FaultPlan
class TestFaultPlan:
    def test_decisions_are_deterministic_across_instances(self):
        a = FaultPlan(seed=7, update_crash_rate=0.5, drop_rate=0.3,
                      duplicate_rate=0.3, reorder_rate=0.5)
        b = FaultPlan(seed=7, update_crash_rate=0.5, drop_rate=0.3,
                      duplicate_rate=0.3, reorder_rate=0.5)
        for index in range(3):
            for attempt in range(3):
                assert a.crashes_update(index, attempt) == \
                    b.crashes_update(index, attempt)
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
        plan = FaultPlan(seed=3, update_crash_rate=0.5, drop_rate=0.5)
        before = (plan.crashes_update(7, 0),
                  plan.message_fault("mpc", 1, 2, 3, 0))
        for i in range(50):
            plan.crashes_update(100 + i, 0)
            plan.message_fault("mpc", 1, 2, 3, 1 + i)
        assert (plan.crashes_update(7, 0),
                plan.message_fault("mpc", 1, 2, 3, 0)) == before

    def test_crash_bound_guarantees_progress(self):
        plan = FaultPlan(seed=0, update_crash_rate=1.0,
                         max_crashes_per_site=3)
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
            FaultPlan(update_crash_rate=1.5)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=0.6, duplicate_rate=0.6)
        with pytest.raises(ValueError, match="max_crashes_per_site"):
            FaultPlan(max_crashes_per_site=-1)

    def test_plan_is_frozen_and_picklable(self):
        plan = FaultPlan(seed=5, update_crash_rate=0.25, drop_rate=0.25,
                         crash_updates=(1, 2))
        with pytest.raises(dataclasses_error()):
            plan.seed = 6
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert [clone.crashes_update(i, 0) for i in range(8)] == \
            [plan.crashes_update(i, 0) for i in range(8)]
        assert clone.message_fault("congest", 0, 1, 2, 0) == \
            plan.message_fault("congest", 0, 1, 2, 0)


def dataclasses_error():
    import dataclasses

    return dataclasses.FrozenInstanceError


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
            return order, sim.counters.get("mpc_faults_reordered")

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


# --------------------------------------------------- CONGEST message faults
def _congest_broadcast(graph, stamp=0):
    """Every vertex sends ``(v, stamp)`` to each neighbour."""
    outboxes = []
    for v in range(graph.n):
        dest = sorted(graph.neighbors(v))
        outboxes.append((dest, [v] * len(dest), [stamp] * len(dest)))
    return outboxes


class TestCongestFaults:
    def test_drop_empties_inboxes_but_charges_messages(self):
        g = _ring_graph(4)
        sim = CongestSimulator(g, fault_plan=FaultPlan(seed=1, drop_rate=1.0))
        inboxes = sim.round(_congest_broadcast(g), "b")
        assert sim.counters.get("congest_faults_dropped") == 8.0
        assert all(not column for inbox in inboxes for column in inbox)
        # the cost model still charges what the vertices sent
        assert sim.counters.get("congest_messages") == 8.0

    def test_duplicate_delivers_twice_same_round(self):
        g = _ring_graph(4)
        sim = CongestSimulator(g, fault_plan=FaultPlan(seed=1,
                                                       duplicate_rate=1.0))
        inboxes = sim.round(_congest_broadcast(g), "b")
        assert sim.counters.get("congest_faults_duplicated") == 8.0
        # each copy lands next to its original, in sender order
        assert [list(inbox[0]) for inbox in inboxes] == [
            [1, 1, 3, 3], [0, 0, 2, 2], [1, 1, 3, 3], [0, 0, 2, 2]]
        assert sim.counters.get("congest_messages") == 8.0

    def test_stale_copy_loses_to_fresh_message(self):
        # every vertex sends round-stamped payloads; under duplication no
        # copy of round r may surface in round r+1's inboxes
        g = _ring_graph(4)
        sim = CongestSimulator(g, fault_plan=FaultPlan(seed=3,
                                                       duplicate_rate=1.0))
        sim.round(_congest_broadcast(g, stamp=0), "b")
        inboxes = sim.round(_congest_broadcast(g, stamp=1), "b")
        for inbox in inboxes:
            assert set(inbox[2]) == {1}

    def test_faults_pick_column_positions_by_site(self):
        # the (model, round, sender, dest, slot) sites decide a drop or
        # duplicate per column position, and the survivors reach their
        # receivers in sender order
        plan = FaultPlan(seed=14, drop_rate=0.3, duplicate_rate=0.3)
        g = Graph(5)
        g.add_edges((u, v) for u in range(5) for v in range(u + 1, 5))
        outboxes = [None] * 5
        outboxes[1] = ([0, 2, 3, 4], [10, 12, 13, 14])
        outboxes[3] = ([4, 1, 0], [34, 31, 30])
        sim = CongestSimulator(g, fault_plan=plan)
        inboxes = sim.round(outboxes, "t")
        expected = [[] for _ in range(5)]
        dropped = duplicated = 0
        for sender in (1, 3):
            dest, field = outboxes[sender]
            for slot, target in enumerate(dest):
                action = plan.message_fault("congest", 0, sender, target,
                                            slot)
                copies = {DROP: 0, DUPLICATE: 2}.get(action, 1)
                dropped += copies == 0
                duplicated += copies == 2
                expected[target].extend([(sender, field[slot])] * copies)
        assert [list(zip(*inbox)) for inbox in inboxes] == expected
        assert (dropped, duplicated) == (2, 1)
        assert sim.counters.get("congest_faults_dropped") == dropped
        assert sim.counters.get("congest_faults_duplicated") == duplicated
        assert sim.counters.get("congest_messages") == 7.0

    def test_reorder_permutes_inbox_iteration_order(self):
        def run():
            g = Graph(6)
            g.add_edges((0, v) for v in range(1, 6))
            sim = CongestSimulator(g, fault_plan=FaultPlan(seed=5,
                                                           reorder_rate=1.0))
            outboxes = [None] + [([0], [v]) for v in range(1, 6)]
            inbox = sim.round(outboxes, "fan")[0]
            return ([list(column) for column in inbox],
                    sim.counters.get("congest_faults_reordered"))

        first, count = run()
        again, _ = run()
        assert first == again
        assert count == 1.0  # only vertex 0 receives more than one message
        senders, fields = first
        assert senders != [1, 2, 3, 4, 5]  # actually permuted
        assert sorted(senders) == [1, 2, 3, 4, 5]  # nothing lost
        assert senders == fields  # columns permuted together

    def test_no_plan_keeps_historic_delivery(self):
        g = _ring_graph(4)
        sim = CongestSimulator(g)
        inboxes = sim.round(_congest_broadcast(g), "b")
        assert [list(zip(*inbox)) for inbox in inboxes] == [
            [(1, 1, 0), (3, 3, 0)], [(0, 0, 0), (2, 2, 0)],
            [(1, 1, 0), (3, 3, 0)], [(0, 0, 0), (2, 2, 0)]]
        assert "congest_faults_dropped" not in sim.counters.as_dict()
