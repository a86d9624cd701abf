"""Tests for the MPC substrate and the Corollary A.1 instantiation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import payload_words
from repro.graph.generators import erdos_renyi, path_graph
from repro.matching.blossom import maximum_matching_size
from repro.matching.matching import Matching
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
from repro.mpc.simulator import MPCSimulator, MemoryExceeded
from repro.mpc.matching_mpc import MPCMatchingOracle, mpc_approx_matching
from repro.mpc.boost_mpc import mpc_boosted_matching

from conftest import random_graphs


def _inbox_messages(inbox):
    """An inbox's columns as a list of per-message field tuples."""
    return list(zip(*inbox))


class TestSimulator:
    def test_scatter_round_robin(self):
        sim = MPCSimulator(3, memory_per_machine=10)
        sim.scatter(list(range(7)))
        sizes = [len(s) for s in sim.storage]
        assert sum(sizes) == 7 and max(sizes) - min(sizes) <= 1
        assert sim.storage[0] == [0, 3, 6]

    def test_round_delivers_messages_and_counts_words(self):
        counters = Counters()
        sim = MPCSimulator(2, counters=counters)
        sim.scatter([1, 2, 3])
        # each machine sends ("payload", machine_id) to the other one
        inboxes = sim.round([([1], [0]), ([0], [1])], "payload")
        assert counters.get("mpc_rounds") == 1
        # the budget S and mpc_messages are in *words*: the tag plus one
        # int field is 2 words, not 1 message-word
        assert counters.get("mpc_messages") == 4
        assert [_inbox_messages(inbox) for inbox in inboxes] == [[(1,)], [(0,)]]
        # inboxes are returned, never appended to machine storage
        assert sim.storage == [[1, 3], [2]]

    def test_round_charges_payload_words_not_message_count(self):
        counters = Counters()
        sim = MPCSimulator(2, counters=counters)
        # two messages of five int fields under a 1-word tag: 12 words
        sim.round([([1, 1], [1, 6], [2, 7], [3, 8], [4, 9], [5, 10])], "t")
        assert counters.get("mpc_messages") == 12
        # the tag is sized like any payload: 9 ASCII bytes are 2 words
        sim.round([([1], [1])], "candidate")
        assert counters.get("mpc_messages") == 12 + 3
        assert payload_words("candidate") == 2

    def test_candidate_message_is_four_words(self):
        # ("cand", x, (u, v)) as one bulk message costs what the object
        # payload did
        counters = Counters()
        sim = MPCSimulator(1, counters=counters)
        sim.round([([0], [5], [5], [9])], "cand")
        assert counters.get("mpc_messages") == payload_words(("cand", 5, (5, 9)))
        assert counters.get("mpc_messages") == 4

    def test_send_side_budget_checked_in_words(self):
        # one 5-word message (tag + 4 fields) must trip a 4-word budget
        # even though it is a single message
        sim = MPCSimulator(2, memory_per_machine=4, strict=True)
        with pytest.raises(MemoryExceeded, match="machine 0"):
            sim.round([([1], [1], [2], [3], [4])], "t")

    def test_send_side_budget_soft(self):
        # soft mode counts the violation and still delivers
        counters = Counters()
        sim = MPCSimulator(2, memory_per_machine=4, strict=False,
                           counters=counters)
        inboxes = sim.round([([1], [1], [2], [3], [4])], "t")
        # 5 words sent, received, and then held beside an empty storage
        assert counters.get("mpc_memory_violations") == 3
        assert _inbox_messages(inboxes[1]) == [(1, 2, 3, 4)]

    def test_receive_side_budget_checked_in_words(self):
        # both machines send 3 words to machine 0: each send fits the budget
        # of 4, the combined receive volume of 6 does not
        counters = Counters()
        sim = MPCSimulator(2, memory_per_machine=4, strict=False,
                           counters=counters)
        sim.round([([0], [0], [1]), ([0], [1], [1])], "t")
        assert counters.get("mpc_memory_violations") >= 1

    def test_receive_side_budget_strict(self):
        sim = MPCSimulator(2, memory_per_machine=4, strict=True)
        with pytest.raises(MemoryExceeded, match="machine 0 handled 6"):
            sim.round([([0], [0], [1]), ([0], [1], [1])], "t")

    def test_storage_memory_checked_in_words(self):
        # a machine holds its storage and its inbox: 4 inbox words fit a
        # budget of 4 on an empty machine, but not beside a stored word
        counters = Counters()
        sim = MPCSimulator(2, memory_per_machine=4, strict=False,
                           counters=counters)
        outboxes = [None, ([0], [1], [2], [3])]
        sim.round(outboxes, "t")
        assert counters.get("mpc_memory_violations") == 0
        sim.scatter([7])
        sim.round(outboxes, "t")
        assert counters.get("mpc_memory_violations") == 1
        # storage items are sized in words, not counted
        sim.scatter([(1, 2, 3, 4, 5)])
        sim.round([], "t")
        assert counters.get("mpc_memory_violations") == 3

    def test_storage_budget_strict(self):
        sim = MPCSimulator(2, memory_per_machine=4, strict=True)
        sim.scatter([7])
        with pytest.raises(MemoryExceeded, match="machine 0 handled 5"):
            sim.round([None, ([0], [1], [2], [3])], "t")

    def test_missing_outboxes_are_empty(self):
        counters = Counters()
        sim = MPCSimulator(3, counters=counters)
        inboxes = sim.round([None, ([2], [4], [5])], "t")
        assert [_inbox_messages(inbox) for inbox in inboxes] == [[], [], [(4, 5)]]
        assert all(len(inbox) == 2 for inbox in inboxes)
        assert counters.get("mpc_messages") == 3
        assert sim.round([], "t") == [(), (), ()]
        assert counters.get("mpc_rounds") == 2

    def test_delivery_is_sender_order_then_message_order(self):
        sim = MPCSimulator(3)
        inboxes = sim.round([([2, 0, 2, 1, 2], [0, 1, 2, 3, 4]),
                             None,
                             ([2, 2, 0], [20, 21, 22])], "t")
        assert [list(inbox[0]) for inbox in inboxes] == [
            [1, 22], [3], [0, 2, 4, 20, 21]]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_routing_matches_per_message_delivery(self, data):
        machines = data.draw(st.integers(1, 6))
        width = data.draw(st.integers(1, 3))
        outboxes = []
        for _sender in range(data.draw(st.integers(0, machines))):
            count = data.draw(st.integers(0, 12))
            dest = data.draw(st.lists(st.integers(0, machines - 1),
                                      min_size=count, max_size=count))
            fields = [data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                         min_size=count, max_size=count))
                      for _ in range(width)]
            columns = (dest, *fields)
            if not count and data.draw(st.booleans()):
                columns = None  # a missing outbox
            outboxes.append(columns)
        expected = [[] for _ in range(machines)]
        for columns in outboxes:
            if columns:
                for k, target in enumerate(columns[0]):
                    expected[target].append(tuple(c[k] for c in columns[1:]))
        counters = Counters()
        inboxes = MPCSimulator(machines, counters=counters).round(outboxes, "t")
        assert [_inbox_messages(inbox) for inbox in inboxes] == expected
        delivered = sum(map(len, expected))
        assert counters.get("mpc_messages") == delivered * (1 + width)

    def test_rejects_ragged_columns(self):
        sim = MPCSimulator(2)
        with pytest.raises(ValueError, match="machine 1 sent ragged"):
            sim.round([([0], [1]), ([0, 1], [1])], "t")

    def test_rejects_dest_outside_machines(self):
        sim = MPCSimulator(2)
        with pytest.raises(ValueError, match="machine 0 sent to a machine"):
            sim.round([([0, 2], [1, 1])], "t")
        with pytest.raises(ValueError, match="machine 1 sent to a machine"):
            sim.round([None, ([-1], [1])], "t")
        assert sim.counters.get("mpc_rounds") == 0

    def test_rejects_non_int_fields(self):
        sim = MPCSimulator(2)
        with pytest.raises(TypeError, match="machine 1 sent a field"):
            sim.round([([0], [1]), ([0], [1.5])], "t")
        with pytest.raises(TypeError, match="machine 0 sent a field"):
            sim.round([([0], [(1, 2)])], "t")
        with pytest.raises(TypeError, match="machine 0 sent a field"):
            sim.round([([0], [2 ** 64])], "t")

    def test_rejects_width_mismatch_and_extra_outboxes(self):
        sim = MPCSimulator(2)
        with pytest.raises(ValueError, match="machine 1 sent 2 fields"):
            sim.round([([0], [1]), ([0], [1], [2])], "t")
        with pytest.raises(ValueError, match="machine 0 sent no field"):
            sim.round([([1],)], "t")
        with pytest.raises(ValueError, match="3 outboxes for 2 machines"):
            sim.round([None, None, None], "t")

    def test_memory_budget_enforced(self):
        sim = MPCSimulator(2, memory_per_machine=2, strict=True)
        with pytest.raises(MemoryExceeded):
            sim.scatter(list(range(10)))

    def test_memory_budget_soft_mode(self):
        counters = Counters()
        sim = MPCSimulator(2, memory_per_machine=2, strict=False, counters=counters)
        sim.scatter(list(range(10)))
        assert counters.get("mpc_memory_violations") >= 1

    def test_default_machine_count(self):
        assert MPCSimulator.default_machine_count(100, 400, 100) == 5


def _object_round_matching(graph, num_machines, seed):
    """The proposal algorithm on the object-message round it used to run
    on, kept as a stream reference for the bulk round.

    Every machine's program returns ``(dest, ("cand", x, (u, v)))``
    messages; the barrier sizes each payload with ``payload_words`` and
    appends it to the destination's storage, and the gather filters the
    candidates back out of storage in machine order.  Returns the matching
    and the ``(mpc_rounds, mpc_messages)`` it charged.
    """
    rng = random.Random(seed)
    edges = graph.edge_list()
    storage = [[] for _ in range(num_machines)]
    for i, edge in enumerate(edges):
        storage[i % num_machines].append(edge)
    rounds = words = 0
    matched, matching = set(), []
    for _rep in range(4 * max(1, graph.n).bit_length() + 8):
        outboxes = []
        for machine_id in range(num_machines):
            local_best = {}
            for u, v in storage[machine_id]:
                if u in matched or v in matched:
                    continue
                for x in (u, v):
                    if x not in local_best or rng.random() < 0.5:
                        local_best[x] = (u, v)
            outboxes.append([(x % num_machines, ("cand", x, e))
                             for x, e in local_best.items()])
        for messages in outboxes:
            for dest, payload in messages:
                words += payload_words(payload, default=1)
                storage[dest].append(payload)
        rounds += 1
        proposals = {}
        for machine_id in range(num_machines):
            keep = []
            for item in storage[machine_id]:
                if isinstance(item, tuple) and len(item) == 3 and item[0] == "cand":
                    _tag, x, e = item
                    if x not in proposals or rng.random() < 0.5:
                        proposals[x] = e
                else:
                    keep.append(item)
            storage[machine_id] = keep
        taken, new_edges = set(), []
        for x in sorted(proposals):
            u, v = proposals[x]
            if u in matched or v in matched or u in taken or v in taken:
                continue
            taken.update((u, v))
            new_edges.append((u, v) if u < v else (v, u))
        rounds += 1
        for u, v in new_edges:
            matched.update((u, v))
            matching.append((u, v))
        if not any(u not in matched and v not in matched for u, v in edges):
            break
    return matching, (rounds, words)


class TestMPCMatching:
    def test_maximal_and_valid(self):
        for seed in range(3):
            g = erdos_renyi(40, 0.1, seed=seed)
            sim = MPCSimulator(4, counters=Counters())
            edges = mpc_approx_matching(g.n, g.edge_list(), sim, seed=seed)
            m = Matching(g.n, edges)
            m.validate(g)
            # 2-approximation (maximality may be probabilistic, approximation must hold)
            assert 2 * m.size >= maximum_matching_size(g)

    @settings(max_examples=150, deadline=None)
    @given(random_graphs(), st.integers(1, 7), st.integers(0, 2 ** 31 - 1))
    def test_stream_matches_object_round(self, graph, machines, seed):
        # the same draws in the same order: equal matchings (order
        # included) and equal round and word charges, on any machine count
        counters = Counters()
        edges = mpc_approx_matching(graph.n, graph.edge_list(),
                                    MPCSimulator(machines, counters=counters),
                                    seed=seed)
        expected, (rounds, words) = _object_round_matching(graph, machines,
                                                           seed)
        assert edges == expected
        assert counters.get("mpc_rounds") == rounds
        assert counters.get("mpc_messages") == words

    def test_rounds_counted(self):
        g = erdos_renyi(40, 0.1, seed=3)
        counters = Counters()
        sim = MPCSimulator(4, counters=counters)
        mpc_approx_matching(g.n, g.edge_list(), sim, seed=3)
        assert counters.get("mpc_rounds") >= 2

    def test_oracle_interface(self):
        counters = Counters()
        oracle = MPCMatchingOracle(counters=counters, seed=0)
        g = path_graph(8)
        edges = oracle.find_matching(g.n, g.edge_list())
        m = Matching(g.n, edges)
        m.validate(g)
        assert 2 * m.size >= maximum_matching_size(g)
        assert counters.get("mpc_rounds") > 0


class TestBoostedMPC:
    def test_corollary_a1_quality_and_accounting(self):
        g = erdos_renyi(40, 0.1, seed=4)
        m, counters = mpc_boosted_matching(g, 0.25, seed=4)
        m.validate(g)
        ok, ratio = certify_approximation(g, m, 0.25)
        assert ok, ratio
        assert counters.get("oracle_calls") > 0
        assert counters.get("mpc_total_rounds") >= counters.get("mpc_rounds")
        assert counters.get("mpc_cleanup_rounds") > 0
