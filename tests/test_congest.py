"""Tests for the CONGEST substrate and the Corollary A.2 instantiation."""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import erdos_renyi, path_graph, cycle_graph
from repro.matching.blossom import maximum_matching_size
from repro.matching.matching import Matching
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
from repro.congest.simulator import CongestSimulator, MessageTooLarge
from repro.congest.matching_congest import CongestMatchingOracle, congest_approx_matching
from repro.congest.boost_congest import congest_boosted_matching

from conftest import random_graphs


def _inbox_messages(inbox):
    """An inbox's columns as a list of ``(sender, *fields)`` tuples."""
    return list(zip(*inbox))


class TestSimulator:
    def test_messages_only_along_edges(self):
        g = path_graph(3)
        sim = CongestSimulator(g)
        with pytest.raises(ValueError, match="vertex 0 tried to message "
                                             "non-neighbor 2"):
            sim.round([([2],)], "hi")
        assert sim.counters.get("congest_rounds") == 0

    def test_message_size_limit(self):
        g = path_graph(2)
        sim = CongestSimulator(g, strict=True)
        # a 1-word tag plus 4 fields is 5 words, over the 4-word limit
        with pytest.raises(MessageTooLarge, match="5 words"):
            sim.round([([1], [1], [2], [3], [4])], "t")
        # the tag is sized too: 9 ASCII bytes are 2 words
        with pytest.raises(MessageTooLarge, match="5 words"):
            sim.round([([1], [1], [2], [3])], "candidate")
        sim.round([([1], [1], [2], [3])], "t")

    def test_round_delivery_and_counting(self):
        g = path_graph(2)
        counters = Counters()
        sim = CongestSimulator(g, counters=counters)
        inboxes = sim.round([([1], [0]), ([0], [1])], "ping")
        assert counters.get("congest_rounds") == 1
        assert counters.get("congest_messages") == 2
        # the sender column comes first, then the fields
        assert [_inbox_messages(inbox) for inbox in inboxes] == [
            [(1, 1)], [(0, 0)]]
        # a round nobody sends in still counts, and every inbox is empty
        assert sim.round([], "ping") == [(array("q"),), (array("q"),)]
        assert counters.get("congest_rounds") == 2

    def test_delivery_is_sender_order(self):
        g = erdos_renyi(8, 1.0, seed=0)
        sim = CongestSimulator(g)
        # vertices 2, 5 and 7 each message 3, at different positions of
        # their outboxes: the inbox lists them by sender
        outboxes = [None] * 8
        outboxes[5] = ([3, 0], [50, 51])
        outboxes[2] = ([3], [20])
        outboxes[7] = ([1, 3], [70, 71])
        inboxes = sim.round(outboxes, "t")
        assert _inbox_messages(inboxes[3]) == [(2, 20), (5, 50), (7, 71)]
        assert _inbox_messages(inboxes[0]) == [(5, 51)]

    def test_rejects_a_second_message_on_one_edge(self):
        g = path_graph(3)
        sim = CongestSimulator(g)
        with pytest.raises(ValueError, match="vertex 1 sent a second "
                                             "message to 0"):
            sim.round([None, ([0, 2, 0], [1, 2, 3])], "t")
        # the edge of the offending message is checked first
        with pytest.raises(ValueError, match="non-neighbor"):
            sim.round([([1, 2, 1],)], "t")
        assert sim.counters.get("congest_rounds") == 0

    def test_component_aggregation_charge(self):
        g = path_graph(4)
        counters = Counters()
        sim = CongestSimulator(g, counters=counters)
        sim.charge_component_aggregation(5)
        assert counters.get("congest_rounds") == 10


def _object_round_matching(graph, seed):
    """The proposal algorithm on the object-message round it used to run
    on, kept as a stream reference for the bulk round.

    Every vertex program returns ``{neighbour: message}``; a round runs
    the programs in vertex order, delivers each message into the
    receiver's ``{sender: message}`` inbox and counts one message per
    outbox entry.  The resolve step pops the per-vertex ``state`` dicts.
    Returns the matching and the ``(congest_rounds, congest_messages)`` it
    charged.
    """
    rng = random.Random(seed)
    n = graph.n
    matched = {v: None for v in range(n)}
    state = [dict() for _ in range(n)]
    inboxes = [dict() for _ in range(n)]
    charged = [0, 0]

    def run_round(program):
        nonlocal inboxes
        delivered = [dict() for _ in range(n)]
        for v in range(n):
            out = program(v, state[v], inboxes[v])
            for dest, message in out.items():
                assert graph.has_edge(v, dest)
                delivered[dest][v] = message
            charged[1] += len(out)
        inboxes = delivered
        charged[0] += 1

    def propose(v, st, inbox):
        if matched[v] is not None:
            return {}
        candidates = [w for w in graph.neighbors(v) if matched[w] is None]
        if not candidates:
            return {}
        target = rng.choice(candidates)
        st["proposed_to"] = target
        return {target: ("propose",)}

    def accept(v, st, inbox):
        if matched[v] is not None:
            return {}
        proposers = [sender for sender, msg in inbox.items()
                     if msg[0] == "propose"]
        if not proposers:
            return {}
        chosen = min(proposers)
        st["accepted"] = chosen
        return {chosen: ("accept",)}

    def announce(v, st, inbox):
        if matched[v] is None:
            return {}
        return {w: ("matched",) for w in graph.neighbors(v)}

    for _it in range(4 * max(1, n).bit_length() + 8):
        run_round(propose)
        run_round(accept)
        for v in range(n):
            accepted_from = state[v].pop("accepted", None)
            if accepted_from is None:
                state[v].pop("proposed_to", None)
                continue
            u = accepted_from
            if matched[u] is None and matched[v] is None:
                if state[u].pop("proposed_to", None) == v:
                    matched[u] = v
                    matched[v] = u
            state[v].pop("proposed_to", None)
        run_round(announce)
        if not any(matched[u] is None and matched[v] is None
                   for u, v in graph.edges()):
            break
    matching = [(u, matched[u]) for u in range(n)
                if matched[u] is not None and u < matched[u]]
    return matching, tuple(charged)


class TestCongestMatching:
    def test_two_approximation(self):
        for seed in range(3):
            g = erdos_renyi(40, 0.1, seed=seed)
            sim = CongestSimulator(g, counters=Counters())
            edges = congest_approx_matching(g, sim, seed=seed)
            m = Matching(g.n, edges)
            m.validate(g)
            assert 2 * m.size >= maximum_matching_size(g)

    def test_odd_cycle(self):
        g = cycle_graph(7)
        sim = CongestSimulator(g)
        edges = congest_approx_matching(g, sim, seed=1)
        m = Matching(g.n, edges)
        m.validate(g)
        assert 2 * m.size >= 3

    @settings(max_examples=150, deadline=None)
    @given(random_graphs(), st.integers(0, 2 ** 31 - 1))
    def test_stream_matches_object_round(self, graph, seed):
        # the same draws in the same order: equal matchings (order
        # included) and equal round and message charges
        counters = Counters()
        edges = congest_approx_matching(
            graph, CongestSimulator(graph, counters=counters), seed=seed)
        expected, (rounds, messages) = _object_round_matching(graph, seed)
        assert edges == expected
        assert counters.get("congest_rounds") == rounds
        assert counters.get("congest_messages") == messages

    def test_oracle_counts_rounds(self):
        counters = Counters()
        oracle = CongestMatchingOracle(counters=counters, seed=2)
        g = erdos_renyi(30, 0.15, seed=2)
        edges = oracle.find_matching(g.n, g.edge_list())
        Matching(g.n, edges).validate(g)
        assert counters.get("congest_rounds") > 0


class TestBoostedCongest:
    def test_corollary_a2_quality_and_accounting(self):
        g = erdos_renyi(40, 0.1, seed=5)
        m, counters = congest_boosted_matching(g, 0.25, seed=5)
        m.validate(g)
        ok, ratio = certify_approximation(g, m, 0.25)
        assert ok, ratio
        assert counters.get("oracle_calls") > 0
        # aggregation rounds reflect the extra poly(1/eps) CONGEST factor
        assert counters.get("congest_aggregation_rounds") > 0
        assert counters.get("congest_rounds") >= counters.get("congest_aggregation_rounds")
