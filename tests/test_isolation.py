"""Tests for the simulator isolation sanitizer (``repro.exec.isolation``).

The sanitizer's contract: under ``isolation=True`` the simulators deliver
deep copies at the exchange barrier and checksum the sender-side originals,
so a program mutating a payload it already sent -- the exact bug class the
static ``send-aliasing`` rule hunts, invisible in every plain test -- raises
:class:`~repro.exec.isolation.IsolationViolation` at the next round or at
``close()``.  Also pinned: the flag's env default and counter parity with
isolation off (the sanitizer must observe, never perturb).
"""

import pytest

from repro.congest.simulator import CongestSimulator
from repro.exec import IsolationViolation
from repro.exec.isolation import IsolationGuard, isolation_default, payload_digest
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.mpc.simulator import MPCSimulator


def path_graph(n):
    g = Graph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


class TestGuard:
    def test_digest_is_content_based(self):
        payload = [1, 2]
        before = payload_digest(payload)
        assert payload_digest([1, 2]) == before
        payload.append(3)
        assert payload_digest(payload) != before

    def test_verify_clears_and_advances_rounds(self):
        guard = IsolationGuard("mpc")
        copies = guard.capture_messages(0, [(1, (1, 2))])
        assert copies == [(1, (1, 2))]
        guard.verify()
        assert guard.round_index == 1
        guard.verify()  # nothing retained: a no-op
        assert guard.round_index == 2

    def test_violation_names_sender_dest_and_round(self):
        guard = IsolationGuard("congest")
        payload = [5]
        guard.capture_outbox(3, {7: payload})
        payload[0] = -1
        with pytest.raises(IsolationViolation, match=r"sender 3 .* to 7 in "
                                                     r"round 0"):
            guard.verify()


class TestCongestIsolation:
    def _mutating_program(self, sent):
        """A vertex program with a seeded send-aliasing bug: vertex 0 sends
        a mutable list and rewrites it after the barrier."""
        def program(v, state, inbox):
            if v == 0 and not sent:
                payload = [1, 0]
                sent.append(payload)
                return {1: payload}
            return {}
        return program

    def test_mutation_after_send_raises_next_round(self):
        sim = CongestSimulator(path_graph(3), isolation=True)
        sent = []
        sim.round(self._mutating_program(sent))
        sent[0][1] = 99
        with pytest.raises(IsolationViolation, match="mutated a payload"):
            sim.round(self._mutating_program(sent))

    def test_mutation_after_final_round_raises_at_close(self):
        sim = CongestSimulator(path_graph(3), isolation=True)
        sent = []
        sim.round(self._mutating_program(sent))
        sent[0][1] = 99
        with pytest.raises(IsolationViolation):
            sim.close()

    def test_receiver_gets_a_copy_not_the_original(self):
        sim = CongestSimulator(path_graph(2), isolation=True)
        sent = []
        sim.round(self._mutating_program(sent))
        delivered = sim._inboxes[1][0]
        assert delivered == [1, 0] and delivered is not sent[0]

    def test_off_by_default_and_shares_objects(self):
        sim = CongestSimulator(path_graph(2))
        assert sim._guard is None
        sent = []
        sim.round(self._mutating_program(sent))
        # serial exchange without isolation shares the object -- the very
        # behaviour the sanitizer exists to make visible
        assert sim._inboxes[1][0] is sent[0]
        sent[0][1] = 99
        sim.round(self._mutating_program(sent))  # silently tolerated
        sim.close()

    def test_counters_identical_with_and_without_isolation(self):
        def program(v, state, inbox):
            state["seen"] = state.get("seen", 0) + len(inbox)
            return {w: (v, state["seen"]) for w in (v - 1, v + 1)
                    if 0 <= w < 5}

        results = {}
        for flag in (False, True):
            counters = Counters()
            sim = CongestSimulator(path_graph(5), counters=counters,
                                   isolation=flag)
            for _ in range(3):
                sim.round(program)
            sim.close()
            results[flag] = (counters.as_dict(),
                             [dict(s) for s in sim.state])
        assert results[False] == results[True]


class TestMPCIsolation:
    def _mutating_program(self, sent):
        def program(machine_id, items):
            if machine_id == 0 and not sent:
                payload = [7]
                sent.append(payload)
                return [(1, payload)]
            return []
        return program

    def test_mutation_after_send_raises(self):
        sim = MPCSimulator(2, isolation=True)
        sim.scatter([1, 2])
        sent = []
        sim.round(self._mutating_program(sent))
        sent[0].append(8)
        with pytest.raises(IsolationViolation, match="mpc isolation"):
            sim.round(self._mutating_program(sent))

    def test_receiver_storage_holds_a_copy(self):
        sim = MPCSimulator(2, isolation=True)
        sim.scatter([])
        sent = []
        sim.round(self._mutating_program(sent))
        delivered = sim.storage[1][-1]
        assert delivered == [7] and delivered is not sent[0]
        sim.close()

    def test_counters_identical_with_and_without_isolation(self):
        def shuffle(machine_id, items):
            return [((machine_id + 1) % 3, ("tok", machine_id, item))
                    for item in items]

        results = {}
        for flag in (False, True):
            counters = Counters()
            sim = MPCSimulator(3, counters=counters, isolation=flag)
            sim.scatter(list(range(6)))
            for _ in range(2):
                sim.round(shuffle)
            sim.close()
            results[flag] = (counters.as_dict(),
                             [list(s) for s in sim.storage])
        assert results[False] == results[True]


class TestEnvDefault:
    def test_env_flag_enables_isolation(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_ISOLATION", "1")
        assert isolation_default() is True
        assert CongestSimulator(path_graph(2))._guard is not None
        assert MPCSimulator(1)._guard is not None

    def test_env_zero_and_unset_mean_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_ISOLATION", "0")
        assert isolation_default() is False
        assert CongestSimulator(path_graph(2))._guard is None
        monkeypatch.delenv("REPRO_EXEC_ISOLATION")
        assert isolation_default() is False

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_ISOLATION", "1")
        assert CongestSimulator(path_graph(2), isolation=False)._guard is None
