"""Tests for the simulator isolation sanitizer (``repro.exec.isolation``).

The sanitizer's contract: under ``isolation=True`` the simulators deliver
copies at the exchange barrier (deep copies for CONGEST payloads; the MPC
bulk round always delivers its own int-column copies) and checksum the
sender-side originals, so a program mutating a payload it already sent --
the exact bug class the static ``send-aliasing`` rule hunts, invisible in
every plain test -- raises :class:`~repro.exec.isolation.IsolationViolation`
at the next round or at ``close()``.  Also pinned: the flag's env default
and counter parity with isolation off (the sanitizer must observe, never
perturb).
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

    def test_verify_clears_retained_payloads(self):
        guard = IsolationGuard("mpc")
        columns = ([1], [1], [2])
        guard.capture_columns(0, columns, [list(c) for c in columns], 0)
        guard.verify()
        columns[1][0] = 9  # no longer retained: not a violation
        guard.verify()  # nothing retained: a no-op

    def test_violation_names_sender_dest_and_round(self):
        guard = IsolationGuard("congest")
        payload = [5]
        # the round is the caller's (the simulator's) round number
        guard.capture_outbox(3, {7: payload}, 4)
        payload[0] = -1
        with pytest.raises(IsolationViolation, match=r"sender 3 .* to 7 in "
                                                     r"round 4"):
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

    def test_violation_names_the_simulator_round(self):
        # rounds are numbered from 0, as the simulator's FaultPlan sites
        # number them: the send happens in the second round, round 1
        sim = CongestSimulator(path_graph(3), isolation=True)
        sim.round(lambda v, state, inbox: {})
        sent = []
        sim.round(self._mutating_program(sent))
        sent[0][1] = 99
        with pytest.raises(IsolationViolation,
                           match=r"sender 0 .* to 1 in round 1 "):
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
    @staticmethod
    def _send(sim):
        """Machine 0 sends (1, 2) to machine 1 and (3, 4) to machine 0 as
        mutable lists it keeps."""
        columns = ([1, 0], [1, 3], [2, 4])
        sim.round([columns], "t")
        return columns

    def test_mutation_after_send_raises(self):
        sim = MPCSimulator(2, isolation=True)
        sim.scatter([1, 2])
        columns = self._send(sim)
        columns[2][0] = 8
        with pytest.raises(IsolationViolation,
                           match=r"mpc isolation sanitizer: sender 0 .* "
                                 r"to 1 in round 0 "):
            sim.round([], "t")

    def test_violation_names_the_changed_message(self):
        sim = MPCSimulator(2, isolation=True)
        self._send(sim)
        columns = self._send(sim)
        columns[1][1] = 30
        # rounds are numbered from 0, as the simulator's FaultPlan sites
        # number them: the second round is round 1
        with pytest.raises(IsolationViolation,
                           match=r"sender 0 .* to 0 in round 1 "):
            sim.close()

    def test_mutation_after_final_round_raises_at_close(self):
        sim = MPCSimulator(2, isolation=True)
        columns = self._send(sim)
        columns[0].append(1)  # a sent column grew
        with pytest.raises(IsolationViolation, match="sender 0"):
            sim.close()

    def test_receiver_inbox_holds_a_copy(self):
        for flag in (False, True):
            sim = MPCSimulator(2, isolation=flag)
            columns = ([1], [7])
            inboxes = sim.round([columns], "t")
            delivered = inboxes[1][0]
            assert list(delivered) == [7] and delivered is not columns[1]
            # without isolation a late mutation goes unnoticed, but it can
            # no longer rewrite what the receiver holds
            if not flag:
                columns[1][0] = 8
                assert list(delivered) == [7]
            sim.close()

    def test_counters_identical_with_and_without_isolation(self):
        def shuffle(items):
            # machine i forwards every item it holds to machine i + 1
            return [([(machine_id + 1) % 3] * len(held),
                     [machine_id] * len(held), list(held))
                    for machine_id, held in enumerate(items)]

        results = {}
        for flag in (False, True):
            counters = Counters()
            sim = MPCSimulator(3, counters=counters, isolation=flag)
            sim.scatter(list(range(6)))
            items = [list(machine) for machine in sim.storage]
            for _ in range(2):
                inboxes = sim.round(shuffle(items), "tok")
                items = [list(inbox[1]) for inbox in inboxes]
            sim.close()
            results[flag] = (counters.as_dict(), items)
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
