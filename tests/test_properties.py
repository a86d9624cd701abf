"""Property-based tests (hypothesis) for the core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.graph.graph import Graph
from repro.matching.blossom import maximum_matching, maximum_matching_size
from repro.matching.greedy import greedy_maximal_matching, random_greedy_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.matching import Matching
from repro.matching.verify import is_maximal
from repro.core.config import ParameterProfile
from repro.core.streaming import semi_streaming_matching
from repro.core.boosting import boost_matching


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def graphs(draw, max_n=14, max_extra_edges=30):
    n = draw(st.integers(min_value=2, max_value=max_n))
    num_edges = draw(st.integers(min_value=0, max_value=max_extra_edges))
    g = Graph(n)
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v)
    return g


@st.composite
def bipartite_graphs(draw, max_side=8):
    left = draw(st.integers(min_value=1, max_value=max_side))
    right = draw(st.integers(min_value=1, max_value=max_side))
    g = Graph(left + right)
    for u in range(left):
        for v in range(left, left + right):
            if draw(st.booleans()):
                g.add_edge(u, v)
    return g, list(range(left)), list(range(left, left + right))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestMatchingProperties:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_greedy_is_valid_maximal_and_2_approx(self, g):
        m = greedy_maximal_matching(g)
        m.validate(g)
        assert is_maximal(g, m)
        assert 2 * m.size >= maximum_matching_size(g)

    @given(graphs(), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_greedy_never_beats_optimum(self, g, seed):
        m = random_greedy_matching(g, seed=seed)
        m.validate(g)
        assert m.size <= maximum_matching_size(g)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_exact_matching_is_valid_and_has_no_augmenting_path(self, g):
        m = maximum_matching(g)
        m.validate(g)
        # Berge: maximum iff no augmenting path; verify via size stability
        again = maximum_matching(g, initial=m)
        assert again.size == m.size

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_matching_size_monotone_under_edge_addition(self, g):
        base = maximum_matching_size(g)
        h = Graph(g.n, g.edge_list())
        added = False
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not h.has_edge(u, v):
                    h.add_edge(u, v)
                    added = True
                    break
            if added:
                break
        assert maximum_matching_size(h) >= base

    @given(bipartite_graphs())
    @settings(max_examples=40, deadline=None)
    def test_hopcroft_karp_agrees_with_blossom(self, data):
        g, left, right = data
        assert hopcroft_karp(g, left=left, right=right).size == maximum_matching_size(g)


class TestFrameworkProperties:
    @given(graphs(max_n=12), st.sampled_from([0.5, 0.25]))
    @settings(max_examples=25, deadline=None)
    def test_streaming_output_is_valid_and_never_exceeds_optimum(self, g, eps):
        m = semi_streaming_matching(g, eps, seed=0)
        m.validate(g)
        assert m.size <= maximum_matching_size(g)

    @given(graphs(max_n=12))
    @settings(max_examples=20, deadline=None)
    def test_boosting_never_shrinks_the_initial_matching(self, g):
        from repro.core.boosting import BoostingFramework

        framework = BoostingFramework(0.25, seed=0)
        initial = framework.initial_matching(g)
        boosted = framework.run(g, initial=initial)
        boosted.validate(g)
        assert boosted.size >= initial.size

    @given(st.sampled_from([0.5, 0.25, 0.125, 0.0625]))
    @settings(max_examples=10, deadline=None)
    def test_profile_schedule_well_formed(self, eps):
        for profile in (ParameterProfile.practical(eps), ParameterProfile.paper(eps)):
            assert profile.ell_max >= 3
            assert profile.label_default == profile.ell_max + 1
            assert all(h > 0 for h in profile.scales)
            for h in profile.scales:
                assert profile.phases(h) >= 1
                assert profile.pass_bundles(h) >= 1
                assert profile.structure_limit(h) >= 3

    @given(graphs(max_n=10))
    @settings(max_examples=15, deadline=None)
    def test_augmentation_records_increase_size_by_their_count(self, g):
        import random

        from repro.core.operations import apply_augmentations
        from repro.core.phase import DirectDriver, run_phase
        from repro.matching.greedy import greedy_maximal_matching

        m = greedy_maximal_matching(g)
        profile = ParameterProfile.practical(0.25)
        records = run_phase(g, m, profile, 0.5, DirectDriver(random.Random(0)),
                            check_invariants=True)
        before = m.size
        gained = apply_augmentations(m, records)
        m.validate(g)
        assert gained == len(records)
        assert m.size == before + gained
