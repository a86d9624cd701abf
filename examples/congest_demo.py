#!/usr/bin/env python3
"""CONGEST scenario (Corollary A.2): distributed boosting with round accounting.

Runs the distributed Israeli--Itai-style Theta(1)-approximate matching under
the CONGEST simulator, boosts it to (1+eps), and breaks the round count into
oracle rounds vs Aprocess component-aggregation rounds -- the term responsible
for the extra 1/eps^3 factor in the CONGEST row of Table 1.

Run:  python examples/congest_demo.py
"""

from repro import Counters, maximum_matching
from repro.congest.boost_congest import congest_boosted_matching
from repro.congest.matching_congest import CongestMatchingOracle
from repro.congest.simulator import CongestSimulator
from repro.graph.generators import erdos_renyi
from repro.matching.matching import Matching


def main() -> None:
    eps = 0.25
    graph = erdos_renyi(120, 0.04, seed=11)
    optimum = maximum_matching(graph).size
    print(f"network: n={graph.n}, m={graph.m}, mu={optimum}")

    # --- one raw oracle call: the distributed 2-approximation ---------------
    raw_counters = Counters()
    oracle = CongestMatchingOracle(counters=raw_counters, seed=5)
    # erdos_renyi inserts its edges in key order, so the oracle's network
    # Graph(n, edges) is this graph, rows in the same order
    raw = Matching(graph.n, oracle.find_matching(graph.n,
                                                 sorted(graph.edge_list())))
    print("\n[one Theta(1)-approximate CONGEST matching]")
    print(f"  size   : {raw.size} (factor {optimum / max(1, raw.size):.3f})")
    print(f"  rounds : {int(raw_counters['congest_rounds'])}")
    print(f"  msgs   : {int(raw_counters['congest_messages'])}")

    # --- boosted to (1 + eps) ------------------------------------------------
    counters = Counters()
    boosted, _ = congest_boosted_matching(graph, eps, counters=counters, seed=5)
    agg = counters["congest_aggregation_rounds"]
    total = counters["congest_rounds"]
    print(f"\n[boosted to (1+{eps}), Corollary A.2]")
    print(f"  size                  : {boosted.size} "
          f"(factor {optimum / boosted.size:.3f}, target <= {1 + eps})")
    print(f"  oracle invocations    : {int(counters['oracle_calls'])}")
    print(f"  CONGEST rounds total  : {int(total)}")
    print(f"    - inside the oracle : {int(total - agg)}")
    print(f"    - Aprocess (struct. aggregation, the extra eps^-3 factor) : {int(agg)}")

    # --- the simulator is also usable directly ------------------------------
    sim = CongestSimulator(graph)
    sim.charge_component_aggregation(component_size=8)
    print(f"\naggregating one 8-vertex structure costs "
          f"{sim.rounds} CONGEST rounds (2 x component size).")


if __name__ == "__main__":
    main()
