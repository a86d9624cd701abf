"""Golden stream pin for the Section 5 and Section 6 boosting frameworks.

The parity suites compare engine tiers and repair modes with each other, so
a driver change that shifts the random stream in *every* tier at once would
still pass them.  This test pins absolute values instead: for a few small
seeded runs, the final mates, the full counter bag and a sha256 of the
framework's RNG state must equal the values recorded in
``tests/data/golden_stream.json``.

The Section 6 runs are dynamic churn streams and one cold weak-oracle run;
one of the streams (``planted_matching_churn(40, rounds=2)``) makes
cross-structure overtakes, so the sampling driver's restaging of the
overtaken structure is pinned as well;
the Section 5 runs solve one small Table-1-shaped graph with
``mpc_boosted_matching`` and ``congest_boosted_matching`` (whose oracle
RNGs are pinned too), with ``boost_matching`` on the default greedy
oracle and with the [FMU22]-style baseline ``fmu22_boost`` on the same
oracle.  Their counters include ``oracle_vertices_seen`` and
``oracle_edges_seen``, so the size of every derived graph handed to the
oracle is pinned along with the stream.

A change that is meant to alter the sampled stream (a deliberate
re-baseline) rewrites the fixture with

    PYTHONPATH=src python tests/test_golden_stream.py --write

and says so in its change notes.
"""

import dataclasses
import hashlib
import json
import os
import sys
from unittest import mock

import pytest

from repro.baselines import fmu22
from repro.congest import boost_congest
from repro.core import boosting
from repro.core.config import ParameterProfile
from repro.core.dynamic_boosting import WeakOracleBoostingFramework
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle
from repro.graph.generators import erdos_renyi
from repro.instrumentation.counters import Counters
from repro.mpc import boost_mpc
from repro.workloads import planted_matching_churn

from conftest import table1_graph

EPS = 0.25
FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "golden_stream.json")
ENGINES = ("array", "reference")


def _rng_digest(rng) -> str:
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()


def _record(matching, counters, rng) -> dict:
    return {
        "mates": [matching.mate(v) for v in range(matching.n)],
        "counters": dict(sorted(counters.as_dict().items())),
        "rng_sha256": _rng_digest(rng),
    }


def churn_run(seed: int, repair: str, engine: str = "array",
              pairs: int = 16, rounds: int = 3) -> dict:
    profile = dataclasses.replace(ParameterProfile.practical(EPS),
                                  repair=repair, engine=engine)
    stream = planted_matching_churn(pairs, rounds=rounds, seed=seed)
    counters = Counters()
    alg = FullyDynamicMatching(stream.n, EPS, profile=profile,
                               counters=counters, seed=seed)
    for update in stream:
        alg.update(update)
    return _record(alg.current_matching(), counters, alg._framework.rng)


def cold_run(engine: str = "array") -> dict:
    profile = dataclasses.replace(ParameterProfile.practical(EPS),
                                  engine=engine)
    graph = erdos_renyi(40, 0.12, seed=2)
    counters = Counters()
    framework = WeakOracleBoostingFramework(
        EPS, GreedyInducedWeakOracle(graph, seed=2), profile=profile,
        counters=counters, seed=2)
    matching = framework.run(graph)
    return _record(matching, counters, framework.rng)


class _Recording(boosting.BoostingFramework):
    """A BoostingFramework that remembers the instances built from it."""

    built: list = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _Recording.built.append(self)


#: the Section 5 wrappers, by the module whose ``BoostingFramework`` each
#: builds
STATIC_MODULES = {"mpc": boost_mpc, "congest": boost_congest,
                  "greedy": boosting, "fmu22": fmu22}


def static_run(wrapper: str, engine: str = "array") -> dict:
    """Solve a small Table-1-shaped graph with ``mpc_boosted_matching``
    (``"mpc"``), ``congest_boosted_matching`` (``"congest"``),
    ``boost_matching`` on the greedy oracle (``"greedy"``) or
    ``fmu22_boost`` on the greedy oracle (``"fmu22"``)."""
    profile = dataclasses.replace(ParameterProfile.practical(EPS),
                                  engine=engine)
    graph = table1_graph(96, 4, seed=0)
    counters = Counters()
    _Recording.built = []
    with mock.patch.object(STATIC_MODULES[wrapper], "BoostingFramework",
                           _Recording):
        if wrapper == "mpc":
            matching, _ = boost_mpc.mpc_boosted_matching(
                graph, EPS, profile=profile, counters=counters, seed=0)
        elif wrapper == "congest":
            matching, _ = boost_congest.congest_boosted_matching(
                graph, EPS, profile=profile, counters=counters, seed=0)
        elif wrapper == "fmu22":
            matching = fmu22.fmu22_boost(
                graph, EPS, profile=profile, counters=counters, seed=0)
        else:
            matching = boosting.boost_matching(
                graph, EPS, profile=profile, counters=counters, seed=0)
    (framework,) = _Recording.built
    record = _record(matching, counters, framework.rng)
    if wrapper not in ("greedy", "fmu22"):
        record["oracle_rng_sha256"] = _rng_digest(framework.oracle.inner._rng)
    return record


CHURN_RUNS = [(seed, repair) for seed in (0, 1)
              for repair in ("rebuild", "incremental")]
#: the churn stream whose rebuilds make cross-structure overtakes
CROSS_KEY = "churn40-seed0-incremental"


def cross_churn_run(engine: str = "array") -> dict:
    return churn_run(0, "incremental", engine, pairs=40, rounds=2)
STATIC_RUNS = tuple(STATIC_MODULES)


def _key(seed: int, repair: str) -> str:
    return f"churn-seed{seed}-{repair}"


def _static_key(wrapper: str) -> str:
    return f"static-{wrapper}-table1"


def compute_all() -> dict:
    runs = {_key(seed, repair): churn_run(seed, repair)
            for seed, repair in CHURN_RUNS}
    runs[CROSS_KEY] = cross_churn_run()
    runs["cold-er40"] = cold_run()
    for wrapper in STATIC_RUNS:
        runs[_static_key(wrapper)] = static_run(wrapper)
    return runs


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed,repair", CHURN_RUNS)
def test_churn_stream_matches_golden(golden, seed, repair, engine):
    assert churn_run(seed, repair, engine) == golden[_key(seed, repair)]


@pytest.mark.parametrize("engine", ENGINES)
def test_cross_structure_churn_matches_golden(golden, engine):
    assert cross_churn_run(engine) == golden[CROSS_KEY]


@pytest.mark.parametrize("engine", ENGINES)
def test_cold_run_matches_golden(golden, engine):
    assert cold_run(engine) == golden["cold-er40"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("wrapper", STATIC_RUNS)
def test_static_run_matches_golden(golden, wrapper, engine):
    assert static_run(wrapper, engine) == golden[_static_key(wrapper)]


def test_fixture_is_not_trivial(golden):
    """The pinned runs must exercise the oracle, overtakes and
    augmentations, and some Section 6 run a cross-structure overtake."""
    assert {_static_key(wrapper) for wrapper in STATIC_RUNS} <= set(golden)
    for name, record in golden.items():
        counters = record["counters"]
        calls = ("oracle_calls" if name.startswith("static-")
                 else "weak_oracle_calls")
        assert counters[calls] > 0, name
        assert counters["overtakes"] > 0, name
        assert counters["augmentations"] > 0, name
    assert any(record["counters"].get("cross_structure_overtakes", 0) > 0
               for name, record in golden.items()
               if not name.startswith("static-"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_stream.py "
                 "--write")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(compute_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
