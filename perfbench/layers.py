"""The layers the traced run attributes time to, and what each should move.

Every layer is a set of public functions (or the binding of a module that
imports one by name) wrapped from outside the library while a traced pass
runs.  ``moves`` names the end-to-end metric and workload a change to the
layer should move; ``flat_on`` names the workloads on which it should not.
Both are printed with the traced run's table so a later change can cite
them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module path, ``attr`` a dotted
    ``function`` or ``Class.method`` inside it."""

    owner: str
    attr: str
    #: whether entering this callable counts as one call of the layer
    counted: bool = True


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]
    moves: str
    flat_on: str = "-"
    extras: Tuple[str, ...] = field(default=())


def _t(owner: str, *attrs: str, counted: bool = True) -> Tuple[Target, ...]:
    return tuple(Target(owner, a, counted) for a in attrs)


LAYERS: Tuple[Layer, ...] = (
    Layer("graph.apply",
          _t("repro.graph.dynamic_graph", "DynamicGraph.apply"),
          "op_p50_us on dynamic_large", "dynamic_churn"),
    Layer("core.repair.note_update",
          _t("repro.core.repair", "RepairContext.note_update"),
          "op_p50_us on dynamic_large", "dynamic_churn"),
    # the per-phase borrow/return of the persistent repair state; inside
    # run_phase, and most of its self time when rebuilds find no free vertex
    Layer("core.repair.context",
          _t("repro.core.repair", "RepairContext.free_vertices",
             "RepairContext.attach")
          + _t("repro.core.repair", "RepairContext.detach", counted=False),
          "op_p99_us on dynamic_large", "static_mpc"),
    Layer("dynamic.update",
          _t("repro.dynamic.fully_dynamic", "FullyDynamicMatching.update"),
          "op_p50_us on dynamic_large"),
    Layer("dynamic.rebuild",
          _t("repro.dynamic.fully_dynamic", "FullyDynamicMatching.rebuild"),
          "op_p99_us on dynamic_large", extras=("zero_gain_frac",)),
    Layer("core.dynamic_boosting.run",
          _t("repro.core.dynamic_boosting", "WeakOracleBoostingFramework.run"),
          "op_p99_us on dynamic_large"),
    Layer("core.dynamic_boosting.sampling",
          _t("repro.core.dynamic_boosting",
             "SamplingOracleDriver.extend_active_path",
             "SamplingOracleDriver.contract_and_augment"),
          "ops_per_s and op_p50_us on dynamic_churn",
          "dynamic_large, static_mpc"),
    Layer("core.phase.run_phase",
          _t("repro.core.phase", "run_phase")
          + _t("repro.core.boosting", "run_phase")
          + _t("repro.core.dynamic_boosting", "run_phase"),
          "ops_per_s on static_mpc and dynamic_churn", "dynamic_large"),
    Layer("core.boosting.driver",
          _t("repro.core.boosting", "OracleDriver.extend_active_path",
             "OracleDriver.contract_and_augment"),
          "ops_per_s on static_mpc", "dynamic_churn, dynamic_large"),
    Layer("core.boosting.derived_graph",
          _t("repro.core.boosting", "build_stage_graph",
             "build_structure_graph"),
          "ops_per_s on static_mpc", "dynamic_churn, dynamic_large"),
    Layer("core.boosting.initial_matching",
          _t("repro.core.boosting", "BoostingFramework.initial_matching"),
          "ops_per_s on static_mpc"),
    Layer("oracle.weak",
          _t("repro.core.oracles", "CountingWeakOracle.query",
             "CountingWeakOracle.query_bipartite"),
          "ops_per_s on dynamic_churn", "static_mpc",
          extras=("bottom_frac", "useful_frac")),
    Layer("mpc.oracle",
          _t("repro.mpc.matching_mpc", "MPCMatchingOracle.find_matching"),
          "ops_per_s on static_mpc", "dynamic_churn, dynamic_large"),
    Layer("mpc.round",
          _t("repro.mpc.simulator", "MPCSimulator.round"),
          "ops_per_s on static_mpc", "dynamic_churn, dynamic_large",
          extras=("message_words",)),
    Layer("resilience.checkpoint",
          _t("repro.resilience.checkpoint", "MaintainerCheckpoint.capture",
             "DeltaCheckpointWriter.capture")
          + _t("repro.resilience.checkpoint", "MaintainerCheckpoint.save",
               "DeltaCheckpointWriter.save", counted=False),
          "ops_per_s on dynamic_large", "dynamic_churn, static_mpc",
          extras=("bytes",)),
    # the harness consults the fault plan before every update, crash or not
    Layer("resilience.fault_plan",
          _t("repro.resilience.faults", "FaultPlan.crashes_update"),
          "op_p50_us and ops_per_s on dynamic_large",
          "dynamic_churn, static_mpc"),
    Layer("resilience.restore",
          _t("repro.resilience.checkpoint", "MaintainerCheckpoint.restore")
          + _t("repro.resilience.checkpoint", "MaintainerCheckpoint.load",
               counted=False),
          "op_p99_us and ops_per_s on dynamic_large",
          "dynamic_churn, static_mpc"),
)

