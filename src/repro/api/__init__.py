"""repro.api — the registry-backed public composition surface.

Eight registries make every axis of the reproduction pluggable:

* :data:`~repro.api.components.topologies` — deployment families,
* :data:`~repro.api.components.trees` — aggregation-tree builders,
* :data:`~repro.api.components.power_schemes` — power regimes,
* :data:`~repro.api.components.schedulers` — link schedulers,
* :data:`~repro.api.measurements.measurements` — sweep metric
  extractors,
* :data:`~repro.scenarios.transforms.scenarios` — dynamic scenario
  transforms (churn, mobility, fading, online arrivals),
* :data:`~repro.backend.numeric_backends` — numeric backends for the
  SINR kernel core (bit-identical by contract; never a cache-key
  ingredient),
* :data:`~repro.analysis.core.lint_rules` — reprolint invariant rules
  (the static-analysis gate over the contracts above).

A :class:`PipelineConfig` names one component per axis (validated
eagerly, dict round-trip for provenance); a :class:`Pipeline` resolves
the names and runs ``deploy -> tree -> links -> schedule -> simulate``,
returning a provenance-stamped :class:`RunArtifact`.

>>> from repro.api import Pipeline, PipelineConfig, trees
>>> trees.names()
('mst', 'matching', 'knn-mst')
>>> cfg = PipelineConfig(topology="grid", n=9, tree="matching", power="oblivious")
>>> artifact = Pipeline(cfg).run()
>>> artifact.provenance["components"]["power_mode"]
'oblivious'
"""

from repro.aggregation.simulator import SimulationResult
from repro.analysis import (
    Finding,
    LintReport,
    LintRule,
    lint_paths,
    lint_rules,
    lint_source,
    register_lint_rule,
)
from repro.api.components import (
    PowerSchemeSpec,
    SchedulerSpec,
    TopologySpec,
    TreeSpec,
    power_schemes,
    register_topology,
    register_tree,
    schedulers,
    topologies,
    trees,
)
from repro.api.measurements import (
    MeasurementContext,
    measurements,
    register_measurement,
)
from repro.api.config import PipelineConfig
from repro.api.pipeline import Pipeline, RunArtifact
from repro.api.registry import Registry
from repro.scenarios import (
    EpochResult,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    register_scenario,
    scenarios,
)

# Imported last: repro.backend pulls in numpy-heavy implementations and
# must never be on the import path of the component modules above (they
# import it lazily, inside functions).
from repro.backend import (
    NumericBackend,
    numeric_backends,
    register_backend,
    resolve_backend,
)

# Also after backend: the distributed-sweep surface reaches back into
# repro.jobs, whose service module needs the config/pipeline modules
# already importable.
from repro.cluster import Orchestrator, Worker

__all__ = [
    "EpochResult",
    "Finding",
    "LintReport",
    "LintRule",
    "MeasurementContext",
    "NumericBackend",
    "Orchestrator",
    "Pipeline",
    "PipelineConfig",
    "PowerSchemeSpec",
    "Registry",
    "RunArtifact",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SchedulerSpec",
    "SimulationResult",
    "TopologySpec",
    "TreeSpec",
    "Worker",
    "lint_paths",
    "lint_rules",
    "lint_source",
    "measurements",
    "numeric_backends",
    "power_schemes",
    "register_backend",
    "register_lint_rule",
    "register_measurement",
    "register_scenario",
    "register_topology",
    "register_tree",
    "resolve_backend",
    "scenarios",
    "schedulers",
    "topologies",
    "trees",
]
