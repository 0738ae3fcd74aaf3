"""repro — reproduction of *System Design for Flexibility* (DATE 2002).

Haubelt, Teich, Richter and Ernst introduce *flexibility* as a design
dimension that quantifies how many alternative behaviours a system can
implement, model it on hierarchical specification graphs, and explore
the flexibility/cost tradeoff with a branch-and-bound algorithm.  This
package implements the complete system:

* :mod:`repro.hgraph` — hierarchical graphs (Definition 1);
* :mod:`repro.spec` — specification graphs ``G_S = (G_P, G_A, E_M)``;
* :mod:`repro.activation` — hierarchical timed activation (rules 1-4);
* :mod:`repro.binding` — timed allocation/binding with feasibility
  solvers (Definitions 2-3);
* :mod:`repro.timing` — utilisation estimation, Liu/Layland bounds and
  an exact list scheduler;
* :mod:`repro.core` — the flexibility metric (Definition 4) and the
  EXPLORE branch-and-bound, plus exhaustive and NSGA-II baselines;
* :mod:`repro.adaptive` — runtime mode switching / reconfiguration;
* :mod:`repro.casestudies` — the paper's TV decoder and Set-Top box
  plus a synthetic generator;
* :mod:`repro.io` / :mod:`repro.report` — serialisation and reporting;
* :mod:`repro.trace` — deterministic search tracing, pruning audit
  and the ``repro explain`` toolchain.

Quickstart::

    from repro import build_settop_spec, explore
    result = explore(build_settop_spec())
    print(result.front())
    # [(100.0, 2.0), (120.0, 3.0), (230.0, 4.0),
    #  (290.0, 5.0), (360.0, 7.0), (430.0, 8.0)]
"""

import logging as _logging

# Library logging convention: the package logs through module loggers
# under the "repro" namespace and never configures handlers itself —
# the NullHandler silences "no handler" warnings for applications that
# do not use logging, and the CLI's -v/--log-level attaches a real one.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from .activation import (
    Activation,
    ActivationTimeline,
    FlatProblem,
    activation_from_selection,
    flatten,
    selection_from_clusters,
)
from .adaptive import AdaptiveSimulator, ModeChange, ModeRequest, simulate_requests
from .analysis import (
    compare_scenarios,
    cost_sensitivity,
    scenario_table,
    with_unit_costs,
)
from .binding import (
    Allocation,
    Binding,
    BindingSolver,
    Router,
    binding_violations,
    is_feasible_binding,
    solve_binding,
    solve_binding_sat,
)
from .casestudies import (
    build_automotive_spec,
    build_settop_spec,
    build_tv_decoder_spec,
    synthetic_spec,
)
from .core import (
    ExplorationResult,
    ExploreOptions,
    FailureImpact,
    Implementation,
    ParetoArchive,
    UpgradeResult,
    critical_units,
    dominates,
    estimate_flexibility,
    evaluate_allocation,
    exhaustive_front,
    explore,
    explore_upgrades,
    flexibility,
    max_flexibility,
    nsga2_explore,
    pareto_front,
    single_failure_report,
    spec_max_flexibility,
    upgrade_preserves_base,
)
from .errors import (
    ActivationError,
    BindingError,
    ExplorationError,
    InfeasibleError,
    ModelError,
    ReproError,
    SerializationError,
    TimingError,
    TraceError,
    ValidationError,
)
from .hgraph import (
    Cluster,
    HierarchicalGraph,
    HierarchyBuilder,
    Interface,
    Vertex,
    new_cluster,
)
from .io import (
    dump_result,
    dump_spec,
    load_result,
    load_spec,
    result_to_csv,
    spec_to_dot,
)
from .report import (
    front_summary,
    front_svg,
    hypervolume,
    knee_point,
    mapping_table,
    pareto_table,
    save_front_svg,
    stats_table,
    tradeoff_plot,
)
from .spec import (
    ArchitectureGraph,
    Diagnostic,
    MappingTable,
    ProblemGraph,
    SpecificationGraph,
    lint_specification,
    make_specification,
)
from .timing import (
    PAPER_UTILIZATION_BOUND,
    liu_layland_bound,
    list_schedule,
    meets_utilization_bound,
    utilization_by_resource,
)
from .trace import (
    Tracer,
    compute_trace_id,
    explain_text,
    read_trace,
    trace_fingerprint,
    write_chrome_trace,
    write_trace,
)

# Prefer the installed distribution's version; fall back to the
# in-tree version for PYTHONPATH=src usage without an install.
try:
    from importlib.metadata import PackageNotFoundError as _PkgNotFound
    from importlib.metadata import version as _dist_version

    try:
        __version__ = _dist_version("repro")
    except _PkgNotFound:
        __version__ = "1.0.0"
except ImportError:  # pragma: no cover - ancient interpreters only
    __version__ = "1.0.0"

__all__ = [
    "Activation",
    "ActivationError",
    "ActivationTimeline",
    "AdaptiveSimulator",
    "Allocation",
    "ArchitectureGraph",
    "Binding",
    "BindingError",
    "BindingSolver",
    "Cluster",
    "Diagnostic",
    "ExplorationError",
    "ExplorationResult",
    "ExploreOptions",
    "FailureImpact",
    "FlatProblem",
    "HierarchicalGraph",
    "HierarchyBuilder",
    "Implementation",
    "InfeasibleError",
    "Interface",
    "MappingTable",
    "ModeChange",
    "ModeRequest",
    "ModelError",
    "PAPER_UTILIZATION_BOUND",
    "ParetoArchive",
    "ProblemGraph",
    "ReproError",
    "Router",
    "SerializationError",
    "SpecificationGraph",
    "TimingError",
    "TraceError",
    "Tracer",
    "UpgradeResult",
    "ValidationError",
    "Vertex",
    "activation_from_selection",
    "binding_violations",
    "build_automotive_spec",
    "build_settop_spec",
    "build_tv_decoder_spec",
    "compare_scenarios",
    "compute_trace_id",
    "cost_sensitivity",
    "critical_units",
    "dominates",
    "dump_result",
    "dump_spec",
    "estimate_flexibility",
    "evaluate_allocation",
    "exhaustive_front",
    "explain_text",
    "explore",
    "explore_upgrades",
    "flatten",
    "flexibility",
    "front_summary",
    "front_svg",
    "hypervolume",
    "is_feasible_binding",
    "knee_point",
    "lint_specification",
    "list_schedule",
    "liu_layland_bound",
    "load_result",
    "load_spec",
    "make_specification",
    "mapping_table",
    "max_flexibility",
    "meets_utilization_bound",
    "new_cluster",
    "nsga2_explore",
    "pareto_front",
    "pareto_table",
    "read_trace",
    "result_to_csv",
    "save_front_svg",
    "scenario_table",
    "selection_from_clusters",
    "single_failure_report",
    "simulate_requests",
    "solve_binding",
    "solve_binding_sat",
    "spec_max_flexibility",
    "spec_to_dot",
    "stats_table",
    "synthetic_spec",
    "trace_fingerprint",
    "tradeoff_plot",
    "upgrade_preserves_base",
    "utilization_by_resource",
    "with_unit_costs",
    "write_chrome_trace",
    "write_trace",
]
