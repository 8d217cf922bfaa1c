"""Design-space exploration over the FPB simulator (`docs/exploration.md`).

Public surface:

* :class:`~repro.explore.space.SearchSpace` / :class:`~repro.explore.
  space.Axis` — declarative, typed axes over budget / GCP efficiency /
  mapping / Multi-RESET / geometry / MLC parameters;
* :func:`~repro.explore.strategies.make_strategy` — ``grid``, seeded
  ``random`` and ``adaptive`` successive-halving strategies behind one
  interface, deterministic given ``(space, strategy, seed)``;
* :func:`~repro.explore.pareto.pareto_frontier` and the default
  throughput / power / pump-area objectives (Eq. 1);
* :class:`~repro.explore.session.ExploreSession` — execution through
  the ordinary plan/execute/cache engine; a rerun of an interrupted
  session reads the points it already paid for from the run caches.
"""

from .pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    dominates,
    extract_objectives,
    frontier_markdown,
    pareto_frontier,
    pump_area_cost,
)
from .space import (
    PARAMETERS,
    Axis,
    ExploreError,
    SearchSpace,
    named_spaces,
    space_from_dict,
)
from .session import (
    EXPLORE_SCHEMA,
    ExploreSession,
    ExploreSettings,
    frontier_report,
)
from .strategies import STRATEGIES, Strategy, make_strategy

__all__ = [
    "Axis",
    "DEFAULT_OBJECTIVES",
    "EXPLORE_SCHEMA",
    "ExploreError",
    "ExploreSession",
    "ExploreSettings",
    "Objective",
    "PARAMETERS",
    "STRATEGIES",
    "SearchSpace",
    "Strategy",
    "dominates",
    "extract_objectives",
    "frontier_markdown",
    "frontier_report",
    "make_strategy",
    "named_spaces",
    "pareto_frontier",
    "pump_area_cost",
    "space_from_dict",
]
