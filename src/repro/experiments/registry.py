"""Registry of all paper-evaluation experiments."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Type

from ..config.system import SystemConfig
from ..errors import ExperimentError
from .ablations import AblFlipNWrite, AblMRGrouping, AblPreRead, AblPreSET
from .base import Experiment, RunRequest, RunScale
from .fig02_cell_changes import Fig02CellChanges
from .fig04_heuristics import Fig04Heuristics
from .fig10_write_burst import Fig10WriteBurst
from .fig11_gcp_efficiency import Fig11GCPEfficiency
from .fig12_mapping import Fig12Mapping
from .fig13_max_tokens import Fig13MaxTokens
from .fig14_avg_tokens import Fig14AvgTokens
from .fig15_bim_sweep import Fig15BIMSweep
from .fig16_ipm import Fig16IPM
from .fig17_mr_split import Fig17MRSplit
from .fig18_throughput import Fig18Throughput
from .fig19_line_size import Fig19LineSize
from .fig20_llc import Fig20LLC
from .fig21_write_queue import Fig21WriteQueue
from .fig22_tokens import Fig22Tokens
from .fig23_rdopt import Fig23RdOpt
from .tables import Tab1Config, Tab2Workloads, Tab3Area
from .worked_examples import (
    Fig03ChipBlockingExample,
    Fig05IPMExample,
    Fig06MultiResetExample,
    Fig08GCPExample,
)

_EXPERIMENTS: Dict[str, Type[Experiment]] = {
    cls.exp_id: cls
    for cls in (
        Fig02CellChanges,
        Fig04Heuristics,
        Fig10WriteBurst,
        Fig11GCPEfficiency,
        Fig12Mapping,
        Fig13MaxTokens,
        Fig14AvgTokens,
        Fig15BIMSweep,
        Fig16IPM,
        Fig17MRSplit,
        Fig18Throughput,
        Fig19LineSize,
        Fig20LLC,
        Fig21WriteQueue,
        Fig22Tokens,
        Fig23RdOpt,
        Tab1Config,
        Tab2Workloads,
        Tab3Area,
        AblMRGrouping,
        AblPreRead,
        AblFlipNWrite,
        AblPreSET,
        Fig03ChipBlockingExample,
        Fig05IPMExample,
        Fig06MultiResetExample,
        Fig08GCPExample,
    )
}


def get_experiment(exp_id: str) -> Experiment:
    try:
        return _EXPERIMENTS[exp_id.lower()]()
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; choose from {available_experiments()}"
        ) from None


def available_experiments() -> Tuple[str, ...]:
    return tuple(_EXPERIMENTS)


def describe_experiments() -> List[Dict[str, str]]:
    """Wire-friendly metadata for every registered experiment (the
    service gateway's ``GET /experiments`` payload)."""
    return [
        {
            "exp_id": exp_id,
            "title": cls.title,
            "paper_claim": cls.paper_claim,
        }
        for exp_id, cls in _EXPERIMENTS.items()
    ]


def plan_runs(exp_ids: Iterable[str], config: SystemConfig,
              scale: RunScale) -> List[RunRequest]:
    """The union of the named experiments' declared run sets, in
    request order (duplicates included — the engine dedupes them by
    fingerprint, which is how figs 11-14 end up sharing one GCP sweep)."""
    requests: List[RunRequest] = []
    for exp_id in exp_ids:
        requests.extend(get_experiment(exp_id).plan(config, scale))
    return requests
