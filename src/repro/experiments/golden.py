"""Golden-fingerprint conformance corpus.

The corpus (``tests/paper/golden_fingerprints.json``) pins the
:meth:`~repro.sim.runner.SimResult.result_fingerprint` of every
simulation run any registered experiment plans at quick scale, for both
kernels. It is the repo's cross-version conformance contract: any code
change that alters what the simulator *produces* for the same inputs —
intentionally or not — shows up as a fingerprint drift against this
file.

The rules are the same as the cache's (:data:`repro.sim.simcache.
SIM_SCHEMA_VERSION`):

* a behaviour-preserving change (refactor, new kernel, optimization)
  must reproduce every golden fingerprint bit for bit;
* a deliberate semantic change must bump ``SIM_SCHEMA_VERSION`` *and*
  regenerate the corpus (``python -m repro.experiments golden``) in the
  same commit, so the diff shows reviewers exactly which runs moved.
  Regeneration writes nothing while the new results break one of the
  paper's claims (:func:`claim_discrepancies`).

A corpus whose recorded schema version disagrees with the code, or
whose fingerprints drift, fails conformance with the same instruction:
bump ``SIM_SCHEMA_VERSION`` and regenerate.

Entries are keyed kernel-independently (workload, scheme, and the
fingerprint of the *reference-kernel* config), because the kernels'
contract is byte-identity: one ``result_fingerprint`` per entry must
hold under every kernel. Per-kernel *run* fingerprints (the cache keys)
are recorded alongside for cache forensics.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config.presets import baseline_config
from ..config.system import config_fingerprint
from ..kernel import available_kernels
from ..obs.logging import get_logger
from ..sim.simcache import SIM_SCHEMA_VERSION
from .base import QUICK, SCALES, RunRequest, RunScale, fetch
from .checks import check_result, has_check
from .engine import execute_plan
from .registry import available_experiments, get_experiment

log = get_logger("experiments.golden")

#: Corpus file format; bump only if the JSON layout itself changes.
GOLDEN_FORMAT = 1

#: Repo-relative location of the committed corpus.
GOLDEN_PATH = Path("tests") / "paper" / "golden_fingerprints.json"

#: The message every conformance failure ends with — greppable, and the
#: complete recovery instruction.
REGENERATE_HINT = (
    "If this change intentionally alters simulation results, bump "
    "SIM_SCHEMA_VERSION and regenerate the corpus with "
    "`python -m repro.experiments golden`; otherwise the change broke "
    "result reproducibility and must be fixed."
)


class GoldenMismatch(AssertionError):
    """A conformance check failed (drift, missing run, stale schema)."""


def corpus_runs(scale: RunScale = QUICK, *, seed: int = 1,
                ) -> List[Tuple[RunRequest, Tuple[str, ...]]]:
    """Every unique run any registered experiment plans at ``scale``,
    with the sorted ids of the experiments that plan it.

    Uniqueness is kernel-independent: requests are keyed by (workload,
    scheme, reference-kernel config fingerprint), so one entry stands
    for the same simulation on every kernel.
    """
    base = baseline_config(seed=seed).with_kernel("reference")
    by_key: Dict[Tuple[str, str, str], Tuple[RunRequest, List[str]]] = {}
    for exp_id in available_experiments():
        for request in get_experiment(exp_id).plan(base, scale):
            ref_config = request.config.with_kernel("reference")
            key = (request.workload, request.scheme,
                   config_fingerprint(ref_config))
            entry = by_key.setdefault(
                (key), (replace(request, config=ref_config), []))
            if exp_id not in entry[1]:
                entry[1].append(exp_id)
    return [(request, tuple(sorted(exp_ids)))
            for request, exp_ids in by_key.values()]


def kernel_requests(request: RunRequest,
                    kernels: Sequence[str]) -> List[RunRequest]:
    """The per-kernel variants of one corpus run."""
    return [replace(request, config=request.config.with_kernel(kernel))
            for kernel in kernels]


def build_corpus(scale: RunScale = QUICK, *, seed: int = 1,
                 kernels: Optional[Sequence[str]] = None,
                 jobs: int = 1,
                 progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Compute the full corpus document: every simulation on every
    kernel, planned on ``jobs`` engine workers (the installed caches
    make a warm rebuild cheap)."""
    kernels = list(kernels or available_kernels())
    runs = corpus_runs(scale, seed=seed)
    execute_plan([variant for request, _ in runs
                  for variant in kernel_requests(request, kernels)],
                 jobs=jobs)
    entries: List[Dict[str, object]] = []
    for i, (request, exp_ids) in enumerate(runs, start=1):
        fingerprints: Dict[str, str] = {}
        run_keys: Dict[str, str] = {}
        for variant in kernel_requests(request, kernels):
            kernel = variant.config.kernel
            run_keys[kernel] = variant.fingerprint
            fingerprints[kernel] = fetch(variant).result_fingerprint()
        if len(set(fingerprints.values())) != 1:
            raise GoldenMismatch(
                f"{request.workload}/{request.scheme}: kernels disagree "
                f"({fingerprints}) — the corpus cannot be built until "
                f"kernel equivalence holds"
            )
        entries.append({
            "workload": request.workload,
            "scheme": request.scheme,
            "config": config_fingerprint(request.config),
            "experiments": list(exp_ids),
            "run_fingerprints": run_keys,
            "result_fingerprint": next(iter(fingerprints.values())),
        })
        if progress is not None:
            progress(f"[{i}/{len(runs)}] {request.workload}/"
                     f"{request.scheme}")
    entries.sort(key=lambda e: (e["workload"], e["scheme"], e["config"]))
    return {
        "format": GOLDEN_FORMAT,
        "sim_schema_version": SIM_SCHEMA_VERSION,
        "seed": seed,
        "scale": {
            "name": scale.name,
            "n_pcm_writes": scale.n_pcm_writes,
            "max_refs_per_core": scale.max_refs_per_core,
            "workloads": list(scale.workloads),
        },
        "kernels": sorted(kernels),
        "n_runs": len(entries),
        "runs": entries,
    }


def load_corpus(path: Optional[Path] = None) -> Dict:
    """Parse the committed corpus, validating its envelope."""
    path = Path(path) if path is not None else GOLDEN_PATH
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        raise GoldenMismatch(
            f"golden corpus missing at {path}. {REGENERATE_HINT}"
        ) from None
    except json.JSONDecodeError as exc:
        raise GoldenMismatch(
            f"golden corpus at {path} is not valid JSON ({exc}). "
            f"{REGENERATE_HINT}"
        ) from None
    for field in ("format", "sim_schema_version", "seed", "scale",
                  "kernels", "runs"):
        if field not in document:
            raise GoldenMismatch(
                f"golden corpus at {path} lacks {field!r}. "
                f"{REGENERATE_HINT}"
            )
    if document["format"] != GOLDEN_FORMAT:
        raise GoldenMismatch(
            f"golden corpus format {document['format']} != expected "
            f"{GOLDEN_FORMAT}. {REGENERATE_HINT}"
        )
    return document


def check_schema_version(document: Dict) -> None:
    """The cheap conformance gate: the corpus must have been generated
    by the schema version the code declares *right now*."""
    recorded = document["sim_schema_version"]
    if recorded != SIM_SCHEMA_VERSION:
        raise GoldenMismatch(
            f"golden corpus was generated at SIM_SCHEMA_VERSION="
            f"{recorded} but the code declares {SIM_SCHEMA_VERSION}. "
            f"{REGENERATE_HINT}"
        )


def corpus_scale(document: Dict) -> RunScale:
    """The :class:`RunScale` the corpus was recorded at. Workloads are
    read from the document (older corpora without them fall back to the
    named scale's current workload set)."""
    scale = document["scale"]
    workloads = scale.get("workloads")
    if workloads is None:
        named = SCALES.get(str(scale["name"]))
        workloads = named.workloads if named is not None else ()
    return RunScale(
        name=str(scale["name"]),
        n_pcm_writes=int(scale["n_pcm_writes"]),
        max_refs_per_core=int(scale["max_refs_per_core"]),
        workloads=tuple(workloads),
    )


def claim_discrepancies(document: Dict) -> List[str]:
    """Render every experiment that has a shape check at the corpus's
    scale and seed, and return each paper claim its result breaks as
    ``"<exp id>: <discrepancy>"`` (empty = every claim holds).

    Each experiment plans its runs again; after :func:`build_corpus`
    every one of them is cached, so nothing is simulated again.
    """
    scale = corpus_scale(document)
    base = baseline_config(seed=int(document["seed"])).with_kernel(
        "reference")
    discrepancies: List[str] = []
    for exp_id in available_experiments():
        if has_check(exp_id):
            result = get_experiment(exp_id)(base, scale)
            discrepancies.extend(
                f"{exp_id}: {issue}" for issue in check_result(result))
    return discrepancies


def select_spot_checks(document: Dict, count: int) -> List[Dict]:
    """A deterministic, experiment-diverse sample of corpus entries.

    Entries are ranked by their result fingerprint (stable across
    machines, uncorrelated with planning order) and picked greedily in
    three passes: entries that share no experiment with those already
    picked; then entries that add an experiment not yet covered; then
    the rest, by rank. A cheap tier-1 test still touches many
    subsystems, and a sample as large as the number of experiments that
    plan runs covers every one of them.

    An entry's experiments are those that plan its run today
    (:func:`corpus_runs`, at the document's scale and seed); the list
    stored in the entry is used only for an entry that no experiment
    plans any more, or when ``document`` names no scale to plan at.
    """
    ranked = sorted(document["runs"],
                    key=lambda entry: str(entry["result_fingerprint"]))
    planned = _planned(document) if "scale" in document else {}

    def experiments(entry: Dict) -> set:
        plan = planned.get(_entry_key(entry)) if planned else None
        return set(plan[1] if plan else entry.get("experiments", ()))

    picked: List[Dict] = []
    covered: set = set()
    passes = (lambda exps: not exps & covered,  # spread
              lambda exps: bool(exps - covered),  # cover
              lambda exps: True)  # fill up
    for wanted in passes:
        for entry in ranked:
            if len(picked) >= count:
                return picked
            exps = experiments(entry)
            if entry not in picked and wanted(exps):
                picked.append(entry)
                covered |= exps
    return picked


def _entry_key(entry: Dict) -> Tuple[str, str, str]:
    return (str(entry["workload"]), str(entry["scheme"]),
            str(entry["config"]))


def _planned(document: Dict
             ) -> Dict[Tuple[str, str, str],
                       Tuple[RunRequest, Tuple[str, ...]]]:
    """Every run the registered experiments plan at the corpus's scale
    and seed, with the experiments that plan it, keyed like corpus
    entries (:func:`_entry_key`). Planning only, no simulation."""
    return {
        (request.workload, request.scheme,
         config_fingerprint(request.config)): (request, exp_ids)
        for request, exp_ids in corpus_runs(
            corpus_scale(document), seed=int(document["seed"]))
    }


def verify_entries(document: Dict, entries: Sequence[Dict], *,
                   kernels: Optional[Sequence[str]] = None,
                   jobs: int = 1,
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> List[str]:
    """Recompute ``entries`` on ``kernels``, planned on ``jobs`` engine
    workers, and return drift messages (empty = conformant). Uses the
    installed caches.

    Sweep experiments plan *derived* configs, so requests are
    reconstructed by re-planning every experiment (cheap — no
    simulation) and matching entries by (workload, scheme, config
    fingerprint); an entry whose config no experiment plans anymore is
    itself a drift.
    """
    check_schema_version(document)
    kernels = list(kernels or document["kernels"])
    planned = _planned(document)
    requests = [planned.get(_entry_key(entry), (None, ()))[0]
                for entry in entries]
    execute_plan([variant for request in requests if request is not None
                  for variant in kernel_requests(request, kernels)],
                 jobs=jobs)
    drifts: List[str] = []
    for entry, request in zip(entries, requests):
        label = f"{entry['workload']}/{entry['scheme']}"
        if request is None:
            drifts.append(
                f"{label}: no registered experiment plans this run "
                f"anymore (config {str(entry['config'])[:12]}…) — the "
                f"corpus is stale"
            )
            if progress is not None:
                progress(f"{label}: STALE")
            continue
        expected = str(entry["result_fingerprint"])
        for kernel in kernels:
            actual = fetch(
                kernel_requests(request, [kernel])[0]
            ).result_fingerprint()
            if actual != expected:
                drifts.append(
                    f"{label} [{kernel}]: result fingerprint "
                    f"{actual[:12]}… != golden {expected[:12]}…"
                )
            if progress is not None:
                progress(f"{label} [{kernel}]: "
                         f"{'ok' if actual == expected else 'DRIFT'}")
    return drifts


def verify_corpus(document: Dict, *, sample: Optional[int] = None,
                  kernels: Optional[Sequence[str]] = None,
                  jobs: int = 1,
                  progress: Optional[Callable[[str], None]] = None,
                  ) -> List[str]:
    """Conformance-check the corpus: all entries (plus coverage — every
    currently-planned run must be in the corpus), or a deterministic
    ``sample`` of entries (:func:`select_spot_checks`), computed on
    ``jobs`` engine workers.
    Returns drift messages (empty = conformant).
    """
    if sample is not None:
        return verify_entries(
            document,
            select_spot_checks(document, sample),
            kernels=kernels, jobs=jobs, progress=progress)
    drifts = verify_entries(document, document["runs"], kernels=kernels,
                            jobs=jobs, progress=progress)
    recorded = {_entry_key(entry) for entry in document["runs"]}
    for key, (request, exp_ids) in _planned(document).items():
        if key not in recorded:
            drifts.append(
                f"{request.workload}/{request.scheme} (planned by "
                f"{', '.join(exp_ids)}) is missing from the corpus"
            )
    return drifts


def write_corpus(document: Dict, path: Optional[Path] = None) -> Path:
    path = Path(path) if path is not None else GOLDEN_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path
