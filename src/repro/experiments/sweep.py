"""The experiment grid, and the process-parallel sweep engine with
content-addressed result caching that runs it.

Every figure/table in the paper is a grid of independent
``run_experiment`` calls.  A :class:`Grid` names its axes — a base
config, policy specs, named scenario overrides (a budget axis is one
scenario per budget) and seeds — and :func:`run_grid` returns the
results keyed by (scenario, policy), in seed order; ``compare``,
``sweep``, ``tournament`` and the figure series are reports over them.
Each grid cell × seed is a *job* that :func:`run_sweep` executes:

* **in parallel** on a :class:`concurrent.futures.ProcessPoolExecutor`
  (worker count configurable, default :func:`~repro.host.usable_cpus`), with
  ``workers=1`` as an in-process serial fallback for debugging;
* **deterministically** — a job is a fully resolved
  :class:`~repro.config.ExperimentConfig` plus a :class:`PolicySpec`
  (strategy name and params), and the worker re-derives the policy RNG
  from the config seed via :class:`~repro.rng.RngFactory`, so parallel
  output is bit-identical to the serial loop regardless of scheduling
  order;
* **cached** — an on-disk :class:`SweepCache` keyed by a stable SHA-256
  content hash of (config, strategy name, resolved params, schema
  versions) means a re-run only executes cache misses.

Variations of a job are config overrides, not policy fields::

    des = cfg.override({"training.engine": "des", "sim.faults": "churn"})

Usage::

    grid = Grid.over_budgets(cfg, ["FedL", "FedAvg"], budgets=[300, 800], seeds=[0, 1])
    cells = run_grid(grid, workers=4, cache=SweepCache("~/.cache/repro"))
    cells["budget=300", "FedL"]  # [seed 0's result, seed 1's result]
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.atomic import atomic_write_text, clean_stale_tmps
from repro.config import CheckpointConfig, ExperimentConfig
from repro.experiments.persistence import (
    RESULT_SCHEMA_VERSION,
    SCHEMA_VERSION,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenarios import make_policy
from repro.host import usable_cpus
from repro.obs import Telemetry, get_telemetry, set_telemetry, use_telemetry
from repro.rng import RngFactory
from repro.strategies import get_strategy, resolve_params

__all__ = [
    "PolicySpec",
    "SweepJob",
    "Grid",
    "GridResults",
    "EmptyRunError",
    "run_grid",
    "SweepCache",
    "SweepProgress",
    "CACHE_SCHEMA_VERSION",
    "canonical_hash",
    "job_fingerprint",
    "job_key",
    "execute_job",
    "run_sweep",
    "results_identical",
]

# Bump to invalidate every existing cache entry (e.g. when run_experiment's
# semantics change in a way the config/schema versions don't capture).
# v2: configs gained the "sim" section.  v3: the "attack"/"defense"
# sections.  v4: strategy-registry parameters; results carry a "policy"
# self-description.  v5: the "checkpoint" section, which the fingerprint
# excludes (a job's result is independent of where snapshots go).
# v6: a job is a resolved config plus a strategy name and its params —
# PolicySpec lost its config overlay fields, and the key hashes the
# params as the registry resolves them, so one run has one key however
# it was specified.
CACHE_SCHEMA_VERSION = 6


@dataclass(frozen=True)
class PolicySpec:
    """Picklable description of a selection policy: a registry name and
    its parameter overrides (see :mod:`repro.strategies`).

    Everything else about a job — engine, runtime, attack, defense — is
    the job's :class:`~repro.config.ExperimentConfig`.  ``params`` may be
    a dict (or pairs); it is normalized to a sorted tuple of ``(key,
    value)`` pairs so the spec stays frozen, hashable and order-insensitive.
    The policy RNG is drawn from the stream ``policy.<name>``, the stream
    the paper's four-policy suite has always used.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        raw = self.params
        if isinstance(raw, dict):
            pairs = raw.items()
        else:
            pairs = (tuple(p) for p in raw)
        normalized = tuple(sorted((str(k), v) for k, v in pairs))
        for key, value in normalized:
            if value is not None and not isinstance(value, (bool, int, float, str)):
                raise TypeError(
                    f"params[{key!r}] must be a JSON scalar, got {type(value).__name__}"
                )
        object.__setattr__(self, "params", normalized)

    @property
    def params_dict(self) -> Dict[str, object]:
        """The parameter overrides as a plain dict."""
        return dict(self.params)


@dataclass(frozen=True)
class SweepJob:
    """One unit of sweep work: a policy on a fully specified experiment."""

    policy: PolicySpec
    config: ExperimentConfig
    target_accuracy: Optional[float] = None


# --- content-addressed cache keys ---------------------------------------------


def canonical_hash(obj) -> str:
    """SHA-256 of the canonical JSON encoding of ``obj``.

    ``sort_keys`` makes the digest independent of dict insertion order, so
    logically equal payloads hash identically; ``allow_nan=False`` rejects
    values JSON cannot round-trip exactly.
    """
    encoded = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def job_fingerprint(job: SweepJob) -> dict:
    """The JSON-ready payload a job's cache key is computed from: the
    config, the strategy name and its parameters as the registry resolves
    them against the config (so a default spelled out and a default left
    implicit are one key; an unknown name or parameter raises here).

    Includes every schema version involved in persisting a result, so a
    schema bump invalidates old entries instead of deserializing them
    wrongly.
    """
    spec = get_strategy(job.policy.name)
    config = dataclasses.asdict(job.config)
    # Where (or whether) snapshots are written cannot change what a job
    # computes, so the checkpoint section must not split the cache key.
    config.pop("checkpoint", None)
    return {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "trace_schema": SCHEMA_VERSION,
        "config": config,
        "policy": {
            "name": job.policy.name,
            "params": resolve_params(spec, job.config, job.policy.params_dict),
        },
        "target_accuracy": job.target_accuracy,
    }


def job_key(job: SweepJob) -> str:
    """Stable content hash identifying a job's result."""
    return canonical_hash(job_fingerprint(job))


# --- the on-disk cache --------------------------------------------------------


class SweepCache:
    """Directory of ``<job_key>.json`` files holding serialized results.

    Unreadable, corrupt, or schema-stale entries are treated as misses
    (and overwritten on the next store), never as errors — a cache must
    not be able to break a sweep.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        # Any surviving temp file is torn-write litter from a process
        # that died mid-store; sweep it on (re)open.
        clean_stale_tmps(self.root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[ExperimentResult]:
        """Return the cached result for ``key``, or ``None`` on any miss."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("cache_schema") != CACHE_SCHEMA_VERSION:
            return None
        try:
            return result_from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, key: str, job: SweepJob, result: ExperimentResult) -> Path:
        """Persist ``result`` under ``key``; the job fingerprint rides along
        for debuggability.  The write is staged through a temp file so a
        concurrent reader never sees a half-written entry."""
        path = self.path_for(key)
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "job": job_fingerprint(job),
            "result": result_to_dict(result),
        }
        atomic_write_text(path, json.dumps(payload))
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        return removed


# --- execution ----------------------------------------------------------------


def execute_job(job: SweepJob) -> ExperimentResult:
    """Materialize and run one job (this is the process-pool entry point).

    The policy RNG is re-derived from the config seed and the spec's
    stream name, so execution is a pure function of the job value — the
    foundation of both determinism and cacheability.
    """
    config = job.config
    # Self-describing results: the spec rides along through persistence.
    # The JSON round trip normalizes tuples to lists up front, so cached
    # copies compare exactly equal to fresh ones.  The checkpoint section
    # is reset in returned results for the same reason it is excluded
    # from cache keys: it is purely operational, and per-job snapshot
    # paths must not make otherwise-identical results compare unequal.
    spec_dict = json.loads(json.dumps(dataclasses.asdict(job.policy)))

    def canonical(result: ExperimentResult) -> ExperimentResult:
        return dataclasses.replace(
            result,
            config=result.config.replace(checkpoint=CheckpointConfig()),
            policy=spec_dict,
        )

    if config.checkpoint.directory is not None:
        # Checkpointing sweeps give every job its own snapshot directory
        # keyed by content hash (checkpointing itself never splits the
        # key), so a killed grid resumes each in-flight job mid-run
        # instead of redoing it.  Anything unusable on disk is a miss,
        # never an error — same contract as the result cache.
        from repro.checkpoint import (
            CheckpointError,
            latest_snapshot_path,
            resume_experiment,
        )

        job_dir = Path(config.checkpoint.directory) / "jobs" / job_key(job)
        config = config.replace(
            checkpoint=dataclasses.replace(
                config.checkpoint, directory=str(job_dir)
            )
        )
        try:
            latest_snapshot_path(job_dir)
        except CheckpointError:
            pass  # nothing on disk yet: run from scratch below
        else:
            try:
                result = resume_experiment(
                    job_dir, target_accuracy=job.target_accuracy
                )
            except CheckpointError:
                pass
            else:
                return canonical(result)
    rng = RngFactory(config.seed).get(f"policy.{job.policy.name}")
    policy = make_policy(
        job.policy.name, config, rng, params=job.policy.params_dict or None
    )
    result = run_experiment(policy, config, target_accuracy=job.target_accuracy)
    return canonical(result)


# -- telemetry plumbing --------------------------------------------------------
#
# Telemetry never changes what a job computes (instrumentation reads no
# RNG and touches no result), so the cache key is unaffected and traced
# sweeps stay bit-identical to untraced ones.


def _job_run_id(job: SweepJob, key: str) -> str:
    """Human-readable per-job run id used to scope worker events."""
    return (
        f"{job.policy.name}[budget={job.config.budget:g},"
        f"seed={job.config.seed}]#{key[:8]}"
    )


def _worker_init(telemetry_dir: Optional[str]) -> None:
    """Pool initializer: give each worker its own hub (or the null hub).

    Replacing the inherited hub is mandatory — a forked worker would
    otherwise write into the parent's open event file.
    """
    if telemetry_dir is None:
        set_telemetry(None)
    else:
        set_telemetry(
            Telemetry.for_directory(
                telemetry_dir, run_id="sweep", worker=f"w{os.getpid()}"
            )
        )


def _traced_execute(job: SweepJob, key: str) -> ExperimentResult:
    """Worker/serial entry point: run one job under its run scope.

    The job is timed as ``sweep.job`` (per-worker utilization in the
    manifest) and the worker's cumulative registry snapshot is re-dumped
    after every job so a crashed worker still leaves its last state.
    """
    hub = get_telemetry()
    if not hub.enabled:
        return execute_job(job)
    with hub.run_scope(_job_run_id(job, key)):
        with hub.timer("sweep.job"):
            result = execute_job(job)
    hub.dump_worker_snapshot()
    hub.flush()
    return result


@dataclass(frozen=True)
class SweepProgress:
    """One progress event: job ``index`` finished (``done`` of ``total``)."""

    index: int
    total: int
    job: SweepJob
    key: str
    cached: bool
    done: int


ProgressFn = Callable[[SweepProgress], None]


def _copy_result(result: ExperimentResult) -> ExperimentResult:
    """Independent deep copy via the persistence round trip (exact)."""
    return result_from_dict(result_to_dict(result))


def run_sweep(
    jobs: Iterable[SweepJob],
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    progress: Optional[ProgressFn] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[ExperimentResult]:
    """Run every job, reusing cached results, and return results in job order.

    ``workers=None`` uses the CPUs this process may run on
    (:func:`~repro.host.usable_cpus` — with one compute thread per worker
    the worker count is the whole parallelism budget); ``workers=1`` runs
    serially in-process (no executor), which is the debugging fallback.
    Duplicate jobs (identical content hash) execute once and the extra
    indices get independent copies.  ``progress`` is called once per finished job with
    a :class:`SweepProgress` event (from the main process; ordering across
    parallel jobs follows completion, not submission).

    ``telemetry`` is the sweep-level hub: it receives ``sweep.start`` /
    per-job ``sweep.job`` (cache hit/miss) / ``sweep.complete`` events
    and, when it has a trace directory, each pool worker opens its own
    ``events-w<pid>.jsonl`` there plus a registry snapshot the caller's
    :meth:`~repro.obs.Telemetry.finalize` merges into the manifest.
    Telemetry never alters results or cache keys.
    """
    jobs = list(jobs)
    total = len(jobs)
    if total == 0:
        return []
    if workers is None:
        workers = usable_cpus()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tel = telemetry if telemetry is not None else get_telemetry()

    keys = [job_key(j) for j in jobs]
    results: List[Optional[ExperimentResult]] = [None] * total
    done = 0
    cache_hits = 0
    tel.emit(
        "sweep.start",
        data={"jobs": total, "workers": workers, "cached_backend": cache is not None},
    )

    def emit(index: int, cached: bool) -> None:
        nonlocal done
        done += 1
        job = jobs[index]
        tel.emit(
            "sweep.job",
            data={
                "index": index,
                "key": keys[index][:16],
                "policy": job.policy.name,
                "budget": job.config.budget,
                "seed": job.config.seed,
                "cached": cached,
                "done": done,
                "total": total,
            },
        )
        if progress is not None:
            progress(
                SweepProgress(
                    index=index,
                    total=total,
                    job=job,
                    key=keys[index],
                    cached=cached,
                    done=done,
                )
            )

    if cache is not None:
        for i, key in enumerate(keys):
            hit = cache.load(key)
            if hit is not None:
                results[i] = hit
                cache_hits += 1
                tel.counter("sweep.cache_hits")
                emit(i, cached=True)

    # Group outstanding indices by key so duplicate jobs run once.
    pending: Dict[str, List[int]] = {}
    for i in range(total):
        if results[i] is None:
            pending.setdefault(keys[i], []).append(i)

    def install(key: str, result: ExperimentResult) -> None:
        indices = pending[key]
        if cache is not None:
            cache.store(key, jobs[indices[0]], result)
        tel.counter("sweep.cache_misses")
        for j, i in enumerate(indices):
            results[i] = result if j == 0 else _copy_result(result)
            emit(i, cached=False)

    telemetry_dir = (
        str(tel.directory) if tel.enabled and tel.directory is not None else None
    )
    if workers == 1 or len(pending) <= 1:
        # Serial fallback runs in-process: install the sweep hub so the
        # jobs' own instrumentation lands in the same trace.
        with use_telemetry(tel):
            for key in pending:
                install(key, _traced_execute(jobs[pending[key][0]], key))
    else:
        # The initializer always replaces the inherited hub, so forked
        # workers either trace into their own files or stay silent.
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            initializer=_worker_init,
            initargs=(telemetry_dir,),
        ) as pool:
            futures = {
                pool.submit(_traced_execute, jobs[pending[key][0]], key): key
                for key in pending
            }
            for fut in as_completed(futures):
                install(futures[fut], fut.result())

    tel.emit(
        "sweep.complete",
        data={
            "jobs": total,
            "cache_hits": cache_hits,
            "executed": len(pending),
        },
    )
    return results  # type: ignore[return-value]  # every slot is filled


# --- the grid -----------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Policies × named scenarios × seeds over one base config.

    Job ``(scenario, policy, seed)`` runs ``policy`` on
    ``base.override(overrides).replace(seed=seed)``; ``jobs`` lists them
    as ``(scenario, job)`` pairs, scenario-major, then policy, then seed.
    Construction checks every job, so a bad config or strategy parameter
    raises ``ValueError`` before anything runs — as does an empty axis
    or a repeated policy name, scenario name or seed, which would count
    one run twice in every report.
    """

    base: ExperimentConfig
    policies: Sequence[Union[str, PolicySpec]]
    scenarios: Sequence[Tuple[str, Mapping[str, object]]]
    seeds: Sequence[int]
    jobs: Tuple[Tuple[str, SweepJob], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        policies = tuple(
            p if isinstance(p, PolicySpec) else PolicySpec(p) for p in self.policies
        )
        scenarios = tuple((str(n), dict(o)) for n, o in self.scenarios)
        seeds = tuple(int(s) for s in self.seeds)
        for axis, names in (
            ("policy", [p.name for p in policies]),
            ("scenario", [n for n, _ in scenarios]),
            ("seed", list(seeds)),
        ):
            if not names:
                raise ValueError(f"need at least one {axis}")
            repeated = [v for i, v in enumerate(names) if v in names[:i]]
            if repeated:
                raise ValueError(f"repeated {axis}: {repeated[0]}")
        jobs = []
        for name, overrides in scenarios:
            config = self.base.override(overrides)
            for policy in policies:
                resolve_params(get_strategy(policy.name), config, policy.params_dict)
                jobs += [(name, SweepJob(policy, config.replace(seed=s))) for s in seeds]
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "jobs", tuple(jobs))

    @classmethod
    def over_budgets(cls, base, policies, budgets=None, seeds=None) -> "Grid":
        """One scenario ``budget=<b>`` per budget (default: the base's
        budget), over ``seeds`` (default: the base's seed)."""
        return cls(
            base,
            policies,
            [(f"budget={b:g}", {"budget": b})
             for b in (budgets if budgets is not None else [base.budget])],
            seeds if seeds is not None else [base.seed],
        )


#: (scenario, policy name) → one result per seed, in seed order.
GridResults = Dict[Tuple[str, str], List[ExperimentResult]]


class EmptyRunError(RuntimeError):
    """A grid job stopped before its first epoch, so no report can score it."""

    def __init__(self, job: SweepJob, result: ExperimentResult) -> None:
        cfg = job.config
        super().__init__(
            f"{job.policy.name} budget={cfg.budget:g} seed={cfg.seed} stopped before "
            f"its first epoch ({result.stop_reason}); no report can score an empty run"
        )


def run_grid(
    grid: Grid,
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    progress: Optional[ProgressFn] = None,
    telemetry: Optional[Telemetry] = None,
) -> GridResults:
    """Run ``grid.jobs`` through :func:`run_sweep` (a progress event's
    ``index`` indexes ``grid.jobs``) and group the results by cell.
    Raises :class:`EmptyRunError` for the first job that ran no epoch."""
    results = run_sweep(
        [job for _, job in grid.jobs],
        workers=workers, cache=cache, progress=progress, telemetry=telemetry,
    )
    cells: GridResults = {}
    for (scenario, job), result in zip(grid.jobs, results):
        if not result.trace.records:
            raise EmptyRunError(job, result)
        cells.setdefault((scenario, job.policy.name), []).append(result)
    return cells


def results_identical(a: ExperimentResult, b: ExperimentResult) -> bool:
    """Bitwise result equality (NaN-aware traces, exact weights)."""
    return (
        a.stop_reason == b.stop_reason
        and a.config == b.config
        and bool(a.trace.equals(b.trace))
        and bool(np.array_equal(a.final_w, b.final_w))
    )
