"""Parallel fan-out and on-disk caching for planner sweeps.

The grid searches behind every headline artifact (Figures 8/10,
Tables 5/8/9) evaluate hundreds of (method, parallel config) cells, and
several experiments share cells — the Figure 8 GBS-128 column *is* the
Figure 10 13B row.  This module makes those sweeps cheap twice over:

* :func:`evaluate_tasks` fans one
  :func:`~repro.planner.evaluate.evaluate_config` call per cell out
  over the planner worker pool.  Results are merged back **by task
  index**, so the outcome list — and therefore the selected optimum —
  is bit-identical for any worker count, including the inline
  ``jobs=1`` path.
* :class:`SweepCache` persists each evaluation outcome (including
  rejections) under ``artifacts/cache/``, keyed by a content
  fingerprint of everything that determines the result: the cache
  schema version, method, model spec, cluster spec, config, and global
  batch size.  A second sweep over overlapping cells replays from disk:
  after a restart, or where experiments share cells.  A served repeat
  of a whole request never gets here — the service's job index
  answers it first.

Environment knobs (all optional):

* ``REPRO_CACHE_DIR`` — cache directory (default ``artifacts/cache``).
* ``REPRO_SWEEP_CACHE=0`` — disable the cache even when one is passed.
* ``REPRO_JOBS`` — default worker count for the experiment wrappers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from hashlib import sha256
from pathlib import Path

from repro.analysis.capacity.rules import CAPACITY_VERSION
from repro.analysis.evaluate.rules import EVALUATOR_VERSION
from repro.hardware.cluster import ClusterSpec
from repro.model.spec import ModelSpec
from repro.obs.events import NULL_SINK, EventSink
from repro.parallel.strategies import ParallelConfig
from repro.planner import pool
from repro.planner.evaluate import EvalResult, evaluate_config
from repro.schedules import gencache
from repro.schedules.base import ScheduleError
from repro.schedules.greedy import BuildPruned

#: Bump when the evaluation semantics change so stale cache entries
#: (computed under the old semantics) can never be replayed.
#: Schema 2 added the evaluation tier (and the evaluator version) to
#: both the fingerprint and the stored result.  Schema 3 folds the
#: schedule generator's version into the fingerprint: generation moved
#: to the array-native engine (repro.schedules.greedy, so entries
#: computed by a different generator can never replay).  Schema 4 adds
#: the channel-buffer ledger: the capacity mode and the capacity
#: analyzer's version join the fingerprint (peak memory now includes
#: ring bytes, so pre-capacity entries and entries across capacity
#: modes can never alias).
CACHE_SCHEMA = 4


@dataclass(frozen=True)
class EvalTask:
    """One grid cell: everything :func:`evaluate_config` needs.

    ``tier`` selects the evaluation tier (``"sim"`` or ``"analytic"``,
    see :func:`~repro.planner.evaluate.evaluate_config`); it is part of
    the cache fingerprint, so analytic and sim outcomes never alias.
    ``ceiling`` (bytes) prunes the cell once its memory floor reaches it;
    it never changes a result, so it is not fingerprinted.
    """

    method: str
    spec: ModelSpec
    cluster: ClusterSpec
    config: ParallelConfig
    global_batch_size: int
    tier: str = "sim"
    ceiling: int | None = None


@dataclass(frozen=True)
class EvalOutcome:
    """Result of one task: an :class:`EvalResult`, a rejection, or a prune.

    ``error`` carries the rejection reason when the evaluation raised
    (invalid config, scheduler wedge); ``floor_bytes`` a certified memory
    floor at or above the task's ceiling (``pruned_ops``: ops its aborted
    builds emitted).  Exactly one of the three is set.
    """

    result: EvalResult | None = None
    error: str | None = None
    floor_bytes: int | None = None
    pruned_ops: int = 0

    @property
    def ok(self) -> bool:
        return self.result is not None


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=64)
def _canonical_spec(obj: ModelSpec | ClusterSpec) -> str:
    """Canonical JSON of a spec's ``asdict`` payload, built once per
    (frozen, hashable) object rather than deep-copied once per task; a
    ``str``, so the shared payload can never be mutated."""
    return _canonical(asdict(obj))


def eval_fingerprint(task: EvalTask) -> str:
    """Stable content hash of one evaluation's full input."""
    payload = {
        "schema": CACHE_SCHEMA,
        "method": task.method,
        "config": asdict(task.config),
        "global_batch_size": task.global_batch_size,
        # The evaluation tier and the analytic evaluator's version are
        # part of the input: a tier="sim" sweep must never replay an
        # analytic entry (or vice versa), and bumping the evaluator
        # invalidates every analytic cell it computed.
        "tier": task.tier,
        "evaluator": EVALUATOR_VERSION,
        # Schedule construction happens inside the evaluation, so the
        # generation engine's version is part of the input too.
        "generator": gencache.GENERATOR_VERSION,
        # The channel-buffer ledger changes peak memory (and therefore
        # OOM verdicts): both its mode (one since schema 4, kept so
        # on-disk entries still replay) and the capacity analyzer's
        # version are part of the input.
        "capacity_mode": "backpressure-free",
        "capacity": CAPACITY_VERSION,
    }
    # The hashed blob is byte-for-byte the canonical JSON of ``payload``
    # with ``"spec"``/``"cluster"`` entries (on-disk caches written
    # before the split still replay): each top-level value is encoded on
    # its own and the members joined in key order.
    members = {key: _canonical(value) for key, value in payload.items()}
    members["spec"] = _canonical_spec(task.spec)
    members["cluster"] = _canonical_spec(task.cluster)
    blob = "{" + ",".join(f'"{k}":{members[k]}' for k in sorted(members)) + "}"
    return sha256(blob.encode()).hexdigest()


class SweepCache:
    """Filesystem cache of evaluation outcomes, one JSON file per cell.

    Writes are atomic (a temp file private to the writing process and
    thread + ``os.replace``) so concurrent workers, concurrent service
    jobs and interrupted runs can never leave a torn entry; corrupt or
    stale-schema files read as misses and are overwritten.

    A pruned cell is stored as a ``floor`` entry (its certified memory
    floor, no ``result``, so older readers miss) that answers only a
    task whose ceiling it reaches and never replaces a complete entry;
    a complete entry prunes a task whose ceiling its own floor reaches.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", "artifacts/cache")
        self.root = Path(root)
        self.enabled = os.environ.get("REPRO_SWEEP_CACHE", "1") != "0"
        self.hits = 0
        self.misses = 0

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, task: EvalTask) -> EvalOutcome | None:
        """Cached outcome of ``task``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        fingerprint = eval_fingerprint(task)
        # Anything but a well-formed entry of the current schema — an
        # unreadable file, non-JSON text, a non-dict body, a missing or
        # truncated field — is a miss; the recompute overwrites it.
        try:
            entry = json.loads(self._path(fingerprint).read_text())
            if entry["schema"] != CACHE_SCHEMA:
                raise ValueError("stale cache schema")
            if entry["status"] == "error":
                outcome = EvalOutcome(error=str(entry["reason"]))
            elif entry["status"] == "floor":
                floor = int(entry["floor"])
                if task.ceiling is None or task.ceiling > floor:
                    raise ValueError("the floor does not decide this task")
                outcome = EvalOutcome(floor_bytes=floor)
            else:
                data = entry["result"]
                data["config"] = ParallelConfig(**data["config"])
                result = EvalResult(**data)
                floor = result.peak_memory_bytes - result.channel_buffer_bytes
                if task.ceiling is not None and floor >= task.ceiling:
                    outcome = EvalOutcome(floor_bytes=floor)
                else:
                    outcome = EvalOutcome(result=result)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def put(self, task: EvalTask, outcome: EvalOutcome) -> None:
        """Persist ``outcome`` atomically; failures degrade to no cache."""
        if not self.enabled:
            return
        fingerprint = eval_fingerprint(task)
        entry: dict[str, object] = {
            "schema": CACHE_SCHEMA,
            "method": task.method,
            "model": task.spec.name,
            "cluster": task.cluster.name,
            "global_batch_size": task.global_batch_size,
        }
        path = self._path(fingerprint)
        if outcome.result is not None:
            entry["status"] = "ok"
            entry["result"] = asdict(outcome.result)
        elif outcome.floor_bytes is not None:
            try:  # a floor never replaces a complete entry
                if json.loads(path.read_text())["status"] != "floor":
                    return
            except (OSError, ValueError, KeyError, TypeError):
                pass
            entry["status"] = "floor"
            entry["floor"] = outcome.floor_bytes
        else:
            entry["status"] = "error"
            entry["reason"] = outcome.error
        # Unique per writer: pool workers differ in pid, the service's
        # job threads (one pid) in thread id — two writers of one cell
        # must never interleave on one temp file.
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(entry, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)


def _run_task(task: EvalTask) -> tuple[EvalOutcome, float]:
    """Worker body: evaluate one cell, mapping rejections to outcomes;
    returns the outcome and this call's wall time."""
    start = time.perf_counter()
    try:
        outcome = EvalOutcome(
            result=evaluate_config(
                task.method,
                task.spec,
                task.cluster,
                task.config,
                task.global_batch_size,
                tier=task.tier,
                ceiling=task.ceiling,
            )
        )
    except BuildPruned as pruned:
        outcome = EvalOutcome(floor_bytes=pruned.floor_bytes, pruned_ops=pruned.ops)
    except (ScheduleError, ValueError) as exc:
        text = str(exc)
        outcome = EvalOutcome(
            error=text.splitlines()[0] if text else type(exc).__name__
        )
    return outcome, time.perf_counter() - start


def evaluate_tasks(
    tasks: list[EvalTask],
    jobs: int = 1,
    cache: SweepCache | None = None,
    sink: EventSink = NULL_SINK,
) -> list[EvalOutcome]:
    """Evaluate every task; returns outcomes aligned with ``tasks``.

    Cache hits are resolved up front; only misses are dispatched — one
    :func:`~repro.planner.evaluate.evaluate_config` call per cell, on
    the planner worker pool when ``jobs > 1``, inline otherwise — and
    written back.  Results are merged back **by task index**, so the
    returned list depends only on the task list — not on worker count,
    scheduling, or cache state — which is what makes sweeps
    reproducible across machines and ``--jobs`` settings.

    With an enabled ``sink``, the sweep emits one ``cache hit`` instant
    per replayed cell, one ``eval`` span per computed cell (worker
    durations are measured in the worker; pool runs lay the spans out
    at merge time) whose ``args["configs"]`` names its configuration —
    every computed cell appears in exactly one — and final
    ``cache_hits`` / ``evaluated`` / ``errors`` counters plus
    ``worker_reuse`` (tasks served by an already-warm pool, also in
    :func:`repro.planner.pool.stats` for ``/v1/healthz``).
    """
    observing = sink.enabled
    t0 = time.perf_counter() if observing else 0.0
    outcomes: list[EvalOutcome | None] = [None] * len(tasks)
    pending: list[int] = []
    cache_hits = 0
    for i, task in enumerate(tasks):
        hit = cache.get(task) if cache is not None else None
        if hit is not None:
            outcomes[i] = hit
            cache_hits += 1
            if observing:
                sink.instant(
                    f"cache hit {task.method} {task.config.describe()}",
                    ts=time.perf_counter() - t0,
                    cat="cache",
                    args={"method": task.method, "index": i},
                )
        else:
            pending.append(i)

    errors = 0
    reuse_before = pool.stats()["worker_reuse"]
    # Inline at jobs=1; order-preserving either way.
    computed = pool.run_map(_run_task, [tasks[i] for i in pending], jobs)
    for i, (outcome, seconds) in zip(pending, computed):
        task = tasks[i]
        outcomes[i] = outcome
        if outcome.error is not None:
            errors += 1
        if cache is not None:
            cache.put(task, outcome)
        if observing:
            now = time.perf_counter() - t0
            sink.span(
                f"eval {task.method} {task.config.describe()}",
                ts=max(0.0, now - seconds),
                dur=seconds,
                cat="eval",
                args={
                    "method": task.method,
                    "configs": [task.config.describe()],
                },
            )
    reuse_delta = pool.stats()["worker_reuse"] - reuse_before
    if observing:
        end = time.perf_counter() - t0
        sink.counter("cache_hits", float(cache_hits), ts=end)
        sink.counter("evaluated", float(len(pending)), ts=end)
        sink.counter("errors", float(errors), ts=end)
        sink.counter("worker_reuse", float(reuse_delta), ts=end)
    return [outcome for outcome in outcomes if outcome is not None]


def best_result(evaluated: list[EvalResult]) -> EvalResult | None:
    """The optimum of a trail: the minimum over non-OOM results of
    ``(iteration_time, config.sort_key())`` — a total order, so ties
    between equally fast configurations resolve identically no matter
    how the work was partitioned."""
    best: EvalResult | None = None
    for result in evaluated:
        if result.oom:
            continue
        if best is None or (
            (result.iteration_time_s, result.config.sort_key())
            < (best.iteration_time_s, best.config.sort_key())
        ):
            best = result
    return best


def merge_outcomes(
    outcomes: list[EvalOutcome],
) -> tuple[EvalResult | None, list[EvalResult]]:
    """Deterministic reduction of a sweep: the optimum and the trail."""
    evaluated = [o.result for o in outcomes if o.result is not None]
    return best_result(evaluated), evaluated


@dataclass
class PlannerSettings:
    """Process-wide defaults for experiment-driven sweeps.

    The CLI's ``--jobs``/``--no-cache`` flags and the ``REPRO_JOBS`` /
    ``REPRO_SWEEP_CACHE`` environment variables configure this; the
    experiment modules route their searches through it so a whole
    artifact regeneration shares one cache and one worker budget.
    """

    jobs: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_JOBS", "1"))
    )
    cache: SweepCache | None = None
    sink: EventSink = field(default_factory=lambda: NULL_SINK)

    def shared_cache(self) -> SweepCache | None:
        if self.cache is None:
            self.cache = SweepCache()
        return self.cache if self.cache.enabled else None
