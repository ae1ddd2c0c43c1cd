"""Work-stealing shard scheduler over a pool of worker processes.

The :class:`ShardExecutor` owns the control plane: per-worker bounded
inboxes, one shared result outbox, a contiguous-backlog split with
work stealing, JSONL checkpointing and the failure ladder (re-queue a
dead worker's in-flight shards, respawn the worker, give up with a
stable error code once budgets are burned).

Two decisions keep it deterministic enough to test hard:

* **Shards carry the state, workers carry none.**  A shard record is
  a pure function of ``(plan, shard index)`` — workers regenerate the
  op stream from the plan seed and verify the digest — so it never
  matters *which* worker ran a shard, how often it was stolen, or how
  many times it was re-queued after a crash.  Scheduling is free to be
  racy because the merged result cannot be.
* **Fork-and-inherit warm-up.**  The parent pre-compiles the kernels
  (and, for the action, an aot warm-up context) before forking, so
  every worker inherits the warm pool copy-on-write instead of paying
  per-process compilation.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from queue import Empty

from repro import telemetry
from repro.errors import ShardError, ShardExhaustedError
from repro.kernels.registry import cached_kernels
from repro.shard.worker import worker_main

#: In-flight shards a worker may hold (its own queue depth).  Small, so
#: a crash loses little and stealing stays effective near the tail.
DEFAULT_QUEUE_DEPTH = 2

#: Times one shard may be re-queued after worker deaths before the run
#: aborts with ``shard_exhausted`` (a shard that kills every host it
#: lands on is a bug, not bad luck).
DEFAULT_MAX_REQUEUES = 2


@dataclass
class ShardRunStats:
    """Scheduler-side counters for one execution (BENCH + metrics)."""

    workers: int = 0
    shards_completed: int = 0
    steals: int = 0
    requeues: int = 0
    worker_failures: int = 0
    worker_restarts: int = 0
    exec_wall_s: float = 0.0


class _Worker:
    """Bookkeeping for one live worker process."""

    __slots__ = ("process", "inbox", "ready", "inflight")

    def __init__(self, process, inbox) -> None:
        self.process = process
        self.inbox = inbox
        self.ready = False
        self.inflight: list[int] = []


class ShardExecutor:
    """Runs a plan's shards across forked worker processes."""

    def __init__(
        self,
        plan,
        *,
        workers: int | None = None,
        engine: str = "aot",
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        fail_injection: dict | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ShardError(
                f"--workers must be at least 1 (got {workers})")
        self.plan = plan
        self.engine = engine
        self.workers = min(
            plan.shards, workers or max(os.cpu_count() or 1, 1))
        self.queue_depth = max(1, queue_depth)
        self.max_requeues = max(0, max_requeues)
        #: ``{shard_index: kills}`` — the next *kills* assignments of
        #: that shard carry a die order (recovery tests only).
        self.fail_injection = dict(fail_injection or {})
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = multiprocessing.get_context()
        self._spec = {"kind": plan.kind, "plan": plan.to_dict()}
        self._prewarm()

    def _prewarm(self) -> None:
        """Warm the kernel and aot caches before forking.

        This also populates the persistent on-disk
        artifact cache (:mod:`repro.rv64.artifacts`): the forked
        workers' runners then bind the persisted thunk sources instead
        of re-tracing per process.
        """
        cached_kernels(self.plan.p)
        if self.plan.kind == "action" and self.engine == "aot":
            from repro.field.simulated import SimulatedFieldContext

            field = SimulatedFieldContext(
                self.plan.p, variant=self.plan.variant,
                engine=self.engine)
            one = field.mul(2, 3)
            field.sqr(one)
            field.add(one, one)
            field.sub(one, 1)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        *,
        checkpoint_path: str | None = None,
        shard_ids=None,
        completed: dict | None = None,
        stats: ShardRunStats | None = None,
    ) -> dict:
        """Execute the backlog; return ``{shard_index: record}``.

        *shard_ids* restricts the run to a subset (bounded smoke
        slices); *completed* seeds already-finished records (resume) —
        they are skipped, not re-run.  Every finished shard is
        appended to *checkpoint_path* (with a plan header when the
        file is new) and flushed before it counts as done.
        """
        todo = list(range(self.plan.shards)) if shard_ids is None \
            else sorted(set(shard_ids))
        for index in todo:
            if index < 0 or index >= self.plan.shards:
                raise ShardError(
                    f"shard {index} out of range for a "
                    f"{self.plan.shards}-shard plan")
        records: dict[int, dict] = dict(completed or {})
        todo = [index for index in todo if index not in records]
        stats = stats if stats is not None else ShardRunStats()
        self._active_stats = stats
        began = time.perf_counter()
        checkpoint = None
        self._workers: list[_Worker] = []
        try:
            if checkpoint_path is not None:
                fresh = not os.path.exists(checkpoint_path) \
                    or os.path.getsize(checkpoint_path) == 0
                checkpoint = open(
                    checkpoint_path, "a", encoding="utf-8")
                if fresh:
                    header = {
                        "type": "plan",
                        "schema": 1,
                        "kind": self.plan.kind,
                        "digest": self.plan.stream_digest,
                        "params": getattr(self.plan, "params_key",
                                          None),
                        "seed": self.plan.seed,
                        "variant": self.plan.variant,
                        "shards": self.plan.shards,
                        "n_ops": getattr(self.plan, "n_ops", None),
                    }
                    checkpoint.write(json.dumps(header) + "\n")
                    checkpoint.flush()
            if not todo:
                return records

            nworkers = min(self.workers, len(todo))
            stats.workers = max(stats.workers, nworkers)
            self._outbox = self._mp.Queue()
            # contiguous split: worker w gets todo[w*len/n : (w+1)*len/n],
            # preserving stream locality; stealing rebalances the tail
            self._backlogs = [
                deque(todo[worker * len(todo) // nworkers:
                           (worker + 1) * len(todo) // nworkers])
                for worker in range(nworkers)
            ]
            self._requeue_counts: dict[int, int] = {}
            self._restarts_left = nworkers * (self.max_requeues + 2)
            for worker_id in range(nworkers):
                self._spawn(worker_id)

            pending = len(todo)
            while pending:
                self._assign_all()
                try:
                    message = self._outbox.get(timeout=0.1)
                except Empty:
                    self._reap(stats)
                    continue
                tag = message[0]
                if tag == "ready":
                    self._workers[message[1]].ready = True
                elif tag == "done":
                    _tag, worker_id, record = message
                    index = record["shard"]
                    worker = self._workers[worker_id]
                    if index in worker.inflight:
                        worker.inflight.remove(index)
                    if index in records:
                        continue  # duplicate after a requeue race
                    records[index] = record
                    pending -= 1
                    stats.shards_completed += 1
                    telemetry.record_shard_completed(
                        worker_id,
                        int(record.get("cycles", 0)),
                        int(record.get("instructions", 0)))
                    if checkpoint is not None:
                        checkpoint.write(json.dumps(record) + "\n")
                        checkpoint.flush()
                        telemetry.record_shard_checkpoint()
                else:  # ("error", id, code, message)
                    _tag, worker_id, code, text = message
                    self._fail_worker(
                        worker_id, stats,
                        reason=f"worker {worker_id} reported "
                               f"[{code}]: {text}")
            return records
        finally:
            stats.exec_wall_s += time.perf_counter() - began
            if checkpoint is not None:
                checkpoint.close()
            self._shutdown()

    # -- scheduling internals ------------------------------------------------

    def _spawn(self, worker_id: int) -> None:
        inbox = self._mp.Queue(self.queue_depth + 1)
        process = self._mp.Process(
            target=worker_main,
            args=(worker_id, self._spec, self.engine, inbox,
                  self._outbox),
            daemon=True,
        )
        process.start()
        if worker_id < len(self._workers):
            self._workers[worker_id] = _Worker(process, inbox)
        else:
            self._workers.append(_Worker(process, inbox))

    def _assign_all(self) -> None:
        for worker_id, worker in enumerate(self._workers):
            if not worker.ready or not worker.process.is_alive():
                continue
            while len(worker.inflight) < self.queue_depth:
                index = self._take_work(worker_id)
                if index is None:
                    break
                die = False
                kills = self.fail_injection.get(index, 0)
                if kills > 0:
                    self.fail_injection[index] = kills - 1
                    die = True
                worker.inflight.append(index)
                worker.inbox.put(("shard", index, die))

    def _take_work(self, worker_id: int) -> int | None:
        """Own backlog first; then steal from the longest peer."""
        own = self._backlogs[worker_id]
        if own:
            return own.popleft()
        victim = max(
            (backlog for backlog in self._backlogs if backlog),
            key=len, default=None)
        if victim is None:
            return None
        telemetry.record_shard_steal(worker_id)
        self._stats_steal()
        return victim.pop()

    def _stats_steal(self) -> None:
        self._active_stats.steals += 1

    def _reap(self, stats: ShardRunStats) -> None:
        for worker_id, worker in enumerate(self._workers):
            if worker.process is not None \
                    and not worker.process.is_alive():
                code = worker.process.exitcode
                self._fail_worker(
                    worker_id, stats,
                    reason=f"worker {worker_id} died "
                           f"(exit code {code})")

    def _fail_worker(self, worker_id: int, stats: ShardRunStats,
                     *, reason: str) -> None:
        worker = self._workers[worker_id]
        stats.worker_failures += 1
        telemetry.record_shard_worker_failure(worker_id)
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)
        orphans = list(worker.inflight)
        worker.inflight = []
        for index in orphans:
            count = self._requeue_counts.get(index, 0) + 1
            self._requeue_counts[index] = count
            if count > self.max_requeues:
                raise ShardExhaustedError(
                    f"shard {index} was re-queued {count} times "
                    f"(limit {self.max_requeues}) after worker "
                    f"failures; last failure: {reason}")
            stats.requeues += 1
            telemetry.record_shard_requeue(index)
            shortest = min(self._backlogs, key=len)
            shortest.appendleft(index)
        if self._restarts_left <= 0:
            raise ShardExhaustedError(
                f"worker restart budget exhausted after "
                f"{stats.worker_failures} failures; last failure: "
                f"{reason}")
        self._restarts_left -= 1
        stats.worker_restarts += 1
        self._spawn(worker_id)

    def _shutdown(self) -> None:
        for worker in getattr(self, "_workers", []):
            try:
                worker.inbox.put_nowait(("stop",))
            except Exception:  # noqa: BLE001 - full queue, dying proc
                pass
        for worker in getattr(self, "_workers", []):
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
