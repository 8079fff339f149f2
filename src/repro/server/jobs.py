"""Bounded asynchronous job execution for the campaign server.

``POST /scenarios/{id}/solve`` must return immediately — a solve can take
seconds to minutes — so solves run as jobs: a :class:`JobManager` owns a
bounded queue and a fixed set of daemon worker threads, and the HTTP layer
polls ``GET /jobs/{id}``.  The queue bound is the server's backpressure: a
submission past capacity raises :class:`~repro.server.errors.JobQueueFull`
(HTTP 503) instead of letting resident work grow without limit.

Jobs are plain closures returning a JSON-ready dict; per-scenario locking is
the service layer's concern (two jobs on one scenario serialise on its
resident lock, jobs on different scenarios run concurrently up to
``job_workers``).
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.server.errors import JobQueueFull, UnknownJob

logger = logging.getLogger(__name__)

#: Terminal sentinel shipped once per worker at shutdown.
_STOP = object()

#: Seconds between status checks in :meth:`JobManager.wait`.
_WAIT_POLL_SECONDS = 0.02

JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")


@dataclass
class Job:
    """One unit of asynchronous work and its observable lifecycle."""

    job_id: str
    kind: str
    scenario_id: str
    runner: Callable[[], dict]
    status: str = "queued"
    result: Optional[dict] = None
    error: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def as_dict(self) -> dict:
        """JSON-ready view served by ``GET /jobs/{id}``."""
        waited = (self.started_at or time.time()) - self.created_at
        ran = None
        if self.started_at is not None:
            ran = (self.finished_at or time.time()) - self.started_at
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "scenario_id": self.scenario_id,
            "status": self.status,
            "result": self.result,
            "error": self.error,
            "queued_seconds": waited,
            "run_seconds": ran,
        }


class JobManager:
    """Fixed worker threads draining one bounded job queue."""

    def __init__(self, workers: int, max_queued: int) -> None:
        self.workers = int(workers)
        self.max_queued = int(max_queued)
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.max_queued)
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._threads: List[threading.Thread] = [
            threading.Thread(
                target=self._work, name=f"repro-job-worker-{index}", daemon=True
            )
            for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------

    def submit(self, kind: str, scenario_id: str, runner: Callable[[], dict]) -> Job:
        """Enqueue a job; raises :class:`JobQueueFull` at capacity."""
        if self._closed:
            raise JobQueueFull("server is shutting down")
        job = Job(
            job_id=f"{kind}-{next(self._ids):06d}",
            kind=kind,
            scenario_id=scenario_id,
            runner=runner,
        )
        with self._lock:
            self._jobs[job.job_id] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                del self._jobs[job.job_id]
            raise JobQueueFull(
                f"job queue is full ({self.max_queued} pending); retry later"
            ) from None
        return job

    def get(self, job_id: str) -> Job:
        """Look a job up; raises :class:`UnknownJob` for unknown ids."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def jobs(self) -> List[Job]:
        """Every known job, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created_at)

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until a job reaches a terminal status (test/client helper)."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job.status in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {job.status} after {timeout}s")
            time.sleep(_WAIT_POLL_SECONDS)

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting jobs, cancel the queued ones, join the workers."""
        if self._closed:
            return
        self._closed = True
        # Drain whatever is still queued so workers only see sentinels next.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not _STOP:
                job.status = "cancelled"
                job.finished_at = time.time()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _work(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            if self._closed:
                job.status = "cancelled"
                job.finished_at = time.time()
                continue
            job.status = "running"
            job.started_at = time.time()
            try:
                job.result = job.runner()
                job.status = "done"
            except Exception as error:
                job.status = "failed"
                job.error = f"{type(error).__name__}: {error}"
                logger.exception("job %s failed", job.job_id)
                logger.debug("job %s traceback:\n%s", job.job_id, traceback.format_exc())
            finally:
                job.finished_at = time.time()
