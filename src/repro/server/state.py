"""Resident scenario state: the thing the campaign server keeps warm.

A batch run pays graph compile, world sampling, kernel warm-up and pool
spin-up on every invocation; the server pays them once per registered
scenario and keeps the results resident:

* the built :class:`~repro.economics.scenario.Scenario` (with its compiled
  CSR graph cached on the :class:`~repro.graph.social_graph.SocialGraph`),
* one RNG-frozen :class:`~repro.diffusion.monte_carlo.MonteCarloEstimator`
  whose worlds, delta engine, memo caches and warmed kernel all of the
  scenario's solves and what-if queries share,
* for tiered solves, one :class:`~repro.diffusion.rr_sets.RRBenefitEstimator`
  screening sketch sampled on the first ``"tiered": true`` solve and reused
  by every later one (dropped when graph events evolve the topology), and
* counters proving what was (and was not) re-paid — ``graph_compiles`` /
  ``estimator_builds`` / ``kernel_warmups`` stay at 1 however many solves
  run, which is exactly what the warm-start tests assert.

Entries are keyed by a content fingerprint of everything that determines the
resident state (dataset recipe or SNAP file bytes, economics, seed, world
count), so registering the same inputs twice lands on the same entry.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.diffusion.factory import make_estimator, rr_sketch
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.rr_sets import RRBenefitEstimator
from repro.economics.scenario import Scenario
from repro.exceptions import ReproError
from repro.experiments.config import ServerConfig
from repro.experiments.datasets import build_scenario, snap_scenario
from repro.server.errors import InvalidRequest, UnknownScenario
from repro.server.schemas import RegisterScenarioRequest


@dataclass
class ResidentScenario:
    """One registered scenario and everything kept warm for it."""

    scenario_id: str
    fingerprint: str
    label: str
    scenario: Scenario
    num_samples: int
    seed: int
    created_at: float = field(default_factory=time.time)
    #: Serialises estimator use: solves and what-ifs on one scenario take
    #: this lock, so they never interleave on the shared delta engine.
    lock: threading.RLock = field(default_factory=threading.RLock)
    estimator: Optional[MonteCarloEstimator] = None
    #: The screening tier of tiered solves: one RR sketch sampled on the
    #: first ``"tiered": true`` solve and reused by every later one (the
    #: per-solve :class:`~repro.diffusion.tiered.TieredEstimator` wrapper is
    #: throwaway; the sketch and the MC tier are the expensive parts).
    sketch: Optional[RRBenefitEstimator] = None
    #: Amortised-cost counters (each should hit 1 and stay there).
    graph_compiles: int = 0
    estimator_builds: int = 0
    kernel_warmups: int = 0
    sketch_builds: int = 0
    #: Wall-clock of the one-time builds (0.0 until they happen).
    graph_compile_seconds: float = 0.0
    estimator_build_seconds: float = 0.0
    sketch_build_seconds: float = 0.0
    #: Request counters.
    solves_completed: int = 0
    whatifs_answered: int = 0
    #: Graph-event bookkeeping: batches applied, and solves currently queued
    #: or running (events are refused with 409 while this is non-zero).
    events_applied: int = 0
    solves_in_flight: int = 0
    #: The last completed solve (the base every what-if answers from).
    last_solve: Optional[object] = None
    last_solve_job: Optional[str] = None

    def ensure_estimator(self, config: ServerConfig, pool=None) -> tuple:
        """The resident estimator, building it on first use.

        Returns ``(estimator, built)``; ``built`` is True only for the call
        that paid graph compile + world sampling + kernel warm-up.  Callers
        hold :attr:`lock`.
        """
        if self.estimator is not None:
            return self.estimator, False
        began = time.perf_counter()
        self.scenario.compiled_graph()
        self.graph_compile_seconds = time.perf_counter() - began
        self.graph_compiles += 1
        began = time.perf_counter()
        self.estimator = make_estimator(
            self.scenario,
            "mc-compiled",
            num_samples=self.num_samples,
            seed=self.seed,
            spec=config.estimator,
            pool=pool,
        )
        self.estimator_build_seconds = time.perf_counter() - began
        self.estimator_builds += 1
        if self.estimator.kernel_active:
            self.kernel_warmups += 1
        return self.estimator, True

    def ensure_sketch(self) -> tuple:
        """The resident RR screening sketch, sampling it on first use.

        Returns ``(sketch, built)`` like :meth:`ensure_estimator`.  The
        sketch is dropped whenever a graph-event batch evolves the graph
        (its RR sets were sampled against the old topology), so the next
        tiered solve resamples it.  Callers hold :attr:`lock`.
        """
        if self.sketch is not None:
            return self.sketch, False
        began = time.perf_counter()
        self.sketch = rr_sketch(self.scenario.graph, self.seed)
        self.sketch_build_seconds = time.perf_counter() - began
        self.sketch_builds += 1
        return self.sketch, True

    def drop_sketch(self) -> None:
        """Invalidate the resident sketch (the graph changed under it)."""
        self.sketch = None

    def close(self) -> None:
        """Release the resident estimator (injected pools are left alone)."""
        with self.lock:
            if self.estimator is not None:
                self.estimator.close()
                self.estimator = None

    def info(self) -> dict:
        """JSON-ready description served by ``GET /scenarios/{id}``."""
        graph = self.scenario.graph
        estimator = self.estimator
        return {
            "scenario_id": self.scenario_id,
            "fingerprint": self.fingerprint,
            "label": self.label,
            "name": self.scenario.name,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "budget": self.scenario.budget_limit,
            "num_samples": self.num_samples,
            "seed": self.seed,
            "resident": {
                "estimator_built": estimator is not None,
                "sketch_built": self.sketch is not None,
                "graph_compiles": self.graph_compiles,
                "estimator_builds": self.estimator_builds,
                "kernel_warmups": self.kernel_warmups,
                "sketch_builds": self.sketch_builds,
                "kernel_backend": (
                    estimator.kernel_backend if estimator is not None else None
                ),
                "shared_memory_active": (
                    estimator.shared_memory_active if estimator is not None else False
                ),
                "solves_completed": self.solves_completed,
                "whatifs_answered": self.whatifs_answered,
                "events_applied": self.events_applied,
                "solves_in_flight": self.solves_in_flight,
                "has_solve": self.last_solve is not None,
            },
        }


class ScenarioRegistry:
    """Fingerprint-keyed registry of resident scenarios."""

    def __init__(self) -> None:
        self._by_id: Dict[str, ResidentScenario] = {}
        self._by_fingerprint: Dict[str, str] = {}
        self._lock = threading.Lock()

    def register(
        self, request: RegisterScenarioRequest, config: ServerConfig
    ) -> tuple:
        """Build (or dedupe onto) a resident scenario; returns ``(entry, reused)``."""
        num_samples = request.num_samples or config.num_samples
        seed = request.seed if request.seed is not None else config.seed
        fingerprint = self._fingerprint(request, num_samples=num_samples, seed=seed)
        with self._lock:
            existing_id = self._by_fingerprint.get(fingerprint)
            if existing_id is not None:
                return self._by_id[existing_id], True
        # Build outside the lock: SNAP ingestion can take a while and must
        # not block lookups.  A racing duplicate registration is resolved
        # below — first writer wins, the loser's build is discarded.
        scenario = self._build_scenario(request, config, seed=seed)
        entry = ResidentScenario(
            scenario_id=f"s-{fingerprint[:12]}",
            fingerprint=fingerprint,
            label=request.label or scenario.name,
            scenario=scenario,
            num_samples=num_samples,
            seed=seed,
        )
        with self._lock:
            existing_id = self._by_fingerprint.get(fingerprint)
            if existing_id is not None:
                return self._by_id[existing_id], True
            self._by_fingerprint[fingerprint] = entry.scenario_id
            self._by_id[entry.scenario_id] = entry
        return entry, False

    def get(self, scenario_id: str) -> ResidentScenario:
        with self._lock:
            entry = self._by_id.get(scenario_id)
        if entry is None:
            raise UnknownScenario(scenario_id)
        return entry

    def entries(self) -> List[ResidentScenario]:
        with self._lock:
            return sorted(self._by_id.values(), key=lambda entry: entry.created_at)

    def close(self) -> None:
        for entry in self.entries():
            entry.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    # ------------------------------------------------------------------

    @staticmethod
    def _build_scenario(
        request: RegisterScenarioRequest, config: ServerConfig, *, seed: int
    ) -> Scenario:
        try:
            if request.snap_path is not None:
                return snap_scenario(
                    request.snap_path,
                    budget=request.budget,
                    lam=request.lam,
                    kappa=request.kappa,
                    seed=seed,
                    cache_dir=config.graph_cache_dir,
                )
            return build_scenario(
                request.dataset,
                scale=request.scale,
                budget=request.budget,
                lam=request.lam,
                kappa=request.kappa,
                seed=seed,
            )
        except FileNotFoundError as error:
            raise InvalidRequest(f"snap_path not readable: {error}") from error
        except ReproError as error:
            raise InvalidRequest(str(error)) from error

    @staticmethod
    def _fingerprint(
        request: RegisterScenarioRequest, *, num_samples: int, seed: int
    ) -> str:
        """Content hash of everything that determines the resident state."""
        material = {
            "dataset": request.dataset,
            "scale": request.scale,
            "budget": request.budget,
            "lam": request.lam,
            "kappa": request.kappa,
            "seed": seed,
            "num_samples": num_samples,
        }
        if request.snap_path is not None:
            material["snap_sha256"] = _file_digest(request.snap_path)
        payload = json.dumps(material, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _file_digest(path: str) -> str:
    """sha256 of a file's bytes (same identity the CSR cache keys on)."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as error:
        raise InvalidRequest(f"snap_path not readable: {error}") from error
    return digest.hexdigest()
