"""Command-line interface for the reproduction harness.

The CLI exposes the experiment harness without writing any Python:

.. code-block:: bash

    python -m repro.cli datasets                       # Table II stand-ins
    python -m repro.cli compare --dataset facebook     # one full comparison
    python -m repro.cli sweep-budget --budgets 60 120  # Fig. 6 style sweep
    python -m repro.cli case-study --policy airbnb     # Fig. 8 style case study
    python -m repro.cli solve --dataset epinions       # just run S3CA

Every subcommand prints the same text tables the benchmark harness writes to
``benchmarks/results/`` and exits non-zero on invalid arguments.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional, Sequence

from repro.core.s3ca import S3CA
from repro.diffusion.factory import (
    DEFAULT_ESTIMATOR_METHOD,
    ESTIMATOR_METHODS,
    EstimatorSpec,
    make_estimator,
)
from repro.diffusion.tiered import DEFAULT_TIER_EPSILON, DEFAULT_TIER_TOP_K
from repro.exceptions import ReproError
from repro.experiments.case_study import AIRBNB, BOOKING, case_study_series, run_case_study
from repro.experiments.config import AlgorithmSpec, ExperimentConfig
from repro.experiments.datasets import (
    DATASET_SPECS,
    build_scenario,
    snap_scenario,
    table2_rows,
)
from repro.experiments.reporting import format_series, format_table, records_to_rows
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweeps import sweep_budget


def _positive_int(text: str) -> int:
    """argparse type for knobs where 0 or a negative value is meaningless."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for the S3CRM / S3CA paper (ICDE 2019).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dataset", default="facebook", choices=sorted(DATASET_SPECS))
        sub.add_argument("--scale", type=float, default=0.15,
                         help="dataset scale factor (1.0 = a few hundred users)")
        sub.add_argument("--budget", type=float, default=None)
        sub.add_argument("--lam", type=float, default=1.0)
        sub.add_argument("--kappa", type=float, default=10.0)
        sub.add_argument("--samples", type=int, default=50)
        sub.add_argument("--seed", type=int, default=2019)
        sub.add_argument("--candidate-limit", type=_positive_int, default=8)
        sub.add_argument("--pivot-limit", type=_positive_int, default=20)
        sub.add_argument(
            "--estimator", default=DEFAULT_ESTIMATOR_METHOD,
            choices=ESTIMATOR_METHODS,
            help="benefit estimator (mc-compiled is Monte-Carlo on the CSR "
                 "engine; exact enumerates every world of a tiny graph; rr "
                 "ignores coupon allocations and is only meaningful for "
                 "unlimited-coupon baselines; tiered screens batches with an "
                 "RR sketch before Monte-Carlo confirmation)",
        )
        sub.add_argument(
            "--no-incremental", action="store_true",
            help="force S3CA's eager full-resimulation greedy loop instead of "
                 "the delta-evaluation engine + CELF lazy queue (same result, "
                 "slower; mainly for cross-checking)",
        )
        sub.add_argument(
            "--shard-size", type=_positive_int, default=None,
            help="evaluate live-edge worlds in blocks of this size (bounds "
                 "peak memory to O(shard) worlds; any value is bit-identical "
                 "to the default resident-worlds path)",
        )
        sub.add_argument(
            "--workers", type=_positive_int, default=None,
            help="evaluate world shards on a persistent process pool of this "
                 "size, shared across every algorithm and swept condition of "
                 "the command (streaming block-ordered reduction: results "
                 "are bit-identical for every worker count; default: serial)",
        )
        sub.add_argument(
            "--no-kernel", action="store_true",
            help="force the interpreted cascade loop instead of the native "
                 "C kernel; results are bit-identical either way, only "
                 "slower — mainly for cross-checking (default: use the "
                 "kernel when it loads, silently falling back otherwise)",
        )
        sub.add_argument(
            "--no-shared-memory", action="store_true",
            help="force by-value transport of the compiled graph and world "
                 "blocks instead of the zero-copy shared-memory store; "
                 "results are bit-identical either way (default: shared "
                 "memory whenever --workers evaluates out-of-process)",
        )
        sub.add_argument(
            "--tier-epsilon", type=float, default=DEFAULT_TIER_EPSILON,
            help="two-tier screening band (--estimator tiered): evaluation "
                 "batches are scored with the RR sketch and only slots within "
                 "this relative band below the k-th best score are "
                 "MC-confirmed (0 = top-k ties only, larger = more "
                 "conservative; default %(default)s)",
        )
        sub.add_argument(
            "--tier-topk", type=_positive_int, default=DEFAULT_TIER_TOP_K,
            help="minimum number of top-scoring slots per batch the two-tier "
                 "screening always MC-confirms (--estimator tiered; "
                 "default %(default)s)",
        )

    def add_graph_source(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--graph", default=None, metavar="EDGE_LIST",
            help="build the scenario from a SNAP-style edge-list file "
                 "instead of the named --dataset (whitespace-separated "
                 "'src dst [prob]' lines, '#' comments; probabilities "
                 "default to 1/in-degree; compiled through the "
                 "content-addressed memory-mapped CSR cache)",
        )
        sub.add_argument(
            "--graph-cache-dir", default=None, metavar="DIR",
            help="directory of the compiled-graph cache used by --graph "
                 "(default: $REPRO_GRAPH_CACHE_DIR or ~/.cache/repro-graphs)",
        )

    datasets = subparsers.add_parser("datasets", help="print the Table II stand-ins")
    datasets.add_argument("--scale", type=float, default=0.15)
    datasets.add_argument("--seed", type=int, default=2019)

    solve = subparsers.add_parser("solve", help="run S3CA on one dataset")
    add_common(solve)
    add_graph_source(solve)
    solve.add_argument("--spend-full-budget", action="store_true")

    compare = subparsers.add_parser(
        "compare", help="run S3CA and every baseline on one dataset"
    )
    add_common(compare)
    add_graph_source(compare)
    compare.add_argument("--no-im-s", action="store_true",
                         help="skip the IM-S baseline (it is the slowest)")

    sweep = subparsers.add_parser("sweep-budget", help="Fig. 6 style budget sweep")
    add_common(sweep)
    sweep.add_argument("--budgets", type=float, nargs="+", required=True)

    case = subparsers.add_parser("case-study", help="Fig. 8 style case study")
    add_common(case)
    case.add_argument("--policy", choices=("airbnb", "booking"), default="airbnb")
    case.add_argument("--margins", type=float, nargs="+", default=[0.3, 0.5, 0.7])

    events = subparsers.add_parser(
        "events",
        help="solve, apply a graph-event batch, reconcile without re-solving",
        description="Run S3CA once, apply a JSON batch of graph events "
                    "(edge add/drop/reweight, node add/retire) to the solved "
                    "scenario, and reconcile the resident estimator in place: "
                    "the CSR is delta-recompiled and only the Monte-Carlo "
                    "worlds whose live-edge draws touch a changed edge are "
                    "re-simulated — bit-identical to a cold resolve on the "
                    "mutated graph.",
    )
    add_common(events)
    add_graph_source(events)
    events.add_argument(
        "--events-file", required=True, metavar="JSON",
        help="JSON file holding {\"events\": [...]} (or a bare list); each "
             "event is an object with 'type' (edge_add, edge_drop, "
             "edge_reweight, node_add, node_retire) plus 'source'/'target'/"
             "'probability' or 'node' (and optional 'benefit'/'seed_cost'/"
             "'sc_cost' attribute overrides for node_add)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign server (S3CA as a long-running service)",
        description="Serve register/solve/what-if endpoints with compiled "
                    "graphs, frozen world samplers, warmed kernels and one "
                    "shared worker pool kept resident across requests. "
                    "Needs the 'server' extra (FastAPI) or Flask.",
    )
    serve.add_argument("--host", default=None,
                       help="bind address (default: $REPRO_SERVER_HOST or 127.0.0.1)")
    serve.add_argument("--port", type=_positive_int, default=None,
                       help="bind port (default: $REPRO_SERVER_PORT or 8000)")
    serve.add_argument(
        "--workers", type=_positive_int, default=None,
        help="size of the resident shared shard pool every scenario's "
             "estimator evaluates on (default: $REPRO_SERVER_WORKERS or "
             "serial in-process)",
    )
    serve.add_argument(
        "--job-workers", type=_positive_int, default=None,
        help="solve jobs run concurrently (default: $REPRO_SERVER_JOB_WORKERS "
             "or 2; jobs on one scenario still serialise on its lock)",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=None,
        help="bound of the pending-job queue; submissions past it get HTTP "
             "503 (default: $REPRO_SERVER_MAX_QUEUE or 64)",
    )
    serve.add_argument(
        "--samples", type=_positive_int, default=None,
        help="default Monte-Carlo worlds per scenario, overridable per "
             "registration (default: $REPRO_SERVER_SAMPLES or 200)",
    )
    serve.add_argument(
        "--graph-cache-dir", default=None, metavar="DIR",
        help="compiled-graph cache used for snap_path registrations "
             "(default: $REPRO_SERVER_GRAPH_CACHE_DIR or the --graph default)",
    )

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=args.dataset,
        scale=args.scale,
        budget=args.budget,
        lam=args.lam,
        kappa=args.kappa,
        num_samples=args.samples,
        seed=args.seed,
        candidate_limit=args.candidate_limit,
        max_pivot_candidates=args.pivot_limit,
        estimator_method=args.estimator,
        estimator=EstimatorSpec(
            incremental=not args.no_incremental,
            shard_size=args.shard_size,
            workers=args.workers,
            use_kernel=False if args.no_kernel else None,
            shared_memory=False if args.no_shared_memory else None,
            tier_epsilon=args.tier_epsilon,
            tier_top_k=args.tier_topk,
        ),
    )


def _scenario_from_args(args: argparse.Namespace, config: ExperimentConfig):
    """The scenario a subcommand runs on: ``--graph`` file or named dataset."""
    graph_path = getattr(args, "graph", None)
    if graph_path is not None:
        return snap_scenario(
            graph_path,
            budget=config.budget,
            lam=config.lam,
            kappa=config.kappa,
            seed=config.seed,
            cache_dir=getattr(args, "graph_cache_dir", None),
        )
    return build_scenario(
        config.dataset, scale=config.scale, budget=config.budget,
        lam=config.lam, kappa=config.kappa, seed=config.seed,
    )


def _s3ca_spec(args: argparse.Namespace) -> AlgorithmSpec:
    return AlgorithmSpec(
        "S3CA",
        lambda scenario, estimator, seed: S3CA(
            scenario,
            estimator=estimator,
            candidate_limit=args.candidate_limit,
            max_pivot_candidates=args.pivot_limit,
            incremental=not args.no_incremental,
        ),
    )


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------


def cmd_datasets(args: argparse.Namespace) -> str:
    rows = table2_rows(scale=args.scale, seed=args.seed)
    return format_table(rows, title="Table II — dataset stand-ins")


def cmd_solve(args: argparse.Namespace) -> str:
    config = _config_from_args(args)
    scenario = _scenario_from_args(args, config)
    estimator = make_estimator(
        scenario,
        config.estimator_method,
        num_samples=config.num_samples,
        seed=config.seed,
        spec=config.estimator,
    )
    try:
        result = S3CA(
            scenario,
            estimator=estimator,
            candidate_limit=config.candidate_limit,
            max_pivot_candidates=config.max_pivot_candidates,
            spend_full_budget=args.spend_full_budget,
            incremental=config.estimator.incremental,
        ).solve()
    finally:
        # Release the estimator's worker pool (if --workers started one)
        # before formatting output, not at interpreter exit.
        close = getattr(estimator, "close", None)
        if close is not None:
            close()
    row = {
        "seeds": len(result.seeds),
        "coupons": sum(result.allocation.values()),
        "expected_benefit": result.expected_benefit,
        "total_cost": result.total_cost,
        "redemption_rate": result.redemption_rate,
        "explored_nodes": result.explored_nodes,
        "seconds": result.total_seconds,
    }
    if result.tier_stats:
        row["screened"] = result.tier_stats["screened_candidates"]
        row["confirmed"] = result.tier_stats["confirmed_candidates"]
        row["spec_evals"] = result.tier_stats["speculative_evals"]
        row["spec_hits"] = result.tier_stats["speculative_hits"]
    return format_table([row], title=f"S3CA on {scenario.describe()}")


def cmd_compare(args: argparse.Namespace) -> str:
    config = _config_from_args(args)
    scenario = _scenario_from_args(args, config)
    with ExperimentRunner(scenario, config) as runner:
        specs = runner.default_algorithms(include_im_s=not args.no_im_s)
        records = runner.run_all(specs)
    rows = records_to_rows(
        records,
        metrics=[
            "redemption_rate", "expected_benefit", "total_cost",
            "seed_sc_rate", "farthest_hop", "seconds",
        ],
    )
    return format_table(rows, title=f"Comparison on {scenario.describe()}")


def cmd_sweep_budget(args: argparse.Namespace) -> str:
    config = _config_from_args(args)
    results = sweep_budget(
        config, args.budgets, metrics=("redemption_rate", "expected_benefit"),
        algorithms=None, include_im_s=False,
    )
    parts = [
        format_series(results["redemption_rate"], x_label="budget",
                      title="Redemption rate vs budget"),
        format_series(results["expected_benefit"], x_label="budget",
                      title="Total benefit vs budget"),
    ]
    return "\n\n".join(parts)


def cmd_case_study(args: argparse.Namespace) -> str:
    config = _config_from_args(args)
    policy = AIRBNB if args.policy == "airbnb" else BOOKING
    config = config.replace(limited_coupons=policy.coupons_per_user)
    results = run_case_study(
        policy, args.margins, config, algorithms=[_s3ca_spec(args)]
    )
    parts = [
        format_series(case_study_series(results, "redemption_rate"),
                      x_label="gross_margin",
                      title=f"Redemption rate vs gross margin ({policy.name})"),
        format_series(case_study_series(results, "seed_sc_rate"),
                      x_label="gross_margin",
                      title=f"Seed-SC rate vs gross margin ({policy.name})"),
    ]
    return "\n\n".join(parts)


def cmd_events(args: argparse.Namespace) -> str:
    import json

    from repro.graph.events import GraphEventBatch

    config = _config_from_args(args)
    if config.estimator_method != "mc-compiled":
        raise ReproError(
            "the events command needs the Monte-Carlo estimator "
            "(--estimator mc-compiled); only its worlds can be reconciled"
        )
    try:
        with open(args.events_file, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ReproError(f"events file not readable: {error}") from error
    except ValueError as error:
        raise ReproError(f"events file is not valid JSON: {error}") from error
    payloads = document.get("events") if isinstance(document, dict) else document
    if not isinstance(payloads, list) or not payloads:
        raise ReproError(
            "events file must hold a non-empty 'events' list "
            '({"events": [...]} or a bare JSON list)'
        )

    scenario = _scenario_from_args(args, config)
    graph = scenario.graph

    def coerce(value):
        # JSON spells every key as written; dataset graphs use int node ids,
        # so map decimal strings onto existing int nodes (same rule as the
        # server's node resolution). Unknown ids pass through verbatim —
        # edge_add / node_add legitimately introduce new nodes.
        if value not in graph and isinstance(value, str):
            try:
                as_int = int(value)
            except ValueError:
                return value
            if as_int in graph:
                return as_int
        return value

    for payload in payloads:
        if isinstance(payload, dict):
            for key in ("source", "target", "node"):
                if key in payload:
                    payload[key] = coerce(payload[key])
    batch = GraphEventBatch.from_payloads(payloads)

    # The reconcile below advances the delta snapshot, so the estimator
    # always carries the delta engine; --no-incremental only picks S3CA's
    # eager greedy loop.
    estimator = make_estimator(
        scenario,
        "mc-compiled",
        num_samples=config.num_samples,
        seed=config.seed,
        spec=config.estimator,
        incremental=True,
    )
    try:
        algorithm = S3CA(
            scenario,
            estimator=estimator,
            candidate_limit=config.candidate_limit,
            max_pivot_candidates=config.max_pivot_candidates,
            incremental=config.estimator.incremental,
        )
        result = algorithm.solve()
        seeds = set(result.seeds)
        allocation = dict(result.allocation)
        # Pin the delta snapshot to the solved deployment, so the reconcile
        # below advances exactly it and its base benefit is the answer.
        old_benefit = estimator.snapshot_base(seeds, allocation)
        outcome = estimator.ingest_events(batch)
        new_benefit = (
            outcome.base_benefit
            if outcome.base_benefit is not None
            else estimator.expected_benefit(seeds, allocation)
        )
        rows = [
            {
                "events": len(batch.events),
                "touched_edges": outcome.touched_edges,
                "dirty_worlds": outcome.dirty_worlds,
                "num_worlds": outcome.num_worlds,
                "chained_blocks": outcome.chained_blocks,
                "benefit_before": old_benefit,
                "benefit_after": new_benefit,
                "snapshot_passes": estimator.delta_snapshot_passes,
                "reconcile_passes": estimator.delta_reconcile_passes,
            }
        ]
    finally:
        estimator.close()
    return format_table(
        rows, title=f"Graph events reconciled on {scenario.describe()}"
    )


def cmd_serve(args: argparse.Namespace) -> str:
    from repro.experiments.config import ServerConfig
    from repro.server.app import serve

    config = ServerConfig.from_env(
        host=args.host,
        port=args.port,
        workers=args.workers,
        job_workers=args.job_workers,
        max_queued_jobs=args.max_queue,
        num_samples=args.samples,
        graph_cache_dir=args.graph_cache_dir,
    )
    serve(config)
    return ""


_COMMANDS = {
    "datasets": cmd_datasets,
    "solve": cmd_solve,
    "compare": cmd_compare,
    "sweep-budget": cmd_sweep_budget,
    "case-study": cmd_case_study,
    "events": cmd_events,
    "serve": cmd_serve,
}


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread as SIGINT raises ``KeyboardInterrupt``.

    A ``BaseException``, so no ``except Exception`` on the way up swallows it.
    """


def _raise_terminated(signum, frame) -> None:
    raise _Terminated


def _release_after_interrupt() -> None:
    """Best-effort teardown of pools and shm segments after SIGINT or SIGTERM.

    A signal can land anywhere — mid-broadcast, mid-reduce — so each step
    is independently shielded; the goal is no live worker processes and no
    /dev/shm residue, not a clean unwind.
    """
    try:
        from repro.diffusion.parallel import shutdown_live_pools

        shutdown_live_pools()
    except Exception:
        pass
    try:
        from repro.utils import shm

        shm.sweep_owned()
    except Exception:
        pass


def _suppress_broken_pipe() -> None:
    """Detach stdout so interpreter shutdown does not re-raise EPIPE."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):
        pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    previous_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        output = _COMMANDS[args.command](args)
        print(output)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        _release_after_interrupt()
        print("interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        _release_after_interrupt()
        print("terminated", file=sys.stderr)
        return 143
    except BrokenPipeError:
        # Typical when piped into `head`: the reader went away. Exit with
        # the conventional SIGPIPE code instead of a traceback.
        _suppress_broken_pipe()
        return 141
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
