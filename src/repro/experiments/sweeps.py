"""Parameter sweeps: Fig. 6, Fig. 7 and Table IV.

Each sweep varies one knob (investment budget ``B_inv``, benefit/SC-cost ratio
λ or seed-cost/benefit ratio κ), rebuilds the scenario, runs the comparison
algorithms through the :class:`~repro.experiments.runner.ExperimentRunner`
and collects one series per algorithm for the requested metric.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments.config import AlgorithmSpec, ExperimentConfig
from repro.experiments.datasets import build_scenario
from repro.experiments.runner import ExperimentRunner, RunRecord, shared_pool_for

Series = Dict[str, Dict[float, float]]


def sweep_budget(
    config: ExperimentConfig,
    budgets: Sequence[float],
    metrics: Sequence[str] = ("redemption_rate", "expected_benefit", "seconds"),
    *,
    algorithms: Optional[List[AlgorithmSpec]] = None,
    include_im_s: bool = True,
) -> Dict[str, Series]:
    """Vary ``B_inv`` (Fig. 6(a)-(b), Fig. 7(a)-(b), Table IV, Fig. 6(e)-(f))."""
    return _sweep(
        config,
        parameter="budget",
        values=budgets,
        metrics=metrics,
        algorithms=algorithms,
        include_im_s=include_im_s,
    )


def sweep_lambda(
    config: ExperimentConfig,
    lams: Sequence[float],
    metrics: Sequence[str] = ("redemption_rate", "seed_sc_rate"),
    *,
    algorithms: Optional[List[AlgorithmSpec]] = None,
    include_im_s: bool = True,
) -> Dict[str, Series]:
    """Vary λ = total benefit / total SC cost (Fig. 6(c)-(d), Fig. 7(c)-(d))."""
    return _sweep(
        config,
        parameter="lam",
        values=lams,
        metrics=metrics,
        algorithms=algorithms,
        include_im_s=include_im_s,
    )


def sweep_kappa(
    config: ExperimentConfig,
    kappas: Sequence[float],
    metrics: Sequence[str] = ("seed_sc_rate",),
    *,
    algorithms: Optional[List[AlgorithmSpec]] = None,
    include_im_s: bool = True,
) -> Dict[str, Series]:
    """Vary κ = total seed cost / total benefit (Fig. 7(e)-(f))."""
    return _sweep(
        config,
        parameter="kappa",
        values=kappas,
        metrics=metrics,
        algorithms=algorithms,
        include_im_s=include_im_s,
    )


def run_comparison(
    config: ExperimentConfig,
    *,
    algorithms: Optional[List[AlgorithmSpec]] = None,
    include_im_s: bool = True,
) -> List[RunRecord]:
    """Run the full comparison once under the config's default parameters."""
    scenario = build_scenario(
        config.dataset,
        scale=config.scale,
        budget=config.budget,
        lam=config.lam,
        kappa=config.kappa,
        seed=config.seed,
    )
    with ExperimentRunner(scenario, config) as runner:
        specs = (
            algorithms
            if algorithms is not None
            else runner.default_algorithms(include_im_s)
        )
        return runner.run_all(specs)


# ----------------------------------------------------------------------


def _sweep(
    config: ExperimentConfig,
    *,
    parameter: str,
    values: Iterable[float],
    metrics: Sequence[str],
    algorithms: Optional[List[AlgorithmSpec]],
    include_im_s: bool,
) -> Dict[str, Series]:
    """Shared sweep implementation returning ``{metric: {algorithm: {x: y}}}``.

    With ``config.estimator.workers > 1`` every swept condition's runner
    registers on **one** shared worker pool created here for the whole sweep,
    instead of paying a process-pool start-up per condition.
    """
    results: Dict[str, Series] = {metric: {} for metric in metrics}
    pool = shared_pool_for(config)
    try:
        for value in values:
            swept = config.replace(**{parameter: value})
            scenario = build_scenario(
                swept.dataset,
                scale=swept.scale,
                budget=swept.budget,
                lam=swept.lam,
                kappa=swept.kappa,
                seed=swept.seed,
            )
            with ExperimentRunner(scenario, swept, pool=pool) as runner:
                specs = (
                    algorithms
                    if algorithms is not None
                    else runner.default_algorithms(include_im_s)
                )
                for record in runner.run_all(specs):
                    for metric in metrics:
                        series = results[metric].setdefault(record.algorithm, {})
                        series[float(value)] = record.get(metric)
    finally:
        if pool is not None:
            pool.close()
    return results
