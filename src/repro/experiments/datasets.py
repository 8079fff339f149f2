"""The evaluation datasets (Table II) as synthetic stand-ins.

The paper evaluates on SNAP Facebook (4K nodes / 88K edges), Epinions
(76K/509K), Google+ (108K/13.7M) and Douban (5.5M/86M).  Those datasets are
not redistributable here and graphs of that size are far beyond what a pure
Python Monte-Carlo pipeline can sweep in reasonable time, so this module
defines *scaled-down synthetic stand-ins* that preserve the properties the
evaluation actually exercises:

* heavy-tailed degree distributions (degree-proportional seed costs and
  ``1/in-degree`` influence probabilities inherit their heterogeneity),
* the relative density ordering of the four datasets (Facebook is the densest
  per node, Douban the sparsest), and
* the per-dataset benefit distribution ``N(µ, σ)`` and budget of Table II,
  rescaled to the stand-in size so the budget covers a comparable fraction of
  the users.

``scale=1.0`` gives graphs of a few hundred nodes (benchmark-friendly);
passing a larger scale grows them proportionally for users with more patience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.economics.scenario import Scenario, ScenarioBuilder
from repro.exceptions import ExperimentError
from repro.graph.generators import GraphSpec, ppgg_like_graph
from repro.graph.social_graph import SocialGraph


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one named dataset stand-in."""

    name: str
    base_nodes: int
    avg_out_degree: float
    clustering: float
    power_law_exponent: float
    benefit_mean: float
    benefit_std: float
    base_budget: float
    paper_nodes: str
    paper_edges: str
    paper_budget: str


DATASET_SPECS: Dict[str, DatasetSpec] = {
    "facebook": DatasetSpec(
        name="facebook",
        base_nodes=300,
        avg_out_degree=10.0,
        clustering=0.3,
        power_law_exponent=2.1,
        benefit_mean=10.0,
        benefit_std=2.0,
        base_budget=750.0,
        paper_nodes="4K",
        paper_edges="88K",
        paper_budget="10K",
    ),
    "epinions": DatasetSpec(
        name="epinions",
        base_nodes=400,
        avg_out_degree=7.0,
        clustering=0.15,
        power_law_exponent=2.0,
        benefit_mean=20.0,
        benefit_std=4.0,
        base_budget=1300.0,
        paper_nodes="76K",
        paper_edges="509K",
        paper_budget="50K",
    ),
    "gplus": DatasetSpec(
        name="gplus",
        base_nodes=500,
        avg_out_degree=12.0,
        clustering=0.2,
        power_law_exponent=1.9,
        benefit_mean=50.0,
        benefit_std=10.0,
        base_budget=4500.0,
        paper_nodes="108K",
        paper_edges="13.7M",
        paper_budget="200K",
    ),
    "douban": DatasetSpec(
        name="douban",
        base_nodes=600,
        avg_out_degree=5.0,
        clustering=0.1,
        power_law_exponent=2.2,
        benefit_mean=100.0,
        benefit_std=20.0,
        base_budget=10000.0,
        paper_nodes="5.5M",
        paper_edges="86M",
        paper_budget="1M",
    ),
}


def dataset_graph(name: str, scale: float = 1.0, seed: int = 2019) -> SocialGraph:
    """Build the topology of a named dataset stand-in."""
    spec = _spec(name)
    num_nodes = max(20, int(round(spec.base_nodes * scale)))
    return ppgg_like_graph(
        num_nodes=num_nodes,
        avg_out_degree=spec.avg_out_degree,
        power_law_exponent=spec.power_law_exponent,
        clustering=spec.clustering,
        seed=seed,
    )


def build_scenario(
    name: str,
    *,
    scale: float = 1.0,
    budget: Optional[float] = None,
    lam: float = 1.0,
    kappa: float = 10.0,
    seed: int = 2019,
) -> Scenario:
    """Build a full scenario for a named dataset with the paper's default knobs.

    ``lam`` and ``kappa`` are the benefit/SC-cost and seed-cost/benefit ratios
    of Sec. VI-A (defaults 1 and 10); ``budget`` defaults to the dataset's
    scaled budget.
    """
    spec = _spec(name)
    graph = dataset_graph(name, scale=scale, seed=seed)
    effective_budget = budget if budget is not None else spec.base_budget * scale
    builder = (
        ScenarioBuilder(graph, name=f"{name}(x{scale:g})")
        .with_normal_benefits(spec.benefit_mean, spec.benefit_std, seed=seed)
        .with_uniform_sc_costs(spec.benefit_mean)  # rescaled by with_lambda below
        .with_degree_proportional_seed_costs()
        .with_lambda(lam)
        .with_kappa(kappa)
        .with_budget(effective_budget)
        .with_metadata(dataset=name, scale=scale, seed=seed)
    )
    return builder.build()


def named_dataset(name: str, scale: float = 1.0, seed: int = 2019) -> Scenario:
    """Shorthand for :func:`build_scenario` with all paper-default knobs."""
    return build_scenario(name, scale=scale, seed=seed)


def snap_scenario(
    path,
    *,
    budget: Optional[float] = None,
    lam: float = 1.0,
    kappa: float = 10.0,
    seed: int = 2019,
    benefit_mean: float = 10.0,
    benefit_std: float = 2.0,
    default_probability: float = 0.1,
    reciprocal_in_degree: bool = True,
    cache_dir=None,
) -> Scenario:
    """Build a scenario from a real SNAP-style edge-list file.

    The topology comes from the user's file — compiled through the
    content-addressed memory-mapped cache of
    :func:`repro.graph.io.load_compiled_snap`, so repeated runs on the same
    file skip the edge-list parse entirely — while the economic attributes
    follow the paper's synthetic recipe (``N(µ, σ)`` benefits, uniform SC
    costs rescaled by ``lam``, degree-proportional seed costs rescaled by
    ``kappa``).  Influence probabilities default to the paper's standard
    ``1/in-degree`` weighted-cascade setting; a third edge-list column (or
    ``default_probability``) is used instead when
    ``reciprocal_in_degree=False``.  ``budget`` defaults to ``2.0 * nodes``,
    covering a comparable user fraction at any graph size.
    """
    from pathlib import Path

    from repro.graph.io import load_compiled_snap

    path = Path(path)
    compiled = load_compiled_snap(
        path,
        default_probability=default_probability,
        reciprocal_in_degree=reciprocal_in_degree,
        cache_dir=cache_dir,
    )
    graph = SocialGraph.from_edges(compiled.edges())
    effective_budget = budget if budget is not None else 2.0 * graph.num_nodes
    builder = (
        ScenarioBuilder(graph, name=f"snap:{path.stem}")
        .with_normal_benefits(benefit_mean, benefit_std, seed=seed)
        .with_uniform_sc_costs(benefit_mean)
        .with_degree_proportional_seed_costs()
        .with_lambda(lam)
        .with_kappa(kappa)
        .with_budget(effective_budget)
        .with_metadata(dataset=f"snap:{path.name}", seed=seed)
    )
    return builder.build()


def toy_scenario(budget: float = 12.0) -> Scenario:
    """A tiny deterministic scenario used by the quickstart and many tests.

    Eight users in two communities joined by a bridge; user ``a`` is a cheap,
    well-connected entry point while the far community contains the
    high-benefit users that only coupon allocation can reach.
    """
    graph = SocialGraph()
    edges = [
        ("a", "b", 0.6),
        ("a", "c", 0.5),
        ("b", "d", 0.5),
        ("c", "d", 0.4),
        ("d", "e", 0.7),
        ("e", "f", 0.6),
        ("e", "g", 0.5),
        ("f", "h", 0.8),
    ]
    for source, target, probability in edges:
        graph.add_edge(source, target, probability)
    benefits = {"a": 2, "b": 2, "c": 2, "d": 3, "e": 4, "f": 6, "g": 5, "h": 10}
    for node in graph.nodes():
        graph.add_node(
            node,
            benefit=float(benefits[node]),
            seed_cost=2.0 if node in {"a", "b", "c"} else 8.0,
            sc_cost=1.0,
        )
    return Scenario(graph=graph, budget_limit=budget, name="toy")


def table2_rows(scale: float = 1.0, seed: int = 2019) -> list:
    """Rows of the Table II stand-in: per dataset, paper vs generated sizes."""
    if not scale > 0:
        raise ExperimentError(f"scale must be > 0, got {scale}")
    rows = []
    for name, spec in DATASET_SPECS.items():
        graph = dataset_graph(name, scale=scale, seed=seed)
        rows.append(
            {
                "dataset": name,
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
                "paper_budget": spec.paper_budget,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "budget": spec.base_budget * scale,
                "benefit_mu": spec.benefit_mean,
                "benefit_sigma": spec.benefit_std,
            }
        )
    return rows


def _spec(name: str) -> DatasetSpec:
    try:
        return DATASET_SPECS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_SPECS)}"
        ) from None
