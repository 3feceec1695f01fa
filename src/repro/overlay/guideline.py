"""The configuration guideline of Figure 4.

The paper derives, by simulation, the minimal random-walk length ``rwl`` such
that a Pearson chi-square test at confidence level 0.99 cannot distinguish the
distribution of walk end-points from a uniform distribution over the vgroups,
for a given number of vgroups and H-graph cycles ``hc``.  This module
reproduces that simulation and exposes the resulting guideline, which the rest
of the library uses to configure ``rwl`` and ``hc`` for a target system size.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.overlay.hgraph import HGraph
from repro.overlay.random_walk import structural_walk
from repro.sim.rng import named_stream

#: Number of walk samples per chi-square test (per start vertex batch).
DEFAULT_SAMPLES_PER_GROUP = 30

#: Significance level of the paper's test (confidence level 0.99).
DEFAULT_ALPHA = 0.01


def uniformity_pvalue(
    num_groups: int,
    hc: int,
    rwl: int,
    rng: random.Random,
    samples_per_group: int = DEFAULT_SAMPLES_PER_GROUP,
) -> float:
    """Chi-square p-value that walk end-points are uniform over the vgroups.

    Builds a random H-graph with ``num_groups`` vertices and ``hc`` cycles,
    runs ``samples_per_group * num_groups`` walks of length ``rwl`` from a
    fixed start vertex, and tests the end-point counts against the uniform
    distribution.  A *high* p-value means the test cannot distinguish the
    sample from uniform (the desired outcome).
    """
    # Imported here so importing the overlay (and the whole cluster stack)
    # does not pay for scipy.
    from scipy import stats

    vertices = [f"g{i}" for i in range(num_groups)]
    graph = HGraph.random(vertices, hc, rng)
    total_samples = samples_per_group * num_groups
    counts: Counter = Counter()
    start = vertices[0]
    for _ in range(total_samples):
        outcome = structural_walk(graph, start, rwl, rng)
        counts[outcome.selected] += 1
    observed = [counts.get(vertex, 0) for vertex in vertices]
    result = stats.chisquare(observed)
    return float(result.pvalue)


def is_uniform(
    num_groups: int,
    hc: int,
    rwl: int,
    rng: random.Random,
    alpha: float = DEFAULT_ALPHA,
    samples_per_group: int = DEFAULT_SAMPLES_PER_GROUP,
    trials: int = 3,
) -> bool:
    """Whether walks of length ``rwl`` pass the uniformity test.

    The test is repeated ``trials`` times on independent graphs; the median
    outcome is used, which makes the guideline robust to unlucky graphs.
    """
    passes = 0
    for _ in range(trials):
        pvalue = uniformity_pvalue(num_groups, hc, rwl, rng, samples_per_group)
        if pvalue > alpha:
            passes += 1
    return passes * 2 > trials


def optimal_walk_length(
    num_groups: int,
    hc: int,
    rng: Optional[random.Random] = None,
    max_rwl: int = 30,
    alpha: float = DEFAULT_ALPHA,
    samples_per_group: int = DEFAULT_SAMPLES_PER_GROUP,
    trials: int = 3,
) -> int:
    """The smallest ``rwl`` whose end-point distribution passes the test.

    This is the quantity plotted on the y-axis of Figure 4.
    """
    rng = rng or named_stream("overlay.guideline.optimal_walk_length")
    for rwl in range(1, max_rwl + 1):
        if is_uniform(num_groups, hc, rwl, rng, alpha, samples_per_group, trials):
            return rwl
    return max_rwl


def guideline_table(
    group_counts: Sequence[int] = (8, 32, 128, 512, 2048, 8192),
    cycle_counts: Sequence[int] = (2, 4, 6, 8, 10, 12),
    rng: Optional[random.Random] = None,
    samples_per_group: int = DEFAULT_SAMPLES_PER_GROUP,
    trials: int = 1,
    max_rwl: int = 30,
) -> Dict[int, Dict[int, int]]:
    """Compute the full Figure 4 guideline: ``{num_groups: {hc: optimal rwl}}``."""
    rng = rng or named_stream("overlay.guideline.table")
    table: Dict[int, Dict[int, int]] = {}
    for num_groups in group_counts:
        table[num_groups] = {}
        for hc in cycle_counts:
            table[num_groups][hc] = optimal_walk_length(
                num_groups,
                hc,
                rng,
                max_rwl=max_rwl,
                samples_per_group=samples_per_group,
                trials=trials,
            )
    return table


@dataclass(frozen=True)
class RecommendedConfig:
    """An (hc, rwl) pair recommended for a target number of vgroups."""

    hc: int
    rwl: int


#: Pre-computed guideline derived from the paper's Figure 4 (used as defaults
#: so that configuring a cluster does not require re-running the simulation).
#: Keys are *approximate numbers of vgroups*; the closest key is used.
PAPER_GUIDELINE: Dict[int, RecommendedConfig] = {
    8: RecommendedConfig(hc=3, rwl=6),
    32: RecommendedConfig(hc=4, rwl=7),
    128: RecommendedConfig(hc=6, rwl=9),
    512: RecommendedConfig(hc=6, rwl=10),
    2048: RecommendedConfig(hc=8, rwl=11),
    8192: RecommendedConfig(hc=8, rwl=13),
}


def recommended_config(expected_groups: int) -> RecommendedConfig:
    """The (hc, rwl) recommendation for an expected number of vgroups.

    Mirrors the paper's examples, e.g. roughly 128 vgroups -> ``rwl = 9`` with
    ``hc = 6`` (section 3.2), and 800 nodes in roughly 120 vgroups ->
    ``(hc, rwl) = (5, 10)`` (section 6.1.1) which falls between the 128- and
    512-group rows of the guideline.
    """
    keys = sorted(PAPER_GUIDELINE)
    best = min(keys, key=lambda key: abs(key - max(1, expected_groups)))
    return PAPER_GUIDELINE[best]


__all__ = [
    "uniformity_pvalue",
    "is_uniform",
    "optimal_walk_length",
    "guideline_table",
    "RecommendedConfig",
    "PAPER_GUIDELINE",
    "recommended_config",
    "DEFAULT_ALPHA",
    "DEFAULT_SAMPLES_PER_GROUP",
]
