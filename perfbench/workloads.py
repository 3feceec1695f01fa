"""Workload definitions and the benchmark-owned input generator.

Every workload is an open loop in simulated time: the whole schedule of
operations (broadcast origin, size and time; churn victim draw and time) is
generated up front from the benchmark's own RNG, seeded by ``--seed``, and
handed to the system only through its public API.  Nothing here depends on
the program's own workload classes or RNG streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bcast" or "churn"
    smr: str  # "sync" or "async"
    nodes: int
    heartbeats: bool
    round_duration: float  # Sync round length (Fig. 8 uses 1.5 s, Fig. 7 the 1 s default)
    horizon: float  # simulated seconds of the measured phase
    # broadcast shape
    count: int = 0
    interval: float = 0.0
    min_bytes: int = 10
    max_bytes: int = 100
    # churn shape
    rate_per_min: float = 0.0
    warmup: float = 0.0
    duration: float = 0.0


WORKLOADS = {
    # Fig. 8 shape, LAN/Sync: 16 broadcasts 0.4 s apart, then 30 s settle.
    "bcast_lan": Workload(
        name="bcast_lan", kind="bcast", smr="sync", nodes=400, heartbeats=False, round_duration=1.5,
        count=16, interval=0.4, horizon=15 * 0.4 + 30.0,
    ),
    # Fig. 8 shape, WAN/Async: 16 broadcasts 0.1 s apart, then 30 s settle.
    "bcast_wan": Workload(
        name="bcast_wan", kind="bcast", smr="async", nodes=400, heartbeats=False, round_duration=1.5,
        count=16, interval=0.1, horizon=15 * 0.1 + 30.0,
    ),
    # Fig. 7 shape: 60 re-joins/min (7.5%/min of 800) for 3600 s after a 30 s
    # warm-up, then a 90 s drain with no new churn.  README.md explains the
    # rate (this stack does not sustain 160/min, and nearer its capacity the
    # join-latency tail swings by seed) and the length (a steady p99).
    "churn": Workload(
        name="churn", kind="churn", smr="sync", nodes=800, heartbeats=True, round_duration=1.0,
        rate_per_min=60.0, warmup=30.0, duration=3600.0, horizon=30.0 + 3600.0 + 90.0,
    ),
}


#: Broadcast origins rotate through this many address classes.  ``WanProfile``
#: assigns node ``i`` to region ``i % 8``, so every WAN region originates the
#: same number of broadcasts and latency percentiles do not swing with which
#: regions a seed happens to draw.  On LAN the classes mean nothing.
ORIGIN_CLASSES = 8


def broadcast_schedule(workload: Workload, seed: int) -> List[Tuple[float, int, int]]:
    """``(time, origin index, size_bytes)`` per broadcast, from ``seed`` only."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    per_class = workload.nodes // ORIGIN_CLASSES
    return [
        (
            index * workload.interval,
            index % ORIGIN_CLASSES + ORIGIN_CLASSES * rng.randrange(per_class),
            rng.randint(workload.min_bytes, workload.max_bytes),
        )
        for index in range(workload.count)
    ]


def churn_schedule(workload: Workload, seed: int) -> List[Tuple[float, float]]:
    """``(time, victim draw in [0, 1))`` per re-join, from ``seed`` only.

    The draw picks the victim among the members present at that time (see
    ``rep.py``), so the schedule is fixed before the run while the victim
    stays a current member.
    """
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    interval = 60.0 / workload.rate_per_min
    ticks = int(round(workload.duration / interval))
    return [(workload.warmup + index * interval, rng.random()) for index in range(ticks)]

