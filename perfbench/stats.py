"""Pure helpers: outcome fingerprints and span self-times.

Kept free of program imports so ``selftest.py`` can check them in isolation.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import Dict, Sequence, Tuple


def fingerprint(outcome, counters: Dict[str, float], events: int) -> str:
    """SHA-256 over the run's outcome, its work counters and its event count.

    Floats are encoded with ``repr`` (exact round-trip), so two runs share a
    fingerprint only if every delivery time and counter is bit-identical.
    """
    encoded = json.dumps(
        {"outcome": outcome, "counters": sorted(counters.items()), "events": events},
        default=repr,
        sort_keys=True,
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def self_times(
    name_ids, starts, ends, parents, names: Sequence[str], own_cost=None, parent_cost=None
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per span name, the self-time with the tracer's cost taken out, and that cost.

    Spans are parallel columns: span ``i`` has name ``names[name_ids[i]]``,
    runs from ``starts[i]`` to ``ends[i]`` and is a child of span
    ``parents[i]`` (``-1`` for a root).  Children nest strictly inside their
    parent (wrappers are properly bracketed calls), so a span's raw
    self-time is its duration minus its direct children's durations.

    ``own_cost[k]`` is the tracer's time inside each span named ``names[k]``
    and ``parent_cost[k]`` the tracer's time that such a span adds to its
    parent, outside its own interval (both per span, in seconds; 0 when
    omitted).  The first dict holds raw self-time minus those costs, the
    second the costs taken out; per name they add up to the raw self-time.
    """
    own_cost = own_cost or [0.0] * len(names)
    parent_cost = parent_cost or [0.0] * len(names)
    # Flat double arrays: a traced churn run has millions of spans.
    child_time = array("d", bytes(8 * len(name_ids)))
    child_cost = array("d", bytes(8 * len(name_ids)))
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[index] - starts[index]
            child_cost[parent] += parent_cost[name_ids[index]]
    program = [0.0] * len(names)
    tracer = [0.0] * len(names)
    for index, name_id in enumerate(name_ids):
        cost = own_cost[name_id] + child_cost[index]
        program[name_id] += ends[index] - starts[index] - child_time[index] - cost
        tracer[name_id] += cost
    return (
        {name: program[i] for i, name in enumerate(names)},
        {name: tracer[i] for i, name in enumerate(names)},
    )
