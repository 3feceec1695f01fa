"""Capture the golden protocol-path traces.

Produces two golden files next to this script:

* ``golden_protocol_dissemination.json`` — the structural round-by-round
  forwarding trace of a broadcast over a 3-cycle H-graph under the flood and
  random policies (via :func:`repro.overlay.gossip.dissemination_trace`).
* ``golden_protocol_stack.json`` — the full ``(time, tag)`` event trace and
  figure outputs of the stack scenario defined in
  ``tests/test_protocol_golden_trace.py``: a 60-node Sync ``AtumCluster``
  (seed 21, ``FixedLatency(0.002)``, heartbeats on) gossiping three
  broadcasts from three vgroups for 30 simulated seconds.

Capture provenance
------------------

The ``flood`` dissemination trace was captured at commit 9967c2e (the
pre-optimisation protocol path).  It is independent of Python's hash
randomisation, so it replays byte-identically on any interpreter.

The ``random`` dissemination trace could NOT be captured on that code: the
old ``random_policy`` drew its candidate list from a ``set`` (hash-seed
dependent iteration order), so its forward sets differed between interpreter
invocations.  It was captured on the deterministic draw scheme (ordered
neighbour tables + ``rng.sample``) and locks that guarantee.

The stack trace was captured at commit 4ae803f, before the network's
``send`` path was folded onto the slotted delivery event.  An earlier stack
golden recorded a bench-only copy of node forwarding (group messenger +
gossip + heartbeats without SMR); it was replaced by this scenario on the
real stack when that copy was deleted.  The scenario has no splits or
merges, so it replays byte-identically under any ``PYTHONHASHSEED``.

Regenerate deliberately with::

    PYTHONPATH=src python tests/golden/capture_protocol_golden.py
"""

import json
import os
import random
import sys

from repro.overlay.gossip import dissemination_trace, flood_policy, random_policy
from repro.overlay.hgraph import HGraph

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from test_protocol_golden_trace import (  # noqa: E402  (needs the tests dir on sys.path)
    STACK_FIGURES,
    run_stack_scenario,
    stack_shape,
)

DISSEMINATION_PATH = os.path.join(HERE, "golden_protocol_dissemination.json")
STACK_PATH = os.path.join(HERE, "golden_protocol_stack.json")

GRAPH_SEED = 5
GRAPH_VERTICES = 27
GRAPH_CYCLES = 3
MESSAGE_ID = "gm-golden-1"


def build_graph() -> HGraph:
    return HGraph.random(
        [f"g{i}" for i in range(GRAPH_VERTICES)], GRAPH_CYCLES, random.Random(GRAPH_SEED)
    )


def capture_dissemination(include_random: bool) -> dict:
    graph = build_graph()
    flood = dissemination_trace(
        graph, "g0", flood_policy, random.Random(17), message_id=MESSAGE_ID
    )
    payload = {
        "graph_seed": GRAPH_SEED,
        "vertices": GRAPH_VERTICES,
        "cycles": GRAPH_CYCLES,
        "message_id": MESSAGE_ID,
        "flood": flood,
    }
    if include_random:
        payload["random"] = dissemination_trace(
            graph, "g0", random_policy(fanout=2), random.Random(17), message_id=MESSAGE_ID
        )
    return payload


def capture_stack() -> dict:
    trace: list = []
    outcome = run_stack_scenario(trace=trace)
    return {
        **stack_shape(),
        "trace_length": len(trace),
        "figures": {key: outcome[key] for key in STACK_FIGURES},
        "trace": [[t, tag] for t, tag in trace],
    }


def main() -> None:
    include_random = "--no-random" not in sys.argv
    dissemination = capture_dissemination(include_random)
    if not include_random and os.path.exists(DISSEMINATION_PATH):
        # Pre-PR capture pass: keep any previously captured random trace.
        with open(DISSEMINATION_PATH, "r", encoding="utf-8") as fh:
            previous = json.load(fh)
        if "random" in previous:
            dissemination["random"] = previous["random"]
    with open(DISSEMINATION_PATH, "w", encoding="utf-8") as fh:
        json.dump(dissemination, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DISSEMINATION_PATH} (flood rounds={len(dissemination['flood'])})")

    stack = capture_stack()
    with open(STACK_PATH, "w", encoding="utf-8") as fh:
        json.dump(stack, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {STACK_PATH} (trace length={stack['trace_length']})")


if __name__ == "__main__":
    main()
