"""Golden-trace determinism tests for the protocol path.

Two golden files captured by ``tests/golden/capture_protocol_golden.py``:

* ``golden_protocol_dissemination.json`` — structural round-by-round
  forwarding over a 3-cycle H-graph.  The ``flood`` trace was captured on the
  PRE-optimisation protocol path (commit 9967c2e) and must replay
  byte-identically on the cached-neighbour-table fast path.  The ``random``
  trace locks the deterministic draw scheme (ordered neighbour list +
  ``rng.sample``): the original ``random_policy`` drew from a hash-salted set
  order and therefore had no byte-stable cross-process behaviour to record.
* ``golden_protocol_stack.json`` — the full ``(time, tag)`` event trace and
  figures of a broadcast scenario on the real stack: a 60-node Sync
  :class:`~repro.core.cluster.AtumCluster` with heartbeats on, gossiping
  three broadcasts through SMR, group-message fan-out and H-graph
  forwarding on the real network and simulator.  Refactors of the send and
  delivery paths must change wall-clock speed and nothing else.

If a future change intentionally alters protocol scheduling semantics,
regenerate the golden files with the capture script and document why in
CHANGES.md.
"""

import json
import os
import random

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.net.latency import FixedLatency
from repro.net.network import NetworkConfig
from repro.overlay.gossip import dissemination_trace, flood_policy, random_policy
from repro.overlay.hgraph import HGraph

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DISSEMINATION_PATH = os.path.join(GOLDEN_DIR, "golden_protocol_dissemination.json")
STACK_PATH = os.path.join(GOLDEN_DIR, "golden_protocol_stack.json")

# The stack scenario (recorded in the golden file; must match it).
STACK_SEED = 21
STACK_NODES = 60
STACK_LATENCY = 0.002
STACK_ORIGINS = ("n0", "n20", "n40")
STACK_INTERVAL = 0.25
STACK_HORIZON = 30.0
STACK_FIGURES = (
    "processed_events",
    "messages_delivered",
    "messages_sent",
    "shares_sent",
    "group_accepted",
    "deliveries",
    "delivery_fraction",
)


@pytest.fixture(scope="module")
def dissemination_golden():
    with open(DISSEMINATION_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def stack_golden():
    with open(STACK_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def build_golden_graph(golden) -> HGraph:
    return HGraph.random(
        [f"g{i}" for i in range(golden["vertices"])],
        golden["cycles"],
        random.Random(golden["graph_seed"]),
    )


def as_json_rounds(rounds):
    return [[[vertex, list(targets)] for vertex, targets in row] for row in rounds]


class TestDisseminationGolden:
    def test_flood_replays_pre_optimisation_trace(self, dissemination_golden):
        """The cached fast path reproduces the pre-PR flood forwarding exactly."""
        graph = build_golden_graph(dissemination_golden)
        rounds = dissemination_trace(
            graph,
            "g0",
            flood_policy,
            random.Random(17),
            message_id=dissemination_golden["message_id"],
        )
        assert as_json_rounds(rounds) == dissemination_golden["flood"]

    def test_random_policy_matches_deterministic_golden(self, dissemination_golden):
        """The new seeded random policy is byte-stable across processes."""
        graph = build_golden_graph(dissemination_golden)
        rounds = dissemination_trace(
            graph,
            "g0",
            random_policy(fanout=2),
            random.Random(17),
            message_id=dissemination_golden["message_id"],
        )
        assert as_json_rounds(rounds) == dissemination_golden["random"]

    def test_flood_trace_survives_mutation_and_restoration(self, dissemination_golden):
        """Cache invalidation: mutate the graph, undo it, replay the golden."""
        graph = build_golden_graph(dissemination_golden)
        # Warm the caches, splice a vertex in and out again, then replay.
        dissemination_trace(
            graph, "g0", flood_policy, random.Random(17),
            message_id=dissemination_golden["message_id"],
        )
        anchors = [graph.predecessor("g0", cycle) for cycle in range(graph.hc)]
        graph.insert_vertex("transient", anchors)
        graph.remove("transient")
        rounds = dissemination_trace(
            graph, "g0", flood_policy, random.Random(17),
            message_id=dissemination_golden["message_id"],
        )
        assert as_json_rounds(rounds) == dissemination_golden["flood"]


def stack_shape():
    """The scenario parameters, as recorded in the golden file."""
    return {
        "seed": STACK_SEED,
        "nodes": STACK_NODES,
        "latency": STACK_LATENCY,
        "origins": list(STACK_ORIGINS),
        "interval": STACK_INTERVAL,
        "horizon": STACK_HORIZON,
    }


def run_stack_scenario(coalesced=False, trace=None, chain=None):
    """Run the stack scenario; returns its figures plus latency samples.

    ``coalesced`` turns on :attr:`NetworkConfig.coalesced_fanout_delivery`;
    ``chain`` is a middleware chain installed before the nodes are built.
    """
    params = AtumParameters.for_system_size(STACK_NODES, SmrKind.SYNC)
    cluster = AtumCluster(
        params,
        seed=STACK_SEED,
        latency_model=FixedLatency(STACK_LATENCY),
        network_config=NetworkConfig(coalesced_fanout_delivery=coalesced),
        enable_heartbeats=True,
    )
    if chain is not None:
        cluster.install_middleware(chain)
    cluster.build_static([f"n{i}" for i in range(STACK_NODES)])
    sim = cluster.sim
    bcast_ids = []
    for index, origin in enumerate(STACK_ORIGINS):

        def fire(origin=origin) -> None:
            bcast_ids.append(cluster.broadcast(origin, {"golden": origin}))

        sim.schedule(STACK_INTERVAL * index, fire, tag="stack.broadcast")
    sim.run(until=STACK_HORIZON, trace=trace)
    metrics = sim.metrics
    fractions = [cluster.delivery_fraction(bcast_id) for bcast_id in bcast_ids]
    return {
        "processed_events": sim.processed_events,
        "messages_delivered": metrics.counter("net.messages_delivered"),
        "messages_sent": metrics.counter("net.messages_sent"),
        "shares_sent": metrics.counter("group.shares_sent"),
        "group_accepted": metrics.counter("group.messages_accepted"),
        "deliveries": metrics.counter("atum.deliveries"),
        "delivery_fraction": sum(fractions) / len(fractions),
        "delivery_latency_samples": list(
            metrics.histogram("net.delivery_latency").samples
        ),
    }


def stack_figures(outcome):
    return {key: outcome[key] for key in STACK_FIGURES}


class TestStackGolden:
    def test_matches_pre_optimisation_stack_trace(self, stack_golden):
        """Replays the trace captured before the send paths were folded."""
        assert {key: stack_golden[key] for key in stack_shape()} == stack_shape()
        trace = []
        outcome = run_stack_scenario(trace=trace)
        assert len(trace) == stack_golden["trace_length"]
        assert [[t, tag] for t, tag in trace] == stack_golden["trace"]
        assert stack_figures(outcome) == stack_golden["figures"]

    def test_two_runs_are_byte_identical(self):
        trace_a, trace_b = [], []
        outcome_a = run_stack_scenario(trace=trace_a)
        outcome_b = run_stack_scenario(trace=trace_b)
        assert trace_a == trace_b
        assert outcome_a == outcome_b

    def test_coalesced_fanout_changes_only_event_count(self, stack_golden):
        """Batched fan-out delivery: same outcomes, fewer simulation events."""
        plain = run_stack_scenario()
        coalesced = run_stack_scenario(coalesced=True)
        assert coalesced["processed_events"] < plain["processed_events"]
        for key in STACK_FIGURES:
            if key == "processed_events":
                continue
            assert coalesced[key] == plain[key] == stack_golden["figures"][key], key
        assert coalesced["delivery_latency_samples"] == plain["delivery_latency_samples"]
