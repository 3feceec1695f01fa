"""Gossip forwarding policies over the H-graph.

Atum disseminates broadcast messages by gossiping group messages along the
H-graph edges.  Which neighbours a vgroup forwards to is decided by the
application-provided ``forward`` callback (paper section 3.3.4); this module
provides the standard policies discussed in the paper:

* :func:`flood_policy` -- forward on every cycle (lowest latency, most load);
* :func:`single_cycle_policy` / :func:`cycles_policy` -- forward only along a
  fixed number of cycles (used by AStream to trade latency for throughput);
* :func:`random_policy` -- classic gossip: forward to a random subset of
  neighbours, while always including one deterministic cycle so that the
  probabilistic delivery of gossip becomes deterministic (section 3.2).

Policies run once per (vgroup, message) hop, so they lean on the H-graph's
cached per-vertex neighbour tables instead of rebuilding neighbour lists per
message, and they derive cycle subsets from a **cached stable hash** of the
message id (Python's builtin ``hash`` is salted per process, and a
``sum(ord(ch))`` derivation would cluster similar gm-ids onto the same
cycle).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, List, Sequence, Set, Tuple

from repro.overlay.hgraph import HGraph

#: A forward policy maps (graph, current vgroup, message id, rng) to the list
#: of neighbour vgroups to forward to.
ForwardPolicy = Callable[[HGraph, str, str, random.Random], List[str]]

#: Bound on the message-id hash memo (message ids repeat for every hop of a
#: dissemination, then die; a full reset simply re-hashes the live ids).
_HASH_CACHE_LIMIT = 8192

_stable_hash_cache: dict = {}


def stable_message_hash(message_id: str) -> int:
    """A process-independent, well-spread hash of a message id (cached).

    SHA-256 based, so ids that differ by one character land on unrelated
    cycles (``sum(ord(ch))`` mapped e.g. ``"gm-12"`` and ``"gm-21"`` to the
    same cycle); sessions and processes always agree on the value.
    """
    value = _stable_hash_cache.get(message_id)
    if value is None:
        if len(_stable_hash_cache) >= _HASH_CACHE_LIMIT:
            _stable_hash_cache.clear()
        value = int.from_bytes(
            hashlib.sha256(message_id.encode("utf-8")).digest()[:8], "big"
        )
        _stable_hash_cache[message_id] = value
    return value


def _cycle_neighbors(graph: HGraph, vertex: str, cycles: Sequence[int]) -> List[str]:
    neighbors: List[str] = []
    seen: Set[str] = set()
    pairs = graph.cycle_pairs(vertex)
    for cycle in cycles:
        for neighbor in pairs[cycle]:
            if neighbor != vertex and neighbor not in seen:
                seen.add(neighbor)
                neighbors.append(neighbor)
    return neighbors


def flood_policy(graph: HGraph, vertex: str, message_id: str, rng: random.Random) -> List[str]:
    """Forward to every neighbour on every cycle (latency-optimal)."""
    return list(graph.gossip_neighbors(vertex))


def cycles_policy(count: int) -> ForwardPolicy:
    """Forward along ``count`` consecutive cycles only (throughput-friendly).

    The cycle subset is deterministic (derived from a stable hash of the
    message id) so that every vgroup uses the same cycles for a given stream,
    which is what keeps delivery deterministic.

    Forward lists are memoised per (vertex, starting cycle) in the graph's
    per-vertex derived cache, which topology mutations invalidate.
    """
    def policy(graph: HGraph, vertex: str, message_id: str, rng: random.Random) -> List[str]:
        hc = graph.hc
        usable = min(count, hc)
        start = stable_message_hash(message_id) % hc
        derived = graph.derived_cache(vertex)
        key = ("cycles", usable, start)
        cached = derived.get(key)
        if cached is None:
            cycles = [(start + offset) % hc for offset in range(usable)]
            cached = derived[key] = tuple(_cycle_neighbors(graph, vertex, cycles))
        return list(cached)

    return policy


#: Shared single-cycle policy instance so its per-vertex memos are reused.
_single_cycle = cycles_policy(1)


def single_cycle_policy(graph: HGraph, vertex: str, message_id: str, rng: random.Random) -> List[str]:
    """Forward along a single cycle (the ``Single`` configuration of AStream)."""
    return _single_cycle(graph, vertex, message_id, rng)


def random_policy(fanout: int = 2, guaranteed_cycle: int = 0) -> ForwardPolicy:
    """Classic gossip: ``fanout`` random neighbours plus one guaranteed cycle.

    Forwarding always includes both neighbours on ``guaranteed_cycle``; this is
    the mechanism by which Atum turns gossip's probabilistic delivery guarantee
    into a deterministic one: every vgroup gossips at least with its
    neighbours on a specific cycle, so the message deterministically traverses
    that whole cycle regardless of the random draws — even a "maximally
    unlucky" RNG cannot prevent delivery (section 3.2).

    The random subset is drawn with a single ``rng.sample`` over the vertex's
    cached, deterministically ordered neighbour list, so two runs with the
    same seed pick identical forward sets on every interpreter (shuffling a
    ``set``-ordered list would make the picks depend on Python's per-process
    hash salt).
    """

    def policy(graph: HGraph, vertex: str, message_id: str, rng: random.Random) -> List[str]:
        derived = graph.derived_cache(vertex)
        key = ("random", guaranteed_cycle)
        cached = derived.get(key)
        if cached is None:
            gc = guaranteed_cycle % graph.hc
            guaranteed = _cycle_neighbors(graph, vertex, [gc])
            others = [n for n in graph.gossip_neighbors(vertex) if n not in guaranteed]
            cached = derived[key] = (guaranteed, others)
        guaranteed, others = cached
        if fanout >= len(others):
            return guaranteed + list(others)
        return guaranteed + rng.sample(others, fanout)

    return policy


def dissemination_trace(
    graph: HGraph,
    origin: str,
    policy: ForwardPolicy,
    rng: random.Random,
    message_id: str = "m",
    max_rounds: int = 1000,
) -> List[List[Tuple[str, List[str]]]]:
    """Round-by-round forwarding trace: one ``(vertex, targets)`` row per hop.

    Frontier vertices are visited in sorted order, so both the trace and any
    randomness the policy consumes are reproducible across processes — this is
    what the golden dissemination-trace tests serialize and replay.
    """
    reached: Set[str] = {origin}
    frontier: List[str] = [origin]
    rounds: List[List[Tuple[str, List[str]]]] = []
    while frontier and len(reached) < len(graph) and len(rounds) < max_rounds:
        row: List[Tuple[str, List[str]]] = []
        fresh: Set[str] = set()
        for vertex in frontier:
            targets = policy(graph, vertex, message_id, rng)
            row.append((vertex, list(targets)))
            for neighbor in targets:
                if neighbor not in reached:
                    reached.add(neighbor)
                    fresh.add(neighbor)
        frontier = sorted(fresh)
        rounds.append(row)
    return rounds


def dissemination_rounds(
    graph: HGraph,
    origin: str,
    policy: ForwardPolicy,
    rng: random.Random,
    message_id: str = "m",
    max_rounds: int = 1000,
) -> Tuple[int, Set[str]]:
    """Simulate round-by-round dissemination; return (rounds, reached vertices).

    This structural helper is used in tests and in the latency model: it tells
    how many gossip hops are needed for a message forwarded under ``policy`` to
    reach every vgroup.
    """
    reached: Set[str] = {origin}
    frontier: Set[str] = {origin}
    rounds = 0
    while frontier and len(reached) < len(graph) and rounds < max_rounds:
        next_frontier: Set[str] = set()
        for vertex in frontier:
            for neighbor in policy(graph, vertex, message_id, rng):
                if neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.add(neighbor)
        frontier = next_frontier
        rounds += 1
    return rounds, reached


__all__ = [
    "ForwardPolicy",
    "stable_message_hash",
    "flood_policy",
    "cycles_policy",
    "single_cycle_policy",
    "random_policy",
    "dissemination_rounds",
    "dissemination_trace",
]
