"""Kernel performance measurement: events/sec of the simulation hot paths.

This module is the repo's perf trajectory anchor.  It measures two workload
shapes on the *current* kernel and writes ``BENCH_kernel.json`` so each PR can
be compared against the recorded pre-optimisation baseline:

* ``events`` — pure event-queue churn: self-rescheduling timer chains with a
  steady fraction of cancellations.  Measures the scheduler proper (heap,
  event handles, run loop).
* ``mixed`` — the shape of a message-dense benchmark: event churn plus a
  per-event histogram observation, periodic payload digests (both repeated
  and fresh payloads) and periodic percentile queries.  Measures the combined
  kernel + metrics + digest hot path that dominates the figure benchmarks.

Workloads are seeded and deterministic in their *event structure*; only the
wall clock varies between hosts.  ``BASELINE_EVENTS_PER_SEC`` records the
throughput of the pre-optimisation kernel (dataclass-ordered heap, asdict
digests, re-sorting histograms) measured at the seed commit on the reference
container; the kernel-speed benchmark asserts the current kernel beats it by
``TARGET_SPEEDUP``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional

from repro.crypto.digest import digest_object
from repro.sim.simulator import Simulator

#: Pre-PR kernel throughput on the two scenarios, measured at commit cdb1ae1
#: (seed kernel) with this same module's workloads on the reference container.
BASELINE_EVENTS_PER_SEC: Dict[str, float] = {
    "events": 301441.0,
    "mixed": 35548.0,
}

#: The speedup the optimised kernel is held to on the ``mixed`` scenario.
TARGET_SPEEDUP = 3.0


@dataclass(frozen=True)
class _PerfPayload:
    """Representative broadcast payload digested by the mixed scenario.

    Sealed like :class:`repro.core.node.BroadcastMessage`, so re-digesting
    an in-flight payload reads its stored digest.
    """

    _digest_sealed: ClassVar[bool] = True

    origin: str
    index: int
    body: str


def _seed_event_chains(
    sim: Simulator,
    chains: int,
    events_per_chain: int,
    cancel_every: int,
    on_event: Optional[Callable[[int, float], None]] = None,
) -> None:
    """Schedule ``chains`` self-rescheduling timer chains on ``sim``."""
    remaining = {}
    state = {"count": 0}

    def make_tick(chain_id: int, rng) -> Callable[[], None]:
        def tick() -> None:
            left = remaining[chain_id]
            if left <= 0:
                return
            remaining[chain_id] = left - 1
            delay = 0.0001 + rng.random() * 0.01
            sim.schedule(delay, tick, tag="perf.tick")
            if cancel_every and left % cancel_every == 0:
                extra = sim.schedule(delay * 2.0, tick, tag="perf.extra")
                sim.cancel(extra)
            if on_event is not None:
                state["count"] += 1
                on_event(state["count"], delay)

        return tick

    for chain in range(chains):
        remaining[chain] = events_per_chain
        rng = sim.rng.stream(f"perf-chain-{chain}")
        sim.schedule(rng.random() * 0.001, make_tick(chain, rng), tag="perf.seed")


def measure_events(
    seed: int = 7,
    chains: int = 64,
    events_per_chain: int = 1500,
    cancel_every: int = 7,
) -> Dict[str, float]:
    """Pure event-queue throughput (events/sec)."""
    sim = Simulator(seed=seed)
    _seed_event_chains(sim, chains, events_per_chain, cancel_every)
    start = time.perf_counter()
    sim.run_until_idle()
    elapsed = time.perf_counter() - start
    return {
        "processed": float(sim.processed_events),
        "seconds": elapsed,
        "events_per_sec": sim.processed_events / elapsed,
    }


def measure_mixed(
    seed: int = 7,
    chains: int = 48,
    events_per_chain: int = 1200,
) -> Dict[str, float]:
    """Throughput of the combined kernel + metrics + digest hot path."""
    sim = Simulator(seed=seed)
    hist = sim.metrics.histogram("perf.latency")
    payloads = [
        _PerfPayload(origin=f"n{i}", index=i, body="x" * 64) for i in range(32)
    ]

    def on_event(count: int, delay: float) -> None:
        hist.record(delay)
        if count % 10 == 0:
            # Re-digest of an in-flight (sealed) payload object.
            digest_object(payloads[count % len(payloads)])
        if count % 25 == 0:
            # Fresh, never-seen payload (exercises the canonical encoder).
            digest_object(
                _PerfPayload(origin="fresh", index=count, body="y" * 64)
            )
        if count % 200 == 0:
            hist.percentile(99)

    _seed_event_chains(sim, chains, events_per_chain, cancel_every=7, on_event=on_event)
    start = time.perf_counter()
    sim.run_until_idle()
    elapsed = time.perf_counter() - start
    return {
        "processed": float(sim.processed_events),
        "seconds": elapsed,
        "events_per_sec": sim.processed_events / elapsed,
    }


def _best_of(measure: Callable[[], Dict[str, float]], repeats: int) -> Dict[str, float]:
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        result = measure()
        if best is None or result["events_per_sec"] > best["events_per_sec"]:
            best = result
    assert best is not None
    return best


def run_kernel_benchmark(repeats: int = 3) -> Dict[str, object]:
    """Measure both scenarios and compare against the recorded baseline."""
    events = _best_of(measure_events, repeats)
    mixed = _best_of(measure_mixed, repeats)
    report: Dict[str, object] = {
        "python": sys.version.split()[0],
        "scenarios": {
            "events": {
                "baseline_events_per_sec": BASELINE_EVENTS_PER_SEC["events"],
                "current_events_per_sec": round(events["events_per_sec"], 1),
                "speedup": round(
                    events["events_per_sec"] / BASELINE_EVENTS_PER_SEC["events"], 3
                ),
                "processed": events["processed"],
                "seconds": round(events["seconds"], 4),
            },
            "mixed": {
                "baseline_events_per_sec": BASELINE_EVENTS_PER_SEC["mixed"],
                "current_events_per_sec": round(mixed["events_per_sec"], 1),
                "speedup": round(
                    mixed["events_per_sec"] / BASELINE_EVENTS_PER_SEC["mixed"], 3
                ),
                "processed": mixed["processed"],
                "seconds": round(mixed["seconds"], 4),
            },
        },
        "target_speedup": TARGET_SPEEDUP,
    }
    return report


def write_report(path: str = "BENCH_kernel.json", repeats: int = 3) -> Dict[str, object]:
    """Run the kernel benchmark and persist the report to ``path``."""
    report = run_kernel_benchmark(repeats=repeats)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    report = write_report()
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":  # pragma: no cover
    main()


__all__ = [
    "BASELINE_EVENTS_PER_SEC",
    "TARGET_SPEEDUP",
    "measure_events",
    "measure_mixed",
    "run_kernel_benchmark",
    "write_report",
]
