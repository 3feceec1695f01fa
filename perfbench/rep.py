"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/rep.py --workload bcast_lan --seed 1 --mode plain

The measured phase is one ``cluster.run(until=horizon)`` call.  In
``traced`` mode the span wrappers of ``spans.py`` are installed before the
cluster is built, and the tracer's own cost per span is calibrated after the
measured phase, under the speed probe.

The speed probe (``probe.py``) samples host speed from the first line of
``main`` to the end of the measured phase.  The last line of standard output
is one JSON object with timings, work counters, latency percentiles,
correctness findings and the outcome fingerprint.  ``perf_counter`` readings
are reported raw: on Linux it is CLOCK_MONOTONIC, shared with the parent,
which subtracts its spawn time to get the set-up time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probe import SpeedProbe  # noqa: E402
from stats import fingerprint  # noqa: E402
from workloads import WORKLOADS, broadcast_schedule, churn_schedule  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--spans-out", default=None, help="where a traced run writes its spans")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.arm()
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
    from repro.core.cluster import AtumCluster
    from repro.core.config import AtumParameters, SmrKind
    from repro.crypto.digest import get_digest_mode
    from repro.overlay.membership import MembershipError

    if tracer is not None:
        tracer.install()
    t_imported = time.perf_counter()

    kind = SmrKind.SYNC if workload.smr == "sync" else SmrKind.ASYNC
    params = AtumParameters.for_system_size(
        workload.nodes, kind, round_duration=workload.round_duration
    )
    cluster = AtumCluster(params, seed=args.seed, enable_heartbeats=workload.heartbeats)
    problems = []
    if get_digest_mode() != "real":
        problems.append(f"digest mode is {get_digest_mode()!r}, not real SHA-256")
    if cluster.network.config.coalesced_fanout_delivery:
        problems.append("coalesced fan-out delivery is enabled")
    sim = cluster.sim
    addresses = [f"n{index}" for index in range(workload.nodes)]

    deliveries = []  # (address, broadcast index, time)
    bcast_index = {}
    if workload.kind == "bcast":
        def make_deliver(address):
            def deliver(message):
                deliveries.append((address, bcast_index.get(message.bcast_id, -1), sim.now))
            return deliver

        for address in addresses:
            cluster.add_node(address, deliver_fn=make_deliver(address))
    cluster.build_static(addresses)

    sent = []  # (index, bcast_id, send time)
    churn = {"requested": 0, "leave_failed": 0}
    if workload.kind == "bcast":
        for index, (at, origin, size) in enumerate(broadcast_schedule(workload, args.seed)):
            def send(index=index, origin=addresses[origin], size=size):
                bcast_id = cluster.broadcast(origin, {"seq": index}, size_bytes=size)
                bcast_index[bcast_id] = index
                sent.append((index, bcast_id, sim.now))

            sim.schedule_at(at, send, tag="perfbench.broadcast")
    else:
        engine = cluster.engine
        joiners = itertools.count()

        def rejoin(draw):
            # As in Fig. 7's ChurnWorkload: one leave of a current member,
            # then one join of a fresh node.
            members = sorted(engine.node_group)
            try:
                engine.leave(members[int(draw * len(members))])
            except MembershipError:
                churn["leave_failed"] += 1
                return
            churn["requested"] += 1
            cluster.join(f"churn-{next(joiners)}")

        for at, draw in churn_schedule(workload, args.seed):
            sim.schedule_at(at, lambda draw=draw: rejoin(draw), tag="perfbench.rejoin")

    if tracer is not None:
        tracer.start()
    at_measure = probe.snapshot()
    t_measure = time.perf_counter()
    cluster.run(until=workload.horizon)
    run_s = time.perf_counter() - t_measure
    at_end = probe.snapshot()
    if tracer is not None:
        tracer.stop()
        costs = tracer.calibrate()
        # Calibration ran at another moment's host speed: convert its costs
        # to the speed of the measured phase.
        speed = probe.scale(at_end, probe.snapshot()) / probe.scale(at_measure, at_end)
        costs = {key: value * speed for key, value in costs.items()}
    probe.disarm()

    counters = {name: value for name, value in sorted(sim.metrics.counters.items())}
    events = sim.processed_events
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "t_imported": t_imported,
        "t_measure": t_measure,
        "run_s": run_s,
        "run_norm_s": probe.normalized(run_s, at_measure, at_end),
        "run_scale": probe.scale(at_measure, at_end),
        # run.py rescales set-up (from its spawn call to t_measure) by the
        # samples taken between arming the probe and t_measure.
        "setup_scale": probe.scale((0, 0.0), at_measure),
        "setup_handler_s": at_measure[1],
        "events": events,
        "counters": counters,
        "problems": problems,
    }
    if workload.kind == "bcast":
        checked = _check_broadcasts(cluster, addresses, sent, deliveries, workload)
        outcome = (sorted(deliveries), [(i, t) for i, _, t in sent])
    else:
        checked = _check_churn(cluster, churn, workload)
        outcome = (
            sim.metrics.histogram("membership.join_latency").samples,
            sorted(cluster.engine.node_group.items()),
        )
    problems += checked.pop("problems")
    result.update(checked)
    result["fingerprint"] = fingerprint(outcome, counters, events)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.report(args.spans_out, costs)
    print(json.dumps(result))
    return 0


def _check_broadcasts(cluster, addresses, sent, deliveries, workload):
    """Exactly-once, causal delivery of every broadcast at every correct member."""
    from repro.sim.metrics import Histogram

    problems = []
    latency = Histogram()
    if len(sent) != workload.count:
        problems.append(f"{len(sent)} of {workload.count} broadcasts were sent")
    sent_at = {index: at for index, _, at in sent}
    members = set(cluster.correct_member_addresses())
    static = [a for a in addresses if a in members]
    if len(static) != len(addresses):
        problems.append(f"{len(addresses) - len(static)} static nodes are no longer correct members")
    counts = {}
    for address, index, at in deliveries:
        if index < 0:
            problems.append(f"{address} delivered an unknown broadcast")
            continue
        counts[(address, index)] = counts.get((address, index), 0) + 1
        if at < sent_at[index]:
            problems.append(f"{address} delivered broadcast {index} before it was sent")
        latency.record(at - sent_at[index])
    missing = 0
    for index in sent_at:
        for address in static:
            seen = counts.get((address, index), 0)
            if seen == 0:
                missing += 1
            elif seen > 1:
                problems.append(f"{address} delivered broadcast {index} {seen} times")
    attempted = len(sent_at) * len(static)
    if missing:
        problems.append(f"{missing} of {attempted} (broadcast, member) deliveries missing")
    return {
        "problems": problems[:20],
        "attempted": max(attempted, 1),
        "failed": missing + (workload.count - len(sent)) * len(addresses),
        "op_p50_s": latency.percentile(50.0),
        "op_p99_s": latency.percentile(99.0),
        "op_samples": latency.count,
        "net_delivery_p99_s": cluster.sim.metrics.histogram("net.delivery_latency").percentile(99.0),
    }


def _check_churn(cluster, churn, workload):
    """Engine invariants, completion ratio and backlog of the churn run."""
    from repro.overlay.membership import MembershipError

    problems = []
    engine = cluster.engine
    try:
        engine.validate()
    except MembershipError as error:
        problems.append(f"engine.validate() failed: {error}")
    metrics = cluster.sim.metrics
    requested = churn["requested"]
    joins = int(metrics.counter("membership.joins_completed"))
    pending = engine.pending_operations()
    if joins < 0.9 * requested:
        problems.append(f"only {joins} of {requested} re-joins completed")
    # The ChurnWorkload sustained limits: 90% of re-joins complete, and the
    # backlog stays within max(5, rate per minute).
    backlog_limit = max(5.0, workload.rate_per_min)
    if pending > backlog_limit:
        problems.append(f"{pending} operations pending, above the sustained limit {backlog_limit}")
    latency = metrics.histogram("membership.join_latency")
    # A re-join fails when its leave raised, its join did not complete, or
    # its leave is still pending.  A leave the engine aborted (the victim was
    # moved by a shuffle exchange) is reported as overlay.leaves_aborted.
    counter = metrics.counter
    pending_joins = int(
        counter("membership.joins_started")
        - counter("membership.joins_completed")
        - counter("membership.joins_aborted")
    )
    attempted = requested + churn["leave_failed"]
    failed = churn["leave_failed"] + max(0, requested - joins) + max(0, pending - pending_joins)
    return {
        "problems": problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "op_p50_s": latency.percentile(50.0),
        "op_p99_s": latency.percentile(99.0),
        "op_samples": latency.count,
        "net_delivery_p99_s": metrics.histogram("net.delivery_latency").percentile(99.0),
    }


if __name__ == "__main__":
    sys.exit(main())
