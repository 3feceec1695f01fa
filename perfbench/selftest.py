"""Self-tests of the benchmark's own arithmetic (no program imports).

``run.py`` runs them before every benchmark run; run them alone with::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probe import REFERENCE_S, SpeedProbe  # noqa: E402
from spans import Tracer, layer_of_module  # noqa: E402
from stats import fingerprint, self_times  # noqa: E402
from workloads import WORKLOADS, broadcast_schedule, churn_schedule  # noqa: E402


def test_fingerprint():
    outcome = ([("n1", 0, 1.5), ("n2", 0, 2.25)], [(0, 0.0)])
    counters = {"a": 1.0, "b": 2.0}
    base = fingerprint(outcome, counters, 10)
    assert base == fingerprint(outcome, {"b": 2.0, "a": 1.0}, 10), "counter order leaked"
    nudged = ([("n1", 0, math.nextafter(1.5, 2.0)), ("n2", 0, 2.25)], [(0, 0.0)])
    assert fingerprint(nudged, counters, 10) != base, "one-ulp time change not seen"
    assert fingerprint(outcome, {"a": 1.0, "b": 3.0}, 10) != base, "counter change not seen"
    assert fingerprint(outcome, counters, 11) != base, "event count change not seen"


def test_self_times():
    names = ["root", "a", "b", "c"]
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 6];  a second root [20, 21].
    name_ids = [0, 1, 2, 3, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 6.0, 21.0]
    parents = [-1, 0, 1, 0, -1]
    totals, costs = self_times(name_ids, starts, ends, parents, names)
    assert totals == {"root": 6.0 + 1.0, "a": 2.0, "b": 1.0, "c": 1.0}, totals
    assert set(costs.values()) == {0.0}
    # Self-times add up to the roots' total duration.
    assert math.isclose(sum(totals.values()), 10.0 + 1.0)
    # Costs come out once per span (own) and once per direct child (parent).
    own, parent = [0.5, 0.25, 0.125, 0.0], [0.0, 0.5, 0.25, 0.125]
    program, costs = self_times(name_ids, starts, ends, parents, names, own, parent)
    assert costs == {"root": 2 * 0.5 + 0.5 + 0.125, "a": 0.25 + 0.25, "b": 0.125, "c": 0.0}, costs
    assert all(math.isclose(program[n] + costs[n], totals[n]) for n in names)


def test_probe_caps_stalls():
    probe = SpeedProbe()
    probe.loops.extend([2 * REFERENCE_S] * 9 + [1000 * REFERENCE_S])
    # The stalled sample counts at 4x the median, not at 1000x.
    assert math.isclose(probe.scale((0, 0.0), (10, 0.0)), 10 / (9 * 2 + 4 * 2))
    assert math.isclose(probe.normalized(3.0, (0, 0.0), (9, 1.0)), 2.0 * 0.5)
    try:
        probe.scale((3, 0.0), (3, 0.0))
    except ValueError:
        return
    raise AssertionError("a phase without samples did not raise")


def test_layers():
    assert layer_of_module("repro.net.network") == "net"
    assert layer_of_module("repro.overlay.membership") == "overlay"
    assert layer_of_module("repro.faults.plan") == "other"
    assert layer_of_module("rep") == "other"


def test_tracer():
    tracer = Tracer()
    inner = tracer.wrap("b", lambda: 3)
    outer = tracer.wrap("a", lambda: inner() + inner())
    assert outer() == 6 and len(tracer.name_ids) == 0, "recorded while inactive"
    tracer.active = True
    assert outer() == 6 and tracer.wrap_callback(lambda: 7)() == 7
    assert list(tracer.parents) == [-1, 0, 0, -1], list(tracer.parents)
    assert tracer.calls() == {"a": 1, "b": 2, "other.callback": 1}, tracer.calls()


def test_schedules():
    for workload in WORKLOADS.values():
        make = broadcast_schedule if workload.kind == "bcast" else churn_schedule
        assert make(workload, 3) == make(workload, 3), "same seed, different inputs"
        assert make(workload, 3) != make(workload, 4), "seed does not reach the inputs"
        assert all(op[0] < workload.horizon for op in make(workload, 3))


def run_all():
    failures = []
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as error:
                failures.append(f"{name}: {error}")
    return failures


if __name__ == "__main__":
    failed = run_all()
    print("\n".join(failed) if failed else "perfbench self-tests passed")
    sys.exit(1 if failed else 0)
