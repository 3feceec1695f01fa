"""Real-stack benchmark of the Atum reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload bcast_lan --seed 1 --seconds 38 --trace 0

Every repetition is a fresh interpreter (``rep.py``) with an explicit
``PYTHONHASHSEED``, so module-level state of one repetition cannot leak into
the next.  ``--trace 0`` runs untraced repetitions for about ``--seconds``
seconds and reports the end-to-end metrics.  ``--trace 1`` runs one untraced
repetition, one under a second hash seed and one traced, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  The exit code is 1 when a correctness
check fails and 2 when the benchmark cannot run at all.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import selftest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 2
MAX_REPS = 12
REP_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A repetition could not run (as opposed to ran and was wrong)."""


def hash_seeds(seed: int):
    """The primary and the second ``PYTHONHASHSEED`` for a workload seed."""
    primary = seed % 4_294_967_296
    return primary, (primary + 104_729) % 4_294_967_296


def spawn(workload: str, seed: int, mode: str, hashseed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    command = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if mode == "traced":
        command += ["--spans-out", os.path.join(HERE, "out", f"spans-{workload}-{seed}")]
    t_spawn = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchError(f"{mode} repetition exited with {done.returncode}:\n{done.stderr[-4000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result.get("hashseed") != str(hashseed):
        raise BenchError(f"repetition ran with PYTHONHASHSEED={result.get('hashseed')}")
    result["setup_raw_s"] = result["t_measure"] - t_spawn
    result["setup_s"] = (result["setup_raw_s"] - result["setup_handler_s"]) * result["setup_scale"]
    scale = result["setup_s"] / result["setup_raw_s"]
    result["import_s"] = (result["t_imported"] - t_spawn) * scale
    result["build_s"] = (result["t_measure"] - result["t_imported"]) * scale
    return result


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def rep_problems(rep: dict) -> list:
    tag = f"[{rep['mode']} hashseed={rep['hashseed']}]"
    return [f"{tag} {p}" for p in rep["problems"]]


def end_to_end(workload: str, seed: int, seconds: float):
    primary, _ = hash_seeds(seed)
    reps = []
    started = time.perf_counter()
    slowest = 0.0
    while len(reps) < MAX_REPS:
        # Stop when a repetition as slow as the slowest so far would end
        # after ``seconds``.
        begin = time.perf_counter()
        if len(reps) >= MIN_REPS and begin - started + slowest > seconds:
            break
        reps.append(spawn(workload, seed, "plain", primary))
        slowest = max(slowest, time.perf_counter() - begin)
    problems = []
    for rep in reps:
        problems += rep_problems(rep)
    fingerprints = {rep["fingerprint"] for rep in reps}
    if len(fingerprints) != 1:
        problems.append(f"{len(fingerprints)} distinct outcomes across {len(reps)} identical repetitions")
    first = reps[0]
    metrics = {
        "run_s": (statistics.median(rep["run_norm_s"] for rep in reps), "s"),
        "setup_s": (statistics.median(rep["setup_s"] for rep in reps), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
        "op_p50_s": (first["op_p50_s"], "s"),
        "op_p99_s": (first["op_p99_s"], "s"),
    }
    info = {
        "repetitions": len(reps),
        "wall_s": round(time.perf_counter() - started, 3),
        "run_raw_s_each": [round(rep["run_s"], 3) for rep in reps],
        "run_norm_s_each": [round(rep["run_norm_s"], 3) for rep in reps],
        "setup_raw_s_each": [round(rep["setup_raw_s"], 3) for rep in reps],
        "setup_s_each": [round(rep["setup_s"], 3) for rep in reps],
        "hashseed": primary,
        "events": first["events"],
        "op_samples": first["op_samples"],
    }
    return metrics, first, problems, info


def per_layer(workload: str, seed: int):
    primary, second = hash_seeds(seed)
    untraced = spawn(workload, seed, "plain", primary)
    other_seed = spawn(workload, seed, "plain", second)
    traced = spawn(workload, seed, "traced", primary)
    problems = []
    for rep in (untraced, other_seed, traced):
        problems += rep_problems(rep)
    if traced["counters"] != untraced["counters"] or traced["events"] != untraced["events"]:
        changed = sorted(
            name
            for name in set(traced["counters"]) | set(untraced["counters"])
            if traced["counters"].get(name) != untraced["counters"].get(name)
        )
        problems.append(f"tracing changed work counters: events or {changed[:10]}")
    if traced["fingerprint"] != untraced["fingerprint"]:
        problems.append("tracing changed the run's outcome")
    trace = traced["trace"]
    calls = trace["calls"]
    program_s = sum(trace["self_s"].values())
    tracer_s = sum(trace["tracer_s"].values())
    if not math.isclose(program_s + tracer_s, trace["run_total_s"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(
            f"layer self-times and tracer costs sum to {program_s + tracer_s} s, not the "
            f"traced Simulator.run total {trace['run_total_s']} s"
        )
    # Self-times, with the tracer's calibrated cost taken out, are rescaled
    # by the traced run's own speed samples, like run_s.
    run_scale = traced["run_scale"]
    self_s = {name: value * run_scale for name, value in trace["self_s"].items()}
    layer_self, layer_tracer = {}, {}
    for name, value in self_s.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + value
        layer_tracer[layer] = layer_tracer.get(layer, 0.0) + trace["tracer_s"][name] * run_scale
    counters = untraced["counters"]

    def counter(name):
        return counters.get(name, 0.0)

    def per_delivery(value):
        # 0 on churn, which has no deliveries.
        return ratio(value, counter("atum.deliveries"))

    heartbeat_self = sum(v for k, v in self_s.items() if k.startswith("group.heartbeat"))
    digests = calls.get("crypto.digest", 0)
    metrics = {
        "sim.events": (untraced["events"], "count"),
        "sim.events_per_delivery": (per_delivery(untraced["events"]), "count"),
        "sim.self_s": (layer_self.get("sim", 0.0), "s"),
        "net.msgs": (counter("net.messages_sent"), "count"),
        "net.bytes": (counter("net.bytes_sent"), "bytes"),
        "net.msgs_per_delivery": (per_delivery(counter("net.messages_sent")), "count"),
        "net.latency_draws": (calls.get("net.latency", 0), "count"),
        "net.self_s": (layer_self.get("net", 0.0), "s"),
        "net.latency_self_s": (self_s.get("net.latency", 0.0), "s"),
        "net.delivery_p99_s": (untraced["net_delivery_p99_s"], "s"),
        "crypto.digests": (digests, "count"),
        "crypto.digests_per_delivery": (per_delivery(digests), "count"),
        "crypto.self_s": (layer_self.get("crypto", 0.0), "s"),
        "group.shares_sent": (counter("group.shares_sent"), "count"),
        "group.accepted": (counter("group.messages_accepted"), "count"),
        "group.accept_ratio": (
            ratio(counter("group.messages_accepted"), calls.get("group.handle", 0)), "ratio"
        ),
        "group.self_s": (layer_self.get("group", 0.0), "s"),
        "group.heartbeats": (calls.get("group.heartbeat_observe", 0), "count"),
        "group.heartbeat_self_s": (heartbeat_self, "s"),
        "overlay.joins": (counter("membership.joins_completed"), "count"),
        "overlay.splits": (counter("membership.splits"), "count"),
        "overlay.merges": (counter("membership.merges"), "count"),
        "overlay.exchange_ratio": (
            ratio(counter("membership.exchanges_completed"), counter("membership.exchanges_attempted")),
            "ratio",
        ),
        "overlay.leaves_aborted": (counter("membership.leaves_aborted"), "count"),
        "overlay.self_s": (layer_self.get("overlay", 0.0), "s"),
        "smr.decided": (counter("smr.decided"), "count"),
        "smr.view_changes": (counter("smr.pbft.view_changes"), "count"),
        "smr.revotes": (counter("smr.pbft.view_change_revotes"), "count"),
        "smr.self_s": (layer_self.get("smr", 0.0), "s"),
        "core.forwards": (counter("atum.gossip_forwards"), "count"),
        "core.self_s": (layer_self.get("core", 0.0), "s"),
        "other.self_s": (layer_self.get("other", 0.0), "s"),
        "setup.import_s": (untraced["import_s"], "s"),
        "setup.build_s": (untraced["build_s"], "s"),
        "trace.sim_run_s": (trace["run_total_s"] * run_scale, "s"),
        "trace.overhead_ratio": (ratio(traced["run_norm_s"], untraced["run_norm_s"]), "ratio"),
        "trace.tracer_share": (ratio(tracer_s, trace["run_total_s"]), "ratio"),
        "trace.corrected_ratio": (ratio(program_s * run_scale, untraced["run_norm_s"]), "ratio"),
        "det.hashseed_stable": (int(other_seed["fingerprint"] == untraced["fingerprint"]), "bool"),
    }
    info = {
        "hashseeds": [primary, second],
        "spans": trace["spans"],
        "events_second_hashseed": other_seed["events"],
        "layer_share": {k: round(v / sum(layer_self.values()), 4) for k, v in sorted(layer_self.items())},
        # Share of each layer's raw traced self-time that was tracer cost.
        "layer_tracer_share": {
            k: round(ratio(v, v + layer_self[k]), 4) for k, v in sorted(layer_tracer.items())
        },
        "span_cost_ns": {k: round(v * 1e9, 1) for k, v in sorted(trace["costs"].items())},
    }
    return metrics, untraced, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "core", "cluster.py")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if os.environ.get("ATUM_DIGEST_MODE", "real") != "real":
        print("perfbench: refusing to run with ATUM_DIGEST_MODE set to a non-real mode", file=sys.stderr)
        return 2
    failures = selftest.run_all()
    if failures:
        print("perfbench: self-tests failed:\n" + "\n".join(failures), file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, rep, problems, info = per_layer(args.workload, args.seed)
        else:
            metrics, rep, problems, info = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    attempted, failed = rep["attempted"], rep["failed"]
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    alias = "bcast" if workload.kind == "bcast" else "join"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(info)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    print(f"  {'fail_frac':28s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    if not args.trace:
        print(f"  {alias + '_p50_s':28s} {metrics['op_p50_s'][0]:>16.6g} s (simulated, = op_p50_s)")
        print(f"  {alias + '_p99_s':28s} {metrics['op_p99_s'][0]:>16.6g} s (simulated, = op_p99_s)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
