"""The adversarial scenario matrix: fault plans × workloads, run in parallel.

Every scenario builds a monitored :class:`~repro.core.cluster.AtumCluster`,
applies a named :class:`~repro.faults.plan.FaultPlan`, drives one of the
paper's workloads (broadcast dissemination, continuous churn, growth) and
reports a *robustness row*: the invariant-monitor outcome, delivery/
completion statistics, fault-subsystem counters, and — via
:func:`repro.analysis.robustness.scenario_robustness_row` — the paper's
analytical failure probabilities for the same fault fraction.

Because every fault stays inside the paper's fault model (Byzantine
placement is capped to a strict minority of every vgroup, partitioned and
crashed nodes are exempt from the wrongful-eviction check), **zero invariant
violations is the expected outcome of the whole matrix** — a non-zero count
is a protocol bug, not an unlucky roll.

Scenarios are seeded and deterministic; :func:`scenario_shard` is a
module-level (picklable) entry point so :func:`run_matrix` can fan seeds
across worker processes through :mod:`repro.sim.runpar` and merge the rows
deterministically.

CLI::

    python -m repro.faults.scenarios --matrix small --seeds 2 \\
        --output FAULT_MATRIX.json
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.robustness import catchup_latency_bound, scenario_robustness_row
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MetricsTap
from repro.core.policies import POLICY_BUILDERS
from repro.faults.behaviours import apply_plan
from repro.faults.invariants import InvariantConfig, InvariantMonitor
from repro.faults.plan import (
    FaultPlan,
    GroupSlowdown,
    LinkFault,
    NodeFault,
    Partition,
)
from repro.group.antientropy import AntiEntropyConfig
from repro.net.requests import RequestPolicy
from repro.overlay.membership import MembershipError
from repro.sim.rng import derive_seed, named_stream
from repro.sim.runpar import merge_shards, run_sharded
from repro.workloads.broadcasts import BroadcastWorkload, BroadcastWorkloadConfig
from repro.workloads.byzantine import select_byzantine_per_group
from repro.workloads.churn import ChurnConfig, ChurnWorkload
from repro.workloads.growth import GrowthConfig, GrowthWorkload


@dataclass(frozen=True)
class Scenario:
    """One (plan, workload) combination of the matrix.

    Attributes:
        name: Unique ``workload/plan`` identifier.
        workload: ``"broadcast"``, ``"churn"`` or ``"growth"``.
        plan: Key into :data:`PLAN_BUILDERS`.
        nodes: System size (``build_static`` base; growth grows beyond it).
        fault_fraction: Fraction handed to the plan builder (Byzantine
            share, partition share, ...).
        heartbeats: Whether nodes run the heartbeat/eviction layer.
        heartbeat_period: Heartbeat interval when enabled.
        broadcasts / interval / settle_time: Broadcast-workload knobs.
        churn_rate / churn_duration: Churn-workload knobs.
        growth_target: Growth-workload target size.
        delivery_bound: The ≥ correct-fraction delivery bound this scenario
            is expected to meet (broadcast workloads only; reported, and
            asserted by the matrix tests for the partition-heal scenario).
        smr: ``"sync"`` (Dolev-Strong) or ``"async"`` (PBFT) engine.
        antientropy: Equip every node with the digest-exchange repair layer
            (:mod:`repro.group.antientropy`); required by the 1.0 delivery
            bounds of the partition scenarios.
        checkpoint_interval: PBFT checkpoint interval
            (:mod:`repro.smr.checkpoint`); ``0`` disables checkpointing.
            Checkpoint-enabled async broadcast scenarios are held to
            per-vgroup log **equality** (not just prefix consistency) at
            quiescence — the liveness bound state transfer restores.
        catchup_bound: Maximum allowed ``smr.checkpoint.catchup_latency``
            (simulated seconds from a replica first requesting state
            transfer to its log gap closing).  Checked against the run's
            *maximum* observed catch-up latency and folded into the bound
            check; a vacuous run (no replica ever caught up) fails the
            bound.  ``None`` skips it.  The Byzantine-responder scenarios
            pair this empirical bound with the analytical
            :func:`repro.analysis.robustness.catchup_latency_bound` column.
        attack_threshold: For join-leave attack scenarios: the maximum
            per-vgroup *threshold excess* (coalition members minus the
            group's ``(size - 1) // 2`` strict-minority bound) the attack
            is allowed to reach; ``0`` means the coalition must never
            outgrow the eviction/agreement threshold of any vgroup.
            Folded into the bound check; ``None`` skips it.
        gmin / gmax: Vgroup size bounds (matrix defaults 3/6).  The
            join-leave scenario overrides them to the paper's regime —
            larger vgroups — because the strict-minority bound is
            *supposed* to fail with high probability when vgroups are far
            below ``k * log2(N)``.
        adaptive_quarantine: Feed the request layer's quarantine threshold
            from the observed per-window fault rate
            (:class:`repro.net.requests.RequestPolicy`): hostile periods
            tighten it toward the floor, quiet ones relax it back.  Off by
            default so the static-threshold rows replay byte-identically.
        shuffle: Membership shuffling on leaves (the paper's anti-targeting
            defense; default on).  The epoch-crossing row disables it so
            the reconfiguring vgroup keeps a stable core and the
            transition-chain recovery under test actually spans epochs.
        policies: Adaptive-parameter policies to install, by
            :data:`repro.core.policies.POLICY_BUILDERS` key.  Installed
            *after* ``build_static`` so the initial population does not
            read as a churn spike.  Empty (the default) runs the static
            configuration byte-identically to builds without the policy
            layer — the A/B rows pair one static and one adaptive scenario
            that differ only in this field.
        min_policy_transitions: With ``policies``, the minimum accepted
            ``policy.transitions`` per run — an adaptive row whose
            policies never actually adapt is vacuous and fails its bound
            (folded into ``delivery_bound_met``).
    """

    name: str
    workload: str
    plan: str
    nodes: int = 30
    fault_fraction: float = 0.2
    heartbeats: bool = False
    heartbeat_period: float = 2.0
    broadcasts: int = 6
    interval: float = 0.5
    settle_time: float = 30.0
    churn_rate: float = 10.0
    churn_duration: float = 90.0
    growth_target: int = 40
    delivery_bound: float = 1.0
    smr: str = "sync"
    antientropy: bool = False
    checkpoint_interval: int = 0
    catchup_bound: Optional[float] = None
    attack_threshold: Optional[float] = None
    gmin: int = 3
    gmax: int = 6
    adaptive_quarantine: bool = False
    shuffle: bool = True
    policies: Tuple[str, ...] = ()
    min_policy_transitions: int = 1

    def __post_init__(self) -> None:
        if self.smr not in ("sync", "async"):
            raise ValueError(
                f"unknown smr engine {self.smr!r}; expected 'sync' or 'async'"
            )
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        if self.checkpoint_interval and self.smr != "async":
            raise ValueError("checkpointing requires the async (PBFT) engine")
        unknown = [key for key in self.policies if key not in POLICY_BUILDERS]
        if unknown:
            raise ValueError(
                f"unknown policy key(s) {unknown!r}; expected keys of "
                f"repro.core.policies.POLICY_BUILDERS"
            )
        if self.min_policy_transitions < 0:
            raise ValueError("min_policy_transitions must be non-negative")


# --------------------------------------------------------------------- plans


def _plan_none(scenario: Scenario, cluster: AtumCluster, rng: random.Random) -> FaultPlan:
    return FaultPlan()


def _plan_partition_heal(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Partition a random ``fault_fraction`` of the system, heal mid-run."""
    addresses = sorted(cluster.engine.node_group)
    count = max(1, int(math.floor(scenario.fault_fraction * len(addresses))))
    members = tuple(sorted(rng.sample(addresses, count)))
    return FaultPlan(partitions=(Partition(members=members, start=0.6, heal_at=4.0),))


def _plan_two_sided_split(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Side-preserving split: two internally-connected halves, healed mid-run.

    The random bisection deliberately ignores vgroup boundaries, so vgroups
    straddle the split and each side keeps running its own heartbeats and
    SMR — the paper's real hard case of divergence-and-reconcile rather
    than mere unavailability.
    """
    addresses = sorted(cluster.engine.node_group)
    shuffled = list(addresses)
    rng.shuffle(shuffled)
    half = len(shuffled) // 2
    side_a = tuple(sorted(shuffled[:half]))
    side_b = tuple(sorted(shuffled[half:]))
    return FaultPlan(
        partitions=(Partition(sides=(side_a, side_b), start=0.6, heal_at=4.0),)
    )


def _plan_lossy_links(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    return FaultPlan(links=(LinkFault(loss=0.05),))


def _plan_corrupt_links(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Bit-flip a fraction of all traffic; receivers must detect and discard."""
    return FaultPlan(links=(LinkFault(corrupt=0.05),))


def _plan_delay_spike(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    return FaultPlan(
        links=(LinkFault(extra_delay=0.05, jitter=0.05, start=0.5, stop=4.0),)
    )


def _plan_dup_storm(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    return FaultPlan(links=(LinkFault(duplicate=0.25),))


def _behaviour_plan(
    scenario: Scenario,
    cluster: AtumCluster,
    rng: random.Random,
    behaviour: str,
    start: float = 0.0,
    stop: Optional[float] = None,
) -> FaultPlan:
    """Byzantine behaviour on a per-vgroup strict minority of nodes."""
    chosen = select_byzantine_per_group(
        cluster.engine.groups.values(), scenario.fault_fraction, rng
    )
    return FaultPlan(
        nodes=tuple(
            NodeFault(address=address, behaviour=behaviour, start=start, stop=stop)
            for address in chosen
        )
    )


def _plan_silent_minority(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    return _behaviour_plan(scenario, cluster, rng, "silent")


def _plan_equivocators(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    return _behaviour_plan(scenario, cluster, rng, "equivocate")


def _plan_evict_attack(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    chosen = select_byzantine_per_group(
        cluster.engine.groups.values(), scenario.fault_fraction, rng
    )
    return FaultPlan(
        nodes=tuple(
            NodeFault(
                address=address,
                behaviour="evict_attack",
                start=0.0,
                attack_period=scenario.heartbeat_period * 2.0,
            )
            for address in chosen
        )
    )


def _plan_rejoin_attack(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """The adaptive join-leave coalition (ROADMAP's churn attack).

    The coalition starts spread out — one member per vgroup, in random
    vgroup order, until ``fault_fraction`` of the system is marked (capped
    at each group's strict minority) — and then strategically leaves and
    re-joins trying to pile up in one vgroup.  Random-walk placement plus
    post-operation shuffling is what must keep every vgroup's coalition
    at or below its eviction/agreement threshold.
    """
    # The attack stops well before the workload settles: the point is to
    # measure placement quality under strategic churn, and churning through
    # the final quiescence phase would leave merge/split transients mid-
    # flight at finalize (flagged as size-bound violations by the monitor).
    attack_stop = max(10.0, scenario.broadcasts * scenario.interval + scenario.settle_time - 20.0)
    total = max(2, int(math.floor(scenario.fault_fraction * len(cluster.engine.node_group))))
    views = sorted(cluster.engine.groups.values(), key=lambda view: view.group_id)
    rng.shuffle(views)
    quotas: Dict[str, int] = {}
    chosen: List[str] = []
    while len(chosen) < total:
        progressed = False
        for view in views:
            if len(chosen) >= total:
                break
            taken = quotas.get(view.group_id, 0)
            if taken >= max(1, (view.size - 1) // 2):
                continue
            candidates = [m for m in view.members if m not in chosen]
            if not candidates:
                continue
            chosen.append(rng.choice(sorted(candidates)))
            quotas[view.group_id] = taken + 1
            progressed = True
        if not progressed:
            break
    return FaultPlan(
        nodes=tuple(
            NodeFault(
                address=address,
                behaviour="rejoin_attack",
                start=0.0,
                stop=attack_stop,
                attack_period=2.0,
            )
            for address in sorted(chosen)
        )
    )


def _plan_crash_recover(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    addresses = sorted(cluster.engine.node_group)
    count = max(1, int(math.floor(scenario.fault_fraction * len(addresses))))
    chosen = sorted(rng.sample(addresses, count))
    return FaultPlan(
        nodes=tuple(
            NodeFault(address=address, behaviour="crash", start=5.0, stop=40.0)
            for address in chosen
        )
    )


def _plan_byz_transfer(
    scenario: Scenario,
    cluster: AtumCluster,
    rng: random.Random,
    behaviours: Tuple[str, ...],
) -> FaultPlan:
    """Recovering laggards vs adversarial state-transfer servers.

    Two composed ingredients: a per-vgroup strict minority of *responder*
    adversaries (``fault_fraction``; they participate normally in every
    protocol and misbehave only when serving ``ckpt.transfer`` requests),
    plus a 15% laggard partition that heals mid-run — the laggards then
    must close their log gaps by fetching checkpointed state from signer
    sets that contain the adversaries.  Laggards are drawn outside the
    responder set so every recovering replica is correct.
    """
    views = sorted(cluster.engine.groups.values(), key=lambda view: view.group_id)
    responders = select_byzantine_per_group(views, scenario.fault_fraction, rng)
    node_faults = tuple(
        NodeFault(
            address=address, behaviour=behaviours[index % len(behaviours)], start=0.0
        )
        for index, address in enumerate(responders)
    )
    taken = set(responders)
    candidates = [a for a in sorted(cluster.engine.node_group) if a not in taken]
    count = max(1, int(math.floor(0.15 * len(cluster.engine.node_group))))
    laggards = tuple(sorted(rng.sample(candidates, min(count, len(candidates)))))
    # The laggard partition must outlast the broadcast injection window:
    # only then do the laggards fall multiple checkpoint intervals behind
    # and have to recover through *state transfer* (the path under attack)
    # rather than a cheap tail view change.
    heal_at = max(4.0, scenario.broadcasts * scenario.interval + 2.0)
    return FaultPlan(
        partitions=(Partition(members=laggards, start=0.6, heal_at=heal_at),),
        nodes=node_faults,
    )


def _plan_byz_transfer_stonewall(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    return _plan_byz_transfer(scenario, cluster, rng, ("stonewall",))


def _plan_byz_transfer_slow_drip(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    return _plan_byz_transfer(scenario, cluster, rng, ("slow_drip",))


def _plan_byz_transfer_garbage(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Alternates garbage servers and stale-certificate servers."""
    return _plan_byz_transfer(scenario, cluster, rng, ("garbage_serve", "stale_cert"))


def _plan_split_brain_directory(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Vgroup-aligned split with one displaced straddler.

    The sides follow vgroup boundaries — each side stays a healthy
    sub-system processing its own membership traffic — except for one
    *displaced* node stranded on the side opposite its vgroup.  Its
    co-members (all on the other side) stop hearing its heartbeats, form
    an eviction majority, and the eviction is necessarily **cross-side**:
    the split-brain coordinator defers it into the deciding side's
    directory and the merge must enforce it at heal (evicted-on-either-
    side stays evicted), which is exactly what the directory-convergence
    invariants check.
    """
    views = sorted(cluster.engine.groups.values(), key=lambda view: view.group_id)
    half = max(1, len(views) // 2)
    side_a: set = set()
    for view in views[:half]:
        side_a.update(view.members)
    side_b: set = set()
    for view in views[half:]:
        side_b.update(view.members)
    if side_b:
        displaced = min(side_a)
        side_a.discard(displaced)
        side_b.add(displaced)
    else:
        # Degenerate single-group system: fall back to a plain bisection.
        members = sorted(side_a)
        side_a, side_b = set(members[: len(members) // 2]), set(members[len(members) // 2 :])
    return FaultPlan(
        partitions=(
            Partition(
                sides=(tuple(sorted(side_a)), tuple(sorted(side_b))),
                start=5.0,
                heal_at=25.0,
            ),
        )
    )


def _plan_rejoin_eviction(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """The join-leave coalition racing the live eviction pipeline.

    Composes the §3.2 rejoin attack with a wave of crash faults on
    non-coalition nodes: heartbeat majorities must evict the crashed nodes
    (and keep them out when they recover under evicted identities) while
    the coalition's strategic churn keeps reshaping the very vgroups doing
    the evicting.
    """
    plan = _plan_rejoin_attack(scenario, cluster, rng)
    coalition = {node_fault.address for node_fault in plan.nodes}
    candidates = [a for a in sorted(cluster.engine.node_group) if a not in coalition]
    count = max(1, int(math.floor(0.08 * len(cluster.engine.node_group))))
    crashed = sorted(rng.sample(candidates, min(count, len(candidates))))
    return plan + FaultPlan(
        nodes=tuple(
            NodeFault(address=address, behaviour="crash", start=5.0, stop=60.0)
            for address in crashed
        )
    )


def _plan_slow_vgroup(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Straggler vgroups: ``fault_fraction`` of the initial groups run 3x slow.

    Group ids are sampled from the t=0 grouping; ids retired by later
    merges simply stop matching, which is the honest model — a straggler
    that gets absorbed stops being a straggler.
    """
    group_ids = sorted(cluster.engine.groups)
    count = max(1, int(math.floor(scenario.fault_fraction * len(group_ids))))
    chosen = tuple(sorted(rng.sample(group_ids, min(count, len(group_ids)))))
    return FaultPlan(slowdowns=(GroupSlowdown(groups=chosen, factor=3.0),))


def _plan_kitchen_sink(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Partition + lossy links + a silent minority, composed."""
    return (
        _plan_partition_heal(scenario, cluster, rng)
        + _plan_lossy_links(scenario, cluster, rng)
        + _behaviour_plan(scenario, cluster, rng, "silent")
    )


def _plan_epoch_crossing(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Isolate one replica of the largest vgroup across TWO reconfigurations.

    A member of the largest vgroup is cut off alone (side-preserving, so
    its broadcasts still count toward the delivery bound) while two of its
    co-members leave the system.  Each leave advances the vgroup's epoch,
    so by the heal the laggard's certified state is two epochs stale and
    catching up requires verifying a chain of quorum-signed
    epoch-transition records — the ISSUE-7 recovery path.  Scenarios
    running this plan should set ``shuffle=False``: shuffling would
    re-home the survivors on each leave and dissolve the very group whose
    transition chain is under test.
    """
    engine = cluster.engine
    group_id = max(
        sorted(engine.groups), key=lambda gid: len(engine.groups[gid].members)
    )
    members = sorted(engine.groups[group_id].members)
    laggard = members[0]
    leavers = members[1:3] if len(members) >= 5 else []
    others = tuple(
        address for address in sorted(cluster.engine.node_group) if address != laggard
    )
    for when, leaver in zip((10.0, 14.0), leavers):

        def leave(address=leaver):
            try:
                cluster.engine.leave(address)
            except MembershipError:
                # Already gone — churn or an earlier fault removed it.
                cluster.sim.metrics.increment("faults.plan_leave_skipped")

        cluster.sim.schedule(when, leave, tag="plan.epoch_crossing.leave")
    return FaultPlan(
        partitions=(
            Partition(sides=(others, (laggard,)), start=5.0, heal_at=18.0),
        )
    )


def _plan_overlapping_splits(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Two concurrent, *overlapping* side-preserving splits.

    A random bisection opens first; while it is still in force a parity
    bisection (even vs odd ranks) opens over the same node set, so each
    node is constrained by the intersection of two independent cuts.  The
    splits heal in the order they opened, exercising the multi-split
    coordinator's cascaded, order-independent reconciliation.
    """
    addresses = sorted(cluster.engine.node_group)
    shuffled = list(addresses)
    rng.shuffle(shuffled)
    half = len(shuffled) // 2
    random_cut = (tuple(sorted(shuffled[:half])), tuple(sorted(shuffled[half:])))
    parity_cut = (tuple(addresses[0::2]), tuple(addresses[1::2]))
    return FaultPlan(
        partitions=(
            Partition(sides=random_cut, start=0.6, heal_at=6.0),
            Partition(sides=parity_cut, start=2.0, heal_at=9.0),
        )
    )


PLAN_BUILDERS: Dict[str, Callable[[Scenario, AtumCluster, random.Random], FaultPlan]] = {
    "none": _plan_none,
    "partition_heal": _plan_partition_heal,
    "two_sided_split": _plan_two_sided_split,
    "lossy_links": _plan_lossy_links,
    "corrupt_links": _plan_corrupt_links,
    "delay_spike": _plan_delay_spike,
    "dup_storm": _plan_dup_storm,
    "silent_minority": _plan_silent_minority,
    "equivocators": _plan_equivocators,
    "evict_attack": _plan_evict_attack,
    "rejoin_attack": _plan_rejoin_attack,
    "crash_recover": _plan_crash_recover,
    "kitchen_sink": _plan_kitchen_sink,
    "byz_transfer_stonewall": _plan_byz_transfer_stonewall,
    "byz_transfer_slow_drip": _plan_byz_transfer_slow_drip,
    "byz_transfer_garbage": _plan_byz_transfer_garbage,
    "split_brain_directory": _plan_split_brain_directory,
    "rejoin_eviction": _plan_rejoin_eviction,
    "slow_vgroup": _plan_slow_vgroup,
    "epoch_crossing": _plan_epoch_crossing,
    "overlapping_splits": _plan_overlapping_splits,
}


# ------------------------------------------------------------------ scenarios


def _default_scenarios() -> Dict[str, Scenario]:
    entries = [
        Scenario(name="broadcast/none", workload="broadcast", plan="none"),
        Scenario(
            name="broadcast/partition_heal",
            workload="broadcast",
            plan="partition_heal",
            fault_fraction=0.2,
            # The partition is drawn over the whole system, so an unlucky
            # vgroup can lose its majority and stall broadcasts originating
            # there until the heal.  Anti-entropy repairs exactly that:
            # after the heal, digest exchange re-requests what was missed,
            # so every broadcast by a connected correct origin reaches every
            # correct node — the bound is the paper's full 1.0.
            delivery_bound=1.0,
            antientropy=True,
        ),
        # Side-preserving splits: both sides stay internally live, diverge,
        # and must reconcile to full delivery after the heal — under the
        # synchronous engine and under PBFT (where view changes and the
        # (g-1)/3 threshold do the intra-group catching up).
        Scenario(
            name="broadcast/two_sided_split",
            workload="broadcast",
            plan="two_sided_split",
            fault_fraction=0.5,
            delivery_bound=1.0,
            antientropy=True,
        ),
        Scenario(
            name="broadcast/two_sided_split_pbft",
            workload="broadcast",
            plan="two_sided_split",
            fault_fraction=0.5,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            settle_time=40.0,
        ),
        # Checkpoint-enabled PBFT rows are the liveness tier: on top of the
        # 1.0 delivery bound they demand per-vgroup log *equality* at
        # quiescence — an isolated-then-healed replica with no pending
        # requests must close its log gap through checkpoint announces +
        # state transfer (repro.smr.checkpoint), not merely stay safe.
        Scenario(
            name="broadcast/isolated_catchup_pbft",
            workload="broadcast",
            plan="partition_heal",
            fault_fraction=0.15,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=50.0,
            # The unfaulted baseline for catch-up latency: every transfer
            # is served by a correct responder on the first attempt.
            catchup_bound=15.0,
        ),
        # Byzantine state-transfer servers (the adversarial-recovery trio):
        # a per-vgroup minority of responders participates normally in
        # every protocol — so they legitimately enter the certifier sets
        # recovering replicas fetch state from — and attacks only the
        # serving path.  The request layer's rotation + scoreboard must
        # keep catch-up latency inside ``catchup_bound`` (the analytical
        # rotation bound is reported next to it as ``catchup_theory``),
        # and the equality bar still holds: every correct laggard closes
        # its gap despite stonewalling, deadline-grazing slow-drips,
        # tampered operation bodies or stale certificates.
        Scenario(
            name="broadcast/byz_transfer_stonewall",
            workload="broadcast",
            plan="byz_transfer_stonewall",
            fault_fraction=0.34,
            broadcasts=48,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=60.0,
            catchup_bound=30.0,
        ),
        Scenario(
            name="broadcast/byz_transfer_slow_drip",
            workload="broadcast",
            plan="byz_transfer_slow_drip",
            fault_fraction=0.34,
            broadcasts=48,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=60.0,
            catchup_bound=30.0,
        ),
        Scenario(
            name="broadcast/byz_transfer_garbage",
            workload="broadcast",
            plan="byz_transfer_garbage",
            fault_fraction=0.34,
            broadcasts=48,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=60.0,
            catchup_bound=30.0,
        ),
        Scenario(
            name="broadcast/split_stall_pbft",
            workload="broadcast",
            plan="two_sided_split",
            fault_fraction=0.5,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=50.0,
        ),
        # Sustained load with a short interval: checkpoints form and
        # garbage-collect the protocol log continuously while the equality
        # bound still holds — GC must never eat operations a replica needs.
        Scenario(
            name="broadcast/checkpoint_gc_pbft",
            workload="broadcast",
            plan="none",
            broadcasts=16,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=3,
            settle_time=40.0,
        ),
        # ISSUE-7 epoch-crossing recovery: one replica of the largest
        # vgroup is cut off alone while two co-members leave, so its only
        # certified checkpoint is two epochs stale by the heal and catch-up
        # must verify the quorum-signed epoch-transition chain.  Shuffling
        # is off so the reconfiguring vgroup keeps a stable core (see
        # _plan_epoch_crossing); the split is side-preserving, so the full
        # 1.0 delivery bound still applies.
        Scenario(
            name="broadcast/epoch_crossing_catchup",
            workload="broadcast",
            plan="epoch_crossing",
            fault_fraction=0.05,
            broadcasts=16,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=50.0,
            shuffle=False,
        ),
        # Two overlapping side-preserving splits with cascaded heals: every
        # node is constrained by the intersection of two independent cuts,
        # and the multi-split coordinator must reconcile the directory and
        # delivery state as each cut heals in turn.
        Scenario(
            name="broadcast/overlapping_splits",
            workload="broadcast",
            plan="overlapping_splits",
            delivery_bound=1.0,
            antientropy=True,
            settle_time=45.0,
        ),
        # byz_transfer_garbage with the adaptive quarantine threshold: the
        # observed per-window fault rate tightens the quarantine trigger
        # under the garbage storm, so forgers are benched faster while the
        # same delivery/catch-up bounds hold.
        Scenario(
            name="broadcast/adaptive_quarantine",
            workload="broadcast",
            plan="byz_transfer_garbage",
            fault_fraction=0.34,
            broadcasts=48,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=60.0,
            catchup_bound=30.0,
            adaptive_quarantine=True,
        ),
        Scenario(
            name="broadcast/lossy_links",
            workload="broadcast",
            plan="lossy_links",
            delivery_bound=0.9,
        ),
        Scenario(name="broadcast/delay_spike", workload="broadcast", plan="delay_spike"),
        Scenario(
            name="broadcast/delay_spike_pbft",
            workload="broadcast",
            plan="delay_spike",
            smr="async",
            settle_time=40.0,
        ),
        # Corrupted shares fail payload-digest verification and are dropped
        # before they can pollute accumulation state; the effect on delivery
        # is at worst that of an equal loss rate.
        Scenario(
            name="broadcast/corrupt_links",
            workload="broadcast",
            plan="corrupt_links",
            delivery_bound=0.9,
        ),
        Scenario(name="broadcast/dup_storm", workload="broadcast", plan="dup_storm"),
        # Per-vgroup Byzantine quotas are floor(fraction * size) capped to a
        # strict minority; with the matrix's vgroups of 4-6 members a 0.25
        # fraction marks exactly one member of most vgroups.
        Scenario(
            name="broadcast/silent_minority",
            workload="broadcast",
            plan="silent_minority",
            fault_fraction=0.25,
        ),
        Scenario(
            name="broadcast/equivocators",
            workload="broadcast",
            plan="equivocators",
            fault_fraction=0.25,
        ),
        Scenario(
            name="broadcast/evict_attack",
            workload="broadcast",
            plan="evict_attack",
            fault_fraction=0.25,
            heartbeats=True,
            settle_time=40.0,
        ),
        # The compound-stress scenario deliberately exceeds the per-vgroup
        # fault model (a random partition plus a silent minority can strip a
        # vgroup of its correct majority), so only the *safety* invariants
        # are guaranteed — delivery is best-effort and the bound is loose.
        Scenario(
            name="broadcast/kitchen_sink",
            workload="broadcast",
            plan="kitchen_sink",
            fault_fraction=0.25,
            delivery_bound=0.25,
        ),
        # The ROADMAP's join-leave attack: an adaptive coalition churns
        # itself trying to concentrate in one vgroup.  Run in the paper's
        # regime — vgroups near k*log2(N), a ~10% adversary — where
        # random-walk placement + shuffling must keep every vgroup's
        # coalition at or below its eviction/agreement threshold
        # (attack_threshold = maximum allowed excess over (g-1)//2; 0 means
        # the coalition never outgrows a strict minority anywhere).  With
        # the matrix's toy 3..6-member vgroups this bound *should* fail —
        # that is the analytical vgroup-failure probability, not a bug —
        # which is why this row overrides gmin/gmax.
        Scenario(
            name="broadcast/rejoin_attack",
            workload="broadcast",
            plan="rejoin_attack",
            nodes=50,
            fault_fraction=0.08,
            gmin=6,
            gmax=12,
            settle_time=120.0,
            delivery_bound=0.8,
            antientropy=True,
            attack_threshold=0.0,
        ),
        # Split-brain membership reconciliation: a vgroup-aligned split with
        # one displaced straddler.  Each side keeps processing membership
        # traffic; the straddler's co-members (all on the other side) form
        # an eviction majority whose execution must be *deferred* as a
        # cross-side eviction and enforced at the heal's directory merge —
        # the directory-convergence invariants replay the merge decision.
        Scenario(
            name="broadcast/split_brain_directory",
            workload="broadcast",
            plan="split_brain_directory",
            heartbeats=True,
            antientropy=True,
            settle_time=45.0,
            # The displaced straddler's vgroup loses a member mid-run and
            # the split covers everyone for 20 simulated seconds, so the
            # delivery bound is necessarily loose; the scenario's real
            # assertions are the directory invariants.
            delivery_bound=0.5,
        ),
        # The join-leave coalition racing the live eviction pipeline
        # (rejoin_attack × crash-driven evictions), in the paper's vgroup
        # regime.  The coalition must stay a strict minority everywhere
        # while heartbeat majorities evict crashed nodes and keep them out
        # after recovery.
        Scenario(
            name="broadcast/rejoin_eviction",
            workload="broadcast",
            plan="rejoin_eviction",
            nodes=50,
            fault_fraction=0.08,
            gmin=6,
            gmax=12,
            heartbeats=True,
            settle_time=120.0,
            delivery_bound=0.7,
            antientropy=True,
            attack_threshold=0.0,
        ),
        Scenario(name="churn/none", workload="churn", plan="none", nodes=40),
        # Anti-entropy racing continuous churn: repair runs while vgroups
        # split, merge and shuffle under it, with broadcasts interleaved so
        # there is state to repair (joiners start with empty delivery
        # state).  The AE store must stay bounded by the settled-broadcast
        # GC + summary window while the monitor stays clean.
        Scenario(
            name="churn/antientropy",
            workload="churn_broadcast",
            plan="none",
            nodes=40,
            antientropy=True,
            churn_rate=10.0,
            churn_duration=60.0,
            broadcasts=8,
            settle_time=30.0,
            delivery_bound=0.9,
        ),
        # PBFT checkpointing under continuous churn: every engine-level
        # leave reconfigures some vgroup, so certificates constantly cross
        # epoch boundaries and the transition records formed per
        # reconfiguration are what keep state transfer serving.  Exempt
        # from the log-equality check (churn_broadcast always is) — the
        # assertions are the delivery bound plus a clean monitor.
        Scenario(
            name="churn/epoch_checkpoint",
            workload="churn_broadcast",
            plan="none",
            nodes=40,
            smr="async",
            checkpoint_interval=2,
            antientropy=True,
            churn_rate=10.0,
            churn_duration=60.0,
            # Dense enough that vgroups certify checkpoints *between*
            # membership operations — otherwise reconfigurations have no
            # certificate to carry and the row never crosses an epoch.
            broadcasts=24,
            settle_time=30.0,
            delivery_bound=0.9,
        ),
        # Heartbeats are on so the crash actually bites: crashed nodes stop
        # heartbeating, get suspected and evicted (engine-level churn alone
        # never consults node actors), and the recovered nodes must stay out
        # under their evicted identities while churn keeps reshaping groups.
        Scenario(
            name="churn/crash_recover",
            workload="churn",
            plan="crash_recover",
            nodes=40,
            fault_fraction=0.1,
            heartbeats=True,
        ),
        # Straggler vgroups under continuous churn: a quarter of the t=0
        # vgroups execute membership agreements 3x slower.  Churn must
        # still complete (slow, not stuck) and the row reports the
        # straggler-induced operation-latency penalty.
        Scenario(
            name="churn/slow_vgroup",
            workload="churn",
            plan="slow_vgroup",
            nodes=40,
            fault_fraction=0.25,
        ),
        Scenario(name="growth/none", workload="growth", plan="none", nodes=12),
        Scenario(
            name="growth/silent_minority",
            workload="growth",
            plan="silent_minority",
            nodes=12,
            fault_fraction=0.25,
        ),
        # A/B: churn storm at 3x the antientropy row's rate, static
        # parameters vs AdaptiveGroupSize + AdaptiveHeartbeat.  The pair
        # differs only in ``policies``; both rows carry the same delivery
        # bound, so the matrix itself demonstrates that adaptation is no
        # worse than the deployment-tuned static configuration while the
        # adaptive row additionally proves it *did* adapt
        # (min_policy_transitions) with a clean monitor.
        Scenario(
            name="churn/storm_static",
            workload="churn_broadcast",
            plan="none",
            nodes=40,
            heartbeats=True,
            antientropy=True,
            churn_rate=30.0,
            churn_duration=60.0,
            broadcasts=8,
            settle_time=30.0,
            delivery_bound=0.85,
        ),
        Scenario(
            name="churn/storm_adaptive",
            workload="churn_broadcast",
            plan="none",
            nodes=40,
            heartbeats=True,
            antientropy=True,
            churn_rate=30.0,
            churn_duration=60.0,
            broadcasts=8,
            settle_time=30.0,
            delivery_bound=0.85,
            policies=("group_size", "heartbeat"),
            min_policy_transitions=2,
        ),
        # A/B: flash-crowd joins (the system doubles in half a minute via
        # actor-level joins), static vs AdaptiveGroupSize + AdaptiveGossip
        # + AdaptiveAntiEntropy.  Same bound on both rows; the adaptive row
        # widens vgroups under the join wave and throttles gossip under the
        # delivery load.
        Scenario(
            name="flash/join_storm_static",
            workload="flash_crowd",
            plan="none",
            nodes=30,
            growth_target=60,
            churn_duration=30.0,
            broadcasts=8,
            settle_time=30.0,
            antientropy=True,
            delivery_bound=0.85,
        ),
        Scenario(
            name="flash/join_storm_adaptive",
            workload="flash_crowd",
            plan="none",
            nodes=30,
            growth_target=60,
            churn_duration=30.0,
            broadcasts=8,
            settle_time=30.0,
            antientropy=True,
            delivery_bound=0.85,
            policies=("group_size", "gossip", "antientropy"),
            min_policy_transitions=1,
        ),
    ]
    return {scenario.name: scenario for scenario in entries}


SCENARIOS: Dict[str, Scenario] = _default_scenarios()

#: The matrix CI runs: every default scenario (≥ 8 plan × workload combos).
SMALL_MATRIX: List[str] = list(SCENARIOS)


def _bench_scale() -> int:
    """Global workload scale factor (``ATUM_BENCH_SCALE``, default 1).

    A malformed value raises instead of silently downgrading: the nightly
    job's whole point is deployment-scale coverage, and a typo'd env var
    must not shrink the run while the artifact still claims 800 nodes.
    """
    raw = os.environ.get("ATUM_BENCH_SCALE", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"ATUM_BENCH_SCALE must be an integer, got {raw!r}"
        ) from None


def _nightly_scenarios() -> Dict[str, Scenario]:
    """The deployment-scale slice run nightly (not per-PR).

    Node counts are ``400 * ATUM_BENCH_SCALE``, matching the paper's
    800-node deployments at the nightly workflow's ``ATUM_BENCH_SCALE=2``.
    """
    nodes = 400 * _bench_scale()
    entries = [
        Scenario(
            name="nightly/partition_heal",
            workload="broadcast",
            plan="partition_heal",
            nodes=nodes,
            fault_fraction=0.2,
            broadcasts=8,
            settle_time=60.0,
            delivery_bound=1.0,
            antientropy=True,
        ),
        Scenario(
            name="nightly/two_sided_split",
            workload="broadcast",
            plan="two_sided_split",
            nodes=nodes,
            fault_fraction=0.5,
            broadcasts=8,
            settle_time=60.0,
            delivery_bound=1.0,
            antientropy=True,
        ),
        Scenario(
            name="nightly/two_sided_split_pbft",
            workload="broadcast",
            plan="two_sided_split",
            nodes=nodes,
            fault_fraction=0.5,
            broadcasts=8,
            settle_time=80.0,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
        ),
        Scenario(
            name="nightly/silent_minority",
            workload="broadcast",
            plan="silent_minority",
            nodes=nodes,
            fault_fraction=0.25,
            broadcasts=8,
            settle_time=60.0,
        ),
        # Deployment-scale checkpoint catch-up: isolated replicas must reach
        # log *equality* (not just delivery) after the heal, via checkpoint
        # announces + state transfer.
        Scenario(
            name="nightly/checkpoint_catchup",
            workload="broadcast",
            plan="partition_heal",
            nodes=nodes,
            fault_fraction=0.15,
            broadcasts=8,
            settle_time=80.0,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
        ),
        # Deployment-scale adversarial recovery: hundreds of laggards catch
        # up through signer sets salted with stonewalling responders; the
        # rotation bound must hold at scale.
        Scenario(
            name="nightly/byzantine_transfer",
            workload="broadcast",
            plan="byz_transfer_stonewall",
            nodes=nodes,
            fault_fraction=0.34,
            # Heavy injection: with ~N/4.5 vgroups, a thin workload leaves
            # most laggard groups without a certified checkpoint to
            # transfer, and the catch-up bound would fail vacuously.
            broadcasts=160,
            interval=0.1,
            settle_time=80.0,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            catchup_bound=40.0,
        ),
        # Deployment-scale split-brain reconciliation: vgroup-aligned
        # sides, a displaced straddler, deferred cross-side eviction
        # enforced by the directory merge at heal.
        Scenario(
            name="nightly/split_brain_directory",
            workload="broadcast",
            plan="split_brain_directory",
            nodes=nodes,
            heartbeats=True,
            broadcasts=8,
            settle_time=60.0,
            delivery_bound=0.5,
            antientropy=True,
        ),
        # Deployment-scale rejoin × eviction-pipeline race.  Unlike the
        # small-matrix row (threshold 0), the composed eviction wave may
        # transiently concentrate the coalition one past the strict
        # minority: evicting crashed *correct* members tightens the
        # (size-1)//2 threshold while the undersized vgroup awaits its
        # merge.  Excess 1 still keeps the coalition below every eviction
        # majority; anything beyond fails the run.
        Scenario(
            name="nightly/rejoin_eviction",
            workload="broadcast",
            plan="rejoin_eviction",
            nodes=nodes,
            fault_fraction=0.05,
            gmin=6,
            gmax=12,
            heartbeats=True,
            broadcasts=8,
            settle_time=120.0,
            delivery_bound=0.7,
            antientropy=True,
            attack_threshold=1.0,
        ),
        # Deployment-scale join-leave attack: the coalition must never
        # outgrow any vgroup's strict minority despite hundreds of
        # strategic re-join attempts.
        Scenario(
            name="nightly/rejoin_attack",
            workload="broadcast",
            plan="rejoin_attack",
            nodes=nodes,
            fault_fraction=0.05,
            gmin=6,
            gmax=12,
            broadcasts=8,
            settle_time=80.0,
            delivery_bound=0.8,
            antientropy=True,
            attack_threshold=0.0,
        ),
        # Deployment-scale epoch-crossing recovery: the isolated replica of
        # the largest vgroup re-anchors a two-epoch-stale certificate via
        # the quorum-signed transition chain while hundreds of other groups
        # keep deciding.
        Scenario(
            name="nightly/epoch_crossing",
            workload="broadcast",
            plan="epoch_crossing",
            nodes=nodes,
            fault_fraction=0.05,
            broadcasts=16,
            interval=0.25,
            settle_time=80.0,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            shuffle=False,
        ),
        # Deployment-scale churn storm with adaptive parameters: hundreds
        # of nodes churning while AdaptiveGroupSize widens the vgroup
        # bounds and AdaptiveHeartbeat stretches the suspicion deadline —
        # the self-tuning configuration must adapt (min_policy_transitions)
        # and stay violation-free at the paper's deployment scale.
        Scenario(
            name="nightly/churn_storm_adaptive",
            workload="churn_broadcast",
            plan="none",
            nodes=nodes,
            heartbeats=True,
            antientropy=True,
            churn_rate=60.0,
            churn_duration=90.0,
            broadcasts=16,
            settle_time=60.0,
            delivery_bound=0.85,
            policies=("group_size", "heartbeat"),
            min_policy_transitions=2,
        ),
        # Deployment-scale overlapping splits: two concurrent cuts over
        # hundreds of nodes, healed in sequence through the multi-split
        # coordinator.
        Scenario(
            name="nightly/overlapping_splits",
            workload="broadcast",
            plan="overlapping_splits",
            nodes=nodes,
            broadcasts=8,
            settle_time=60.0,
            delivery_bound=1.0,
            antientropy=True,
        ),
    ]
    return {scenario.name: scenario for scenario in entries}


#: The deployment-scale slice the scheduled nightly workflow runs.  The
#: entries themselves are served by :func:`_resolve` (through
#: :func:`_nightly_scenarios`) at run time, NOT stored in ``SCENARIOS``,
#: so their node counts honour ``ATUM_BENCH_SCALE`` when the run starts
#: rather than when this module was imported.  The name list is static so
#: importing this module never consults the environment (a malformed
#: ``ATUM_BENCH_SCALE`` should fail the *run*, not the import).
NIGHTLY_MATRIX: List[str] = [
    "nightly/byzantine_transfer",
    "nightly/checkpoint_catchup",
    "nightly/churn_storm_adaptive",
    "nightly/epoch_crossing",
    "nightly/overlapping_splits",
    "nightly/partition_heal",
    "nightly/rejoin_attack",
    "nightly/rejoin_eviction",
    "nightly/silent_minority",
    "nightly/split_brain_directory",
    "nightly/two_sided_split",
    "nightly/two_sided_split_pbft",
]


def _catchup_theory_for(scenario: Scenario) -> Optional[Dict[str, float]]:
    """The analytical rotation bound for Byzantine-responder scenarios.

    Worst case per vgroup: the per-group adversary quota
    ``min(floor(fraction * gmax), (gmax - 1) // 2)`` responders all queried
    before the first correct server, each burning one (backed-off, jittered)
    request timeout.  Pure function of the scenario so matrix rows can carry
    it without re-running anything.
    """
    if not scenario.plan.startswith("byz_transfer"):
        return None
    policy = RequestPolicy()
    quota = min(
        int(math.floor(scenario.fault_fraction * scenario.gmax)),
        (scenario.gmax - 1) // 2,
    )
    return catchup_latency_bound(
        group_size=scenario.gmax,
        byzantine_responders=quota,
        base_timeout=policy.base_timeout,
        backoff_factor=policy.backoff_factor,
        max_timeout=policy.max_timeout,
        jitter=policy.jitter,
    )


def _correct_origin_fractions(
    cluster: AtumCluster,
    records: Sequence[Tuple[str, str]],
    faulted: frozenset,
) -> List[float]:
    """Delivery fractions of the ``(bcast_id, origin)`` records whose origin
    stayed correct.

    The paper's delivery bound covers broadcasts *by correct nodes*; a
    broadcast originated by a node the plan later silenced, crashed or
    partitioned carries no guarantee (its SMR phase may never complete), so
    it is excluded from the bound — it still shows up in the run's delivery
    counters, just not in the bound check.
    """
    fractions: List[float] = []
    for bcast_id, origin in records:
        node = cluster.nodes.get(origin)
        if origin in faulted or (node is not None and not node.is_correct):
            continue
        fractions.append(cluster.delivery_fraction(bcast_id))
    return fractions


def _workload_broadcast_records(workload: BroadcastWorkload) -> List[Tuple[str, str]]:
    """(bcast_id, origin) pairs of a broadcast workload's emissions.

    bcast ids are ``bc-<address>-<counter>`` (addresses may contain dashes).
    """
    return [
        (bcast_id, bcast_id[3 : bcast_id.rfind("-")])
        for bcast_id, _started_at in workload.broadcasts
    ]


def _resolve(scenario: "str | Scenario") -> Scenario:
    if isinstance(scenario, Scenario):
        return scenario
    if scenario.startswith("nightly/"):
        # Re-derive nightly entries at resolve time so ATUM_BENCH_SCALE is
        # honoured when the run starts, not when this module was imported.
        nightly = _nightly_scenarios()
        if scenario in nightly:
            return nightly[scenario]
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; known: "
            f"{sorted(SCENARIOS) + NIGHTLY_MATRIX}"
        ) from None


# ----------------------------------------------------------------------- runs


def run_scenario(seed: int, scenario: "str | Scenario") -> Dict[str, Any]:
    """Run one seeded scenario to quiescence; returns its robustness row."""
    scenario = _resolve(scenario)
    params = AtumParameters(
        hc=3,
        rwl=5,
        gmax=scenario.gmax,
        gmin=scenario.gmin,
        round_duration=0.5,
        heartbeat_period=scenario.heartbeat_period,
        smr_kind=SmrKind.ASYNC if scenario.smr == "async" else SmrKind.SYNC,
        checkpoint_interval=scenario.checkpoint_interval,
        adaptive_quarantine=scenario.adaptive_quarantine,
    )
    cluster = AtumCluster(
        params,
        seed=seed,
        enable_heartbeats=scenario.heartbeats,
        antientropy=AntiEntropyConfig() if scenario.antientropy else None,
        shuffle_enabled=scenario.shuffle,
    )
    # Replay tolerates checker errors: a broken engine must surface as a
    # "structure" violation in this scenario's matrix row (and fail the
    # matrix), not abort the whole shard.
    monitor = InvariantMonitor(InvariantConfig(tolerate_check_errors=True))
    cluster.attach_monitor(monitor)
    # Pipeline-level event counters ride the same chain.  Observation only
    # (no RNG, no timers), so the matrix rows stay byte-identical.
    cluster.middleware_chain().add(MetricsTap())
    addresses = [f"n{i}" for i in range(scenario.nodes)]
    cluster.build_static(addresses)
    # Adaptive policies join the chain *after* the static build: the
    # initial population must not read as a churn spike, and a policies=()
    # row arms no timers and stays byte-identical to pre-policy builds.
    for key in scenario.policies:
        cluster.middleware_chain().add(POLICY_BUILDERS[key]())

    rng = named_stream(f"faults.select:{scenario.name}", master_seed=seed)
    plan = PLAN_BUILDERS[scenario.plan](scenario, cluster, rng)
    apply_plan(cluster, plan, monitor=monitor)

    mean_delivery_fraction: Optional[float] = None
    min_delivery_fraction: Optional[float] = None
    completion_ratio: Optional[float] = None
    # (bcast_id, origin) pairs of whichever workload emitted broadcasts;
    # aggregated into the delivery-bound fractions after the workload runs.
    broadcast_records: List[Tuple[str, str]] = []

    if scenario.workload == "broadcast":
        workload = BroadcastWorkload(
            cluster,
            BroadcastWorkloadConfig(
                count=scenario.broadcasts,
                interval=scenario.interval,
                settle_time=scenario.settle_time,
            ),
        )
        workload.run()
        broadcast_records = _workload_broadcast_records(workload)
    elif scenario.workload == "churn":
        churn = ChurnWorkload(
            cluster.engine,
            ChurnConfig(
                rate_per_minute=scenario.churn_rate, duration=scenario.churn_duration
            ),
            # Join through the cluster so newcomers get heartbeating actors.
            join_fn=cluster.join,
        )
        completion_ratio = churn.run().completion_ratio
    elif scenario.workload == "churn_broadcast":
        # Anti-entropy under churn: broadcasts interleave with continuous
        # membership churn, so repair races vgroup splits/merges and must
        # also serve joiners that start with empty delivery state.
        churn_config = ChurnConfig(
            rate_per_minute=scenario.churn_rate, duration=scenario.churn_duration
        )
        churn = ChurnWorkload(cluster.engine, churn_config, join_fn=cluster.join)
        broadcast_records = []

        def fire_broadcast(index: int) -> None:
            members = cluster.correct_member_addresses()
            if members:
                origin = members[index % len(members)]
                broadcast_records.append(
                    (cluster.broadcast(origin, {"churn-bcast": index}), origin)
                )

        horizon = churn_config.warmup + churn_config.duration
        spacing = horizon / (scenario.broadcasts + 1)
        for index in range(scenario.broadcasts):
            cluster.sim.schedule(
                spacing * (index + 1),
                lambda i=index: fire_broadcast(i),
                tag="churn-bcast",
            )
        completion_ratio = churn.run().completion_ratio
        cluster.run_for(scenario.settle_time)
    elif scenario.workload == "flash_crowd":
        # Flash-crowd joins: a burst of *actor-level* joins (cluster.join)
        # compressed into churn_duration seconds, growing the system from
        # ``nodes`` to ``growth_target``, with broadcasts interleaved for
        # the delivery bound.  Distinct from the growth workload, whose
        # engine-level joins create no node actors — here every arrival
        # fires ``on_node_added``, which is the signal the adaptive
        # policies (and their A/B static twin) are being measured on.
        joins = max(0, scenario.growth_target - scenario.nodes)
        burst_start = 5.0
        join_spacing = scenario.churn_duration / max(1, joins)

        def flash_join(index: int) -> None:
            members = cluster.correct_member_addresses()
            contact = members[index % len(members)] if members else None
            try:
                cluster.join(f"fc{index}", contact=contact)
            except MembershipError:
                cluster.sim.metrics.increment("faults.flash_join_failed")

        for index in range(joins):
            cluster.sim.schedule(
                burst_start + join_spacing * index,
                lambda i=index: flash_join(i),
                tag="flash.join",
            )
        broadcast_records = []

        def fire_flash_broadcast(index: int) -> None:
            members = cluster.correct_member_addresses()
            if members:
                origin = members[index % len(members)]
                broadcast_records.append(
                    (cluster.broadcast(origin, {"flash-bcast": index}), origin)
                )

        horizon = burst_start + scenario.churn_duration
        bcast_spacing = horizon / (scenario.broadcasts + 1)
        for index in range(scenario.broadcasts):
            cluster.sim.schedule(
                bcast_spacing * (index + 1),
                lambda i=index: fire_flash_broadcast(i),
                tag="flash-bcast",
            )
        cluster.run_for(horizon + scenario.settle_time)
    elif scenario.workload == "growth":
        growth = GrowthWorkload(
            cluster.engine,
            GrowthConfig(
                target_size=scenario.growth_target,
                join_fraction_per_minute=0.4,
                batch_interval=5.0,
                provisioning_delay=2.0,
                max_duration=4_000.0,
            ),
        )
        growth.run()
    else:
        raise ValueError(f"unknown workload {scenario.workload!r}")

    if broadcast_records:
        fractions = _correct_origin_fractions(
            cluster, broadcast_records, plan.unavailable_addresses()
        )
        if fractions:
            mean_delivery_fraction = sum(fractions) / len(fractions)
            min_delivery_fraction = min(fractions)

    cluster.run_until_membership_quiescent(max_time=120.0)
    if scenario.workload == "broadcast" and scenario.smr == "async":
        # PBFT executes in gap-free sequence order and its view changes
        # carry prepared operations, so per-vgroup decided logs must be
        # prefix-consistent across partitions, splits and heals.  With
        # checkpointing enabled the bar rises to eventual log *equality*:
        # state transfer must have closed every replica's gap by quiescence.
        monitor.check_smr_prefix_consistency(
            cluster, require_equality=scenario.checkpoint_interval > 0
        )
    monitor.finalize()
    summary = monitor.summary()
    metrics = cluster.sim.metrics

    if scenario.workload in ("broadcast", "churn_broadcast", "flash_crowd"):
        # A broadcast scenario that measured no correct-origin broadcast has
        # not demonstrated its bound — never report it as vacuously met.
        delivery_bound_met = (
            mean_delivery_fraction is not None
            and mean_delivery_fraction >= scenario.delivery_bound
        )
    else:
        delivery_bound_met = True

    rejoin_hist = metrics.histogram("faults.rejoin_group_fraction")
    rejoin_max_fraction = rejoin_hist.maximum if rejoin_hist.count else None
    excess_hist = metrics.histogram("faults.rejoin_threshold_excess")
    rejoin_max_excess = excess_hist.maximum if excess_hist.count else None
    attack_bound_met: Optional[bool] = None
    if scenario.attack_threshold is not None:
        # The join-leave coalition must never outgrow the strict-minority
        # eviction/agreement threshold of any vgroup by more than the
        # allowed excess; a vacuous run (no concentration samples) has not
        # demonstrated the bound.
        attack_bound_met = (
            rejoin_max_excess is not None
            and rejoin_max_excess <= scenario.attack_threshold
        )
        delivery_bound_met = delivery_bound_met and attack_bound_met

    catchup_hist = metrics.histogram("smr.checkpoint.catchup_latency")
    catchup_latency_mean = catchup_hist.mean if catchup_hist.count else None
    catchup_latency_max = catchup_hist.maximum if catchup_hist.count else None
    catchup_bound_met: Optional[bool] = None
    if scenario.catchup_bound is not None:
        # A run in which no replica ever completed a catch-up has not
        # demonstrated the bound — vacuous runs fail it.
        catchup_bound_met = (
            catchup_latency_max is not None
            and catchup_latency_max <= scenario.catchup_bound
        )
        delivery_bound_met = delivery_bound_met and catchup_bound_met
    slowdown_hist = metrics.histogram("membership.slowdown_penalty")
    # Observed at every fault-rate window roll; with the static policy the
    # histogram is flat at the configured threshold, with adaptive_quarantine
    # the min shows how far hostile windows tightened it toward the floor.
    quarantine_hist = metrics.histogram("req.quarantine_threshold")

    policy_transitions = metrics.counter("policy.transitions")
    policy_bound_met: Optional[bool] = None
    if scenario.policies:
        # An adaptive row whose policies never adapted is vacuous: the A/B
        # comparison against its static twin would be comparing identical
        # runs while claiming an adaptation result.
        policy_bound_met = policy_transitions >= scenario.min_policy_transitions
        delivery_bound_met = delivery_bound_met and policy_bound_met

    row: Dict[str, Any] = {
        "scenario": scenario.name,
        "workload": scenario.workload,
        "plan": scenario.plan,
        "smr": scenario.smr,
        "antientropy": scenario.antientropy,
        "checkpoint_interval": scenario.checkpoint_interval,
        "attack_threshold": scenario.attack_threshold,
        "attack_bound_met": attack_bound_met,
        "rejoin_max_group_fraction": rejoin_max_fraction,
        "rejoin_max_threshold_excess": rejoin_max_excess,
        "catchup_bound": scenario.catchup_bound,
        "catchup_bound_met": catchup_bound_met,
        "catchup_latency_mean": catchup_latency_mean,
        "catchup_latency_max": catchup_latency_max,
        "catchup_theory": _catchup_theory_for(scenario),
        "slowdown_penalty_mean": slowdown_hist.mean if slowdown_hist.count else None,
        "slowdown_penalty_max": slowdown_hist.maximum if slowdown_hist.count else None,
        "adaptive_quarantine": scenario.adaptive_quarantine,
        "quarantine_threshold_min": (
            quarantine_hist.minimum if quarantine_hist.count else None
        ),
        "quarantine_threshold_mean": (
            quarantine_hist.mean if quarantine_hist.count else None
        ),
        "seed": seed,
        "system_size": cluster.engine.system_size,
        "group_count": cluster.engine.group_count,
        "violations": summary["violations"],
        "violations_by_kind": summary["by_kind"],
        "checks_run": summary["checks_run"],
        "evictions_observed": summary["evictions_observed"],
        "mean_delivery_fraction": mean_delivery_fraction,
        "min_delivery_fraction": min_delivery_fraction,
        "delivery_bound": scenario.delivery_bound,
        "delivery_bound_met": delivery_bound_met,
        "completion_ratio": completion_ratio,
        "counters": {
            "net.messages_lost": metrics.counter("net.messages_lost"),
            "net.messages_partitioned": metrics.counter("net.messages_partitioned"),
            "faults.messages_dropped": metrics.counter("faults.messages_dropped"),
            "faults.messages_duplicated": metrics.counter("faults.messages_duplicated"),
            "faults.messages_delayed": metrics.counter("faults.messages_delayed"),
            "faults.partitions_formed": metrics.counter("faults.partitions_formed"),
            "faults.partitions_healed": metrics.counter("faults.partitions_healed"),
            "faults.evictions_proposed_by_byzantine": metrics.counter(
                "faults.evictions_proposed_by_byzantine"
            ),
            "group.equivocations_sent": metrics.counter("group.equivocations_sent"),
            "faults.messages_corrupted": metrics.counter("faults.messages_corrupted"),
            "group.corrupted_shares_dropped": metrics.counter(
                "group.corrupted_shares_dropped"
            ),
            "net.corrupted_discarded": metrics.counter("net.corrupted_discarded"),
            "group.forged_size_rejected": metrics.counter("group.forged_size_rejected"),
            "ae.summaries_sent": metrics.counter("ae.summaries_sent"),
            "ae.shares_resent": metrics.counter("ae.shares_resent"),
            "ae.reproposals": metrics.counter("ae.reproposals"),
            "ae.store_gc_dropped": metrics.counter("ae.store_gc_dropped"),
            "smr.pbft.view_changes": metrics.counter("smr.pbft.view_changes"),
            "smr.checkpoint.stable": metrics.counter("smr.checkpoint.stable"),
            "smr.checkpoint.slots_gc": metrics.counter("smr.checkpoint.slots_gc"),
            "smr.checkpoint.transfers_completed": metrics.counter(
                "smr.checkpoint.transfers_completed"
            ),
            "smr.checkpoint.ops_installed": metrics.counter(
                "smr.checkpoint.ops_installed"
            ),
            "smr.checkpoint.tail_view_changes": metrics.counter(
                "smr.checkpoint.tail_view_changes"
            ),
            "smr.checkpoint.rejected": metrics.counter("smr.checkpoint.rejected"),
            "smr.checkpoint.state_requests": metrics.counter(
                "smr.checkpoint.state_requests"
            ),
            "smr.checkpoint.epoch_transitions": metrics.counter(
                "smr.checkpoint.epoch_transitions"
            ),
            "smr.checkpoint.anchors_adopted": metrics.counter(
                "smr.checkpoint.anchors_adopted"
            ),
            "req.sent": metrics.counter("req.sent"),
            "req.completed": metrics.counter("req.completed"),
            "req.timeouts": metrics.counter("req.timeouts"),
            "req.garbage_replies": metrics.counter("req.garbage_replies"),
            "req.stale_replies": metrics.counter("req.stale_replies"),
            "req.quarantined": metrics.counter("req.quarantined"),
            "req.gave_up": metrics.counter("req.gave_up"),
            "req.rejected_malformed": metrics.counter("req.rejected_malformed"),
            "faults.transfer_stonewalled": metrics.counter(
                "faults.transfer_stonewalled"
            ),
            "faults.transfer_slow_dripped": metrics.counter(
                "faults.transfer_slow_dripped"
            ),
            "faults.transfer_garbage_served": metrics.counter(
                "faults.transfer_garbage_served"
            ),
            "faults.transfer_stale_served": metrics.counter(
                "faults.transfer_stale_served"
            ),
            "ae.requests_sent": metrics.counter("ae.requests_sent"),
            "ae.retry_storm": metrics.counter("ae.retry_storm"),
            "directory.splits": metrics.counter("directory.splits"),
            "directory.merges": metrics.counter("directory.merges"),
            "directory.joins_recorded": metrics.counter("directory.joins_recorded"),
            "directory.evictions_deferred": metrics.counter(
                "directory.evictions_deferred"
            ),
            "directory.merge_evictions_enforced": metrics.counter(
                "directory.merge_evictions_enforced"
            ),
            "directory.join_revalidations_revoked": metrics.counter(
                "directory.join_revalidations_revoked"
            ),
            "faults.rejoin_joins": metrics.counter("faults.rejoin_joins"),
            "faults.rejoin_leaves": metrics.counter("faults.rejoin_leaves"),
            "membership.joins_completed": metrics.counter("membership.joins_completed"),
            "membership.leaves_completed": metrics.counter("membership.leaves_completed"),
            "membership.evictions_started": metrics.counter("membership.evictions_started"),
        },
    }
    if scenario.policies:
        # Policy columns appear only on adaptive rows: policies=() rows (the
        # whole pre-existing matrix) keep their exact key set, so the
        # regenerated FAULT_MATRIX.json stays byte-identical for them.
        gmax_hist = metrics.histogram("policy.gmax")
        hb_hist = metrics.histogram("policy.heartbeat_period")
        row["policies"] = list(scenario.policies)
        row["min_policy_transitions"] = scenario.min_policy_transitions
        row["policy_transitions"] = policy_transitions
        row["policy_bound_met"] = policy_bound_met
        row["policy_gmax_peak"] = gmax_hist.maximum if gmax_hist.count else None
        row["policy_heartbeat_period_peak"] = hb_hist.maximum if hb_hist.count else None
        row["counters"].update(
            {
                "policy.proposals": metrics.counter("policy.proposals"),
                "policy.transitions": policy_transitions,
                "policy.rejected_bounds": metrics.counter("policy.rejected_bounds"),
                "policy.rejected_rate": metrics.counter("policy.rejected_rate"),
                "policy.rejected_step": metrics.counter("policy.rejected_step"),
                "policy.rejected_oscillation": metrics.counter(
                    "policy.rejected_oscillation"
                ),
                "policy.rejected_coupling": metrics.counter("policy.rejected_coupling"),
            }
        )
    return row


def scenario_shard(seed: int, name: str) -> Dict[str, Any]:
    """Picklable shard for :mod:`repro.sim.runpar`: one seeded scenario run."""
    row = run_scenario(seed, name)
    counters = {
        "scenario.runs": 1.0,
        "scenario.violations": float(row["violations"]),
        "scenario.checks_run": float(row["checks_run"]),
        "scenario.evictions_observed": float(row["evictions_observed"]),
        "scenario.delivery_bound_met": 1.0 if row["delivery_bound_met"] else 0.0,
    }
    counters.update({name: float(value) for name, value in row["counters"].items()})
    histograms: Dict[str, List[float]] = {}
    if row["mean_delivery_fraction"] is not None:
        histograms["scenario.delivery_fraction"] = [row["mean_delivery_fraction"]]
    if row["completion_ratio"] is not None:
        histograms["scenario.completion_ratio"] = [row["completion_ratio"]]
    if row["rejoin_max_group_fraction"] is not None:
        histograms["scenario.rejoin_max_fraction"] = [row["rejoin_max_group_fraction"]]
    if row["rejoin_max_threshold_excess"] is not None:
        histograms["scenario.rejoin_max_excess"] = [row["rejoin_max_threshold_excess"]]
    if row["catchup_latency_max"] is not None:
        histograms["scenario.catchup_latency"] = [row["catchup_latency_max"]]
    if row["slowdown_penalty_max"] is not None:
        histograms["scenario.slowdown_penalty"] = [row["slowdown_penalty_max"]]
    if row["quarantine_threshold_min"] is not None:
        histograms["scenario.quarantine_threshold"] = [
            row["quarantine_threshold_min"],
            row["quarantine_threshold_mean"],
        ]
    if "policy_transitions" in row:
        counters["scenario.policy_bound_met"] = 1.0 if row["policy_bound_met"] else 0.0
        # Histogram so the matrix can report the *minimum* per-run count:
        # every seeded run must adapt, not just the sum across seeds.
        histograms["scenario.policy_transitions"] = [float(row["policy_transitions"])]
    return {"counters": counters, "histograms": histograms}


def matrix_cell_shard(index: int, cells: Sequence[Sequence[Any]]) -> Dict[str, Any]:
    """Picklable shard running one ``(scenario_name, seed)`` cell of the matrix.

    Indexing into a shared ``cells`` list lets :func:`run_matrix` fan the
    *entire* matrix through one :func:`repro.sim.runpar.run_sharded` call (a
    single worker pool at full parallelism) even though every cell carries a
    different scenario; ``run_sharded``'s per-call kwargs are shard-invariant.
    """
    name, seed = cells[index]
    return scenario_shard(seed, name)


def run_matrix(
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (7, 11),
    workers: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Run the scenario matrix (scenarios × seeds) and return robustness rows.

    All cells fan out over one :func:`repro.sim.runpar.run_sharded` pool;
    results come back in input order, so per-scenario merges stay in seed
    order.  The rows are *not* yet independent of the worker count: a cell
    can depend on which cells ran before it in the same worker process and
    on ``PYTHONHASHSEED`` (ROADMAP.md open item 1), so reproducing a
    committed matrix needs the same ``--workers`` and a pinned hash seed.
    """
    scenario_names = list(names or SMALL_MATRIX)
    seeds = list(seeds)
    cells = [(name, seed) for name in scenario_names for seed in seeds]
    shard_results = run_sharded(
        "repro.faults.scenarios:matrix_cell_shard",
        list(range(len(cells))),
        workers=workers,
        kwargs={"cells": cells},
    )
    rows: List[Dict[str, Any]] = []
    for position, name in enumerate(scenario_names):
        scenario = _resolve(name)
        merged = merge_shards(
            shard_results[position * len(seeds) : (position + 1) * len(seeds)]
        )
        counters = merged["counters"]
        runs = counters.get("scenario.runs", 0.0) or 1.0
        fraction_hist = merged["histograms"].get("scenario.delivery_fraction")
        completion_hist = merged["histograms"].get("scenario.completion_ratio")
        rejoin_hist = merged["histograms"].get("scenario.rejoin_max_fraction")
        rejoin_excess_hist = merged["histograms"].get("scenario.rejoin_max_excess")
        catchup_hist = merged["histograms"].get("scenario.catchup_latency")
        slowdown_hist = merged["histograms"].get("scenario.slowdown_penalty")
        quarantine_hist = merged["histograms"].get("scenario.quarantine_threshold")
        theory = scenario_robustness_row(
            system_size=scenario.growth_target
            if scenario.workload == "growth"
            else scenario.nodes,
            # Midpoint of the scenario's group-size bounds — the theory
            # column must describe the regime the row actually ran in.
            average_group_size=(scenario.gmin + scenario.gmax) / 2,
            # Network-only plans leave every node live and correct, so the
            # binomial per-node failure model gets p=0: a side-preserving
            # split degrades links, not nodes (its members stay live and
            # reconcile to full delivery), exactly like loss/delay/
            # duplication/corruption.  Per-node-isolation partitions keep
            # their fraction — isolated nodes are unavailable, like crashes.
            # slow_vgroup and split_brain_directory likewise degrade
            # latency/links only: every node stays live and correct.
            fault_fraction=scenario.fault_fraction
            if scenario.plan
            not in (
                "none",
                "delay_spike",
                "dup_storm",
                "lossy_links",
                "corrupt_links",
                "two_sided_split",
                "split_brain_directory",
                "slow_vgroup",
                # Side-preserving cuts plus voluntary leaves: every node
                # stays live and correct throughout.
                "epoch_crossing",
                "overlapping_splits",
            )
            else 0.0,
            synchronous=scenario.smr != "async",
        )
        rows.append(
            {
                "scenario": scenario.name,
                "workload": scenario.workload,
                "plan": scenario.plan,
                "smr": scenario.smr,
                "antientropy": scenario.antientropy,
                "checkpoint_interval": scenario.checkpoint_interval,
                "attack_threshold": scenario.attack_threshold,
                "rejoin_max_group_fraction": rejoin_hist.maximum if rejoin_hist else None,
                "rejoin_max_threshold_excess": (
                    rejoin_excess_hist.maximum if rejoin_excess_hist else None
                ),
                "catchup_bound": scenario.catchup_bound,
                "max_catchup_latency": catchup_hist.maximum if catchup_hist else None,
                "mean_catchup_latency": catchup_hist.mean if catchup_hist else None,
                "catchup_theory": _catchup_theory_for(scenario),
                "max_slowdown_penalty": (
                    slowdown_hist.maximum if slowdown_hist else None
                ),
                "adaptive_quarantine": scenario.adaptive_quarantine,
                "min_quarantine_threshold": (
                    quarantine_hist.minimum if quarantine_hist else None
                ),
                "mean_quarantine_threshold": (
                    quarantine_hist.mean if quarantine_hist else None
                ),
                "seeds": list(seeds),
                "violations": counters.get("scenario.violations", 0.0),
                "checks_run": counters.get("scenario.checks_run", 0.0),
                "evictions_observed": counters.get("scenario.evictions_observed", 0.0),
                "delivery_bound": scenario.delivery_bound,
                "delivery_bound_met_runs": counters.get("scenario.delivery_bound_met", 0.0),
                "runs": runs,
                "mean_delivery_fraction": fraction_hist.mean if fraction_hist else None,
                "mean_completion_ratio": completion_hist.mean if completion_hist else None,
                "faults.messages_dropped": counters.get("faults.messages_dropped", 0.0),
                "faults.messages_duplicated": counters.get("faults.messages_duplicated", 0.0),
                "theory": theory,
            }
        )
        if scenario.policies:
            transitions_hist = merged["histograms"].get("scenario.policy_transitions")
            rows[-1].update(
                {
                    "policies": list(scenario.policies),
                    "min_policy_transitions": scenario.min_policy_transitions,
                    "policy_transitions": counters.get("policy.transitions", 0.0),
                    "policy_transitions_min_run": (
                        transitions_hist.minimum if transitions_hist else None
                    ),
                    "policy_proposals": counters.get("policy.proposals", 0.0),
                }
            )
    return rows


def write_matrix_report(
    path: str = "FAULT_MATRIX.json",
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (7, 11),
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the matrix and persist the robustness table to ``path``."""
    import json

    rows = run_matrix(names=names, seeds=seeds, workers=workers)
    report = {
        "matrix": rows,
        "scenarios": len(rows),
        "total_violations": sum(row["violations"] for row in rows),
        "all_bounds_met": all(
            row["delivery_bound_met_runs"] == row["runs"] for row in rows
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover - CLI
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--matrix",
        default="small",
        choices=("small", "nightly"),
        help=(
            "which scenario set to run (small = every default scenario; "
            "nightly = the 400*ATUM_BENCH_SCALE-node deployment-scale slice)"
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="run only the named scenario(s) instead of the matrix",
    )
    parser.add_argument("--seeds", type=int, default=2, help="seeds per scenario")
    parser.add_argument("--base-seed", type=int, default=7, help="first seed")
    parser.add_argument("--workers", type=int, default=None, help="worker processes")
    parser.add_argument("--output", default="FAULT_MATRIX.json", help="report path")
    args = parser.parse_args(argv)
    names = args.scenario or (
        NIGHTLY_MATRIX if args.matrix == "nightly" else SMALL_MATRIX
    )
    seeds = [args.base_seed + 4 * index for index in range(args.seeds)]
    report = write_matrix_report(
        args.output, names=names, seeds=seeds, workers=args.workers
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    failed = False
    if report["total_violations"]:
        print(f"FAILED: {report['total_violations']} invariant violation(s)")
        failed = True
    if not report["all_bounds_met"]:
        missed = [
            row["scenario"]
            for row in report["matrix"]
            if row["delivery_bound_met_runs"] != row["runs"]
        ]
        print(f"FAILED: delivery/catch-up/attack bound missed by {missed}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())


__all__ = [
    "Scenario",
    "SCENARIOS",
    "SMALL_MATRIX",
    "NIGHTLY_MATRIX",
    "PLAN_BUILDERS",
    "run_scenario",
    "scenario_shard",
    "matrix_cell_shard",
    "run_matrix",
    "write_matrix_report",
]
