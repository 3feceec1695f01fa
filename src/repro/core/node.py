"""The Atum node: API operations and the node-level protocol stack.

An :class:`AtumNode` is the object an application embeds (one per process in a
real deployment, one per simulated node here).  It exposes the paper's API
(section 3.3): ``broadcast`` plus the ``deliver`` and ``forward`` callbacks;
``join`` and ``leave`` are invoked through the :class:`~repro.core.cluster.
AtumCluster`, which orchestrates the membership engine.

Internally the node hosts:

* one SMR replica (Sync or Async engine) for its current vgroup -- used for
  the first phase of ``broadcast`` (a Byzantine broadcast inside the caller's
  vgroup) and for agreeing on membership requests;
* a :class:`~repro.group.messages.GroupMessenger` for inter-vgroup group
  messages (gossip shares, application messages);
* a :class:`~repro.group.heartbeat.HeartbeatMonitor` for eviction of
  unresponsive peers;
* the gossip forwarding logic of the second phase of ``broadcast``.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, ClassVar, Dict, List, Optional, Set, Tuple

from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MiddlewareContext
from repro.crypto.keys import KeyRegistry
from repro.faults.plan import RESPONDER_BEHAVIOURS
from repro.group.antientropy import AntiEntropyConfig, AntiEntropyRepair
from repro.group.heartbeat import Heartbeat, HeartbeatConfig, HeartbeatMonitor
from repro.group.messages import GroupMessageEnvelope, GroupMessenger, NodeBinding
from repro.group.vgroup import VGroupView
from repro.net.message import CorruptedPayload
from repro.net.network import Network
from repro.net.requests import RequestEnvelope
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator
from repro.smr.base import Operation, SmrReplica
from repro.smr.checkpoint import StateTransferRequest, StateTransferResponse
from repro.smr.dolev_strong import SyncSmrReplica
from repro.smr.pbft import PbftReplica

_BCAST_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class BroadcastMessage:
    """An application message travelling through Atum's broadcast.

    Attributes:
        bcast_id: Globally unique identifier of this broadcast.
        origin: Address of the broadcasting node.
        payload: Application payload.
        size_bytes: Payload size used for network accounting.
        created_at: Simulated time at which ``broadcast`` was invoked.

    A broadcast message is a wire image: once :meth:`AtumNode.broadcast`
    has built it, neither it nor its ``payload`` may be mutated.  The class
    is *sealed* for :func:`repro.crypto.digest.digest_object`, which digests
    an instance once and returns the stored digest at every later hop, so a
    payload mutated after ``broadcast()`` would keep its old digest.
    """

    _digest_sealed: ClassVar[bool] = True

    bcast_id: str
    origin: str
    payload: Any
    size_bytes: int
    created_at: float


@dataclass
class SmrEnvelope:
    """Wrapper that routes an SMR protocol message to the right vgroup/epoch."""

    group_id: str
    payload: Any


@dataclass
class DirectMessage:
    """A point-to-point application message (used by AShare and AStream)."""

    kind: str
    payload: Any


class AtumNode(Actor):
    """A participant in an Atum system.

    Args:
        sim: The simulator hosting the node.
        address: Unique node address.
        params: System parameters.
        network: The network the node communicates over.
        registry: Key registry (PKI) shared by the deployment.
        directory: Provider of overlay information (the cluster).  It must
            expose ``view_of_group(group_id)`` and
            ``cycle_neighbor_ids(group_id)``.
        deliver_fn: Application callback invoked on message delivery.
        forward_fn: Application callback deciding whether to forward a
            broadcast to a neighbouring vgroup; ``None`` uses ``forward_policy``.
        forward_policy: One of ``"flood"``, ``"single"``, ``"double"`` or
            ``"random"`` -- the built-in forwarding policies.
        byzantine: ``None`` for a correct node, ``"silent"`` for a node that
            stops participating in every protocol except heartbeats,
            ``"mute"`` for a completely unresponsive node,
            ``"evict_attack"`` for the paper's §6.1.3 synchronous adversary
            (heartbeats only, plus eviction proposals against correct peers —
            the proposals themselves are driven by
            :class:`repro.faults.behaviours.FaultController`),
            ``"equivocate"`` for a node that participates in gossip but sends
            conflicting payload variants of every forwarded group message to
            disjoint halves of the destination vgroup, or ``"rejoin_attack"``
            for a member of the adaptive join-leave coalition (silent on the
            protocol; its strategic leave/re-join schedule is driven by the
            fault controller).  The responder behaviours (``"stonewall"``,
            ``"slow_drip"``, ``"garbage_serve"``, ``"stale_cert"``) attack
            only the state-transfer serving path: the node participates
            normally everywhere else — crucially it signs checkpoints, so
            it legitimately enters the certifier rotation recovering
            replicas fetch state from — and stonewalls, drip-feeds,
            tampers or stales its transfer responses (see
            :data:`repro.faults.plan.RESPONDER_BEHAVIOURS`).
    """

    def __init__(
        self,
        sim: Simulator,
        address: str,
        params: AtumParameters,
        network: Network,
        registry: KeyRegistry,
        directory: "OverlayDirectory",
        deliver_fn: Optional[Callable[[BroadcastMessage], None]] = None,
        forward_fn: Optional[Callable[[BroadcastMessage, str], bool]] = None,
        forward_policy: str = "flood",
        byzantine: Optional[str] = None,
        enable_heartbeats: bool = False,
        antientropy: Optional[AntiEntropyConfig] = None,
    ) -> None:
        super().__init__(sim, address)
        self.params = params
        self.network = network
        self.registry = registry
        self.directory = directory
        self.deliver_fn = deliver_fn
        # Compiled on_deliver pipeline of the cluster's middleware chain
        # (repro.core.middleware), invoked before deliver_fn.  Kept separate
        # from deliver_fn because apps reassign that attribute freely (e.g.
        # ASub) and must not be able to silently disconnect an attached
        # observer; ``None`` costs one truthiness check per delivery.
        self._deliver_hooks = None
        self._mw_scenario = ""
        self.forward_fn = forward_fn
        self.forward_policy = forward_policy
        self.byzantine = byzantine
        registry.generate(address)

        self.vgroup_view: Optional[VGroupView] = None
        self.replica: Optional[SmrReplica] = None
        self.delivered: Dict[str, float] = {}
        self.delivered_order: List[str] = []
        self._forwarded: Set[Tuple[str, str]] = set()
        self._direct_handlers: Dict[str, Callable[[Any, str], None]] = {}
        self._group_handlers: Dict[str, Callable[[Any, str, str], None]] = {}

        self.messenger = GroupMessenger(
            binding=NodeBinding(address=address, network=network, sim=sim),
            own_view_fn=self._own_view_or_singleton,
            on_accept=self._on_group_message,
            # Forged-size rejection: the directory's smallest-known size of
            # the source group caps how far a claimed sender_group_size can
            # lower the acceptance majority (see GroupMessenger.handle).
            source_size_fn=getattr(directory, "smallest_group_size", None),
        )
        self.antientropy: Optional[AntiEntropyRepair] = None
        if antientropy is not None:
            self.antientropy = AntiEntropyRepair(self, antientropy)
        self.heartbeats: Optional[HeartbeatMonitor] = None
        if enable_heartbeats:
            self.heartbeats = HeartbeatMonitor(
                sim=sim,
                address=address,
                group_id_fn=lambda: self.vgroup_view.group_id if self.vgroup_view else "",
                peers_fn=lambda: self.vgroup_view.members if self.vgroup_view else (),
                send_fn=lambda peer, hb: self.network.send_one(self.address, peer, hb, 64),
                suspect_fn=self._on_peer_suspected,
                config=params.heartbeat_config(),
            )

    # ------------------------------------------------------------------ queries

    @property
    def is_member(self) -> bool:
        return self.vgroup_view is not None

    @property
    def is_correct(self) -> bool:
        return self.byzantine is None

    def group_id(self) -> Optional[str]:
        return self.vgroup_view.group_id if self.vgroup_view else None

    def has_delivered(self, bcast_id: str) -> bool:
        return bcast_id in self.delivered

    def delivery_time(self, bcast_id: str) -> Optional[float]:
        return self.delivered.get(bcast_id)

    def smr_stable_checkpoint(self) -> Optional[int]:
        """Stable-checkpoint seq of this node's replica (``None`` if unavailable).

        Anti-entropy summaries advertise it to vgroup co-members: a stalled
        replica that hears a co-member's certified checkpoint ahead of its
        own decided log discovers the gap without waiting for a view change
        (see :meth:`on_checkpoint_hint`).
        """
        if self.replica is None:
            return None
        return self.replica.stable_checkpoint_seq()

    def on_checkpoint_hint(self, peer: str, seq: int) -> None:
        """A vgroup co-member advertised a stable checkpoint at ``seq``.

        Forwarded to the replica's checkpoint manager, which rate-limits
        and — since a bare seq proves nothing — requests a state transfer
        whose *response* carries the verifiable certificate.  Ignored for
        engines without checkpointing and for hints from non-co-members.
        """
        if self.replica is None or self.vgroup_view is None or not self.is_correct:
            return
        manager = getattr(self.replica, "checkpoints", None)
        if manager is None or peer not in self.vgroup_view.member_set:
            return
        manager.on_gap_hint(peer, seq)

    # --------------------------------------------------------------- membership

    def install_view(self, view: VGroupView) -> None:
        """Adopt a (new) view of the node's own vgroup and (re)wire the SMR replica.

        Called by the cluster whenever the membership engine changes the
        composition of the vgroup this node belongs to.
        """
        previous_view = self.vgroup_view
        self.vgroup_view = view
        if self.replica is None:
            self.replica = self._make_replica(view)
            if hasattr(self.replica, "epoch"):
                # Join the group at ITS epoch, not at a fresh zero —
                # epoch-stamped messages from co-members would otherwise
                # be filtered until enough reconfigurations caught us up.
                self.replica.epoch = view.epoch
        else:
            # Do NOT pre-assign replica.members here: reconfigure captures
            # the outgoing membership from it to stamp epoch-transition
            # records, and overwriting first would make every record claim
            # prev_members == members, breaking chain verification.
            self.replica.reconfigure(
                view.members,
                epoch=view.epoch,
                # Shuffling re-homes a node into a different vgroup while
                # keeping its replica object; the outgoing certificates
                # describe the OLD group's log and must not be re-anchored.
                carry_certificates=(
                    previous_view is not None
                    and previous_view.group_id == view.group_id
                ),
            )
        if (
            self.heartbeats is not None
            and not self.heartbeats.running
            and self.byzantine != "mute"
        ):
            # A mute (crashed) node's stopped monitor must stay stopped, or
            # any reconfiguration of its vgroup would resurrect its
            # heartbeats and hide the crash from the failure detector.
            self.heartbeats.start()
        if self.antientropy is not None and not self.antientropy.running:
            # Safe for crashed nodes too: the tick itself is a no-op while
            # the node is not correct and resumes after recovery.
            self.antientropy.start()

    def clear_membership(self) -> None:
        """Drop membership state after leaving the system."""
        self.vgroup_view = None
        if self.replica is not None:
            self.replica.stop()
            self.replica = None
        if self.heartbeats is not None:
            self.heartbeats.stop()
        if self.antientropy is not None:
            self.antientropy.stop()

    def _make_replica(self, view: VGroupView) -> SmrReplica:
        replica_class = SyncSmrReplica if self.params.smr_kind is SmrKind.SYNC else PbftReplica
        return replica_class(
            sim=self.sim,
            node_id=self.address,
            members=view.members,
            registry=self.registry,
            send_fn=self._send_smr,
            decide_fn=self._on_smr_decide,
            config=self.params.smr_config(),
        )

    # ---------------------------------------------------------------- broadcast

    def broadcast(self, payload: Any, size_bytes: int = 100) -> str:
        """Broadcast ``payload`` to every node of the system (section 3.3.4).

        Phase one performs a Byzantine broadcast inside the caller's vgroup
        through the SMR engine; phase two gossips the message across the
        overlay.  Returns the broadcast identifier.

        ``payload`` becomes part of the message's wire image and must not be
        mutated after this call (see :class:`BroadcastMessage`).
        """
        if not self.is_member or self.replica is None:
            raise RuntimeError(f"node {self.address} is not a member of an Atum system")
        bcast_id = f"bc-{self.address}-{next(_BCAST_COUNTER)}"
        message = BroadcastMessage(
            bcast_id=bcast_id,
            origin=self.address,
            payload=payload,
            size_bytes=size_bytes,
            created_at=self.sim.now,
        )
        operation = Operation(kind="broadcast", body=message, proposer=self.address, op_id=bcast_id)
        self.replica.propose(operation)
        self.sim.metrics.increment("atum.broadcasts_started")
        return bcast_id

    def repropose_broadcast(self, message: BroadcastMessage) -> bool:
        """Re-run a delivered broadcast through the own vgroup's SMR engine.

        Anti-entropy's intra-group repair path: re-deciding the operation
        delivers it to every current member through the agreement primitive
        itself (members that already delivered dedup on the broadcast id),
        so a co-member that missed the original decision — it was cut off,
        or on the wrong side of a split — catches up without any unsafe
        point-to-point payload transfer.
        """
        if self.replica is None or not self.is_member:
            return False
        operation = Operation(
            kind="broadcast",
            body=message,
            proposer=self.address,
            op_id=message.bcast_id,
        )
        self.replica.repropose(operation)
        self.sim.metrics.increment("atum.broadcast_reproposals")
        return True

    def register_group_handler(self, kind: str, handler: Callable[[Any, str, str], None]) -> None:
        """Register a handler for accepted group messages of the given kind.

        The handler receives ``(payload, source_group, gm_id)``.  Applications
        (AShare, AStream) use this to exchange their own inter-vgroup messages.
        """
        self._group_handlers[kind] = handler

    def register_direct_handler(self, kind: str, handler: Callable[[Any, str], None]) -> None:
        """Register a handler for point-to-point messages of the given kind."""
        self._direct_handlers[kind] = handler

    def send_direct(self, peer: str, kind: str, payload: Any, size_bytes: int = 256) -> None:
        """Send a point-to-point application message to ``peer``."""
        self.network.send(self.address, peer, DirectMessage(kind=kind, payload=payload), size_bytes)

    # ------------------------------------------------------------------ routing

    def on_message(self, payload: Any, sender: str) -> None:
        if self.byzantine == "mute":
            return
        if isinstance(payload, CorruptedPayload):
            inner = payload.inner
            if isinstance(inner, GroupMessageEnvelope):
                # Group-message shares are self-verifying: the messenger runs
                # the payload-digest check and discards the tampered share.
                if self.byzantine not in ("silent", "evict_attack", "rejoin_attack"):
                    self.messenger.handle_corrupted(inner, sender)
                return
            # Everything else (heartbeats, SMR, direct messages) is MACed on
            # the wire in a real deployment: a flipped frame fails transport
            # authentication and is dropped whole.
            self.sim.metrics.increment("net.corrupted_discarded")
            return
        if isinstance(payload, Heartbeat):
            if self.heartbeats is not None:
                self.heartbeats.observe(payload)
            return
        if self.byzantine in ("silent", "evict_attack", "rejoin_attack"):
            # A silent Byzantine node keeps sending heartbeats (handled by its
            # monitor) but ignores every other protocol message.  The
            # evict-attack and rejoin-attack adversaries behave the same on
            # the receive path; their eviction proposals / strategic
            # leave-and-re-join schedules are timer-driven by the fault
            # controller.
            return
        if isinstance(payload, SmrEnvelope):
            if self.replica is not None and self.vgroup_view is not None:
                if payload.group_id == self.vgroup_view.group_id:
                    inner = payload.payload
                    if (
                        self.byzantine in RESPONDER_BEHAVIOURS
                        and isinstance(inner, RequestEnvelope)
                        and inner.kind == "ckpt.transfer"
                    ):
                        # The responder adversary hijacks exactly one
                        # protocol surface: serving state transfers.
                        self._serve_adversarial_transfer(inner, sender)
                        return
                    self.replica.on_message(inner, sender)
            return
        if isinstance(payload, GroupMessageEnvelope):
            self.messenger.handle(payload, sender)
            return
        if isinstance(payload, DirectMessage):
            handler = self._direct_handlers.get(payload.kind)
            if handler is not None:
                handler(payload.payload, sender)
            return

    # ----------------------------------------------------------------- internals

    def _own_view_or_singleton(self) -> VGroupView:
        if self.vgroup_view is not None:
            return self.vgroup_view
        return VGroupView.create(f"solo-{self.address}", [self.address])

    def _send_smr(self, peer: str, payload: Any, size_bytes: int) -> None:
        if self.byzantine is not None and self.byzantine not in RESPONDER_BEHAVIOURS:
            # Responder adversaries stay live on the SMR wire — their whole
            # attack depends on participating (voting, signing checkpoints)
            # well enough to be selected as a transfer server.
            return
        group_id = self.group_id() or ""
        self.network.send(self.address, peer, SmrEnvelope(group_id=group_id, payload=payload), size_bytes)

    def _serve_adversarial_transfer(self, envelope: RequestEnvelope, sender: str) -> None:
        """Serve a state-transfer request in this node's adversarial style.

        All four responder behaviours stay within what a Byzantine server
        can actually do: none can forge a certificate (2f+1 signatures)
        or make a tampered body verify, so the attacks are confined to
        withholding (``stonewall``), timing (``slow_drip``), rejectable
        garbage (``garbage_serve``) and genuinely old-but-signed answers
        (``stale_cert``).  The requester's scoreboard + rotation is what
        bounds the resulting catch-up latency inflation.
        """
        replica = self.replica
        manager = getattr(replica, "checkpoints", None)
        if manager is None:
            return
        metrics = self.sim.metrics
        behaviour = self.byzantine
        if behaviour == "stonewall":
            metrics.increment("faults.transfer_stonewalled")
            return
        request = envelope.payload
        if not isinstance(request, StateTransferRequest):
            return
        if behaviour == "slow_drip":
            response = manager.build_state_response(request, sender)
            if response is None:
                return
            # Reply *correctly* but only just inside the requester's
            # deadline: no rejectable evidence, maximal waiting.  The
            # margin absorbs typical network latency; a drip that still
            # lands late degenerates into a scored timeout.
            delay = envelope.deadline - self.sim.now - 0.25
            if delay <= 0.0:
                metrics.increment("faults.transfer_stonewalled")
                return
            metrics.increment("faults.transfer_slow_dripped")
            self.sim.schedule(
                delay,
                lambda: manager.respond_transfer(envelope, response),
                tag=f"{self.address}:slow-drip",
            )
            return
        if behaviour == "garbage_serve":
            response = manager.build_state_response(request, sender)
            if response is None:
                return
            # Well-formed but digest-mismatched: every operation body is
            # wrapped, so the chained state digest cannot reproduce.
            tampered = replace(
                response,
                operations=tuple(
                    replace(op, body=("garbage", op.body)) for op in response.operations
                ),
            )
            metrics.increment("faults.transfer_garbage_served")
            manager.respond_transfer(envelope, tampered)
            return
        if behaviour == "stale_cert":
            old = manager.previous_stable
            if old is None:
                # Nothing genuinely old to serve yet; withhold instead.
                metrics.increment("faults.transfer_stonewalled")
                return
            operations = (
                tuple(replica.decided_log[request.have_count : old.seq])
                if old.seq > request.have_count
                else ()
            )
            stale = StateTransferResponse(
                epoch=replica.epoch,
                certificate=old,
                base_count=request.have_count,
                operations=operations,
            )
            metrics.increment("faults.transfer_stale_served")
            manager.respond_transfer(envelope, stale)

    def _on_smr_decide(self, operation: Operation) -> None:
        if operation.kind == "broadcast" and isinstance(operation.body, BroadcastMessage):
            self._deliver_and_forward(operation.body, source_group=self.group_id() or "")
        # Other operation kinds (joins, leaves, evictions) are handled by the
        # membership engine at vgroup granularity; the node only needs to act
        # on application-level broadcasts here.

    def _on_group_message(self, kind: str, payload: Any, source_group: str, gm_id: str) -> None:
        if kind == "gossip" and isinstance(payload, BroadcastMessage):
            self._deliver_and_forward(payload, source_group=source_group)
            return
        handler = self._group_handlers.get(kind)
        if handler is not None:
            handler(payload, source_group, gm_id)

    def _on_peer_suspected(self, peer: str) -> None:
        """A vgroup peer missed too many heartbeats: ask the directory to evict it."""
        evict = getattr(self.directory, "request_eviction", None)
        if evict is not None:
            evict(peer, suspected_by=self.address)

    # ------------------------------------------------------------------- gossip

    def set_middleware_hooks(self, deliver_hooks, scenario: str = "") -> None:
        """Install the compiled ``on_deliver`` pipeline (cluster-distributed).

        Covers both delivery channels of this node: broadcast deliveries
        dispatch from :meth:`_deliver_and_forward` and accepted group
        messages from the messenger (see
        :meth:`repro.group.messages.GroupMessenger.set_middleware_hooks`).
        """
        self._deliver_hooks = deliver_hooks
        self._mw_scenario = scenario
        self.messenger.set_middleware_hooks(deliver_hooks, scenario)

    def _deliver_and_forward(self, message: BroadcastMessage, source_group: str) -> None:
        if message.bcast_id in self.delivered:
            return
        now = self.sim.now
        self.delivered[message.bcast_id] = now
        self.delivered_order.append(message.bcast_id)
        self.sim.metrics.increment("atum.deliveries")
        self.sim.metrics.observe("atum.delivery_latency", now - message.created_at)
        hooks = self._deliver_hooks
        if hooks is not None:
            ctx = MiddlewareContext(
                "on_deliver",
                now=now,
                scenario=self._mw_scenario,
                channel="broadcast",
                receiver=self.address,
                address=self.address,
                payload=message,
                node=self,
            )
            for hook in hooks:
                hook(ctx)
                if ctx.stop:
                    break
        if self.deliver_fn is not None:
            self.deliver_fn(message)
        if self.params.smr_kind is SmrKind.SYNC:
            # Synchronous deployments forward at round boundaries.
            delay = self._time_to_next_round()
            self.sim.schedule(delay, lambda: self._forward(message, source_group))
        else:
            self._forward(message, source_group)

    def _time_to_next_round(self) -> float:
        round_duration = self.params.round_duration
        position = self.sim.now % round_duration
        return round_duration - position if position > 1e-12 else 0.0

    def _forward(self, message: BroadcastMessage, source_group: str) -> None:
        if not self.is_member or self.vgroup_view is None:
            return
        own_group = self.vgroup_view.group_id
        for target_group in self._gossip_targets(message, exclude=source_group):
            key = (message.bcast_id, target_group)
            if key in self._forwarded:
                continue
            self._forwarded.add(key)
            target_view = self.directory.view_of_group(target_group)
            if target_view is None:
                continue
            gm_id = f"gossip:{message.bcast_id}:{own_group}->{target_group}"
            if self.byzantine == "equivocate":
                # An equivocating broadcaster ships a conflicting variant of
                # the share to half of the destination vgroup.  The forged
                # payload depends only on the message (not on this node), so
                # colluding equivocators aggregate into one conflicting
                # digest bucket — the strongest version of the attack the
                # group-message majority rule must absorb.
                forged = replace(message, payload=("equivocated", message.payload))
                self.messenger.send_equivocating(
                    target_view,
                    "gossip",
                    message,
                    forged,
                    gm_id=gm_id,
                    payload_bytes=message.size_bytes + 64,
                )
            else:
                self.messenger.send(
                    target_view,
                    "gossip",
                    message,
                    gm_id=gm_id,
                    payload_bytes=message.size_bytes + 64,
                )
        self.sim.metrics.increment("atum.gossip_forwards")

    def _gossip_targets(self, message: BroadcastMessage, exclude: str) -> List[str]:
        """Neighbouring vgroups this broadcast should be forwarded to.

        The choice must be identical at every correct member of the vgroup
        (otherwise the group message never reaches a majority), so built-in
        policies derive any randomness deterministically from the broadcast id.
        """
        if self.vgroup_view is None:
            return []
        own_group = self.vgroup_view.group_id
        cycle_neighbors = self.directory.cycle_neighbor_ids(own_group)
        if not cycle_neighbors:
            return []

        if self.forward_fn is not None:
            candidates = _unique(
                gid for pair in cycle_neighbors for gid in pair if gid != own_group
            )
            return [gid for gid in candidates if gid != exclude and self.forward_fn(message, gid)]

        policy = self.forward_policy
        if policy == "flood":
            fanout = self.params.gossip_fanout
            if fanout is not None and fanout < len(cycle_neighbors):
                # Adaptive throttle (AdaptiveGossip via the ParameterBus):
                # forward on a deterministic ``fanout``-cycle subset derived
                # from the broadcast id, exactly like the single/double
                # policies, so every correct co-member still picks the same
                # cycles.  ``None`` floods all cycles — byte-identical to
                # builds without the knob.
                start = _stable_hash(message.bcast_id) % len(cycle_neighbors)
                selected_cycles = [
                    (start + offset) % len(cycle_neighbors) for offset in range(fanout)
                ]
            else:
                selected_cycles = range(len(cycle_neighbors))
        elif policy in ("single", "double"):
            count = 1 if policy == "single" else 2
            start = _stable_hash(message.bcast_id) % len(cycle_neighbors)
            selected_cycles = [(start + offset) % len(cycle_neighbors) for offset in range(count)]
        elif policy == "random":
            # Deterministic "random" subset derived from the broadcast id: one
            # guaranteed cycle plus one extra cycle.
            start = _stable_hash(message.bcast_id) % len(cycle_neighbors)
            selected_cycles = [0, start]
        else:
            raise ValueError(f"unknown forward policy {policy!r}")

        targets: List[str] = []
        for cycle in selected_cycles:
            for gid in cycle_neighbors[cycle]:
                if gid != own_group and gid != exclude and gid not in targets:
                    targets.append(gid)
        return targets


@lru_cache(maxsize=4096)
def _stable_hash(value: str) -> int:
    """A process-independent stable hash (Python's ``hash`` is salted).

    Kept distinct from :func:`repro.overlay.gossip.stable_message_hash` (an
    8-byte digest): this 4-byte variant predates it and changing the width
    would silently reshuffle the single/double/random forwarding cycles, so
    it only gains a cache here.  Broadcast ids repeat for every hop of a
    dissemination, then die; the LRU bound keeps long runs flat.
    """
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:4], "big")


def _unique(values) -> List[str]:
    seen: Set[str] = set()
    result: List[str] = []
    for value in values:
        if value not in seen:
            seen.add(value)
            result.append(value)
    return result


class OverlayDirectory:
    """Interface expected from the directory object handed to nodes.

    The cluster implements it; this class only documents the contract (it is
    not meant to be instantiated).
    """

    def view_of_group(self, group_id: str) -> Optional[VGroupView]:  # pragma: no cover
        raise NotImplementedError

    def cycle_neighbor_ids(self, group_id: str) -> List[Tuple[str, str]]:  # pragma: no cover
        raise NotImplementedError

    def request_eviction(self, peer: str, suspected_by: str) -> None:  # pragma: no cover
        raise NotImplementedError


__all__ = [
    "AtumNode",
    "BroadcastMessage",
    "SmrEnvelope",
    "DirectMessage",
    "OverlayDirectory",
]
