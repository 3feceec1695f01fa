"""Synchronous SMR built on the Dolev-Strong authenticated broadcast.

This is the engine of the paper's *Sync* implementation.  Time is divided into
rounds of fixed duration (1 s or 1.5 s in the paper's experiments).  A sender
broadcasts a value by signing it and sending it to every group member; in each
subsequent round, members relay newly accepted values with their own signature
appended.  After ``f + 1`` rounds every correct member has accepted the same
set of values: if exactly one value was accepted, it is decided, otherwise the
sender was faulty and a default (``None``) decision is produced.

The SMR layer sequences Dolev-Strong instances: every proposed
:class:`~repro.smr.base.Operation` runs its own broadcast instance, and
finished instances are applied in a deterministic order at round boundaries,
so every correct replica observes the same decided log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import KeyRegistry, Signature
from repro.crypto.digest import digest_object
from repro.sim.simulator import Simulator
from repro.smr.base import Operation, SmrConfig, SmrReplica, sync_fault_threshold


@dataclass
class DolevStrongMessage:
    """A relay message of one Dolev-Strong instance."""

    instance_id: str
    sender_of_instance: str
    start_round: int
    value: Any
    signatures: Tuple[Signature, ...]

    @property
    def chain_length(self) -> int:
        return len(self.signatures)


@dataclass
class DolevStrongInstance:
    """Per-replica state of a single Dolev-Strong broadcast instance."""

    instance_id: str
    sender: str
    start_round: int
    fault_threshold: int
    accepted: Dict[str, Any] = field(default_factory=dict)   # digest -> value
    relayed: set = field(default_factory=set)                 # digests relayed
    decided: bool = False
    decision: Any = None

    @property
    def final_round(self) -> int:
        """Round at whose boundary the instance decides (start + f + 1)."""
        return self.start_round + self.fault_threshold + 1

    def decide(self) -> Any:
        """Produce the decision once the final round has been reached."""
        self.decided = True
        if len(self.accepted) == 1:
            self.decision = next(iter(self.accepted.values()))
        else:
            # Zero accepted values: the sender never sent anything we could
            # validate.  More than one: the sender equivocated.  Either way the
            # sender is faulty and all correct replicas agree on the default.
            self.decision = None
        return self.decision


class SyncSmrReplica(SmrReplica):
    """Round-based synchronous BFT SMR replica (Dolev-Strong based)."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        members: Sequence[str],
        registry: KeyRegistry,
        send_fn: Callable[[str, Any, int], None],
        decide_fn: Callable[[Operation], None],
        config: Optional[SmrConfig] = None,
    ) -> None:
        super().__init__(sim, node_id, members, registry, send_fn, decide_fn, config)
        self._instances: Dict[str, DolevStrongInstance] = {}
        self._operations: Dict[str, Operation] = {}
        self._pending_proposals: List[Operation] = []
        self._decided_instances: set = set()
        self._proposal_counter = 0
        self._round_timer_armed = False

    # ------------------------------------------------------------------ rounds

    @property
    def current_round(self) -> int:
        """The index of the current synchronous round (global round clock)."""
        return int(self.sim.now / self.config.round_duration)

    def _next_round_boundary(self) -> float:
        round_duration = self.config.round_duration
        return (self.current_round + 1) * round_duration

    def _has_pending_work(self) -> bool:
        if self._pending_proposals:
            return True
        return any(not instance.decided for instance in self._instances.values())

    def _ensure_round_timer(self) -> None:
        """Arm the round-boundary timer if there is work and it is not armed.

        The timer is only kept alive while instances are in flight so that an
        idle replica does not keep the simulation event queue busy forever.
        """
        if not self.running or self._round_timer_armed:
            return
        if not self._has_pending_work():
            return
        self._round_timer_armed = True
        delay = max(1e-9, self._next_round_boundary() - self.sim.now)
        self.sim.schedule(delay, self._on_round_boundary, tag=f"{self.node_id}:round")

    def _on_round_boundary(self) -> None:
        self._round_timer_armed = False
        if not self.running:
            return
        self._start_pending_proposals()
        self._finalize_due_instances()
        self._ensure_round_timer()

    # --------------------------------------------------------------------- API

    @property
    def fault_threshold(self) -> int:
        return sync_fault_threshold(len(self.members))

    def propose(self, operation: Operation) -> None:
        """Queue an operation; its broadcast instance starts at the next round."""
        if not self.running:
            return
        self._pending_proposals.append(operation)
        self._ensure_round_timer()

    def on_message(self, payload: Any, sender: str) -> None:
        if not self.running or not isinstance(payload, DolevStrongMessage):
            return
        self._handle_relay(payload, sender)
        self._ensure_round_timer()

    def reconfigure(
        self,
        new_members: Sequence[str],
        epoch: Optional[int] = None,
        carry_certificates: bool = True,
    ) -> None:
        super().reconfigure(new_members, epoch=epoch, carry_certificates=carry_certificates)
        # In-flight instances continue with the old signer set; new instances
        # use the new membership.  This mirrors epoch-based reconfiguration.
        # The synchronous engine has no epoch-scoped certificates, so both
        # keyword arguments are accepted for interface parity and ignored.

    # ----------------------------------------------------------------- proposing

    def _start_pending_proposals(self) -> None:
        proposals, self._pending_proposals = self._pending_proposals, []
        for operation in proposals:
            self._start_instance(operation)

    def _start_instance(self, operation: Operation) -> None:
        self._proposal_counter += 1
        instance_id = f"{self.node_id}/{operation.op_id}/{self._proposal_counter}"
        start_round = self.current_round
        instance = DolevStrongInstance(
            instance_id=instance_id,
            sender=self.node_id,
            start_round=start_round,
            fault_threshold=self.fault_threshold,
        )
        self._instances[instance_id] = instance
        self._operations[instance_id] = operation
        value = {"operation_digest": digest_object(operation), "op": operation}
        digest = digest_object(value)
        instance.accepted[digest] = value
        instance.relayed.add(digest)
        signature = self.registry.sign(self.node_id, (instance_id, digest))
        message = DolevStrongMessage(
            instance_id=instance_id,
            sender_of_instance=self.node_id,
            start_round=start_round,
            value=value,
            signatures=(signature,),
        )
        self._broadcast(message)
        self.sim.metrics.increment("smr.sync.instances_started")

    # ------------------------------------------------------------------ relaying

    def _valid_signature_chain(self, message: DolevStrongMessage) -> Optional[str]:
        """Check the signature chain: starts at the sender, distinct signers.

        Returns the digest of ``message.value`` when the chain is valid, and
        ``None`` otherwise.
        """
        if not message.signatures:
            return None
        if message.signatures[0].signer != message.sender_of_instance:
            return None
        signers = [signature.signer for signature in message.signatures]
        if len(set(signers)) != len(signers):
            return None
        digest = digest_object(message.value)
        if not self.registry.verify_all(message.signatures, (message.instance_id, digest)):
            return None
        return digest

    def _handle_relay(self, message: DolevStrongMessage, sender: str) -> None:
        digest = self._valid_signature_chain(message)
        if digest is None:
            self.sim.metrics.increment("smr.sync.invalid_chain")
            return
        instance = self._instances.get(message.instance_id)
        if instance is None:
            instance = DolevStrongInstance(
                instance_id=message.instance_id,
                sender=message.sender_of_instance,
                start_round=message.start_round,
                fault_threshold=self.fault_threshold,
            )
            self._instances[message.instance_id] = instance
        if instance.decided:
            return
        if digest not in instance.accepted:
            instance.accepted[digest] = message.value
        if digest in instance.relayed:
            return
        instance.relayed.add(digest)
        # Relay with our signature appended, unless the chain is already long
        # enough that everyone will have accepted by the final round.
        if message.chain_length <= instance.fault_threshold:
            statement = (message.instance_id, digest)
            own_signature = self.registry.sign(self.node_id, statement)
            relay = DolevStrongMessage(
                instance_id=message.instance_id,
                sender_of_instance=message.sender_of_instance,
                start_round=message.start_round,
                value=message.value,
                signatures=message.signatures + (own_signature,),
            )
            self._broadcast(relay)
            self.sim.metrics.increment("smr.sync.relays")

    # ---------------------------------------------------------------- decisions

    def _finalize_due_instances(self) -> None:
        current = self.current_round
        due: List[DolevStrongInstance] = [
            instance
            for instance in self._instances.values()
            if not instance.decided and current >= instance.final_round
        ]
        # Deterministic application order: by (start round, instance id).
        due.sort(key=lambda instance: (instance.start_round, instance.instance_id))
        for instance in due:
            decision = instance.decide()
            self._decided_instances.add(instance.instance_id)
            if decision is None:
                self.sim.metrics.increment("smr.sync.null_decisions")
                continue
            operation = decision.get("op")
            if isinstance(operation, Operation):
                self._commit(operation)

    # ------------------------------------------------------------------ queries

    def instance_count(self) -> int:
        return len(self._instances)


__all__ = ["DolevStrongMessage", "DolevStrongInstance", "SyncSmrReplica"]
