"""The simulated network connecting actors.

The network models the aspects of the paper's deployment that matter for
protocol behaviour:

* per-message propagation latency (:mod:`repro.net.latency`);
* transfer time proportional to message size and constrained by per-node
  download bandwidth (this is what makes the incast / "throughput collapse"
  effect of the paper's section 5.1 observable);
* optional message loss and network partitions;
* delivery only to registered, alive actors (a crashed or departed node
  silently drops traffic, like a closed socket).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Any, Dict, Iterable, Optional, Set

from repro.sim.events import Event

from repro.core.middleware import MiddlewareContext, MiddlewareError
from repro.net.latency import LatencyModel, LanProfile
from repro.net.message import CorruptedPayload, Message
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator


@dataclass
class NetworkConfig:
    """Tunable parameters of the simulated network.

    Attributes:
        bandwidth_bytes_per_s: Per-node download bandwidth.  EC2 micro
            instances (the paper's node type) provide on the order of
            8 MB/s of sustained throughput.
        loss_probability: Probability that an individual message is dropped.
        headers_bytes: Fixed per-message overhead added to every payload.
        randomized_send_order: When a burst of messages is submitted with
            :meth:`Network.send_burst`, shuffle the order to avoid incast
            (paper section 5.1, "Randomized message sending").
    """

    bandwidth_bytes_per_s: float = 8_000_000.0
    loss_probability: float = 0.0
    headers_bytes: int = 64
    randomized_send_order: bool = True
    #: Batch same-time fan-out deliveries into one simulation event.  All
    #: protocol-visible behaviour (delivery times, delivery order, callback
    #: interleaving, figures) is provably identical to per-message events —
    #: consecutive sequence numbers at one timestamp admit no interleaving —
    #: but the ``(time, tag)`` event trace gets shorter, so runs with this
    #: flag are not trace-comparable to runs without it.  Off by default to
    #: keep golden traces stable.
    coalesced_fanout_delivery: bool = False


class _Delivery(Event):
    """A queued in-flight delivery: ONE slotted object per message.

    Every send entry point of :class:`Network` schedules these: the object
    carries the wire fields, *is* the scheduled event, and *is* its own
    callback (``callback = self``), so no ``Message`` or ``partial`` is
    allocated per message.
    """

    __slots__ = ("network", "sender", "receiver", "payload", "sent_at")

    # Shadow the parent's ``priority``/``tag``/``seq`` slots with class-level
    # constants: every delivery shares the first two, and ``seq`` is only
    # carried in the heap tuple, so per-instance stores would be pure
    # overhead.  (They are read-only for deliveries; ``cancelled`` stays a
    # real slot because ``cancel()`` writes it.)
    priority = 0
    tag = "net.deliver"
    seq = -1

    def __init__(
        self,
        time: float,
        network: "Network",
        sender: str,
        receiver: str,
        payload: Any,
        sent_at: float,
    ) -> None:
        self.time = time
        self.callback = self
        self.cancelled = False
        self.network = network
        self.sender = sender
        self.receiver = receiver
        self.payload = payload
        self.sent_at = sent_at

    def __call__(self) -> None:
        network = self.network
        receiver = self.receiver
        actor = network._actors.get(receiver)
        counters = network._counters
        if actor is None or not actor.alive:
            counters["net.messages_undeliverable"] += 1.0
            return
        if receiver in network._partitioned:
            counters["net.messages_partitioned"] += 1.0
            return
        if network._splits and network.crosses_split(self.sender, receiver):
            # A split that formed while the message was in flight.
            counters["net.messages_partitioned"] += 1.0
            return
        counters["net.messages_delivered"] += 1.0
        # ``self.time`` equals the simulator clock at delivery, saving the
        # ``network.sim._now`` chain on every message.
        network._delivery_latency.record(self.time - self.sent_at)
        actor.on_message(self.payload, self.sender)


class _FanoutDelivery(Event):
    """One simulation event delivering a same-time slice of a fan-out burst.

    Used only when :attr:`NetworkConfig.coalesced_fanout_delivery` is on.
    Receivers are stored in batch order and delivered in that order, which is
    exactly the order consecutive per-message events would have fired in (one
    timestamp, consecutive sequence numbers — nothing can interleave).
    """

    __slots__ = ("network", "sender", "payload", "sent_at", "receivers")

    priority = 0
    tag = "net.deliver"
    seq = -1

    def __init__(
        self,
        time: float,
        network: "Network",
        sender: str,
        payload: Any,
        sent_at: float,
        receivers: list,
    ) -> None:
        self.time = time
        self.callback = self
        self.cancelled = False
        self.network = network
        self.sender = sender
        self.payload = payload
        self.sent_at = sent_at
        self.receivers = receivers

    def __call__(self) -> None:
        network = self.network
        actors_get = network._actors.get
        counters = network._counters
        partitioned = network._partitioned
        splits = network._splits
        record = network._delivery_latency.record
        latency = self.time - self.sent_at
        payload = self.payload
        sender = self.sender
        delivered = 0
        for receiver in self.receivers:
            actor = actors_get(receiver)
            if actor is None or not actor.alive:
                counters["net.messages_undeliverable"] += 1.0
                continue
            if (partitioned and receiver in partitioned) or (
                splits and network.crosses_split(sender, receiver)
            ):
                counters["net.messages_partitioned"] += 1.0
                continue
            delivered += 1
            record(latency)
            actor.on_message(payload, sender)
        if delivered:
            counters["net.messages_delivered"] += float(delivered)


class Network:
    """Delivers messages between registered actors over a latency model."""

    def __init__(
        self,
        sim: Simulator,
        latency_model: Optional[LatencyModel] = None,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.sim = sim
        self.latency_model = latency_model or LanProfile()
        self.config = config or NetworkConfig()
        self._actors: Dict[str, Actor] = {}
        self._partitioned: Set[str] = set()
        # Active side-preserving splits: split id -> {address: side index}.
        # A message is dropped iff some active split maps both endpoints to
        # *different* sides; addresses a split does not name are unaffected.
        # Empty dict = one truthiness check on the fast paths, nothing more.
        self._splits: Dict[int, Dict[str, int]] = {}
        self._split_seq = 0
        self._rng = sim.rng.stream("network")
        # Compiled on_send pipeline of the installed middleware chain (see
        # repro.core.middleware): when non-None, every send path detours
        # through _schedule_intercepted.  ``None`` keeps the inlined fast
        # paths bit-identical to a build without the middleware subsystem —
        # one attribute check, no extra RNG draws, no context objects.
        self._send_hooks = None
        self._middleware = None
        self._send_scenario = ""
        # Tracks when each receiving node's downlink frees up, used to model
        # queueing of large transfers at the receiver.
        self._downlink_free_at: Dict[str, float] = {}
        # Hot-path handles: the burst pipeline updates counters and the
        # delivery-latency histogram directly instead of going through the
        # registry methods on every message.
        self._counters = sim.metrics.counters
        self._delivery_latency = sim.metrics.histogram("net.delivery_latency")

    # --------------------------------------------------------------- membership

    def register(self, actor: Actor) -> None:
        """Attach an actor to the network so it can receive messages."""
        self._actors[actor.address] = actor

    def unregister(self, address: str) -> None:
        """Detach an actor; future messages to it are dropped."""
        self._actors.pop(address, None)
        self._downlink_free_at.pop(address, None)

    def actor(self, address: str) -> Optional[Actor]:
        return self._actors.get(address)

    def addresses(self) -> Iterable[str]:
        return self._actors.keys()

    def __contains__(self, address: str) -> bool:
        return address in self._actors

    # --------------------------------------------------------------- middleware

    def install_middleware(self, chain) -> None:
        """Compile ``chain``'s ``on_send`` pipeline onto the send paths.

        Installed once (normally by :meth:`AtumCluster.install_middleware
        <repro.core.cluster.AtumCluster.install_middleware>`; bare-network
        harnesses may call it directly).  Installing a second chain over an
        existing one raises :class:`~repro.core.middleware.MiddlewareError`
        — compose middleware into one chain instead.  Late additions to the
        installed chain recompile the pipeline automatically.
        """
        if self._middleware is not None:
            raise MiddlewareError(
                "a middleware chain is already installed on this network; "
                "add to it instead of installing a second one"
            )
        self._middleware = chain
        chain.subscribe(self._compile_send_hooks)
        self._compile_send_hooks()

    def clear_middleware(self) -> None:
        """Restore the unperturbed fast paths (the chain may be re-installed)."""
        self._middleware = None
        self._send_hooks = None
        self._send_scenario = ""

    def _compile_send_hooks(self) -> None:
        chain = self._middleware
        if chain is None:
            self._send_hooks = None
            self._send_scenario = ""
        else:
            self._send_hooks = chain.hooks("on_send")
            self._send_scenario = chain.scenario

    # --------------------------------------------------------------- partitions

    def partition(self, addresses: Iterable[str]) -> None:
        """Isolate the given addresses: they can neither send nor receive."""
        self._partitioned.update(addresses)

    def heal(self, addresses: Optional[Iterable[str]] = None) -> None:
        """Heal a partition for the given addresses (or all, if omitted)."""
        if addresses is None:
            self._partitioned.clear()
        else:
            self._partitioned.difference_update(addresses)

    def is_partitioned(self, address: str) -> bool:
        return address in self._partitioned

    # ------------------------------------------------- side-preserving splits

    def split(self, sides: Iterable[Iterable[str]]) -> int:
        """Install a side-preserving split; returns its id (for :meth:`merge`).

        Each side stays internally connected; only messages whose endpoints
        fall on *different* sides are dropped.  Addresses not named by any
        side are unaffected.  Multiple splits compose: a message is dropped
        if any active split separates its endpoints.
        """
        mapping: Dict[str, int] = {}
        for index, side in enumerate(sides):
            for address in side:
                mapping[address] = index
        self._split_seq += 1
        self._splits[self._split_seq] = mapping
        return self._split_seq

    def merge(self, split_id: Optional[int] = None) -> None:
        """Heal a side-preserving split by id (or all splits, if omitted)."""
        if split_id is None:
            self._splits.clear()
        else:
            self._splits.pop(split_id, None)

    def bind_to_split(self, split_id: int, address: str, side_index: int) -> None:
        """Bind ``address`` to one side of an active split.

        Used when a node *joins* during a split: unbound addresses would
        straddle the split (reachable from every side), which no real
        partition permits — the joiner lives in some machine room, so it
        lands on exactly one side.  No-op for unknown split ids.
        """
        mapping = self._splits.get(split_id)
        if mapping is not None:
            mapping[address] = side_index

    def split_sides(self, split_id: int) -> Optional[Dict[str, int]]:
        """The address→side mapping of an active split (``None`` if healed)."""
        return self._splits.get(split_id)

    def crosses_split(self, sender: str, receiver: str) -> bool:
        """Whether any active split separates ``sender`` from ``receiver``."""
        for mapping in self._splits.values():
            side = mapping.get(sender)
            if side is None:
                continue
            other = mapping.get(receiver)
            if other is not None and other != side:
                return True
        return False

    # ------------------------------------------------------------------ sending

    def send(
        self,
        sender: str,
        receiver: str,
        payload: Any,
        size_bytes: int = 256,
    ) -> Optional[Message]:
        """Send one message.  Returns the in-flight message, or ``None`` if dropped.

        Rides :meth:`send_one`; the returned :class:`Message` is a handle for
        the caller, not the delivery event.
        """
        sent_at = self.sim.now
        if not self.send_one(sender, receiver, payload, size_bytes):
            return None
        return Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            size_bytes=size_bytes,
            sent_at=sent_at,
        )

    def send_burst(
        self,
        sender: str,
        messages: Iterable[tuple[str, Any, int]],
    ) -> int:
        """Send a burst of ``(receiver, payload, size_bytes)`` messages.

        If :attr:`NetworkConfig.randomized_send_order` is enabled the burst is
        shuffled before submission, which spreads load over receivers' downlinks
        and mirrors Atum's randomized message sending.
        Returns the number of messages actually dispatched (not dropped).
        """
        batch = list(messages)
        if self.config.randomized_send_order:
            self._rng.shuffle(batch)
        send_one = self.send_one
        dispatched = 0
        for receiver, payload, size_bytes in batch:
            dispatched += send_one(sender, receiver, payload, size_bytes)
        return dispatched

    def send_fanout(
        self,
        sender: str,
        receivers: Iterable[str],
        payload: Any,
        size_bytes: int,
    ) -> int:
        """Send the same ``payload``/``size_bytes`` to every receiver.

        The m-destination group-message fan-out is the hottest send shape, so
        it inlines the :meth:`send_one` pipeline over the burst: one shuffled
        receiver list, one transfer time computed for the burst, one slotted
        delivery object per receiver.  RNG draws (shuffle permutation, loss
        draws, latency samples), float arithmetic and event order are
        identical to the equivalent :meth:`send_burst` call.
        """
        config = self.config
        if config.randomized_send_order:
            batch = list(receivers)
            self._rng.shuffle(batch)
        elif isinstance(receivers, (list, tuple)):
            batch = receivers
        else:
            batch = list(receivers)
        if not batch:
            return 0
        counters = self._counters
        count = len(batch)
        counters["net.messages_sent"] += float(count)
        counters["net.bytes_sent"] += float(size_bytes * count)
        if self._send_hooks is not None:
            dispatched = 0
            for receiver in batch:
                dispatched += self._schedule_intercepted(sender, receiver, payload, size_bytes)
            return dispatched
        sim = self.sim
        now = sim._now
        partitioned = self._partitioned
        splits = self._splits
        loss = config.loss_probability
        constant_latency = self.latency_model.constant_latency
        downlink = self._downlink_free_at
        downlink_get = downlink.get
        queue = sim.queue
        heap = queue._heap
        seq = queue._seq
        transfer = (size_bytes + config.headers_bytes) / config.bandwidth_bytes_per_s
        dispatched = 0
        if not partitioned and not splits and loss == 0.0 and constant_latency is not None:
            propagated = now + constant_latency
            if config.coalesced_fanout_delivery:
                # Bucket consecutive same-delivery-time receivers into one
                # event each.  Bucketing by run keeps delivery order
                # identical to per-message events (see _FanoutDelivery).
                bucket_time = None
                bucket: Optional[list] = None
                for receiver in batch:
                    arrival_start = downlink_get(receiver, 0.0)
                    if arrival_start < propagated:
                        arrival_start = propagated
                    delivery_time = arrival_start + transfer
                    downlink[receiver] = delivery_time
                    if delivery_time == bucket_time:
                        bucket.append(receiver)
                        continue
                    scheduled = now + (delivery_time - now)
                    bucket = [receiver]
                    bucket_time = delivery_time
                    event = _FanoutDelivery(scheduled, self, sender, payload, now, bucket)
                    heappush(heap, (scheduled, 0, seq, event))
                    seq += 1
            else:
                # Tight loop for the dominant case: healthy network, constant
                # latency — one attribute-free pass per receiver.
                for receiver in batch:
                    arrival_start = downlink_get(receiver, 0.0)
                    if arrival_start < propagated:
                        arrival_start = propagated
                    delivery_time = arrival_start + transfer
                    downlink[receiver] = delivery_time
                    scheduled = now + (delivery_time - now)
                    event = _Delivery(scheduled, self, sender, receiver, payload, now)
                    heappush(heap, (scheduled, 0, seq, event))
                    seq += 1
            dispatched = count
        else:
            rng = self._rng
            sample = self.latency_model.sample
            sender_partitioned = bool(partitioned) and sender in partitioned
            check_partition = bool(partitioned)
            for receiver in batch:
                if (
                    check_partition and (sender_partitioned or receiver in partitioned)
                ) or (splits and self.crosses_split(sender, receiver)):
                    counters["net.messages_partitioned"] += 1.0
                    continue
                if loss > 0.0 and rng.random() < loss:
                    counters["net.messages_lost"] += 1.0
                    continue
                propagation = (
                    constant_latency
                    if constant_latency is not None
                    else sample(rng, sender, receiver)
                )
                arrival_start = now + propagation
                free_at = downlink_get(receiver, 0.0)
                if free_at > arrival_start:
                    arrival_start = free_at
                delivery_time = arrival_start + transfer
                downlink[receiver] = delivery_time
                scheduled = now + (delivery_time - now)
                event = _Delivery(scheduled, self, sender, receiver, payload, now)
                heappush(heap, (scheduled, 0, seq, event))
                seq += 1
                dispatched += 1
        # seq advanced once per pushed event (coalesced buckets push fewer
        # events than messages), so the live count follows the seq delta.
        queue._live += seq - queue._seq
        queue._seq = seq
        return dispatched

    def send_one(
        self,
        sender: str,
        receiver: str,
        payload: Any,
        size_bytes: int = 256,
    ) -> bool:
        """Send one message; returns whether it was dispatched (not dropped).

        The single-message send path (:meth:`send` and :meth:`send_burst` ride
        it): drop checks, one latency sample, one downlink update and one
        :class:`_Delivery` push.  Use it directly on hot paths that need no
        :class:`Message` handle (heartbeats).
        """
        counters = self._counters
        counters["net.messages_sent"] += 1.0
        counters["net.bytes_sent"] += float(size_bytes)
        if self._send_hooks is not None:
            return self._schedule_intercepted(sender, receiver, payload, size_bytes) > 0
        partitioned = self._partitioned
        if partitioned and (sender in partitioned or receiver in partitioned):
            counters["net.messages_partitioned"] += 1.0
            return False
        if self._splits and self.crosses_split(sender, receiver):
            counters["net.messages_partitioned"] += 1.0
            return False
        config = self.config
        loss = config.loss_probability
        rng = self._rng
        if loss > 0.0 and rng.random() < loss:
            counters["net.messages_lost"] += 1.0
            return False
        sim = self.sim
        now = sim._now
        latency_model = self.latency_model
        constant_latency = latency_model.constant_latency
        propagation = (
            constant_latency
            if constant_latency is not None
            else latency_model.sample(rng, sender, receiver)
        )
        arrival_start = now + propagation
        free_at = self._downlink_free_at.get(receiver, 0.0)
        if free_at > arrival_start:
            arrival_start = free_at
        delivery_time = arrival_start + (size_bytes + config.headers_bytes) / config.bandwidth_bytes_per_s
        self._downlink_free_at[receiver] = delivery_time
        scheduled = now + (delivery_time - now)
        queue = sim.queue
        seq = queue._seq
        event = _Delivery(scheduled, self, sender, receiver, payload, now)
        heappush(queue._heap, (scheduled, 0, seq, event))
        queue._seq = seq + 1
        queue._live += 1
        return True

    # ----------------------------------------------------------------- internals

    def _schedule_intercepted(
        self, sender: str, receiver: str, payload: Any, size_bytes: int
    ) -> int:
        """Route one message through the installed ``on_send`` pipeline.

        Mirrors the partition/loss accounting and float arithmetic of the
        fast paths exactly, then applies the context's verdict: drop the
        message, add propagation delay, deliver extra copies (each copy
        passes through the receiver's downlink serialization, so duplication
        storms consume real bandwidth), or corrupt the payload (delivered
        wrapped in :class:`CorruptedPayload` for the receiver to detect and
        discard).  A chain that leaves the verdict untouched yields the
        no-perturbation defaults (``extra_delay 0.0``, one copy), keeping
        observation-only middleware byte-identical to no middleware.
        Returns 1 when at least one copy was scheduled, 0 when the message
        was dropped.
        """
        counters = self._counters
        partitioned = self._partitioned
        if partitioned and (sender in partitioned or receiver in partitioned):
            counters["net.messages_partitioned"] += 1.0
            return 0
        if self._splits and self.crosses_split(sender, receiver):
            counters["net.messages_partitioned"] += 1.0
            return 0
        config = self.config
        rng = self._rng
        loss = config.loss_probability
        if loss > 0.0 and rng.random() < loss:
            counters["net.messages_lost"] += 1.0
            return 0
        sim = self.sim
        now = sim._now
        ctx = MiddlewareContext(
            "on_send",
            now=now,
            scenario=self._send_scenario,
            channel="net",
            sender=sender,
            receiver=receiver,
            payload=payload,
            size_bytes=size_bytes,
        )
        for hook in self._send_hooks:
            hook(ctx)
            if ctx.stop:
                break
        if ctx.drop:
            counters["net.messages_lost"] += 1.0
            return 0
        payload = ctx.payload
        extra_delay = ctx.extra_delay
        copies = ctx.copies
        if ctx.corrupted:
            payload = CorruptedPayload(payload)
        latency_model = self.latency_model
        constant_latency = latency_model.constant_latency
        propagation = (
            constant_latency
            if constant_latency is not None
            else latency_model.sample(rng, sender, receiver)
        ) + extra_delay
        transfer = (size_bytes + config.headers_bytes) / config.bandwidth_bytes_per_s
        downlink = self._downlink_free_at
        queue = sim.queue
        heap = queue._heap
        seq = queue._seq
        for _ in range(copies):
            arrival_start = now + propagation
            free_at = downlink.get(receiver, 0.0)
            if free_at > arrival_start:
                arrival_start = free_at
            delivery_time = arrival_start + transfer
            downlink[receiver] = delivery_time
            scheduled = now + (delivery_time - now)
            event = _Delivery(scheduled, self, sender, receiver, payload, now)
            heappush(heap, (scheduled, 0, seq, event))
            seq += 1
        queue._live += seq - queue._seq
        queue._seq = seq
        return 1


__all__ = ["Network", "NetworkConfig"]
