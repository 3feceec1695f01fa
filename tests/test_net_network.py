"""Unit tests for the network substrate."""

import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.middleware import Middleware, MiddlewareChain
from repro.net import (
    FixedLatency,
    LanProfile,
    LogNormalLatency,
    Network,
    NetworkConfig,
    UniformLatency,
    WanProfile,
)
from repro.net.latency import LatencyModel, RegionalLatency, DEFAULT_REGIONS
from repro.net.network import _Delivery
from repro.sim import Simulator
from repro.sim.actor import Actor


class Recorder(Actor):
    """Test actor that records every delivered message with its time."""

    def __init__(self, sim, address):
        super().__init__(sim, address)
        self.received = []

    def on_message(self, payload, sender):
        self.received.append((self.sim.now, payload, sender))


def make_net(seed=0, latency=None, config=None):
    sim = Simulator(seed=seed)
    network = Network(sim, latency_model=latency or FixedLatency(0.01), config=config)
    return sim, network


class TestDelivery:
    def test_basic_delivery_with_fixed_latency(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.send("a", "b", {"hello": 1}, size_bytes=100)
        sim.run()
        assert len(b.received) == 1
        time, payload, sender = b.received[0]
        assert payload == {"hello": 1}
        assert sender == "a"
        # latency 0.01 plus transfer of (100+64)/8e6 seconds
        assert time == pytest.approx(0.01 + 164 / 8_000_000)

    def test_unregistered_receiver_drops_message(self):
        sim, network = make_net()
        a = Recorder(sim, "a")
        network.register(a)
        network.send("a", "ghost", "payload")
        sim.run()
        assert sim.metrics.counter("net.messages_undeliverable") == 1

    def test_dead_actor_does_not_receive(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        b.shutdown()
        network.send("a", "b", "payload")
        sim.run()
        assert b.received == []

    def test_large_transfer_takes_bandwidth_time(self):
        sim, network = make_net(config=NetworkConfig(bandwidth_bytes_per_s=1_000_000))
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.send("a", "b", "blob", size_bytes=1_000_000)
        sim.run()
        delivery_time = b.received[0][0]
        assert delivery_time >= 1.0  # at least one second of transfer time

    def test_downlink_serialization_of_concurrent_transfers(self):
        # Two 1 MB messages to the same receiver must be serialized on its
        # downlink: the second arrives roughly one transfer time later.
        sim, network = make_net(config=NetworkConfig(bandwidth_bytes_per_s=1_000_000))
        a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
        for actor in (a, b, c):
            network.register(actor)
        network.send("a", "c", "blob1", size_bytes=1_000_000)
        network.send("b", "c", "blob2", size_bytes=1_000_000)
        sim.run()
        times = sorted(t for t, _, _ in c.received)
        assert len(times) == 2
        assert times[1] - times[0] >= 0.9

    def test_loss_probability_drops_messages(self):
        sim, network = make_net(config=NetworkConfig(loss_probability=1.0))
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        assert network.send("a", "b", "x") is None
        sim.run()
        assert b.received == []
        assert sim.metrics.counter("net.messages_lost") == 1

    def test_partition_blocks_and_heal_restores(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.partition(["b"])
        network.send("a", "b", "lost")
        sim.run()
        assert b.received == []
        network.heal(["b"])
        network.send("a", "b", "found")
        sim.run()
        assert len(b.received) == 1

    def test_send_burst_counts_dispatched(self):
        sim, network = make_net()
        a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
        for actor in (a, b, c):
            network.register(actor)
        count = network.send_burst("a", [("b", "x", 10), ("c", "y", 10)])
        assert count == 2
        sim.run()
        assert len(b.received) == 1
        assert len(c.received) == 1

    def test_metrics_track_messages(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.send("a", "b", "x", size_bytes=100)
        sim.run()
        assert sim.metrics.counter("net.messages_sent") == 1
        assert sim.metrics.counter("net.messages_delivered") == 1
        assert sim.metrics.counter("net.bytes_sent") == 100


class TestSidePreservingSplits:
    def _quad(self, seed=2, config=None):
        sim, network = make_net(seed=seed, config=config)
        actors = {name: Recorder(sim, name) for name in ("a", "b", "c", "d")}
        for actor in actors.values():
            network.register(actor)
        return sim, network, actors

    def test_split_blocks_cross_side_only(self):
        sim, network, actors = self._quad()
        network.split([("a", "b"), ("c", "d")])
        network.send("a", "b", "same-side", 64)     # within side 0
        network.send("c", "d", "same-side-2", 64)   # within side 1
        network.send("a", "c", "cross", 64)         # across -> dropped
        network.send("d", "b", "cross-2", 64)       # across -> dropped
        sim.run_until_idle()
        assert [p for _, p, _ in actors["b"].received] == ["same-side"]
        assert [p for _, p, _ in actors["d"].received] == ["same-side-2"]
        assert actors["c"].received == []
        assert sim.metrics.counter("net.messages_partitioned") == 2

    def test_unnamed_addresses_unaffected(self):
        sim, network, actors = self._quad()
        network.split([("a",), ("c",)])
        network.send("a", "b", "to-unnamed", 64)
        network.send("b", "c", "from-unnamed", 64)
        sim.run_until_idle()
        assert len(actors["b"].received) == 1
        assert len(actors["c"].received) == 1

    def test_merge_restores_connectivity(self):
        sim, network, actors = self._quad()
        split_id = network.split([("a", "b"), ("c", "d")])
        network.send("a", "c", "lost", 64)
        network.merge(split_id)
        network.send("a", "c", "after-heal", 64)
        sim.run_until_idle()
        assert [p for _, p, _ in actors["c"].received] == ["after-heal"]

    def test_split_respected_on_all_send_paths(self):
        sim, network, actors = self._quad()
        network.split([("a", "b"), ("c", "d")])
        network.send("a", "c", "x", 64)
        network.send_one("a", "c", "x", 64)
        network.send_burst("a", [("c", "x", 64), ("d", "x", 64)])
        network.send_fanout("a", ["c", "d"], "x", 64)
        sim.run_until_idle()
        assert actors["c"].received == [] and actors["d"].received == []
        assert sim.metrics.counter("net.messages_partitioned") == 6

    def test_inflight_message_dropped_when_split_forms(self):
        sim, network, actors = self._quad()
        network.send("a", "c", "in-flight", 64)  # scheduled before the split
        network.split([("a", "b"), ("c", "d")])
        sim.run_until_idle()
        assert actors["c"].received == []

    def test_overlapping_splits_compose(self):
        sim, network, actors = self._quad()
        first = network.split([("a",), ("c",)])
        network.split([("a",), ("d",)])
        network.merge(first)
        network.send("a", "c", "now-ok", 64)   # first split merged
        network.send("a", "d", "blocked", 64)  # second still active
        sim.run_until_idle()
        assert len(actors["c"].received) == 1
        assert actors["d"].received == []

    def test_crosses_split_is_symmetric_free_of_state(self):
        sim, network, _ = self._quad()
        network.split([("a", "b"), ("c", "d")])
        assert network.crosses_split("a", "c")
        assert network.crosses_split("c", "a")
        assert not network.crosses_split("a", "b")
        assert not network.crosses_split("a", "unknown")


class TestSendPathEquivalence:
    """Every entry point rides the same pipeline, slow paths included.

    Sampled latency, message loss and an active split each draw or drop per
    message; the four entry points must draw, drop and deliver identically
    for the same message set.
    """

    RECEIVERS = [f"r{i}" for i in range(16)] + ["ghost"]
    ROUNDS = ((0.0, "first"), (0.001, "second"), (0.001, "third"))
    SIZE = 20_000  # 2.5 ms on the wire: later rounds queue on downlinks

    def _run(self, entry_point):
        sim = Simulator(seed=5)
        network = Network(
            sim,
            latency_model=LogNormalLatency(median=0.002, sigma=0.5),
            config=NetworkConfig(loss_probability=0.25, randomized_send_order=False),
        )
        actors = {name: Recorder(sim, name) for name in ["s"] + self.RECEIVERS[:-1]}
        for actor in actors.values():
            network.register(actor)
        network.split([["s", "r0", "r1", "r2", "r3"], ["r4", "r5", "r6", "r7"]])
        receivers = self.RECEIVERS
        dispatched = []

        def send_round(payload):
            if entry_point == "send":
                sent = [network.send("s", r, payload, self.SIZE) for r in receivers]
                count = sum(message is not None for message in sent)
            elif entry_point == "send_one":
                count = sum(network.send_one("s", r, payload, self.SIZE) for r in receivers)
            elif entry_point == "send_burst":
                count = network.send_burst("s", [(r, payload, self.SIZE) for r in receivers])
            else:
                count = network.send_fanout("s", receivers, payload, self.SIZE)
            dispatched.append(count)

        for when, payload in self.ROUNDS:
            sim.schedule(when, lambda payload=payload: send_round(payload), tag="test.send")
        trace = []
        sim.run(trace=trace)
        counters = {
            name: value for name, value in sim.metrics.counters.items() if name.startswith("net.")
        }
        return {
            "trace": trace,
            "received": {
                name: [(t, sender, payload) for t, payload, sender in actor.received]
                for name, actor in sorted(actors.items())
            },
            "counters": counters,
            "latencies": list(sim.metrics.histogram("net.delivery_latency").samples),
            "dispatched": dispatched,
            "rng_state": network._rng.getstate(),
        }

    def test_all_entry_points_agree(self):
        reference = self._run("send")
        # The scenario reaches every slow-path branch.
        counters = reference["counters"]
        assert counters["net.messages_lost"] > 0
        assert counters["net.messages_partitioned"] > 0
        assert counters["net.messages_undeliverable"] > 0
        assert counters["net.messages_delivered"] > 0
        for entry_point in ("send_one", "send_burst", "send_fanout"):
            outcome = self._run(entry_point)
            assert outcome["trace"] == reference["trace"], entry_point
            assert outcome["received"] == reference["received"], entry_point
            assert outcome["counters"] == reference["counters"], entry_point
            assert outcome["latencies"] == reference["latencies"], entry_point
            assert outcome["dispatched"] == reference["dispatched"], entry_point
            assert outcome["rng_state"] == reference["rng_state"], entry_point


class Bouncer(Recorder):
    """Records deliveries and re-sends ``(tag, bounces)`` payloads to itself.

    A payload with ``bounces > 0`` is sent on to this same receiver from
    inside ``on_message``, through the entry point picked by its tag, so a
    same-receiver send happens while the receiver's link is mid-delivery.
    """

    def __init__(self, sim, address, network, dispatched):
        super().__init__(sim, address)
        self.network = network
        self.dispatched = dispatched

    def on_message(self, payload, sender):
        super().on_message(payload, sender)
        tag, bounces = payload
        if bounces > 0:
            _send(self.network, ENTRY_POINTS[tag % 4], sender, [self.address],
                  (tag, bounces - 1), 200, self.dispatched)


class Perturb(Middleware):
    """Adds propagation delay and duplicate copies, keyed on the payload tag."""

    def on_send(self, ctx):
        tag = ctx.payload[0]
        ctx.extra_delay = (tag % 3) * 0.0005
        ctx.copies = 1 + tag % 2


ENTRY_POINTS = ("send", "send_one", "send_burst", "send_fanout")
ADDRESSES = ("a", "b", "c", "d", "e")


def _send(network, entry_point, sender, receivers, payload, size, dispatched):
    if entry_point == "send":
        dispatched[0] += sum(network.send(sender, r, payload, size) is not None for r in receivers)
    elif entry_point == "send_one":
        dispatched[0] += sum(network.send_one(sender, r, payload, size) for r in receivers)
    elif entry_point == "send_burst":
        dispatched[0] += network.send_burst(sender, [(r, payload, size) for r in receivers])
    else:
        dispatched[0] += network.send_fanout(sender, receivers, payload, size)


def _pending_records(sim, network):
    """``{seq: time}`` of every queued message, checking the link invariant.

    Each busy link sits on the heap exactly once, keyed by its head record;
    idle links are off the heap; ``len(sim.queue)`` counts every queued
    message plus every pending timer.
    """
    records = {}
    timers = 0
    armed = set()
    for time, priority, seq, event in sim.queue._heap:
        if not isinstance(event, _Delivery):
            timers += not event.cancelled
            continue
        assert id(event) not in armed, "a link is on the heap twice"
        armed.add(id(event))
        head = event.fifo[event.index]
        assert (time, priority, seq) == (head[0], 0, head[1])
        assert event.time == time
        keys = [record[:2] for record in event.fifo[event.index:]]
        assert keys == sorted(keys)
        records.update((record[1], record[0]) for record in event.fifo[event.index:])
    for link in network._links.values():
        assert (id(link) in armed) == (len(link.fifo) > link.index)
    assert len(sim.queue) == len(records) + timers
    return records


send_op = st.tuples(
    st.integers(0, 20),                    # send time (ms)
    st.sampled_from(ENTRY_POINTS),
    st.sampled_from(ADDRESSES),            # sender
    st.lists(st.sampled_from(ADDRESSES + ("ghost",)), min_size=1, max_size=6),
    st.sampled_from([0, 200, 20_000]),     # size: 20 kB queues on downlinks
    st.integers(0, 2),                     # bounces
)


class TestDeliveryLinks:
    """Per-receiver FIFOs pop messages in the exact ``(time, seq)`` order."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        latency=st.sampled_from(["lognormal", "regional", "fixed"]),
        loss=st.sampled_from([0.0, 0.2]),
        headers=st.sampled_from([0, 64]),
        shuffle=st.booleans(),
        perturb=st.booleans(),
        partition_at=st.one_of(st.none(), st.integers(0, 20)),
        split_at=st.one_of(st.none(), st.integers(0, 20)),
        ops=st.lists(send_op, min_size=1, max_size=25),
    )
    def test_processed_order_is_sorted_scheduled_keys(
        self, seed, latency, loss, headers, shuffle, perturb, partition_at, split_at, ops
    ):
        sim = Simulator(seed=seed)
        model = {
            "lognormal": LogNormalLatency(median=0.002, sigma=0.5),
            "regional": RegionalLatency(
                region_of={"a": "eu-west", "b": "eu-west", "c": "us-east", "d": "ap-sydney"}
            ),
            "fixed": FixedLatency(0.002),
        }[latency]
        network = Network(
            sim,
            latency_model=model,
            config=NetworkConfig(
                loss_probability=loss, headers_bytes=headers, randomized_send_order=shuffle
            ),
        )
        if perturb:
            network.install_middleware(MiddlewareChain(Perturb()))
        dispatched = [0]
        actors = [Bouncer(sim, address, network, dispatched) for address in ADDRESSES]
        for actor in actors:
            network.register(actor)
        if partition_at is not None:
            sim.schedule(partition_at / 1000, lambda: network.partition(["c"]), tag="test.fault")
            sim.schedule((partition_at + 5) / 1000, network.heal, tag="test.fault")
        if split_at is not None:
            sides = [("a", "b"), ("d", "e")]
            sim.schedule(split_at / 1000, lambda: network.split(sides), tag="test.fault")
            sim.schedule((split_at + 5) / 1000, network.merge, tag="test.fault")
        for tag, (when, entry_point, sender, receivers, size, bounces) in enumerate(ops):
            sim.schedule(
                when / 1000,
                lambda e=entry_point, s=sender, r=receivers, p=(tag, bounces), n=size: _send(
                    network, e, s, r, p, n, dispatched
                ),
                tag="test.send",
            )

        scheduled = {}
        processed = []
        timers = 0
        while sim.queue._heap:
            scheduled.update(_pending_records(sim, network))
            time, _, seq, event = sim.queue._heap[0]
            assert sim.step()
            assert sim.now == time
            if isinstance(event, _Delivery):
                processed.append((time, seq))
            else:
                timers += 1
        assert len(sim.queue) == 0
        assert processed == sorted((time, seq) for seq, time in scheduled.items())
        assert sim.processed_events == len(processed) + timers

        counters = sim.metrics.counters
        received = sum(len(actor.received) for actor in actors)
        assert counters["net.messages_delivered"] == received
        # Every send is dropped at send time or dispatched with >= 1 copy;
        # every queued copy is delivered, undeliverable or partitioned.
        extra_copies = len(scheduled) - dispatched[0]
        assert counters["net.messages_sent"] + extra_copies == (
            counters["net.messages_delivered"]
            + counters["net.messages_undeliverable"]
            + counters["net.messages_partitioned"]
            + counters["net.messages_lost"]
        )

    def test_step_sees_each_messages_own_delivery_time(self):
        sim, network = make_net(config=NetworkConfig(randomized_send_order=False))
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.send_burst("a", [("b", index, 1_000) for index in range(5)])
        transfer = 1_064 / 8_000_000
        expected = [0.01 + transfer]
        for _ in range(4):
            expected.append(expected[-1] + transfer)
        while sim.step():
            pass
        assert [time for time, _, _ in b.received] == expected
        assert [payload for _, payload, _ in b.received] == list(range(5))

    def test_link_that_never_drains_frees_delivered_payloads(self):
        class Blob:
            pass

        class Sink(Actor):
            def on_message(self, payload, sender):
                pass

        sim, network = make_net(config=NetworkConfig(randomized_send_order=False))
        for address in ("a", "b"):
            network.register(Sink(sim, address))
        blobs = [Blob() for _ in range(300)]
        first = weakref.ref(blobs[0])
        network.send_burst("a", [("b", blob, 100) for blob in blobs])
        del blobs
        link = network._links["b"]
        for _ in range(250):
            assert sim.step()
            assert len(link.fifo) > link.index  # still busy: never drained
        assert first() is None

    def test_zero_transfer_rounding_keeps_key_order(self):
        # With no headers and empty payloads a downlink adds no transfer
        # time, and the event key ``now + (delivery - now)`` of a later send
        # can round one step below an earlier key for the same receiver.
        class PerSender(LatencyModel):
            def sample(self, rng, sender, receiver):
                return {"a": 0.8, "c": 0.001}[sender]

        sim = Simulator(seed=0)
        network = Network(sim, latency_model=PerSender(), config=NetworkConfig(headers_bytes=0))
        actors = {name: Recorder(sim, name) for name in ("a", "b", "c")}
        for actor in actors.values():
            network.register(actor)
        delivery = 0.1 + 0.8
        early, late = 0.18 + (delivery - 0.18), 0.1 + (delivery - 0.1)
        assert early < late  # the rounding this test is about
        sim.schedule(0.1, lambda: network.send_one("a", "b", "first", 0), tag="test.send")
        sim.schedule(0.18, lambda: network.send_fanout("c", ["b"], "second", 0), tag="test.send")
        while sim.step():
            pass
        assert [(t, p) for t, p, _ in actors["b"].received] == [(early, "second"), (late, "first")]


class TestLatencyModels:
    def test_fixed(self):
        rng = random.Random(0)
        model = FixedLatency(0.005)
        assert model.sample(rng, "a", "b") == 0.005

    def test_uniform_within_bounds(self):
        rng = random.Random(0)
        model = UniformLatency(low=0.001, high=0.002)
        for _ in range(100):
            sample = model.sample(rng, "a", "b")
            assert 0.001 <= sample <= 0.002

    def test_lognormal_positive_and_floored(self):
        rng = random.Random(0)
        model = LogNormalLatency(median=0.001, sigma=0.5, floor=0.0005)
        samples = [model.sample(rng, "a", "b") for _ in range(200)]
        assert all(sample >= 0.0005 for sample in samples)

    def test_lan_profile_is_sub_5ms_typically(self):
        rng = random.Random(0)
        model = LanProfile()
        samples = [model.sample(rng, "a", "b") for _ in range(200)]
        assert sum(samples) / len(samples) < 0.005

    def test_wan_profile_inter_region_slower_than_intra(self):
        addresses = [f"n{i}" for i in range(16)]
        model = WanProfile(addresses)
        rng = random.Random(0)
        # n0 and n8 share a region (round robin over 8 regions); n0 and n1 differ.
        intra = [model.sample(rng, "n0", "n8") for _ in range(50)]
        inter = [model.sample(rng, "n0", "n4") for _ in range(50)]
        assert sum(intra) / len(intra) < sum(inter) / len(inter)

    def test_wan_assign_round_robin(self):
        model = WanProfile()
        regions = [model.assign(f"x{i}") for i in range(len(DEFAULT_REGIONS))]
        assert len(set(regions)) == len(DEFAULT_REGIONS)

    def test_regional_symmetry(self):
        model = RegionalLatency(region_of={"a": "eu-west", "b": "ap-sydney"})
        assert model.base_latency("a", "b") == model.base_latency("b", "a")

    def test_regional_unknown_pair_uses_default(self):
        model = RegionalLatency(region_of={"a": "mars", "b": "venus"})
        assert model.base_latency("a", "b") == model.default_inter_region
