"""Tests for the group layer: vgroup views, group messages, heartbeats, cost model."""

import pytest

from repro.crypto.digest import digest_object
from repro.crypto.keys import KeyRegistry
from repro.group import (
    GroupCostModel,
    GroupMessenger,
    HeartbeatConfig,
    HeartbeatMonitor,
    NodeBinding,
    VGroupView,
    majority_threshold,
)
from repro.group.heartbeat import Heartbeat
from repro.group.messages import GroupMessageEnvelope
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.sim import Simulator
from repro.sim.actor import Actor


class TestVGroupView:
    def test_create_sorts_members(self):
        view = VGroupView.create("g1", ["c", "a", "b"])
        assert view.members == ("a", "b", "c")
        assert view.size == 3

    def test_majority(self):
        assert VGroupView.create("g", ["a"]).majority() == 1
        assert VGroupView.create("g", ["a", "b"]).majority() == 2
        assert VGroupView.create("g", ["a", "b", "c"]).majority() == 2
        assert VGroupView.create("g", list("abcdefg")).majority() == 4

    @pytest.mark.parametrize("size,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (7, 4), (14, 8)])
    def test_majority_threshold(self, size, expected):
        assert majority_threshold(size) == expected

    def test_add_and_remove_bump_epoch(self):
        view = VGroupView.create("g", ["a", "b"])
        grown = view.add("c")
        assert grown.epoch == view.epoch + 1
        assert grown.contains("c")
        shrunk = grown.remove("a")
        assert shrunk.epoch == grown.epoch + 1
        assert not shrunk.contains("a")

    def test_add_existing_is_noop(self):
        view = VGroupView.create("g", ["a"])
        assert view.add("a") is view

    def test_remove_absent_is_noop(self):
        view = VGroupView.create("g", ["a"])
        assert view.remove("z") is view

    def test_iteration_and_len(self):
        view = VGroupView.create("g", ["b", "a"])
        assert list(view) == ["a", "b"]
        assert len(view) == 2


class _MessengerHost(Actor):
    """Node actor exposing only a GroupMessenger, for isolated testing."""

    def __init__(self, sim, address, network, own_view_fn):
        super().__init__(sim, address)
        self.accepted = []
        self.messenger = GroupMessenger(
            binding=NodeBinding(address=address, network=network, sim=sim),
            own_view_fn=own_view_fn,
            on_accept=lambda kind, payload, src, gm: self.accepted.append(
                (kind, payload, src, gm)
            ),
        )

    def on_message(self, payload, sender):
        self.messenger.handle(payload, sender)


def _make_two_groups(sim, network, size_a=4, size_b=4, use_digest=True):
    group_a = VGroupView.create("A", [f"a{i}" for i in range(size_a)])
    group_b = VGroupView.create("B", [f"b{i}" for i in range(size_b)])
    hosts = {}
    for address in list(group_a.members) + list(group_b.members):
        own = group_a if address.startswith("a") else group_b
        host = _MessengerHost(sim, address, network, lambda v=own: v)
        host.messenger.use_digest_optimization = use_digest
        hosts[address] = host
        network.register(host)
    return group_a, group_b, hosts


class TestGroupMessages:
    def test_accepted_after_majority_of_senders(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network)
        # All members of A send their share of the same group message.
        for sender in group_a.members:
            hosts[sender].messenger.send(group_b, "gossip", {"x": 1}, gm_id="gm-1")
        sim.run()
        for receiver in group_b.members:
            assert len(hosts[receiver].accepted) == 1
            kind, payload, source, gm_id = hosts[receiver].accepted[0]
            assert kind == "gossip" and payload == {"x": 1} and source == "A"

    def test_not_accepted_below_majority(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network, size_a=5)
        # Only 2 of 5 members send: below the majority of 3.
        for sender in list(group_a.members)[:2]:
            hosts[sender].messenger.send(group_b, "gossip", "payload", gm_id="gm-2")
        sim.run()
        for receiver in group_b.members:
            assert hosts[receiver].accepted == []

    def test_byzantine_minority_cannot_forge_group_message(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network, size_a=5)
        # A Byzantine minority (2 of 5) tries to push a forged payload.
        for sender in list(group_a.members)[:2]:
            hosts[sender].messenger.send(group_b, "gossip", "forged", gm_id="gm-forged")
        # The correct majority sends the real payload under a different gm id.
        for sender in list(group_a.members)[2:]:
            hosts[sender].messenger.send(group_b, "gossip", "real", gm_id="gm-real")
        sim.run()
        for receiver in group_b.members:
            payloads = [p for _, p, _, _ in hosts[receiver].accepted]
            assert "forged" not in payloads
            assert "real" in payloads

    def test_digest_optimization_reduces_bytes(self):
        def run(with_digest):
            sim = Simulator()
            network = Network(sim, latency_model=FixedLatency(0.001))
            group_a, group_b, hosts = _make_two_groups(
                sim, network, size_a=6, size_b=6, use_digest=with_digest
            )
            for sender in group_a.members:
                hosts[sender].messenger.send(
                    group_b, "gossip", {"blob": "x" * 100}, gm_id="gm", payload_bytes=5000
                )
            sim.run()
            delivered = all(len(hosts[r].accepted) == 1 for r in group_b.members)
            return sim.metrics.counter("net.bytes_sent"), delivered

        bytes_with, ok_with = run(True)
        bytes_without, ok_without = run(False)
        assert ok_with and ok_without
        assert bytes_with < bytes_without

    def test_duplicate_shares_do_not_redeliver(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network)
        for _ in range(2):
            for sender in group_a.members:
                hosts[sender].messenger.send(group_b, "gossip", "x", gm_id="gm-dup")
        sim.run()
        for receiver in group_b.members:
            assert len(hosts[receiver].accepted) == 1


class _HeartbeatHost(Actor):
    def __init__(self, sim, address, network, peers):
        super().__init__(sim, address)
        self.suspected = []
        self.monitor = HeartbeatMonitor(
            sim=sim,
            address=address,
            group_id_fn=lambda: "G",
            peers_fn=lambda: peers,
            send_fn=lambda peer, hb: network.send(address, peer, hb, 64),
            suspect_fn=self.suspected.append,
            config=HeartbeatConfig(period=1.0, misses_before_eviction=3),
        )

    def on_message(self, payload, sender):
        if isinstance(payload, Heartbeat):
            self.monitor.observe(payload)


class TestHeartbeats:
    def test_responsive_peers_not_suspected(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        peers = ["n0", "n1", "n2"]
        hosts = {p: _HeartbeatHost(sim, p, network, peers) for p in peers}
        for host in hosts.values():
            network.register(host)
            host.monitor.start()
        sim.run(until=10.0)
        assert all(host.suspected == [] for host in hosts.values())

    def test_unresponsive_peer_is_suspected(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        peers = ["n0", "n1", "n2"]
        hosts = {p: _HeartbeatHost(sim, p, network, peers) for p in peers}
        for host in hosts.values():
            network.register(host)
        # n2 never starts its monitor and never answers: it must be suspected.
        hosts["n0"].monitor.start()
        hosts["n1"].monitor.start()
        sim.run(until=10.0)
        assert "n2" in hosts["n0"].suspected
        assert "n2" in hosts["n1"].suspected
        assert "n1" not in hosts["n0"].suspected

    def test_forget_clears_state(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        host = _HeartbeatHost(sim, "n0", network, ["n0", "n1"])
        network.register(host)
        host.monitor.start()
        sim.run(until=5.0)
        host.monitor.forget("n1")
        assert "n1" not in host.monitor.last_seen


class TestHeartbeatPeriodAdoption:
    """Regression tests for the stale-period aliasing bug: a runtime period
    change must reach the send cadence and the suspicion deadline together,
    at the next tick — and a shrinking deadline must not instantly
    mass-suspect peers whose heartbeats were timed against the old period."""

    def _wired_hosts(self, sim, peers):
        network = Network(sim, latency_model=FixedLatency(0.001))
        hosts = {p: _HeartbeatHost(sim, p, network, peers) for p in peers}
        for host in hosts.values():
            network.register(host)
            host.monitor.start()
        return hosts

    def test_set_period_adopts_at_the_next_tick_not_mid_cycle(self):
        sim = Simulator()
        hosts = self._wired_hosts(sim, ["n0", "n1"])
        monitor = hosts["n0"].monitor
        sim.run(until=2.5)  # mid-cycle: ticks at 0, 1, 2
        monitor.set_period(0.5)
        assert monitor._period == 1.0  # unchanged until the tick boundary
        assert monitor.config.period == 1.0
        sim.run(until=3.1)  # the tick at t=3 adopts
        assert monitor._period == 0.5
        assert monitor.config.period == 0.5  # legacy knob kept in sync
        # The send cadence follows immediately: next ticks at 3.5, 4.0, ...
        sequence_at_adoption = monitor.sequence
        sim.run(until=4.1)
        assert monitor.sequence == sequence_at_adoption + 2

    def test_set_period_rejects_nonpositive(self):
        sim = Simulator()
        hosts = self._wired_hosts(sim, ["n0", "n1"])
        with pytest.raises(ValueError, match="must be positive"):
            hosts["n0"].monitor.set_period(0.0)

    def test_direct_config_mutation_gets_next_tick_semantics(self):
        sim = Simulator()
        hosts = self._wired_hosts(sim, ["n0", "n1"])
        monitor = hosts["n0"].monitor
        sim.run(until=2.5)
        monitor.config.period = 0.5  # the legacy knob, mutated raw
        assert monitor._period == 1.0
        sim.run(until=3.1)
        assert monitor._period == 0.5

    def test_shrinking_period_does_not_mass_suspect_healthy_peers(self):
        sim = Simulator()
        peers = ["n0", "n1", "n2"]
        hosts = self._wired_hosts(sim, peers)
        sim.run(until=9.5)  # steady state on the 1.0 s period
        # Shrink every monitor's deadline from 3.0 s to 0.75 s — smaller
        # than the age peers can have accumulated under the old cadence.
        # Pre-fix, reading config.period live would suspect them instantly.
        for host in hosts.values():
            host.monitor.set_period(0.25)
        sim.run(until=20.0)
        assert all(host.suspected == [] for host in hosts.values())
        assert all(host.monitor._period == 0.25 for host in hosts.values())

    def test_shrunk_deadline_still_suspects_a_peer_that_dies_later(self):
        sim = Simulator()
        peers = ["n0", "n1", "n2"]
        hosts = self._wired_hosts(sim, peers)
        sim.run(until=9.5)
        for host in hosts.values():
            host.monitor.set_period(0.25)
        sim.run(until=15.0)
        hosts["n2"].monitor.stop()  # n2 goes silent after the shrink settles
        sim.run(until=20.0)
        assert "n2" in hosts["n0"].suspected
        assert "n2" in hosts["n1"].suspected
        assert "n1" not in hosts["n0"].suspected


class TestGroupCostModel:
    def test_sync_agreement_latency_scales_with_group_size(self):
        model = GroupCostModel(synchronous=True, round_duration=1.0)
        assert model.agreement_latency(4) < model.agreement_latency(20)
        # f+1 rounds plus half a round of waiting: g=7 -> f=3 -> 4.5 rounds.
        assert model.agreement_latency(7) == pytest.approx(4.5)

    def test_async_agreement_much_faster_than_sync(self):
        sync = GroupCostModel(synchronous=True, round_duration=1.0)
        asyn = GroupCostModel(synchronous=False, network_latency=0.05)
        assert asyn.agreement_latency(7) < sync.agreement_latency(7) / 5

    def test_backward_phase_walk_costs_twice_the_forward(self):
        model = GroupCostModel()
        backward = model.random_walk_latency(10, 8, backward_phase=True)
        forward_only = 10 * model.walk_step_latency(8, 8)
        assert backward == pytest.approx(2 * forward_only)

    def test_certificate_walk_cheaper_than_backward_for_long_walks(self):
        model = GroupCostModel(synchronous=False, network_latency=0.05)
        certificates = model.random_walk_latency(12, 8, backward_phase=False)
        backward = model.random_walk_latency(12, 8, backward_phase=True)
        assert certificates < backward

    def test_state_transfer_grows_with_cycles(self):
        model = GroupCostModel()
        assert model.state_transfer_latency(8, 10) > model.state_transfer_latency(2, 10)


class TestGroupMessengerFastPath:
    """PR-2 regression tests: pending-state retirement and O(1) gm-id dedup."""

    def _wire(self, size_a=4, size_b=4):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network, size_a, size_b)
        return sim, group_a, group_b, hosts

    def test_pending_state_retired_after_delivery(self):
        sim, group_a, group_b, hosts = self._wire()
        for sender in group_a.members:
            hosts[sender].messenger.send(group_b, "gossip", "x", gm_id="gm-retire")
        sim.run()
        for receiver in group_b.members:
            messenger = hosts[receiver].messenger
            assert len(hosts[receiver].accepted) == 1
            assert messenger.pending_count() == 0
            assert "gm-retire" in messenger._delivered_gm_ids

    def test_pending_count_reflects_undelivered_messages(self):
        sim, group_a, group_b, hosts = self._wire(size_a=5)
        # Below-majority share count: state stays pending.
        for sender in list(group_a.members)[:2]:
            hosts[sender].messenger.send(group_b, "gossip", "x", gm_id="gm-low")
        sim.run()
        for receiver in group_b.members:
            assert hosts[receiver].accepted == []
            assert hosts[receiver].messenger.pending_count() == 1

    def test_late_shares_short_circuit_after_delivery(self):
        sim, group_a, group_b, hosts = self._wire()
        for sender in group_a.members:
            hosts[sender].messenger.send(group_b, "gossip", "x", gm_id="gm-late")
        sim.run()
        receiver = group_b.members[0]
        messenger = hosts[receiver].messenger
        late = GroupMessageEnvelope(
            gm_id="gm-late",
            source_group="A",
            source_epoch=0,
            target_group="B",
            kind="gossip",
            payload="x",
            digest="whatever",
            sender_group_size=4,
        )
        before = len(hosts[receiver].accepted)
        messenger.handle(late, "a0")
        assert len(hosts[receiver].accepted) == before
        assert messenger.pending_count() == 0

    def test_equivocating_digests_accumulate_separately(self):
        sim, group_a, group_b, hosts = self._wire(size_a=5)
        receiver = group_b.members[0]
        messenger = hosts[receiver].messenger

        def share(payload, digest, sender):
            return messenger.handle(
                GroupMessageEnvelope(
                    gm_id="gm-equiv",
                    source_group="A",
                    source_epoch=0,
                    target_group="B",
                    kind="gossip",
                    payload=payload,
                    digest=digest,
                    sender_group_size=5,
                ),
                sender,
            )

        # Two Byzantine members push a forged digest; three correct members
        # send the real one.  Only the real message reaches a majority.
        # Each share's payload matches its digest, or the receiver drops it.
        bad_digest, good_digest = digest_object("forged"), digest_object("real")
        share("forged", bad_digest, "a0")
        share("forged", bad_digest, "a1")
        share("real", good_digest, "a2")
        share("real", good_digest, "a3")
        assert hosts[receiver].accepted == []
        share("real", good_digest, "a4")
        payloads = [p for _, p, _, _ in hosts[receiver].accepted]
        assert payloads == ["real"]
        # The forged bucket can never deliver now: the gm id is retired and
        # its conflicting buckets were purged with it.
        assert messenger.pending_count() == 0
        share("forged", bad_digest, "a4")
        assert [p for _, p, _, _ in hosts[receiver].accepted] == ["real"]
        assert messenger.pending_count() == 0

    def test_forged_payload_under_honest_digest_is_dropped(self):
        # A Byzantine full-copy sender pairs the honest digest with a forged
        # payload and gets its share in first.  Receivers must not adopt the
        # forged payload once the honest shares accept the digest.
        sim, group_a, group_b, hosts = self._wire()
        honest = {"x": 1}
        forged = GroupMessageEnvelope(
            gm_id="gm-swap",
            source_group="A",
            source_epoch=0,
            target_group="B",
            kind="gossip",
            payload={"x": 666},
            digest=digest_object(honest),
            sender_group_size=group_a.size,
        )
        network = hosts["a0"].messenger.binding.network
        network.send_fanout("a0", group_b.members, forged, 1024)
        for sender in group_a.members[1:]:
            hosts[sender].messenger.send(group_b, "gossip", honest, gm_id="gm-swap")
        sim.run()
        for receiver in group_b.members:
            assert hosts[receiver].accepted == [("gossip", honest, "A", "gm-swap")]
            assert hosts[receiver].messenger.pending_count() == 0
        assert sim.metrics.counter("group.mismatched_payloads_dropped") == group_b.size
