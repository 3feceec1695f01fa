"""Tests for the message-path middleware pipeline (repro.core.middleware).

Covers the chain semantics (ordering, short-circuit, loud double install),
per-hook exception propagation, exactly-once eviction notification across
the three eviction paths, and the determinism contract: installing an empty
chain (or adding a pure-observer middleware) leaves the stored golden
traces byte-identical.
"""

import json

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import (
    HOOK_NAMES,
    MetricsTap,
    Middleware,
    MiddlewareChain,
    MiddlewareContext,
    MiddlewareError,
    run_hooks,
)
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.overlay.membership import MembershipError
from repro.sim.simulator import Simulator


def small_params(**overrides):
    defaults = dict(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)
    defaults.update(overrides)
    return AtumParameters(**defaults)


def build_cluster(seed=9, nodes=16, **cluster_kwargs):
    cluster = AtumCluster(small_params(), seed=seed, **cluster_kwargs)
    cluster.build_static([f"n{i}" for i in range(nodes)])
    return cluster


class Recorder(Middleware):
    """Records every hook invocation as (hook, detail) tuples."""

    def __init__(self, name="recorder"):
        self.name = name
        self.events = []

    def on_send(self, ctx):
        self.events.append(("on_send", self.name, ctx.receiver))

    def on_deliver(self, ctx):
        self.events.append(("on_deliver", self.name, ctx.channel, ctx.address))

    def on_view_change(self, ctx):
        self.events.append(("on_view_change", self.name, ctx.view.group_id))

    def on_eviction(self, ctx):
        self.events.append(("on_eviction", self.name, ctx.address))

    def on_node_added(self, ctx):
        self.events.append(("on_node_added", self.name, ctx.address))

    def on_node_left(self, ctx):
        self.events.append(("on_node_left", self.name, ctx.address))


# ------------------------------------------------------------ chain semantics


class TestChainSemantics:
    def test_empty_chain_compiles_every_hook_to_none(self):
        chain = MiddlewareChain()
        for name in HOOK_NAMES:
            assert chain.hooks(name) is None

    def test_only_overridden_hooks_enter_the_pipeline(self):
        class DeliverOnly(Middleware):
            def on_deliver(self, ctx):
                pass

        chain = MiddlewareChain(DeliverOnly())
        assert chain.hooks("on_deliver") is not None
        assert chain.hooks("on_send") is None
        assert chain.hooks("on_eviction") is None

    def test_middleware_run_in_insertion_order(self):
        order = []

        class Tagged(Middleware):
            def __init__(self, tag):
                self.tag = tag

            def on_deliver(self, ctx):
                order.append(self.tag)

        chain = MiddlewareChain(Tagged("first"), Tagged("second"), Tagged("third"))
        run_hooks(chain.hooks("on_deliver"), MiddlewareContext("on_deliver"))
        assert order == ["first", "second", "third"]

    def test_stop_short_circuits_the_remaining_middleware(self):
        order = []

        class Stopper(Middleware):
            def on_deliver(self, ctx):
                order.append("stopper")
                ctx.stop = True

        class Never(Middleware):
            def on_deliver(self, ctx):
                order.append("never")

        chain = MiddlewareChain(Stopper(), Never())
        run_hooks(chain.hooks("on_deliver"), MiddlewareContext("on_deliver"))
        assert order == ["stopper"]

    def test_duplicate_add_raises(self):
        middleware = Recorder()
        chain = MiddlewareChain(middleware)
        with pytest.raises(MiddlewareError, match="already in the chain"):
            chain.add(middleware)

    def test_late_add_recompiles_subscribed_installers(self):
        chain = MiddlewareChain()
        recompiles = []
        chain.subscribe(lambda: recompiles.append(len(chain)))
        chain.add(Recorder())
        chain.add(Recorder())
        assert recompiles == [1, 2]

    def test_metrics_tap_send_counting_is_an_instance_level_opt_in(self):
        plain, counting = MetricsTap(), MetricsTap(count_sends=True)
        assert MiddlewareChain(plain).hooks("on_send") is None
        assert MiddlewareChain(counting).hooks("on_send") is not None


# ------------------------------------------------------------- double install


class TestDoubleInstallIsLoud:
    def test_second_cluster_chain_raises(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain())
        with pytest.raises(MiddlewareError, match="already installed"):
            cluster.install_middleware(MiddlewareChain())

    def test_second_network_chain_raises(self):
        network = Network(Simulator(seed=3), latency_model=FixedLatency(0.01))
        network.install_middleware(MiddlewareChain())
        with pytest.raises(MiddlewareError, match="already installed"):
            network.install_middleware(MiddlewareChain())

    def test_second_monitor_raises(self):
        from repro.faults.invariants import InvariantMonitor

        cluster = build_cluster()
        cluster.attach_monitor(InvariantMonitor())
        with pytest.raises(MiddlewareError, match="already attached"):
            cluster.attach_monitor(InvariantMonitor())


# ------------------------------------------------------ dispatch integration


class TestDispatchIntegration:
    def test_broadcast_feeds_deliver_and_send_hooks(self):
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        cluster.broadcast("n0", {"payload": 1})
        cluster.run_for(20.0)
        hooks_seen = {event[0] for event in recorder.events}
        assert "on_send" in hooks_seen
        assert "on_deliver" in hooks_seen
        channels = {event[2] for event in recorder.events if event[0] == "on_deliver"}
        assert "broadcast" in channels

    def test_membership_events_feed_view_and_node_hooks(self):
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        cluster.join("late-1", contact="n0")
        cluster.run_for(30.0)
        cluster.leave("late-1")
        cluster.run_for(30.0)
        hooks_seen = {event[0] for event in recorder.events}
        assert "on_node_added" in hooks_seen
        assert "on_view_change" in hooks_seen
        assert "on_node_left" in hooks_seen

    def test_on_send_drop_verdict_loses_the_message(self):
        class DropBroadcasts(Middleware):
            def on_send(self, ctx):
                ctx.drop = True

        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(DropBroadcasts()))
        before = cluster.sim.metrics.counter("net.messages_lost")
        cluster.broadcast("n0", {"payload": 1})
        cluster.run_for(10.0)
        assert cluster.sim.metrics.counter("net.messages_lost") > before
        assert cluster.sim.metrics.counter("net.messages_delivered") == 0

    def test_metrics_tap_counts_pipeline_events(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(MetricsTap(count_sends=True)))
        cluster.broadcast("n0", {"payload": 1})
        cluster.run_for(20.0)
        metrics = cluster.sim.metrics
        assert metrics.counter("mw.sends") > 0
        assert metrics.counter("mw.delivers") > 0

    def test_timer_ticks_until_stop_disarms(self):
        class ThreeTicks(Middleware):
            timer_period = 1.0

            def __init__(self):
                self.ticks = 0

            def on_timer(self, ctx):
                self.ticks += 1
                if self.ticks >= 3:
                    ctx.stop = True

        cluster = build_cluster()
        ticker = ThreeTicks()
        cluster.install_middleware(MiddlewareChain(ticker))
        cluster.run_for(10.0)
        assert ticker.ticks == 3


# ------------------------------------------------------ exception propagation


class Boom(Exception):
    pass


class TestHookExceptionsPropagate:
    """The pipeline never swallows a hook's exception."""

    def _exploding(self, hook_name):
        middleware = Middleware()
        setattr(
            middleware,
            hook_name,
            lambda ctx: (_ for _ in ()).throw(Boom(hook_name)),
        )
        return middleware

    def test_on_send_exception_propagates(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(self._exploding("on_send")))
        cluster.broadcast("n0", {"payload": 1})
        with pytest.raises(Boom):
            cluster.run_for(10.0)

    def test_on_deliver_exception_propagates(self):
        cluster = build_cluster()
        chain = MiddlewareChain()
        cluster.install_middleware(chain)
        chain.add(self._exploding("on_deliver"))
        cluster.broadcast("n0", {"payload": 1})
        with pytest.raises(Boom):
            cluster.run_for(10.0)

    def test_on_view_change_exception_propagates(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(self._exploding("on_view_change")))
        cluster.join("late-1", contact="n0")
        with pytest.raises(Boom):
            cluster.run_for(30.0)

    def test_on_eviction_exception_propagates(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(self._exploding("on_eviction")))
        with pytest.raises(Boom):
            cluster._notify_eviction("n1")

    def test_on_timer_exception_propagates(self):
        exploding = self._exploding("on_timer")
        exploding.timer_period = 1.0
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(exploding))
        with pytest.raises(Boom):
            cluster.run_for(5.0)


# ------------------------------------------------- exactly-once eviction hook


class TestExactlyOnceEviction:
    def _evict_by_majority(self, cluster, victim):
        view = cluster.engine.group_of(victim)
        for member in view.members:
            if member != victim:
                cluster.request_eviction(victim, suspected_by=member)

    def test_majority_eviction_notifies_once(self):
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        victim = sorted(cluster.engine.node_group)[3]
        self._evict_by_majority(cluster, victim)
        evictions = [e for e in recorder.events if e[0] == "on_eviction"]
        assert evictions == [("on_eviction", "recorder", victim)]

    def test_merge_enforcement_duplicate_is_suppressed(self):
        """The split-merge regression: an identity evicted same-side during a
        split used to be re-announced by merge enforcement at heal."""
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        victim = sorted(cluster.engine.node_group)[3]
        self._evict_by_majority(cluster, victim)
        # Merge enforcement announcing the same identity again (the leave
        # may still be in flight at heal) must be suppressed, not re-fired.
        assert cluster._notify_eviction(victim) is False
        evictions = [e for e in recorder.events if e[0] == "on_eviction"]
        assert evictions == [("on_eviction", "recorder", victim)]
        assert cluster.sim.metrics.counter("cluster.eviction_duplicate_suppressed") == 1

    def test_failed_engine_leave_is_counted_and_notifies_once(self):
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        victim = sorted(cluster.engine.node_group)[3]

        original_leave = cluster.engine.leave

        def failing_leave(node, eviction=False):
            raise MembershipError(f"injected leave failure for {node}")

        cluster.engine.leave = failing_leave
        try:
            self._evict_by_majority(cluster, victim)
        finally:
            cluster.engine.leave = original_leave
        assert cluster.sim.metrics.counter("cluster.eviction_leave_failed") == 1
        # The failed request is retryable (not wedged in _eviction_requests)...
        assert victim not in cluster._eviction_requests
        # ...but observers were notified exactly once for the identity.
        evictions = [e for e in recorder.events if e[0] == "on_eviction"]
        assert evictions == [("on_eviction", "recorder", victim)]


# --------------------------------------------------- golden-trace neutrality


class NoOp(Middleware):
    """Observes nothing, perturbs nothing — the empty-cost control."""


class TestGoldenTraceNeutrality:
    """Empty chains (and pure no-op middleware) keep goldens byte-identical."""

    def test_empty_chain_keeps_kernel_golden_trace(self):
        from test_golden_trace import GOLDEN_PATH, HORIZON, build_scenario

        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        cluster, _state = build_scenario()
        cluster.install_middleware(MiddlewareChain(NoOp()))
        trace = []
        cluster.sim.run(until=HORIZON, trace=trace)
        assert [[t, tag] for t, tag in trace] == golden["trace"]

    def test_empty_chain_keeps_protocol_stack_golden_trace(self):
        from test_protocol_golden_trace import STACK_PATH, run_stack_scenario

        with open(STACK_PATH, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        trace = []
        run_stack_scenario(trace=trace, chain=MiddlewareChain(NoOp()))
        assert [[t, tag] for t, tag in trace] == golden["trace"]

    def test_noop_middleware_keeps_checkpointed_reconciliation_trace(self, monkeypatch):
        from test_partition_reconcile import run_reconcile

        _, _, _, baseline_trace = run_reconcile(SmrKind.ASYNC, checkpoint_interval=2)

        original = AtumCluster.attach_monitor

        def attach_and_pad(self, monitor):
            original(self, monitor)
            self.middleware_chain().add(NoOp())

        monkeypatch.setattr(AtumCluster, "attach_monitor", attach_and_pad)
        _, _, _, padded_trace = run_reconcile(SmrKind.ASYNC, checkpoint_interval=2)
        assert padded_trace == baseline_trace
