"""Tests for random walks, the Figure 4 guideline machinery and gossip policies."""

import random
from collections import Counter

import pytest

from repro.overlay.gossip import (
    cycles_policy,
    dissemination_rounds,
    flood_policy,
    random_policy,
    single_cycle_policy,
)
from repro.overlay.guideline import (
    is_uniform,
    optimal_walk_length,
    recommended_config,
    uniformity_pvalue,
)
from repro.overlay.hgraph import HGraph
from repro.overlay.random_walk import BulkRng, WalkMode, sample_many, structural_walk


def build_graph(n=32, hc=4, seed=0):
    rng = random.Random(seed)
    return HGraph.random([f"g{i}" for i in range(n)], hc, rng), rng


class TestBulkRng:
    def test_generate_length(self):
        bulk = BulkRng.generate(7, random.Random(0))
        assert len(bulk) == 7
        assert all(0.0 <= value < 1.0 for value in bulk.values)

    def test_pick_in_range(self):
        bulk = BulkRng.generate(5, random.Random(0))
        for hop in range(5):
            assert 0 <= bulk.pick(hop, 8) < 8

    def test_pick_beyond_length_raises(self):
        bulk = BulkRng.generate(2, random.Random(0))
        with pytest.raises(IndexError):
            bulk.pick(2, 4)

    def test_pick_without_options_raises(self):
        bulk = BulkRng.generate(2, random.Random(0))
        with pytest.raises(ValueError):
            bulk.pick(0, 0)

    def test_same_bulk_same_walk(self):
        graph, rng = build_graph()
        bulk = BulkRng.generate(6, random.Random(42))
        walk_a = structural_walk(graph, "g0", 6, random.Random(1), bulk=bulk)
        walk_b = structural_walk(graph, "g0", 6, random.Random(2), bulk=bulk)
        assert walk_a.path == walk_b.path


class TestStructuralWalk:
    def test_walk_length(self):
        graph, rng = build_graph()
        outcome = structural_walk(graph, "g0", 9, rng)
        assert outcome.hops == 9
        assert len(outcome.path) == 9
        assert outcome.selected in graph.vertices

    def test_walk_visits_neighbors_only(self):
        graph, rng = build_graph(n=16, hc=2)
        outcome = structural_walk(graph, "g0", 12, rng)
        current = "g0"
        for step in outcome.path:
            assert step in graph.neighbors(current) or step == current
            current = step

    def test_zero_length_rejected(self):
        graph, rng = build_graph()
        with pytest.raises(ValueError):
            structural_walk(graph, "g0", 0, rng)

    def test_backward_phase_doubles_reply_hops(self):
        graph, rng = build_graph()
        backward = structural_walk(graph, "g0", 8, rng, mode=WalkMode.BACKWARD_PHASE)
        certificates = structural_walk(graph, "g0", 8, rng, mode=WalkMode.CERTIFICATES)
        assert backward.reply_hops == 8
        assert certificates.reply_hops == 1
        assert backward.total_hops > certificates.total_hops

    def test_long_walks_spread_over_the_graph(self):
        graph, rng = build_graph(n=16, hc=4, seed=3)
        endpoints = Counter(sample_many(graph, "g0", 10, 400, rng))
        # Every vertex should be reachable and no vertex should dominate.
        assert len(endpoints) >= 14
        assert max(endpoints.values()) < 400 * 0.25


class TestGuideline:
    def test_uniformity_pvalue_high_for_long_walks(self):
        rng = random.Random(0)
        pvalue = uniformity_pvalue(num_groups=16, hc=4, rwl=12, rng=rng, samples_per_group=40)
        assert pvalue > 0.01

    def test_uniformity_fails_for_one_hop_walks(self):
        rng = random.Random(0)
        # A single hop can only reach direct neighbours: wildly non-uniform.
        pvalue = uniformity_pvalue(num_groups=32, hc=3, rwl=1, rng=rng, samples_per_group=30)
        assert pvalue < 0.01

    def test_is_uniform_consistent_with_pvalue(self):
        rng = random.Random(1)
        assert is_uniform(16, 4, 12, rng, samples_per_group=40, trials=3)
        assert not is_uniform(32, 3, 1, rng, samples_per_group=30, trials=3)

    def test_optimal_walk_length_monotone_in_system_size(self):
        rng = random.Random(2)
        small = optimal_walk_length(8, 4, rng, samples_per_group=40, trials=1)
        large = optimal_walk_length(64, 4, rng, samples_per_group=20, trials=1)
        assert small <= large

    def test_recommended_config_matches_paper_examples(self):
        # Section 3.2: roughly 128 vgroups -> rwl 9 with hc 6.
        config = recommended_config(128)
        assert config.hc == 6 and config.rwl == 9
        # Larger systems need longer walks.
        assert recommended_config(8192).rwl > recommended_config(8).rwl


class TestGossipPolicies:
    def test_flood_reaches_everyone_in_few_rounds(self):
        graph, rng = build_graph(n=64, hc=4)
        rounds, reached = dissemination_rounds(graph, "g0", flood_policy, rng)
        assert reached == graph.vertices
        assert rounds <= 8

    def test_single_cycle_reaches_everyone_slower(self):
        graph, rng = build_graph(n=32, hc=4)
        flood_rounds, _ = dissemination_rounds(graph, "g0", flood_policy, rng)
        single_rounds, reached = dissemination_rounds(graph, "g0", single_cycle_policy, rng)
        assert reached == graph.vertices
        assert single_rounds >= flood_rounds

    def test_double_cycle_between_single_and_flood(self):
        graph, rng = build_graph(n=64, hc=6, seed=9)
        single_rounds, _ = dissemination_rounds(graph, "g0", cycles_policy(1), rng, message_id="m1")
        double_rounds, reached = dissemination_rounds(graph, "g0", cycles_policy(2), rng, message_id="m1")
        assert reached == graph.vertices
        assert double_rounds <= single_rounds

    def test_random_policy_reaches_everyone(self):
        graph, rng = build_graph(n=64, hc=4, seed=11)
        _, reached = dissemination_rounds(graph, "g0", random_policy(fanout=2), rng)
        assert reached == graph.vertices

    def test_policies_never_return_self(self):
        graph, rng = build_graph(n=16, hc=3)
        for policy in (flood_policy, single_cycle_policy, random_policy()):
            targets = policy(graph, "g5", "msg", rng)
            assert "g5" not in targets


class TestPolicyDeterminism:
    """PR-2 regression tests: seeded policies are byte-stable and well spread."""

    def test_random_policy_two_seeded_runs_pick_identical_forward_sets(self):
        graph, _ = build_graph(n=48, hc=4, seed=21)
        policy = random_policy(fanout=2)
        picks_a = [policy(graph, f"g{i}", f"m{i}", random.Random(99)) for i in range(48)]
        picks_b = [policy(graph, f"g{i}", f"m{i}", random.Random(99)) for i in range(48)]
        assert picks_a == picks_b

    def test_random_policy_guaranteed_cycle_always_included(self):
        graph, _ = build_graph(n=32, hc=3, seed=5)
        policy = random_policy(fanout=1, guaranteed_cycle=2)
        for i in range(32):
            vertex = f"g{i}"
            targets = policy(graph, vertex, "m", random.Random(i))
            pred, succ = graph.cycle_pairs(vertex)[2]
            for neighbor in {pred, succ} - {vertex}:
                assert neighbor in targets

    def test_cycles_policy_stable_hash_spreads_similar_ids(self):
        from repro.overlay.gossip import stable_message_hash

        graph, _ = build_graph(n=24, hc=6, seed=3)
        # The old sum(ord) derivation mapped permuted ids ("gm-12"/"gm-21")
        # to the same cycle; the stable hash spreads them.
        ids = [f"gm-{a}{b}" for a in "0123456789" for b in "0123456789"]
        stable_cycles = {stable_message_hash(mid) % 6 for mid in ids}
        legacy_cycles = {sum(ord(ch) for ch in mid) % 6 for mid in ids}
        assert len(stable_cycles) == 6
        # Permutations collide under the legacy hash by construction.
        assert (sum(ord(c) for c in "gm-12") == sum(ord(c) for c in "gm-21"))
        assert stable_message_hash("gm-12") != stable_message_hash("gm-21")

    def test_policy_results_refresh_after_topology_change(self):
        graph, rng = build_graph(n=16, hc=3, seed=11)
        policy = cycles_policy(1)
        before = policy(graph, "g2", "m", rng)
        victim = next(iter(set(before)))
        graph.remove(victim)
        after = policy(graph, "g2", "m", rng)
        assert victim not in after

    def test_stable_hash_is_cached_and_consistent(self):
        from repro.overlay.gossip import stable_message_hash

        assert stable_message_hash("abc") == stable_message_hash("abc")
        import hashlib
        expected = int.from_bytes(hashlib.sha256(b"abc").digest()[:8], "big")
        assert stable_message_hash("abc") == expected
