"""GENERATED metric-name registry — do not edit by hand.

Regenerate with ``python -m repro.lint --gen-metrics`` after adding or
removing a metric; ``python -m repro.lint --check`` fails while this file
and the code disagree.  Maps every counter/histogram/series name literal
used anywhere in ``src/repro`` to its kind, the modules that use it, and
whether it surfaces as a ``FAULT_MATRIX.json`` row column.
"""

METRICS = {
    'ae.hints_sent': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.reproposals': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/group/antientropy.py'),
        "matrix_column": True,
    },
    'ae.requests_sent': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py', 'repro/group/antientropy.py'),
        "matrix_column": True,
    },
    'ae.retry_storm': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/group/antientropy.py'),
        "matrix_column": True,
    },
    'ae.shares_resent': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/group/antientropy.py'),
        "matrix_column": True,
    },
    'ae.store_gc_dropped': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/group/antientropy.py'),
        "matrix_column": True,
    },
    'ae.summaries_sent': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/group/antientropy.py'),
        "matrix_column": True,
    },
    'ae.summary_window_truncated': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ashare.get_latency': {
        "kind": 'histogram',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.get_latency_per_mb': {
        "kind": 'histogram',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.get_missing': {
        "kind": 'counter',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.get_no_replica': {
        "kind": 'counter',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.replications_started': {
        "kind": 'counter',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.snapshot_rejected': {
        "kind": 'counter',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.snapshots_restored': {
        "kind": 'counter',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'astream.invalid_chunks': {
        "kind": 'counter',
        "modules": ('repro/apps/astream.py',),
        "matrix_column": False,
    },
    'astream.pulls': {
        "kind": 'counter',
        "modules": ('repro/apps/astream.py',),
        "matrix_column": False,
    },
    'astream.snapshot_rejected': {
        "kind": 'counter',
        "modules": ('repro/apps/astream.py',),
        "matrix_column": False,
    },
    'astream.snapshots_restored': {
        "kind": 'counter',
        "modules": ('repro/apps/astream.py',),
        "matrix_column": False,
    },
    'astream.tier2_latency': {
        "kind": 'histogram',
        "modules": ('repro/apps/astream.py',),
        "matrix_column": False,
    },
    'atum.broadcast_reproposals': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.broadcasts_started': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.deliveries': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.delivery_latency': {
        "kind": 'histogram',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.gossip_forwards': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'churn.leave_failed': {
        "kind": 'counter',
        "modules": ('repro/workloads/churn.py',),
        "matrix_column": False,
    },
    'cluster.eviction_duplicate_suppressed': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py',),
        "matrix_column": False,
    },
    'cluster.eviction_leave_failed': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py',),
        "matrix_column": False,
    },
    'directory.evictions_deferred': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/overlay/directory.py'),
        "matrix_column": True,
    },
    'directory.join_revalidations_revoked': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'directory.joins_recorded': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/overlay/directory.py'),
        "matrix_column": True,
    },
    'directory.merge_eviction_failed': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py',),
        "matrix_column": False,
    },
    'directory.merge_evictions_enforced': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'directory.merges': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/overlay/directory.py'),
        "matrix_column": True,
    },
    'directory.splits': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/overlay/directory.py'),
        "matrix_column": True,
    },
    'faults.evictions_proposed_by_byzantine': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.flash_join_failed': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'faults.messages_corrupted': {
        "kind": 'counter',
        "modules": ('repro/faults/injector.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.messages_delayed': {
        "kind": 'counter',
        "modules": ('repro/faults/injector.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.messages_dropped': {
        "kind": 'counter',
        "modules": ('repro/faults/injector.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.messages_duplicated': {
        "kind": 'counter',
        "modules": ('repro/faults/injector.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.partitions_formed': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.partitions_healed': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.plan_leave_skipped': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'faults.rejoin_group_fraction': {
        "kind": 'histogram',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.rejoin_join_failed': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.rejoin_joins': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.rejoin_leave_failed': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.rejoin_leaves': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.rejoin_threshold_excess': {
        "kind": 'histogram',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.transfer_garbage_served': {
        "kind": 'counter',
        "modules": ('repro/core/node.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.transfer_slow_dripped': {
        "kind": 'counter',
        "modules": ('repro/core/node.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.transfer_stale_served': {
        "kind": 'counter',
        "modules": ('repro/core/node.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.transfer_stonewalled': {
        "kind": 'counter',
        "modules": ('repro/core/node.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'group.corrupted_shares_dropped': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'group.equivocations_sent': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'group.evictions_proposed': {
        "kind": 'counter',
        "modules": ('repro/group/heartbeat.py',),
        "matrix_column": False,
    },
    'group.forged_size_rejected': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'group.mismatched_payloads_dropped': {
        "kind": 'counter',
        "modules": ('repro/group/messages.py',),
        "matrix_column": False,
    },
    'invariants.check_errors': {
        "kind": 'counter',
        "modules": ('repro/faults/invariants.py',),
        "matrix_column": False,
    },
    'membership.evictions_started': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'membership.exchanges_attempted': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py', 'repro/workloads/growth.py'),
        "matrix_column": False,
    },
    'membership.exchanges_completed': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py', 'repro/workloads/growth.py'),
        "matrix_column": False,
    },
    'membership.exchanges_suppressed': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.group_count': {
        "kind": 'series',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.join_latency': {
        "kind": 'histogram',
        "modules": ('repro/workloads/churn.py',),
        "matrix_column": False,
    },
    'membership.joins_completed': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/workloads/churn.py'),
        "matrix_column": True,
    },
    'membership.joins_started': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.leaves_completed': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/workloads/churn.py'),
        "matrix_column": True,
    },
    'membership.merges': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.slowdown_penalty': {
        "kind": 'histogram',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'membership.splits': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.system_size': {
        "kind": 'series',
        "modules": ('repro/overlay/membership.py', 'repro/workloads/growth.py'),
        "matrix_column": False,
    },
    'membership.walks_started': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'mw.delivers': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.evictions': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.nodes_added': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.nodes_left': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.sends': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.timer_ticks': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.view_changes': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'net.bytes_sent': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.corrupted_discarded': {
        "kind": 'counter',
        "modules": ('repro/core/node.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'net.delivery_latency': {
        "kind": 'histogram',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.messages_delivered': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.messages_lost': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/net/network.py'),
        "matrix_column": True,
    },
    'net.messages_partitioned': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/net/network.py'),
        "matrix_column": True,
    },
    'net.messages_sent': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.messages_undeliverable': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'perf.latency': {
        "kind": 'histogram',
        "modules": ('repro/sim/perf.py',),
        "matrix_column": False,
    },
    'policy.antientropy_period': {
        "kind": 'histogram',
        "modules": ('repro/core/policies.py',),
        "matrix_column": False,
    },
    'policy.gmax': {
        "kind": 'histogram',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'policy.gmin': {
        "kind": 'histogram',
        "modules": ('repro/core/policies.py',),
        "matrix_column": False,
    },
    'policy.gossip_fanout': {
        "kind": 'histogram',
        "modules": ('repro/core/policies.py',),
        "matrix_column": False,
    },
    'policy.heartbeat_period': {
        "kind": 'histogram',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'policy.proposals': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'policy.rejected_bounds': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'policy.rejected_coupling': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'policy.rejected_immutable': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py',),
        "matrix_column": False,
    },
    'policy.rejected_oscillation': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'policy.rejected_rate': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'policy.rejected_step': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'policy.transition_step': {
        "kind": 'histogram',
        "modules": ('repro/core/policies.py',),
        "matrix_column": False,
    },
    'policy.transitions': {
        "kind": 'counter',
        "modules": ('repro/core/policies.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'req.completed': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/net/requests.py'),
        "matrix_column": True,
    },
    'req.deduplicated': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.garbage_replies': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'req.gave_up': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/net/requests.py'),
        "matrix_column": True,
    },
    'req.quarantine_released': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.quarantine_threshold': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py', 'repro/net/requests.py'),
        "matrix_column": True,
    },
    'req.quarantined': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/net/requests.py'),
        "matrix_column": True,
    },
    'req.rejected_expired': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_malformed': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/group/antientropy.py', 'repro/net/requests.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'req.rejected_misaddressed': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_replayed': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_unknown': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_unsolicited': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.resolved_externally': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.sent': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/net/requests.py'),
        "matrix_column": True,
    },
    'req.stale_replies': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'req.timeouts': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/net/requests.py'),
        "matrix_column": True,
    },
    'scenario.catchup_latency': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'scenario.completion_ratio': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'scenario.delivery_fraction': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'scenario.policy_bound_met': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'scenario.policy_transitions': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'scenario.quarantine_threshold': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'scenario.rejoin_max_excess': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'scenario.rejoin_max_fraction': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'scenario.slowdown_penalty': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": True,
    },
    'smr.checkpoint.anchors_adopted': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.announces': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.catchup_latency': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.emitted': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.epoch_transitions': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.gap_hints': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.gaps_detected': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.ops_installed': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.rejected': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.slots_gc': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/pbft.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.stable': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.state_requests': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.state_responses': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.tail_view_changes': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.transfers_completed': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.transition_votes': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.decided': {
        "kind": 'counter',
        "modules": ('repro/smr/base.py',),
        "matrix_column": False,
    },
    'smr.pbft.new_views': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.pre_prepares': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.view_change_revotes': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.view_changes': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/pbft.py'),
        "matrix_column": True,
    },
    'smr.sync.instances_started': {
        "kind": 'counter',
        "modules": ('repro/smr/dolev_strong.py',),
        "matrix_column": False,
    },
    'smr.sync.invalid_chain': {
        "kind": 'counter',
        "modules": ('repro/smr/dolev_strong.py',),
        "matrix_column": False,
    },
    'smr.sync.null_decisions': {
        "kind": 'counter',
        "modules": ('repro/smr/dolev_strong.py',),
        "matrix_column": False,
    },
    'smr.sync.relays': {
        "kind": 'counter',
        "modules": ('repro/smr/dolev_strong.py',),
        "matrix_column": False,
    },
}

__all__ = ["METRICS"]
