"""Health state machine + retry policy: units and Hypothesis properties.

The load-bearing property: no sequence of fault observations and
recovery-manager verbs can ever drive a :class:`HealthTracker` through an
edge outside :data:`ALLOWED_TRANSITIONS` — the state machine is closed
under its own API.  Plus the PR 3 gap regression: every transition drops
the buffer pool's entries for that disk.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.cache import attach_cache
from repro.pdm.faults import attach_faults
from repro.pdm.health import (
    ALLOWED_TRANSITIONS,
    FAILED,
    HEALTHY,
    REBUILDING,
    STATES,
    SUSPECT,
    TRANSIENT,
    HealthTracker,
    IllegalTransition,
    RetryPolicy,
    attach_health,
    detach_health,
)
from repro.pdm.machine import ParallelDiskMachine


class TestRetryPolicy:
    def test_default_reproduces_legacy_flat_budget(self):
        p = RetryPolicy()
        assert p.max_attempts == 3
        assert all(p.backoff_rounds(i) == 0 for i in range(10))
        assert RetryPolicy.flat(3) == p

    def test_attach_faults_retry_budget_sets_policy_attempts(self):
        m = ParallelDiskMachine(4, 4)
        assert m.retry_policy.max_attempts == 3
        m.retry_policy = RetryPolicy.exponential(
            base=1, factor=2, cap=8, max_attempts=2
        )
        attach_faults(m, [], retry_budget=5)
        assert m.retry_policy == RetryPolicy.exponential(
            base=1, factor=2, cap=8, max_attempts=5
        )
        fresh = ParallelDiskMachine(4, 4)
        with pytest.raises(ValueError):
            attach_faults(fresh, [], retry_budget=-1)
        assert fresh.faults is None
        assert fresh.retry_policy == RetryPolicy()

    def test_exponential_waits_grow_and_cap(self):
        p = RetryPolicy.exponential(base=1, factor=2, cap=8)
        waits = [p.backoff_rounds(i) for i in range(6)]
        assert waits == [1, 2, 4, 8, 8, 8]

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy.exponential(base=4, factor=2, cap=64, jitter_seed=7)
        q = RetryPolicy.exponential(base=4, factor=2, cap=64, jitter_seed=7)
        for i in range(8):
            w = p.backoff_rounds(i)
            assert w == q.backoff_rounds(i)  # same seed, same wait
            full = min(64, 4 * 2**i)
            assert full // 2 <= w <= full  # shaves at most half

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": -1},
            {"backoff_base": -1},
            {"backoff_factor": 0},
            {"backoff_cap": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_policy_is_immutable(self):
        with pytest.raises(AttributeError):
            RetryPolicy().max_attempts = 9


class TestTrackerUnit:
    def make(self, disks=4, suspect_after=3):
        m = ParallelDiskMachine(disks, 4)
        return m, attach_health(m, suspect_after=suspect_after)

    def test_attach_detach(self):
        m, t = self.make()
        assert m.health is t
        assert t.all_healthy()
        assert t.counts() == {s: (4 if s == HEALTHY else 0) for s in STATES}
        detach_health(m)
        assert m.health is None

    def test_transient_escalates_to_suspect_then_clears(self):
        m, t = self.make(suspect_after=2)
        t.observe_error(0, "transient", 10)
        assert t.state(0) == TRANSIENT
        t.observe_error(0, "transient", 11)
        assert t.state(0) == SUSPECT
        t.observe_ok(0, 12)
        assert t.state(0) == HEALTHY
        assert t.disks[0].consecutive_errors == 0

    def test_down_fails_from_any_live_state(self):
        for prep in ([], ["transient"], ["transient", "transient"]):
            m, t = self.make(suspect_after=2)
            for i, kind in enumerate(prep):
                t.observe_error(1, kind, i)
            t.observe_error(1, "down", 99)
            assert t.state(1) == FAILED

    def test_rebuild_cycle(self):
        m, t = self.make()
        t.observe_error(2, "down", 5)
        t.begin_rebuild(2, 6)
        assert t.state(2) == REBUILDING
        # While rebuilding, further down observations are expected noise.
        t.observe_error(2, "down", 7)
        assert t.state(2) == REBUILDING
        t.complete_rebuild(2, 8)
        assert t.state(2) == HEALTHY
        log = t.disks[2].transitions
        assert [(o, n) for _, o, n in log] == [
            (HEALTHY, FAILED),
            (FAILED, REBUILDING),
            (REBUILDING, HEALTHY),
        ]

    def test_corruption_counts_but_does_not_change_state(self):
        m, t = self.make()
        t.observe_error(0, "corruption", 1)
        assert t.state(0) == HEALTHY
        assert t.disks[0].consecutive_errors == 1

    def test_illegal_edge_raises(self):
        m, t = self.make()
        with pytest.raises(IllegalTransition):
            t.begin_rebuild(0, 1)  # healthy -> rebuilding is not an edge
        with pytest.raises(ValueError):
            t.observe_error(0, "gamma-rays", 1)

    def test_transition_invalidates_cache_entries_for_disk(self):
        # The PR 3 gap: cached blocks staged before a fault window must
        # not survive the disk's state change.
        m = ParallelDiskMachine(4, 4)
        m.write_blocks([((0, 0), [1], 8), ((1, 0), [2], 8)])
        pool = attach_cache(m, capacity_blocks=8)
        m.read_blocks([(0, 0), (1, 0)])  # stage clean entries
        assert (0, 0) in pool and (1, 0) in pool
        t = attach_health(m)
        t.observe_error(0, "transient", m.stats.total_ios)
        assert (0, 0) not in pool  # dropped on healthy -> transient
        assert (1, 0) in pool  # other disks untouched
        # The first read after the fault both heals the disk (transient
        # -> healthy) and re-stages the block; steady state re-caches.
        m.read_blocks([(0, 0)])
        assert t.state(0) == HEALTHY
        assert (0, 0) in pool

    def test_invalidate_disk_keeps_dirty_entries(self):
        # Under write-back the pool copy of a dirty block is the only
        # copy; a health transition must not throw the write away.
        m = ParallelDiskMachine(4, 4)
        pool = attach_cache(m, capacity_blocks=8)
        m.write_blocks([((0, 0), [7], 8)])  # staged dirty, not on disk
        t = attach_health(m)
        t.observe_error(0, "transient", m.stats.total_ios)
        assert (0, 0) in pool  # the authoritative copy survives
        blocks = m.read_blocks([(0, 0)])
        assert blocks[(0, 0)].payload[0] == 7


# -- the property: the tracker never takes an illegal edge -------------------

_VERBS = st.one_of(
    st.tuples(
        st.just("error"),
        st.integers(0, 3),
        st.sampled_from(["down", "transient", "corruption"]),
    ),
    st.tuples(st.just("ok"), st.integers(0, 3), st.none()),
    st.tuples(st.just("fail"), st.integers(0, 3), st.none()),
    st.tuples(st.just("begin"), st.integers(0, 3), st.none()),
    st.tuples(st.just("complete"), st.integers(0, 3), st.none()),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_VERBS, max_size=40), suspect_after=st.integers(1, 4))
def test_no_illegal_transitions_under_any_observation_sequence(
    ops, suspect_after
):
    machine = ParallelDiskMachine(4, 4)
    t = attach_health(machine, suspect_after=suspect_after)
    clock = 0
    for verb, disk, kind in ops:
        clock += 1
        if verb == "error":
            t.observe_error(disk, kind, clock)
        elif verb == "ok":
            t.observe_ok(disk, clock)
        elif verb == "fail":
            t.fail(disk, clock)
        elif verb == "begin":
            # The recovery manager only opens rebuilds on failed disks.
            if t.state(disk) == FAILED:
                t.begin_rebuild(disk, clock)
        elif verb == "complete":
            if t.state(disk) == REBUILDING:
                t.complete_rebuild(disk, clock)
    # Every recorded edge is legal, in order, with monotone clocks.
    total = 0
    for h in t.disks.values():
        prev_clock = -1
        state = HEALTHY
        for when, old, new in h.transitions:
            assert (old, new) in ALLOWED_TRANSITIONS
            assert old == state, "transition log must chain"
            assert when >= prev_clock
            state, prev_clock = new, when
        assert h.state == state, "current state matches the log's tail"
        total += len(h.transitions)
    assert t.transitions == total
    assert sum(t.counts().values()) == 4
