"""Differential executor equivalence (the Issue 9 headline invariant).

Round planning and charging live entirely above the executor seam, so
every backend — the in-memory simulator and the real-file executor, in
both its thread-per-disk and its sequential (``workers=1``) mode — must
produce *bit-identical* deterministic outputs for the same operation
sequence: results, ``IOStats``, trace footprints (the recorded
``RoundPlan`` witness of every batch), healthy and under fault plans.
These tests drive the same seeded workload through all three and compare
everything; the threading smoke at the bottom hammers one file-backed
dictionary from eight concurrent readers.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic_dict import BasicDictionary
from repro.core.facade import ParallelDiskDictionary
from repro.fs.blockfile import ItemLanes
from repro.faults import FaultPlan
from repro.kernels import resolve_kernel
from repro.pdm import (
    ParallelDiskHeadMachine,
    ParallelDiskMachine,
    attach_faults,
    create_executor,
)
from repro.pdm.block import FrameBlock
from repro.pdm.errors import IOFault
from repro.pdm.trace import attach

#: ``file-seq`` is the file executor serving every disk from one lane
EXECUTORS = ("simulated", "file", "file-seq")

D = 4
B = 8
BLOCKS_PER_DISK = 6


def _make_executor(name, tmp_path, tag):
    if name == "simulated":
        return None
    directory = str(tmp_path / f"{name}-{tag}")
    if name == "file-seq":
        return create_executor("file", directory=directory, workers=1)
    return create_executor(name, directory=directory)


def _fault_plan(seed):
    plan = FaultPlan.generate(
        seed, num_disks=D, horizon=120, corruption_rate=0.05,
        blocks_per_disk=BLOCKS_PER_DISK,
    )
    victim = seed % D
    return plan.merged(
        FaultPlan.kill_disks([victim], num_disks=D, start=20, end=40)
    )


def _drive(machine, seed, *, faults, steps=24):
    """One seeded workload; returns every deterministic observable.

    The footprint records, per step, the op kind, the served payloads and
    the *types* of the failures — exactly what a caller of the machine
    can see.  The trace events append the charged ``RoundPlan`` witness
    of every batch, and the stats snapshot seals the charged totals.
    """
    rng = random.Random(seed)
    tracer = attach(machine)
    if faults:
        attach_faults(machine, _fault_plan(seed).events, retry_budget=4)
    footprint = []
    for step in range(steps):
        roll = rng.random()
        count = rng.randint(1, 2 * D)
        addrs = list(dict.fromkeys(
            (rng.randrange(D), rng.randrange(BLOCKS_PER_DISK))
            for _ in range(count)
        ))
        if roll < 0.4:
            writes = [
                (addr, [seed, step, i], 24) for i, addr in enumerate(addrs)
            ]
            try:
                machine.write_blocks(writes)
                footprint.append(("write", len(writes)))
            except IOFault as exc:
                footprint.append(("write-fault", type(exc).__name__))
        elif roll < 0.8:
            blocks, failures, plan = machine.read_rounds_degraded(addrs)
            footprint.append((
                "read",
                sorted((a, b.payload) for a, b in blocks.items()),
                sorted((a, type(f).__name__) for a, f in failures.items()),
                plan.rounds,
            ))
        else:
            plan = machine.plan_rounds(machine._plan_requests(addrs))
            footprint.append(("plan", plan.rounds, plan.requested))
    events = [(e.kind, e.addrs, e.rounds) for e in tracer.events]
    return footprint, events, machine.stats.snapshot()


@pytest.mark.parametrize("faults", [False, True], ids=["healthy", "faulted"])
@pytest.mark.parametrize(
    "machine_cls", [ParallelDiskMachine, ParallelDiskHeadMachine]
)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_three_executors_bit_identical(
    tmp_path, machine_cls, seed, faults
):
    observed = {}
    for name in EXECUTORS:
        machine = machine_cls(
            D, B, executor=_make_executor(name, tmp_path, f"{seed}-{faults}")
        )
        try:
            observed[name] = _drive(machine, seed, faults=faults)
        finally:
            machine.close()
    assert observed["file"] == observed["simulated"]
    assert observed["file-seq"] == observed["simulated"]


@given(seed=st.integers(0, 2**32 - 1), faults=st.booleans())
@settings(max_examples=25, deadline=None)
def test_file_executor_property_parity(tmp_path_factory, seed, faults):
    """Hypothesis sweep: any seed, any fault toggle — the file backend's
    deterministic outputs match the simulator's exactly."""
    observed = {}
    for name in ("simulated", "file"):
        tmp = tmp_path_factory.mktemp("parity")
        machine = ParallelDiskMachine(
            D, B, executor=_make_executor(name, tmp, seed)
        )
        try:
            observed[name] = _drive(machine, seed, faults=faults, steps=12)
        finally:
            machine.close()
    assert observed["file"] == observed["simulated"]


@pytest.mark.parametrize("name", ["file"])
def test_facade_level_parity(tmp_path, name):
    """Same dictionary workload through the facade: identical answers and
    identical aggregated I/O accounting, across rebuild generations."""

    def run(executor=None, executor_dir=None):
        d = ParallelDiskDictionary(
            universe_size=1 << 12, capacity=64, unbounded=True, seed=5,
            executor=executor, executor_dir=executor_dir,
        )
        with d:
            for k in range(0, 300, 3):
                d.insert(k, k * 7)
            for k in range(0, 300, 7):
                d.delete(k)
            answers = [
                (k, d.lookup(k).found, d.lookup(k).value)
                for k in range(0, 300, 2)
            ]
            stats = d.io_stats()
        return answers, (
            stats.read_ios, stats.write_ios,
            stats.blocks_read, stats.blocks_written,
        )

    baseline = run()
    assert run(executor=name, executor_dir=str(tmp_path / name)) == baseline


def test_removed_backends_are_rejected(tmp_path):
    """The process executor and the runtime Python kernel are gone: asking
    for either by name is an error, not a silent fallback."""
    with pytest.raises(ValueError):
        create_executor("process", directory=str(tmp_path / "p"))
    with pytest.raises(ValueError):
        resolve_kernel("python")


def test_file_backed_batch_lookups_match_simulated_twin(tmp_path):
    """A long run of kernel batch lookups on the file executor.

    Every file-backed read returns fresh blocks, so every batch matches
    against the key column of every block it reads — about 700 per
    batch in this geometry, each taken from its columnar frame.  Across
    256 batches that is well past the 2 x 65,536 rows at which a shared
    per-dictionary column store used to reset in the middle of a batch
    and raise ``IndexError``.  The run must raise nothing and match its
    simulated twin answer for answer and charge for charge.
    """
    universe = 1 << 20
    rng = random.Random(12)
    items = {k: k % 1009 for k in rng.sample(range(universe), 4000)}
    present = sorted(items)

    def build(executor):
        machine = ParallelDiskMachine(16, 32, executor=executor)
        d = BasicDictionary(
            machine, universe_size=universe, capacity=20_000, degree=16,
            seed=6,
        )
        d.bulk_build(items)
        return machine, d

    twins = [
        build(None),
        build(create_executor("file", directory=str(tmp_path / "file"))),
    ]
    try:
        for batch in range(256):
            keys = rng.sample(present, 32) + [
                rng.randrange(universe) for _ in range(32)
            ]
            answers = []
            for _, d in twins:
                outcomes, cost = d.batch_lookup(keys)
                answers.append((
                    {k: (r.found, r.value) for k, r in outcomes.items()},
                    cost,
                ))
            assert answers[0] == answers[1], f"batch {batch}"
        stats = [
            (s.read_ios, s.write_ios, s.blocks_read, s.blocks_written)
            for s in (m.stats for m, _ in twins)
        ]
        assert stats[0] == stats[1]
    finally:
        for machine, _ in twins:
            machine.close()


class TestColumnarFrameBlocks:
    """Integer bucket payloads reach the file executor's reads as columnar
    frames: the block carries the frame's key lane as its key column and
    decodes its items only when something reads them."""

    UNIVERSE = 1 << 20

    def _twins(self, tmp_path):
        rng = random.Random(21)
        items = {
            k: rng.randrange(1 << 64)
            for k in rng.sample(range(self.UNIVERSE), 600)
        }
        twins = []
        for executor in (
            None, create_executor("file", directory=str(tmp_path / "f"))
        ):
            machine = ParallelDiskMachine(8, 16, executor=executor)
            d = BasicDictionary(
                machine, universe_size=self.UNIVERSE, capacity=1200,
                degree=8, seed=3,
            )
            d.bulk_build(items)
            twins.append((machine, d))
        return twins, items

    def _bucket_addrs(self, d):
        return [
            addr
            for stripe in range(d.buckets.stripes)
            for index in range(d.buckets.stripe_size)
            for addr in d.buckets.block_addrs([(stripe, index)])
        ]

    def test_key_column_is_store_column_of_payload(self, tmp_path):
        twins, _ = self._twins(tmp_path)
        try:
            (sim, d), (filed, _) = twins
            addrs = self._bucket_addrs(d)
            expected = sim.read_blocks(addrs)
            got = filed.read_blocks(addrs)
            kernel = resolve_kernel(None)
            width = filed.block_items
            framed = 0
            for addr in addrs:
                blk = got[addr]
                column = blk.key_column
                if isinstance(blk, FrameBlock):
                    framed += 1
                    assert column == kernel.store_column(blk.payload, width)
                else:  # an empty bucket: a never-written or pickled frame
                    assert not blk.payload
                payload = expected[addr].payload
                assert blk.payload == payload
                assert [type(x) for it in blk.payload or () for x in it] == [
                    type(x) for it in payload or () for x in it
                ]
            assert framed > len(addrs) // 2
            assert sim.stats.snapshot() == filed.stats.snapshot()
        finally:
            for machine, _ in twins:
                machine.close()

    def test_lookup_decodes_only_blocks_holding_the_key(
        self, tmp_path, monkeypatch
    ):
        twins, items = self._twins(tmp_path)
        decoded = []
        real_items = ItemLanes.items

        def counting_items(lanes):
            decoded.append(lanes)
            return real_items(lanes)

        monkeypatch.setattr(ItemLanes, "items", counting_items)
        try:
            (sim, d_sim), (filed, d_file) = twins
            keys = sorted(items)[:40] + [k + 1 for k in sorted(items)[:40]]
            for key in keys:
                a, b = d_sim.lookup(key), d_file.lookup(key)
                assert (a.found, a.value, a.cost) == (b.found, b.value, b.cost)
            assert decoded == []  # hits read single slots, misses nothing
            answers = []
            for d in (d_sim, d_file):
                outcomes, cost = d.batch_lookup(keys)
                answers.append(
                    ({k: r.value for k, r in outcomes.items()}, cost)
                )
            assert decoded == []
            assert answers[0] == answers[1]
            assert answers[1][0] == {k: items.get(k) for k in keys}
            assert sim.stats.snapshot() == filed.stats.snapshot()
        finally:
            for machine, _ in twins:
                machine.close()


class TestFileExecutorThreadingSmoke:
    """Eight concurrent readers over one file-backed dictionary: per-disk
    logs are served by stateless ``pread`` calls, so parallel lookups must
    neither crash nor return wrong answers."""

    THREADS = 8
    ROUNDS = 3

    def test_concurrent_readers(self, tmp_path):
        d = ParallelDiskDictionary(
            universe_size=1 << 14, capacity=256, seed=11,
            executor="file", executor_dir=str(tmp_path / "smoke"),
        )
        with d:
            rng = random.Random(11)
            live = sorted(rng.sample(range(1 << 14), 200))
            absent = [k for k in range(1 << 14) if k not in set(live)][:200]
            for k in live:
                d.insert(k, k ^ 0x5A5A)

            errors = []
            barrier = threading.Barrier(self.THREADS)

            def reader(worker):
                try:
                    barrier.wait(timeout=60)
                    for _ in range(self.ROUNDS):
                        for k in live[worker::self.THREADS]:
                            res = d.lookup(k)
                            if not res.found or res.value != (k ^ 0x5A5A):
                                errors.append((worker, k, "wrong hit"))
                        for k in absent[worker::self.THREADS]:
                            if d.lookup(k).found:
                                errors.append((worker, k, "phantom"))
                except Exception as exc:  # pragma: no cover - smoke guard
                    errors.append((worker, None, repr(exc)))

            threads = [
                threading.Thread(target=reader, args=(w,), daemon=True)
                for w in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "reader hung"
            assert errors == []
