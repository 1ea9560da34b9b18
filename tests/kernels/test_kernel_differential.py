"""Differential suite: kernel backends change the clock, never the run.

Two copies of the same dictionary — ``kernel="off"`` (the scalar batch
path) and the default numpy kernel path — replay identical workloads on
identical machines.  Everything observable must agree: per-key batch
outcomes, the charged :class:`~repro.pdm.iostats.IOStats`, the per-batch
``OpCost``, and the round-packing witnesses recorded on the batch spans.
The comparison runs healthy, under a ``kill_disks`` fault plan, with a
memory budget tiny enough to freeze the neighborhood memo, with a buffer
pool attached (where the pool's ``CacheStats`` and final LRU order must
agree too), on the file executor, and across mutation (a block's key
column must never outlive its payload).  Single-key lookups are held to
the same standard: searching a block's key column answers and charges
exactly like scanning its payload.
"""

from __future__ import annotations

import random

import pytest

from repro.core.basic_dict import BasicDictionary, _block_fragments
from repro.core.interface import DegradedLookupError, LookupResult
from repro.faults.plan import FaultPlan
from repro.kernels import NumpyKernel, PythonKernel, resolve_kernel
from repro.pdm import create_executor
from repro.pdm.faults import attach_faults
from repro.pdm.block import Block
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import attach_spans
from repro.workloads.access import zipf_accesses

U = 1 << 16
D = 8
B = 16
CAPACITY = 256
N_ITEMS = 96
#: buffer-pool size for the cached replays, below the 32-bucket array
POOL_BLOCKS = 12

#: the kernel paths replayed against the scalar twin (``kernel="off"``)
KERNELS = ["numpy"]


def _spec(kernel):
    """A replay's ``kernel`` name as the dictionaries' argument: the numpy
    path is their default (``None``)."""
    return None if kernel == "numpy" else kernel


def _build(
    kernel, *, memory_words=None, num_disks=D, cache_blocks=None,
    directory=None,
):
    executor = (
        None if directory is None
        else create_executor("file", directory=str(directory))
    )
    machine = ParallelDiskMachine(
        num_disks, B, memory_words=memory_words, cache_blocks=cache_blocks,
        executor=executor,
    )
    d = BasicDictionary(
        machine,
        universe_size=U,
        capacity=CAPACITY,
        degree=num_disks,
        seed=11,
        kernel=_spec(kernel),
    )
    items = {(13 + 101 * i) % U: f"v{i}" for i in range(N_ITEMS)}
    for k, v in sorted(items.items()):
        d.upsert(k, v)
    return machine, d, items


def _probes(items, extra_misses=20):
    present = sorted(items)
    stream = zipf_accesses(present, 48, s=1.2, seed=3)
    misses = [(k + 1) % U for k in present[:extra_misses]]
    return stream + misses + present[:8]


def _outcome_fingerprint(outcomes):
    """Per-key outcomes as comparable values (results and typed errors)."""
    fp = {}
    for key, res in outcomes.items():
        if isinstance(res, LookupResult):
            fp[key] = ("ok", res.found, res.value)
        elif isinstance(res, DegradedLookupError):
            fp[key] = ("degraded", res.membership)
        else:
            fp[key] = ("error", type(res).__name__)
    return fp


def _stats_fingerprint(machine):
    s = machine.stats
    return (s.read_ios, s.write_ios, s.blocks_read, s.blocks_written)


def _run_replay(
    kernel, *, faults=None, memory_words=None, batches=3, cache_blocks=None,
    directory=None,
):
    """One full replay under a backend; returns every observable."""
    machine, d, items = _build(
        kernel, memory_words=memory_words, cache_blocks=cache_blocks,
        directory=directory,
    )
    recorder = attach_spans(machine)
    if faults is not None:
        attach_faults(
            machine,
            FaultPlan.kill_disks(faults, num_disks=machine.num_disks).events,
        )
    observed = []
    probes = _probes(items)
    for i in range(batches):
        outcomes, cost = d.batch_lookup(probes)
        observed.append(_outcome_fingerprint(outcomes))
        observed.append((cost.read_ios, cost.write_ios))
        if i == 0:  # mutate between batches: caches must not go stale
            victims = sorted(items)[:10]
            mutations = []
            for k in victims:
                try:  # deletes degrade (typed) when a bucket is unreadable
                    d.delete(k)
                    mutations.append(("del", k, "ok"))
                except Exception as exc:
                    mutations.append(("del", k, type(exc).__name__))
            for k in victims[:5]:
                try:
                    d.upsert(k, f"new{k}")
                    mutations.append(("up", k, "ok"))
                except Exception as exc:
                    mutations.append(("up", k, type(exc).__name__))
            observed.append(mutations)
    observed.append(_stats_fingerprint(machine))
    # Round-packing witnesses from the batch spans: the constructive
    # proof that vectorized planning charged the scalar schedule.
    witnesses = [
        {
            key: root.attrs[key]
            for key in (
                "rounds_batched",
                "rounds_sequential",
                "rounds_saved",
                "blocks_deduplicated",
            )
            if key in root.attrs
        }
        for root in recorder.roots
        if root.name == "basic_dict.batch_lookup"
    ]
    observed.append(witnesses)
    if machine.cache is not None:
        observed.append(machine.cache.stats.as_dict())
        observed.append(machine.cache.cached_addresses())
    machine.close()
    return observed


@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelMatchesScalar:
    def test_healthy_replay(self, kernel):
        assert _run_replay(kernel) == _run_replay("off")

    def test_under_kill_disks(self, kernel):
        faults = [0, 3]
        assert _run_replay(kernel, faults=faults) == _run_replay(
            "off", faults=faults
        )

    def test_memo_and_cache_frozen_under_tiny_memory(self, kernel):
        # A budget too small for the neighborhood memo: it freezes, and
        # the frozen path must stay identical.
        words = 512
        assert _run_replay(kernel, memory_words=words) == _run_replay(
            "off", memory_words=words
        )

    def test_with_buffer_pool(self, kernel):
        # A pool smaller than the bucket array: hits, fills, evictions
        # and write-back absorption all happen, and must happen alike.
        assert _run_replay(kernel, cache_blocks=POOL_BLOCKS) == _run_replay(
            "off", cache_blocks=POOL_BLOCKS
        )

    def test_on_file_executor(self, kernel, tmp_path):
        assert _run_replay(kernel, directory=tmp_path / "k") == _run_replay(
            "off", directory=tmp_path / "off"
        )

    def test_with_buffer_pool_on_file_executor(self, kernel, tmp_path):
        assert _run_replay(
            kernel, cache_blocks=POOL_BLOCKS, directory=tmp_path / "k"
        ) == _run_replay(
            "off", cache_blocks=POOL_BLOCKS, directory=tmp_path / "off"
        )

    def test_plan_matches_machine_charge(self, kernel):
        """``plan_unique_probe`` + ``rounds_for_counts`` equals the
        machine's own ``batch_rounds`` on the same address stream."""
        machine, d, items = _build(kernel)
        kern = resolve_kernel(_spec(kernel))
        buckets = d.buckets
        keys = sorted(items)[:40]
        flat = d._neighborhoods.batch_local_indices(keys, kernel=kern)
        unique, max_per_disk, inverse = buckets.probe_plan(flat, kern)
        assert machine.rounds_for_counts(
            len(unique), max_per_disk
        ) == machine.batch_rounds(unique)
        assert [unique[i] for i in inverse] == [
            a
            for key in keys
            for a in buckets.block_addrs(d._neighborhoods.striped(key))
        ]


def test_backends_disagreeing_would_be_caught():
    """The harness is sensitive: perturbing one observable fails."""
    a = _run_replay("off")
    b = _run_replay("off")
    assert a == b
    b[-1][0]["rounds_batched"] += 1
    assert a != b


# -- single-key lookups: key column vs payload scan ---------------------------

#: the largest key a block's key column holds (2**64 - 1 is its pad)
TOP_KEY = (1 << 64) - 2


def _lookup_fingerprint(d, keys):
    out = []
    for key in keys:
        res = d.lookup(key)
        out.append((key, res.found, res.value, res.cost.read_ios))
    return out


def _column_blocks(machine):
    return sum(
        1
        for disk in machine.disks
        for blk in disk._blocks.values()
        if blk.key_column is not None
    )


@pytest.mark.parametrize("k_fragments", [1, 2])
@pytest.mark.parametrize("kernel", KERNELS)
def test_single_lookup_column_search_matches_payload_scan(kernel, k_fragments):
    """Twin dictionaries: in one a kernel batch lookup has given every
    probed block a key column, the other (kernel off) never builds one,
    so its lookups scan payloads.  Answers and charges must agree for
    present keys, absent keys, keys whose buckets are all empty, the
    largest key, and across mutations that replace column-carrying
    blocks."""
    universe = (1 << 64) - 1
    rng = random.Random(k_fragments)
    # Few keys in many buckets: most buckets stay empty.
    items = {rng.randrange(universe - 1): f"value-{i:04d}" for i in range(24)}
    items[TOP_KEY] = "top-value"
    twins = []
    for kern in (kernel, "off"):
        machine = ParallelDiskMachine(D, B)
        d = BasicDictionary(
            machine, universe_size=universe, capacity=4 * CAPACITY,
            degree=D, k_fragments=k_fragments, seed=5, kernel=_spec(kern),
        )
        d.bulk_build(items)
        twins.append((machine, d))
    absent = [
        k
        for k in [rng.randrange(universe - 1) for _ in range(40)] + [0, 1]
        if k not in items
    ]
    probes = sorted(items) + absent
    d = twins[0][1]
    assert any(
        not any(d.buckets.peek(loc) for loc in d._neighborhoods.striped(k))
        for k in absent
    ), "no absent key probes only empty buckets"

    for machine, d in twins:
        d.batch_lookup(probes)
    assert _column_blocks(twins[0][0]) > 0
    assert _column_blocks(twins[1][0]) == 0

    def run(d):
        observed = _lookup_fingerprint(d, probes)
        victims = sorted(items)[:6]
        for k in victims[:3]:
            d.delete(k)
        for k in victims[3:]:
            d.upsert(k, "replaced-" + str(k % 97))
        d.upsert(absent[0], "fresh-value")
        observed.append(_lookup_fingerprint(d, probes))
        return observed

    assert run(twins[0][1]) == run(twins[1][1])
    assert _stats_fingerprint(twins[0][0]) == _stats_fingerprint(twins[1][0])
    found = _lookup_fingerprint(twins[0][1], [TOP_KEY])
    assert found[0][1:3] == (True, "top-value")


@pytest.mark.parametrize(
    "kernel", [PythonKernel(), NumpyKernel()], ids=lambda k: k.name
)
def test_column_search_skips_unaligned_matches(kernel):
    """A key whose bytes straddle two column slots is not a match."""
    a = 0x1111111122222222
    b = 0x3333333344444444
    straddle = int.from_bytes(
        a.to_bytes(8, "little")[4:] + b.to_bytes(8, "little")[:4], "little"
    )
    blk = Block(1 << 12)
    blk.store([(a, 0, "x"), (b, 0, "y")], 64)
    blk.key_column = kernel.store_column(blk.payload, 4)
    assert _block_fragments([blk], straddle) == []
    assert _block_fragments([blk], b) == [(0, "y")]


# -- columnar frames: file-backed blocks vs in-memory ones ---------------------

#: replay options for the columnar-frame comparison: sealed blocks verified
#: on every read, a buffer pool, and buckets narrower than a block (the
#: frame's key lane is padded to the block width, so it cannot serve them)
COLUMNAR_CASES = {
    "plain": {},
    "checksums": {"checksums": True},
    "pool": {"cache_blocks": POOL_BLOCKS},
    "narrow-buckets": {"bucket_capacity": B // 2},
}


def _columnar_replay(
    kernel, directory, *, checksums=False, cache_blocks=None,
    bucket_capacity=None, batched=True,
):
    """Integer-valued buckets (written as columnar frames on the file
    executor): three passes of lookups around a mutation — each pass a
    batch lookup (``batched``) and single-key lookups — returning every
    observable."""
    executor = (
        None if directory is None
        else create_executor("file", directory=str(directory))
    )
    machine = ParallelDiskMachine(
        D, B, cache_blocks=cache_blocks, executor=executor
    )
    machine.checksums = checksums
    d = BasicDictionary(
        machine, universe_size=U, capacity=CAPACITY, degree=D, seed=11,
        bucket_capacity=bucket_capacity, kernel=_spec(kernel),
    )
    items = {
        (13 + 101 * i) % U: (i * 0x9E3779B97F4A7C15) % (1 << 64)
        for i in range(N_ITEMS)
    }
    for k, v in sorted(items.items()):
        d.upsert(k, v)
    probes = _probes(items)
    observed = []
    for i in range(3):
        if batched:
            outcomes, cost = d.batch_lookup(probes)
            observed.append(_outcome_fingerprint(outcomes))
            observed.append((cost.read_ios, cost.write_ios))
        observed.append(_lookup_fingerprint(d, probes[::3]))
        if i == 0:
            victims = sorted(items)[:10]
            for k in victims:
                d.delete(k)
            for k in victims[:5]:
                d.upsert(k, k + 1)
    observed.append(_stats_fingerprint(machine))
    if machine.cache is not None:
        observed.append(machine.cache.stats.as_dict())
        observed.append(machine.cache.cached_addresses())
    machine.close()
    return observed


@pytest.mark.parametrize("case", sorted(COLUMNAR_CASES))
@pytest.mark.parametrize("kernel", KERNELS)
def test_columnar_frames_match_simulated(kernel, case, tmp_path):
    """File-backed blocks carry their frame's key column and decode
    lazily; answers, charged rounds and ``CacheStats`` must not notice."""
    options = COLUMNAR_CASES[case]
    on_file = _columnar_replay(kernel, tmp_path / "file", **options)
    assert on_file == _columnar_replay(kernel, None, **options)
    assert on_file == _columnar_replay("off", None, **options)


@pytest.mark.parametrize("case", sorted(COLUMNAR_CASES))
def test_columnar_single_lookups_match_simulated(case, tmp_path):
    """Single-key lookups only: the file executor's blocks are searched
    through their frame-borne columns, the simulated twin's (never
    batch-read, so without columns) by scanning payloads."""
    options = dict(COLUMNAR_CASES[case], batched=False)
    assert _columnar_replay(
        "numpy", tmp_path / "file", **options
    ) == _columnar_replay("numpy", None, **options)
