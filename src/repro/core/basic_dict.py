"""The Section 4.1 dictionary: deterministic load balancing over buckets.

Structure: a striped expander ``G`` with ``v = d * stripe_size`` buckets and
the Lemma 3 greedy scheme with ``k = 1`` (or ``k = d/2`` for the satellite
variant).  The bucket array is split across ``D = d`` disks according to the
stripes of ``G``:

* **lookup**: read the ``d`` buckets of ``Γ(x)`` — one block per disk, i.e.
  **one parallel I/O** (``blocks_per_bucket`` I/Os when ``B`` is too small
  for one-probe, the paper's atomic-heap regime);
* **insert**: the lookup probe already fetched all candidate loads, so the
  greedy choice is free; writing the chosen bucket(s) is one more parallel
  I/O — **2 I/Os total**, the best possible (a block must be read before it
  is written);
* **delete**: read + write back, 2 I/Os (the paper routes deletions through
  global rebuilding only to reclaim space; removing an item in place is
  already safe here).

With ``k = k_fragments > 1`` a value is split into ``k`` fragments placed by
the same greedy rule (``v = k N * slack`` buckets), and the single lookup
I/O returns all fragments — satellite bandwidth ``O(B D / log N)`` per probe
(Section 4.1 "with satellite information").
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.interface import (
    CapacityExceeded,
    DegradedLookupError,
    DegradedModeError,
    Dictionary,
    LookupResult,
    annotate_round_packing,
)
from repro.expanders.base import StripedExpander
from repro.expanders.neighborhoods import NeighborhoodMemo
from repro.expanders.random_graph import SeededRandomExpander
from repro.kernels import resolve_kernel
from repro.pdm.errors import DiskFailure
from repro.pdm.iostats import OpCost
from repro.pdm.machine import AbstractDiskMachine
from repro.pdm.spans import span
from repro.pdm.striping import StripedItemBuckets


def _split_value(value: Any, k: int) -> List[Any]:
    """Split a sliceable value into ``k`` near-equal fragments."""
    if k == 1:
        return [value]
    try:
        length = len(value)
    except TypeError:
        raise TypeError(
            f"k_fragments={k} needs sliceable values (str/bytes/list), "
            f"got {type(value).__name__}"
        ) from None
    step = -(-length // k) if length else 0
    out = []
    for t in range(k):
        out.append(value[t * step : (t + 1) * step])
    return out


def _join_fragments(fragments: Sequence[Any]) -> Any:
    """Invert :func:`_split_value`."""
    if len(fragments) == 1:
        return fragments[0]
    first = fragments[0]
    if isinstance(first, str):
        return "".join(fragments)
    if isinstance(first, bytes):
        return b"".join(fragments)
    out = list(first)
    for frag in fragments[1:]:
        out.extend(frag)
    return type(first)(out) if not isinstance(first, list) else out


#: keys at or above this value have no key-column form (the pad slot)
_COLUMN_PAD = (1 << 64) - 1


def _block_fragments(blocks, key: int) -> List[Tuple[int, Any]]:
    """``(t, fragment)`` of every item of ``key`` in ``blocks``, in block
    then slot order.

    A block that carries a key column (built by an earlier batch lookup,
    or read from a columnar frame) is searched with one 8-aligned bytes
    search before its payload is touched, and only its matching slots
    are read; any other block's payload is scanned.  A single probe never
    builds a column.
    """
    needle = key.to_bytes(8, "little") if key < _COLUMN_PAD else None
    out: List[Tuple[int, Any]] = []
    for blk in blocks:
        column = blk.key_column
        if column is None or needle is None:
            payload = blk.payload
            if payload:
                for item in payload:
                    if item[0] == key:
                        out.append((item[1], item[2]))
            continue
        i = column.find(needle)
        while i >= 0:
            if not i & 7:
                item = blk.item(i >> 3)
                out.append((item[1], item[2]))
            i = column.find(needle, i + 1)
    return out


class BasicDictionary(Dictionary):
    """Deterministic dynamic dictionary with O(1) worst-case I/Os (§4.1)."""

    def __init__(
        self,
        machine: AbstractDiskMachine,
        *,
        universe_size: int,
        capacity: int,
        degree: Optional[int] = None,
        stripe_size: Optional[int] = None,
        k_fragments: int = 1,
        bucket_capacity: Optional[int] = None,
        load_slack: float = 2.0,
        disk_offset: int = 0,
        seed: int = 0,
        graph: Optional[StripedExpander] = None,
        kernel: Any = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if universe_size <= 0:
            raise ValueError(
                f"universe size must be positive, got {universe_size}"
            )
        self.machine = machine
        self.universe_size = universe_size
        self.capacity = capacity
        self.k = k_fragments
        if graph is not None:
            degree = graph.degree
            stripe_size = graph.stripe_size
        if degree is None:
            degree = machine.num_disks - disk_offset
        if degree <= self.k:
            raise ValueError(
                f"Lemma 3 requires d > k; got d={degree}, k={self.k}"
            )
        bucket_cap = (
            machine.block_items if bucket_capacity is None else bucket_capacity
        )
        if stripe_size is None:
            # v buckets sized so the average load k*N/v is at most
            # bucket_cap / load_slack, leaving Lemma 3's additive log term
            # as headroom before a bucket overflows its block(s).
            target_v = max(
                degree, math.ceil(load_slack * self.k * capacity / bucket_cap)
            )
            stripe_size = max(1, -(-target_v // degree))
        if graph is None:
            graph = SeededRandomExpander(
                left_size=universe_size,
                degree=degree,
                stripe_size=stripe_size,
                seed=seed,
            )
        self.graph = graph
        # Hot-path neighborhood evaluation, memoized into internal memory
        # (the model grants M words; repeated Γ(key) evaluations are free).
        self._neighborhoods = NeighborhoodMemo(graph, memory=machine.memory)
        #: batch kernel for the vectorized fast path (``None`` after
        #: ``kernel="off"`` — scalar everywhere); the kernel path never
        #: changes an answer or a charge (the tests/kernels differential
        #: suite pins this).
        self._kernel = resolve_kernel(kernel)
        self.buckets = StripedItemBuckets(
            machine,
            stripes=degree,
            stripe_size=stripe_size,
            capacity_items=bucket_cap,
            disk_offset=disk_offset,
        )
        #: the all-pad key column of an empty bucket (see _key_column)
        self._pad_column: Optional[bytes] = None
        self.size = 0
        self._max_load_seen = 0

    # -- properties ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.graph.degree

    @property
    def num_buckets(self) -> int:
        return self.graph.right_size

    @property
    def one_probe(self) -> bool:
        """True when a lookup is a single parallel I/O (bucket = 1 block)."""
        return self.buckets.blocks_per_bucket == 1

    @property
    def max_load_seen(self) -> int:
        return self._max_load_seen

    # -- operations -------------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        self._check_key(key)
        with span(
            self.machine,
            "basic_dict.lookup",
            op="lookup",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
        ) as m:
            locs = self._neighborhoods.striped(key)
            failures: Dict[Tuple[int, int], Any] = {}
            if self.machine.faults is None and self.one_probe:
                fragments = _block_fragments(
                    self.buckets.read_neighborhood_blocks(locs), key
                )
            else:
                if self.machine.faults is None:
                    contents = self.buckets.read_buckets(locs)
                else:
                    contents, failures = self.buckets.read_buckets_degraded(
                        locs
                    )
                    if failures and m.span is not None:
                        m.annotate(degraded=True, failed_buckets=len(failures))
                fragments = [
                    (t, frag)
                    for loc in locs
                    if loc not in failures
                    for (k2, t, frag) in contents[loc]
                    if k2 == key
                ]
            if m.span is not None:
                m.annotate(found=bool(fragments))
        if failures:
            self._settle_degraded(key, fragments, failures)
        if not fragments:
            return LookupResult(False, None, m.cost)
        fragments.sort()
        value = _join_fragments([frag for _, frag in fragments])
        return LookupResult(True, value, m.cost)

    def _settle_degraded(
        self,
        key: int,
        fragments: List[Tuple[int, Any]],
        failures: Dict[Tuple[int, int], Any],
    ) -> None:
        """Decide whether a lookup that lost buckets is still sound.

        A key lives in exactly one bucket per fragment (``k`` buckets
        total), so a *complete* fragment set recovered from the surviving
        choices is a correct positive answer — the ``d``-choice fallback.
        Anything else is undecidable: the key (or a missing fragment) may
        be hiding in a failed bucket, so we fail loudly rather than report
        a possibly-wrong miss or a truncated value.
        """
        ts = sorted(t for t, _ in fragments)
        if ts == list(range(self.k)):
            return  # every fragment recovered: positive answer is sound
        raise DegradedLookupError(
            f"key {key}: {len(failures)} of {self.degree} candidate buckets "
            f"unreadable and only {len(ts)}/{self.k} fragments recovered; "
            f"membership cannot be decided",
            key=key,
            failures=failures,
            membership=True if ts else None,
        )

    def lookup_batch(self, keys: Sequence[int]) -> Tuple[Dict[int, LookupResult], OpCost]:
        """Strict batched lookup: like :meth:`batch_lookup` but an
        undecidable key (first in key order) raises instead of appearing as
        a per-key error value.  Kept for callers that prefer loud failure.
        """
        outcomes, cost = self.batch_lookup(keys)
        out: Dict[int, LookupResult] = {}
        for key, result in outcomes.items():
            if isinstance(result, Exception):
                raise result
            out[key] = result
        return out, cost

    def _annotate_packing(self, m, all_locs, store) -> None:
        annotate_round_packing(m, self.machine, store, all_locs.values())

    def batch_lookup(self, keys):
        """Answer many lookups in one round-packed probe.

        All requested buckets go to the machine as a single batch; the PDM
        prices it at the max per-disk multiplicity, so ``q`` *distinct*
        keys cost about ``q`` rounds — but repeated/overlapping keys
        deduplicate to shared blocks and cost less (a skewed read stream,
        the Section 1.2 webmail pattern, gains the most).  Per-key results
        carry the whole batch's cost; undecidable keys under faults become
        per-key :class:`DegradedLookupError` values (PR 3 semantics — the
        batch itself never fails wholesale).
        """
        keys = list(keys)
        for key in keys:
            self._check_key(key)
        kernel = self._kernel
        if (
            kernel is not None
            and self.machine.faults is None
            and self.one_probe
            and self.universe_size <= _COLUMN_PAD
        ):
            # Vectorized fast path: flat neighborhoods, kernel probe plan,
            # aligned planned read (through the buffer pool and executor
            # when attached), batch key matching over the blocks' key
            # columns.  Bit-identical charges, answers and cache effects
            # (differential suite); excluded under a fault injector
            # (degraded reads settle per key), for buckets spanning
            # several blocks (the plan covers single-block buckets), and
            # when keys might not fit the columns' 64-bit lanes (padded
            # with 2**64 - 1).
            return self._batch_lookup_kernel(keys, kernel)
        with span(
            self.machine,
            "basic_dict.batch_lookup",
            op="batch_lookup",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
            batch_size=len(keys),
        ) as m:
            # Under faults (or any other exclusion) the reads stay on the
            # scalar path, but the neighborhoods still batch: same values,
            # same memo effects, one kernel evaluation for the misses.
            all_locs = self._neighborhoods.batch_striped(
                list(dict.fromkeys(keys)), kernel=kernel
            )
            wanted = list(
                dict.fromkeys(loc for locs in all_locs.values() for loc in locs)
            )
            if self.machine.faults is None:
                contents = self.buckets.read_buckets(wanted)
                failures: Dict[Tuple[int, int], Any] = {}
            else:
                contents, failures = self.buckets.read_buckets_degraded(wanted)
                if failures and m.span is not None:
                    m.annotate(degraded=True, failed_buckets=len(failures))
            if m.span is not None:
                m.annotate(distinct_keys=len(all_locs), buckets_read=len(wanted))
            self._annotate_packing(m, all_locs, self.buckets)
        out: Dict[int, Any] = {}
        for key, locs in all_locs.items():
            fragments = [
                (t, frag)
                for loc in locs
                if loc not in failures
                for (k2, t, frag) in contents[loc]
                if k2 == key
            ]
            if failures and any(loc in failures for loc in locs):
                try:
                    # Same soundness rule as the single-key path, applied
                    # per key: a complete fragment set from the surviving
                    # choices stays a sound positive answer.
                    self._settle_degraded(
                        key,
                        fragments,
                        {l: failures[l] for l in locs if l in failures},
                    )
                except DegradedLookupError as exc:
                    out[key] = exc
                    continue
            if fragments:
                fragments.sort()
                value = _join_fragments([f for _, f in fragments])
                out[key] = LookupResult(True, value, m.cost)
            else:
                out[key] = LookupResult(False, None, m.cost)
        return out, m.cost

    def _batch_lookup_kernel(self, keys, kernel):
        """The vectorized :meth:`batch_lookup` body (healthy, one-probe).
        Stage by stage, with its scalar equivalent:

        1. flat neighborhoods (``NeighborhoodMemo.batch_local_indices`` ==
           per-key ``striped()``, including memo charges and counters);
        2. kernel probe plan (``plan_unique_probe`` == the per-loc
           ``dict.fromkeys`` dedup + ``_batch_rounds`` per-disk tally);
        3. one aligned planned read (``read_planned_blocks`` == the
           ``read_blocks`` call of the scalar path: same rounds,
           blocks_read and buffer-pool hits, fills and LRU order);
        4. batch key matching of each key against its own candidate
           blocks' key columns (``match_candidates`` == the per-key
           fragment scan), then reading only the matched slots.  A block
           without a column of this bucket width — never batch-read, or
           read from a frame padded to a different width — gets one here
           (:meth:`~repro.kernels.base.Kernel.store_column`) and keeps it
           until its payload is replaced.
        """
        machine = self.machine
        buckets = self.buckets
        d = self.graph.degree
        backend = kernel.name
        with span(
            machine,
            "basic_dict.batch_lookup",
            op="batch_lookup",
            structure="basic_dict",
            blocks_per_bucket=buckets.blocks_per_bucket,
            batch_size=len(keys),
        ) as m:
            distinct = list(dict.fromkeys(keys))
            # The kernel stages surface as their own latency layer
            # ("kernel" in repro.obs).
            with span(machine, "kernel.neighborhoods", backend=backend):
                flat = self._neighborhoods.batch_local_indices(
                    distinct, kernel=kernel
                )
            with span(machine, "kernel.plan", backend=backend):
                unique, max_per_disk, inverse = buckets.probe_plan(
                    flat, kernel
                )
            rounds = machine.rounds_for_counts(len(unique), max_per_disk)
            blocks = machine.read_planned_blocks(unique, rounds)
            with span(machine, "kernel.match", backend=backend):
                width = buckets.capacity_items
                size = 8 * width
                columns = [blk.key_column for blk in blocks]
                if None in columns or set(map(len, columns)) != {size}:
                    columns = [
                        column
                        if column is not None and len(column) == size
                        else self._key_column(blk, kernel)
                        for blk, column in zip(blocks, columns)
                    ]
                matches = kernel.match_candidates(
                    kernel.new_column_store(columns, width), inverse, distinct
                )
            per_key: List[Optional[List[Tuple[int, Any]]]] = (
                [None] * len(distinct)
            )
            for qi, ci, slot in matches:
                item = blocks[ci].item(slot)
                frags = per_key[qi]
                if frags is None:
                    per_key[qi] = frags = []
                frags.append((item[1], item[2]))
            if m.span is not None:
                m.annotate(
                    distinct_keys=len(distinct), buckets_read=len(unique)
                )
                annotate_round_packing(
                    m,
                    machine,
                    buckets,
                    [
                        tuple(enumerate(flat[i * d : (i + 1) * d]))
                        for i in range(len(distinct))
                    ],
                )
        out: Dict[int, Any] = {}
        cost = m.cost
        for qi, key in enumerate(distinct):
            frags = per_key[qi]
            if frags:
                frags.sort()
                out[key] = LookupResult(
                    True, _join_fragments([f for _, f in frags]), cost
                )
            else:
                out[key] = LookupResult(False, None, cost)
        return out, cost

    def _key_column(self, blk, kernel) -> bytes:
        """Build ``blk``'s key column and keep it on the block.

        A block with no payload gets the all-pad column, kept on the
        dictionary instead: the machine hands out one shared block for
        every never-written address, whatever structure (and bucket
        width) reads it.
        """
        width = self.buckets.capacity_items
        if blk.payload is None:
            column = self._pad_column
            if column is None:
                column = self._pad_column = kernel.store_column(None, width)
            return column
        column = blk.key_column = kernel.store_column(blk.payload, width)
        return column

    def batch_insert(self, items):
        """Upsert many keys with one batched read and one batched write.

        The candidate buckets of every key are fetched as a single
        round-packed batch, the greedy ``d``-choice placements are computed
        in arrival order against the staged in-memory contents (so earlier
        keys' placements shape later keys' loads, exactly as if the inserts
        ran sequentially), and every dirty bucket is written back in one
        batch.  Per-key outcomes are ``(was_present, old_value)`` or a
        typed error: keys with an unreadable candidate bucket refuse their
        mutation upfront (:class:`DegradedModeError`), keys that would
        overflow the structure or a bucket get :class:`CapacityExceeded`,
        and neither poisons the rest of the batch.
        """
        items = dict(items)
        for key in items:
            self._check_key(key)
        with span(
            self.machine,
            "basic_dict.batch_insert",
            op="batch_insert",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
            batch_size=len(items),
        ) as m:
            all_locs = self._neighborhoods.batch_striped(
                list(items), kernel=self._kernel
            )
            wanted = list(
                dict.fromkeys(loc for locs in all_locs.values() for loc in locs)
            )
            if self.machine.faults is None:
                contents = self.buckets.read_buckets(wanted)
                failures: Dict[Tuple[int, int], Any] = {}
            else:
                contents, failures = self.buckets.read_buckets_degraded(wanted)
                if failures and m.span is not None:
                    m.annotate(degraded=True, failed_buckets=len(failures))
            self._annotate_packing(m, all_locs, self.buckets)

            out: Dict[int, Any] = {}
            staged = dict(contents)
            dirty: Dict[Tuple[int, int], List[Any]] = {}
            new_keys = 0
            for key, value in items.items():
                locs = all_locs[key]
                lost = {l: failures[l] for l in locs if l in failures}
                if lost:
                    out[key] = DegradedModeError(
                        f"upsert of key {key}: {len(lost)} of {self.degree} "
                        f"candidate buckets unreadable; refusing a placement "
                        f"that could duplicate the key",
                        key=key,
                        op="upsert",
                        failures=lost,
                    )
                    continue
                trial = {loc: list(staged[loc]) for loc in locs}
                old_fragments: List[Tuple[int, Any]] = []
                for loc in locs:
                    kept = [it for it in trial[loc] if it[0] != key]
                    if len(kept) != len(trial[loc]):
                        old_fragments.extend(
                            (t, frag)
                            for (k2, t, frag) in trial[loc]
                            if k2 == key
                        )
                        trial[loc] = kept
                was_present = bool(old_fragments)
                if not was_present and self.size + new_keys >= self.capacity:
                    out[key] = CapacityExceeded(
                        f"dictionary at capacity N={self.capacity}"
                    )
                    continue
                fragments = _split_value(value, self.k)
                loads = {loc: len(trial[loc]) for loc in locs}
                overflow = False
                for t, frag in enumerate(fragments):
                    target = min(locs, key=lambda loc: (loads[loc], loc))
                    trial[target].append((key, t, frag))
                    loads[target] += 1
                    if loads[target] > self.buckets.capacity_items:
                        overflow = True
                        break
                if overflow:
                    out[key] = CapacityExceeded(
                        f"bucket overflow placing key {key}; the "
                        f"load-balancing guarantee needs a larger bucket "
                        f"array (stripe_size) or larger blocks"
                    )
                    continue
                for loc in locs:
                    if trial[loc] != staged[loc]:
                        staged[loc] = trial[loc]
                        dirty[loc] = trial[loc]
                    if len(staged[loc]) > self._max_load_seen:
                        self._max_load_seen = len(staged[loc])
                if was_present:
                    old_fragments.sort()
                    out[key] = (
                        True,
                        _join_fragments([f for _, f in old_fragments]),
                    )
                else:
                    new_keys += 1
                    out[key] = (False, None)
            if dirty:
                try:
                    self.buckets.write_buckets(dirty)
                except DiskFailure as exc:
                    # write_blocks is atomic — nothing was mutated.  Every
                    # key that thought it succeeded degrades, per key.
                    for key, res in list(out.items()):
                        if not isinstance(res, Exception):
                            out[key] = DegradedModeError(
                                f"upsert of key {key}: batch write failed "
                                f"({exc})",
                                key=key,
                                op="upsert",
                                failures={key: exc},
                            )
                    new_keys = 0
            self.size += new_keys
            if m.span is not None:
                m.annotate(
                    size=self.size,
                    max_load=self._max_load_seen,
                    buckets_written=len(dirty),
                )
        return out, m.cost

    def batch_delete(self, keys):
        """Delete many keys with one batched read and one batched write.

        Per-key outcomes are ``removed`` booleans; keys with unreadable
        candidate buckets refuse upfront with :class:`DegradedModeError`
        (a delete that cannot see every candidate might leave the key
        alive in a failed bucket).
        """
        keys = list(dict.fromkeys(keys))
        for key in keys:
            self._check_key(key)
        with span(
            self.machine,
            "basic_dict.batch_delete",
            op="batch_delete",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
            batch_size=len(keys),
        ) as m:
            all_locs = self._neighborhoods.batch_striped(
                keys, kernel=self._kernel
            )
            wanted = list(
                dict.fromkeys(loc for locs in all_locs.values() for loc in locs)
            )
            if self.machine.faults is None:
                contents = self.buckets.read_buckets(wanted)
                failures: Dict[Tuple[int, int], Any] = {}
            else:
                contents, failures = self.buckets.read_buckets_degraded(wanted)
                if failures and m.span is not None:
                    m.annotate(degraded=True, failed_buckets=len(failures))
            self._annotate_packing(m, all_locs, self.buckets)

            out: Dict[int, Any] = {}
            staged = dict(contents)
            dirty: Dict[Tuple[int, int], List[Any]] = {}
            removed_keys = 0
            for key in keys:
                locs = all_locs[key]
                lost = {l: failures[l] for l in locs if l in failures}
                if lost:
                    out[key] = DegradedModeError(
                        f"delete of key {key}: {len(lost)} of {self.degree} "
                        f"candidate buckets unreadable",
                        key=key,
                        op="delete",
                        failures=lost,
                    )
                    continue
                removed = False
                for loc in locs:
                    kept = [it for it in staged[loc] if it[0] != key]
                    if len(kept) != len(staged[loc]):
                        staged[loc] = kept
                        dirty[loc] = kept
                        removed = True
                out[key] = removed
                if removed:
                    removed_keys += 1
            if dirty:
                try:
                    self.buckets.write_buckets(dirty)
                except DiskFailure as exc:
                    for key, res in list(out.items()):
                        if res is True:
                            out[key] = DegradedModeError(
                                f"delete of key {key}: batch write failed "
                                f"({exc})",
                                key=key,
                                op="delete",
                                failures={key: exc},
                            )
                    removed_keys = 0
            self.size -= removed_keys
        return out, m.cost

    def insert(self, key: int, value: Any = None) -> OpCost:
        found, _, cost = self.upsert(key, value)
        return cost

    def upsert(self, key: int, value: Any = None) -> Tuple[bool, Any, OpCost]:
        """Insert or replace; returns ``(was_present, old_value, cost)``."""
        self._check_key(key)
        with span(
            self.machine,
            "basic_dict.upsert",
            op="upsert",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
        ) as m:
            locs = self._neighborhoods.striped(key)
            if self.machine.faults is None:
                contents = self.buckets.read_buckets(locs)
            else:
                contents, failures = self.buckets.read_buckets_degraded(locs)
                if failures:
                    # Placing into a surviving choice while the key might be
                    # hiding in a failed bucket could create a duplicate —
                    # a future silent wrong answer.  Mutations need all d
                    # candidate loads; fail before touching anything.
                    if m.span is not None:
                        m.annotate(degraded=True, failed_buckets=len(failures))
                    raise DegradedModeError(
                        f"upsert of key {key}: {len(failures)} of "
                        f"{self.degree} candidate buckets unreadable; "
                        f"refusing a placement that could duplicate the key",
                        key=key,
                        op="upsert",
                        failures=failures,
                    )

            old_fragments: List[Tuple[int, Any]] = []
            dirty: Dict[Tuple[int, int], List[Any]] = {}
            for loc in locs:
                items = contents[loc]
                kept = [it for it in items if it[0] != key]
                if len(kept) != len(items):
                    old_fragments.extend(
                        (t, frag) for (k2, t, frag) in items if k2 == key
                    )
                    contents[loc] = kept
                    dirty[loc] = kept
            was_present = bool(old_fragments)

            if not was_present and self.size >= self.capacity:
                raise CapacityExceeded(
                    f"dictionary at capacity N={self.capacity}"
                )

            # Greedy d-choice placement using the loads the probe fetched.
            fragments = _split_value(value, self.k)
            loads = {loc: len(contents[loc]) for loc in locs}
            for t, frag in enumerate(fragments):
                target = min(locs, key=lambda loc: (loads[loc], loc))
                contents[target] = contents[target] + [(key, t, frag)]
                loads[target] += 1
                dirty[target] = contents[target]
                if loads[target] > self._max_load_seen:
                    self._max_load_seen = loads[target]

            for loc, items in dirty.items():
                if len(items) > self.buckets.capacity_items:
                    raise CapacityExceeded(
                        f"bucket {loc} overflows its {self.buckets.capacity_items}"
                        f"-item capacity; the load-balancing guarantee needs a "
                        f"larger bucket array (stripe_size) or larger blocks"
                    )
            self.buckets.write_buckets(dirty)
            if m.span is not None:
                # Telemetry for the Lemma 3 bound monitor: post-operation
                # occupancy and the worst bucket load ever reached.
                m.annotate(
                    size=self.size + (0 if was_present else 1),
                    max_load=self._max_load_seen,
                    num_buckets=self.num_buckets,
                    degree=self.degree,
                    k=self.k,
                )
        if not was_present:
            self.size += 1
            old_value = None
        else:
            old_fragments.sort()
            old_value = _join_fragments([f for _, f in old_fragments])
        return was_present, old_value, m.cost

    def delete(self, key: int) -> OpCost:
        self._check_key(key)
        with span(
            self.machine,
            "basic_dict.delete",
            op="delete",
            structure="basic_dict",
            blocks_per_bucket=self.buckets.blocks_per_bucket,
        ) as m:
            locs = self._neighborhoods.striped(key)
            if self.machine.faults is None:
                contents = self.buckets.read_buckets(locs)
            else:
                contents, failures = self.buckets.read_buckets_degraded(locs)
                if failures:
                    # A delete that cannot see every candidate bucket might
                    # leave the key alive in a failed one; refuse up front
                    # (no partial mutation has happened yet).
                    if m.span is not None:
                        m.annotate(degraded=True, failed_buckets=len(failures))
                    raise DegradedModeError(
                        f"delete of key {key}: {len(failures)} of "
                        f"{self.degree} candidate buckets unreadable",
                        key=key,
                        op="delete",
                        failures=failures,
                    )
            dirty = {}
            removed = False
            for loc in locs:
                items = contents[loc]
                kept = [it for it in items if it[0] != key]
                if len(kept) != len(items):
                    dirty[loc] = kept
                    removed = True
            if dirty:
                self.buckets.write_buckets(dirty)
        if removed:
            self.size -= 1
        return m.cost

    # -- bulk construction -------------------------------------------------------

    def bulk_build(self, items: Dict[int, Any]) -> OpCost:
        """Load a key -> value map into an EMPTY dictionary with batched
        writes.

        Placement is the identical greedy rule run in host memory (the
        load balancer is pure combinatorics; the paper's construction
        sections likewise compute assignments before touching disk), then
        every touched bucket is written in one batch: the cost is
        ``~buckets/D`` parallel I/Os instead of ``2n`` — the bulk analogue
        of Theorem 6's "construction proportional to sorting" theme.
        """
        if self.size:
            raise ValueError("bulk_build requires an empty dictionary")
        if len(items) > self.capacity:
            raise CapacityExceeded(
                f"{len(items)} items exceed capacity N={self.capacity}"
            )
        contents: Dict[Tuple[int, int], List[Any]] = {}
        with span(
            self.machine,
            "basic_dict.bulk_build",
            op="bulk_build",
            structure="basic_dict",
            items=len(items),
        ) as m:
            for key in sorted(items):
                self._check_key(key)
                locs = self._neighborhoods.striped(key)
                fragments = _split_value(items[key], self.k)
                loads = {
                    loc: len(contents.get(loc, ())) for loc in locs
                }
                for t, frag in enumerate(fragments):
                    target = min(locs, key=lambda loc: (loads[loc], loc))
                    contents.setdefault(target, []).append((key, t, frag))
                    loads[target] += 1
                    if loads[target] > self._max_load_seen:
                        self._max_load_seen = loads[target]
            for loc, bucket in contents.items():
                if len(bucket) > self.buckets.capacity_items:
                    raise CapacityExceeded(
                        f"bucket {loc} would hold {len(bucket)} items; "
                        f"capacity is {self.buckets.capacity_items}"
                    )
            self.buckets.write_buckets(contents)
        self.size = len(items)
        return m.cost

    # -- audits --------------------------------------------------------------------

    def stored_keys(self) -> Iterator[int]:
        """All keys currently stored (audit scan; no I/O charged — rebuild
        schedulers charge real I/O through lookup/insert per migrated key)."""
        seen = set()
        for loc in self.buckets.loads():
            for (k2, _t, _frag) in self.buckets.peek(loc):
                if k2 not in seen:
                    seen.add(k2)
                    yield k2

    def recovery_extents(self):
        return self.buckets.extents()

    def current_max_load(self) -> int:
        loads = self.buckets.loads()
        return max(loads.values()) if loads else 0

    def load_histogram(self) -> Dict[int, int]:
        """Map load value -> number of buckets with that load (the
        balanced-allocation telemetry lens; audit scan, no I/O charged).
        Load 0 counts the buckets currently empty."""
        counts: Dict[int, int] = {}
        loads = self.buckets.loads()
        for load in loads.values():
            counts[load] = counts.get(load, 0) + 1
        counts[0] = self.num_buckets - len(loads)
        return {load: counts[load] for load in sorted(counts)}

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BasicDictionary(n={self.size}/{self.capacity}, d={self.degree}, "
            f"v={self.num_buckets}, k={self.k})"
        )
