"""Per-layer self time, from wrappers the benchmark installs around each
layer's public functions.

Only the traced run installs the wrappers, and :meth:`LayerTracer.uninstall`
puts the original functions back.  Each wrapped call on the client thread
is a span: its self time is its duration minus the durations of the
wrapped calls nested in it.  The benchmark's own request is the root
span, and its self time is the explicit residual, so for every request
the self times add up exactly to the request's traced wall time
(:meth:`LayerTracer.end` checks this).

``BlockLogFile.read_block`` runs on the file executor's per-disk threads,
off the client thread.  It is not a span; its busy time is summed per
thread, each thread writing only its own counter.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.expanders.neighborhoods import NeighborhoodMemo
from repro.expanders.random_graph import SeededRandomExpander
from repro.fs.blockfile import BlockLogFile
from repro.kernels.base import PythonKernel
from repro.kernels.numpy_backend import NumpyKernel
from repro.pdm.cache import BufferPool
from repro.pdm.executors.base import SimulatedExecutor
from repro.pdm.executors.filebacked import FileExecutor
from repro.pdm.machine import AbstractDiskMachine
from repro.pdm.striping import StripedFieldArray, StripedItemBuckets

_KERNEL_FUNCS = (
    "plan_unique_probe", "store_column", "match_candidates",
    "new_column_store", "stripe_local_indices", "flat_neighbors",
    "derive_pairs", "splitmix_fill",
)

#: (layer, class, public functions) — the layers are the repository's
#: modules; a function is wrapped on the class that defines it
LAYERS = (
    ("core", BasicDictionary,
     ("lookup", "batch_lookup", "batch_insert", "batch_delete", "bulk_build")),
    ("core", DynamicDictionary,
     ("lookup", "batch_lookup", "batch_insert", "batch_delete", "bulk_load")),
    ("expanders", NeighborhoodMemo,
     ("striped", "batch_striped", "batch_local_indices")),
    ("expanders", SeededRandomExpander,
     ("striped_neighbors", "batch_striped", "batch_local_indices")),
    ("kernels", NumpyKernel, _KERNEL_FUNCS),
    ("kernels", PythonKernel, _KERNEL_FUNCS),
    ("pdm.striping", StripedItemBuckets,
     ("read_buckets", "write_buckets", "probe_plan")),
    ("pdm.striping", StripedFieldArray, ("read_fields", "write_fields")),
    ("pdm.machine", AbstractDiskMachine,
     ("read_blocks", "read_planned_blocks", "write_blocks", "flush_writes")),
    ("pdm.cache", BufferPool,
     ("contains", "get", "fill", "put", "refresh", "flush")),
    ("pdm.executors", SimulatedExecutor, ("run_read", "run_write")),
    ("pdm.executors", FileExecutor, ("run_read", "run_write")),
)

#: spans grouped for the per-call figures
STRIPING_READS = ("pdm.striping.read_buckets", "pdm.striping.read_fields")
STRIPING_WRITES = ("pdm.striping.write_buckets", "pdm.striping.write_fields")
MACHINE_READS = ("pdm.machine.read_blocks", "pdm.machine.read_planned_blocks")
MACHINE_WRITES = ("pdm.machine.write_blocks", "pdm.machine.flush_writes")


class TraceError(AssertionError):
    """The span bookkeeping does not add up."""


class LayerTracer:
    """Wrapper installer and span accounting for one traced run."""

    def __init__(self) -> None:
        #: (request kind, span name) -> [calls, self ns]
        self.table: Dict[Tuple[str, str], List[int]] = {}
        #: request kind -> [requests, requests reaching match_candidates,
        #: buffer-pool evictions]
        self.requests: Dict[str, List[int]] = {}
        #: the buffer pool whose evictions are attributed to requests
        self.pool = None
        self._evictions = 0
        self._stack: List[List[int]] = []  # [child ns] per open span
        self._kind = ""
        self._op_self = 0
        self._reached_match = False
        self._client = 0
        self._originals: List[Tuple[type, str, object]] = []
        self._lanes: List[List[int]] = []  # [calls, busy ns] per thread
        self._lanes_lock = threading.Lock()
        self._local = threading.local()

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._client = threading.get_ident()
        for layer, cls, funcs in LAYERS:
            for func in funcs:
                original = cls.__dict__[func]
                self._originals.append((cls, func, original))
                setattr(cls, func, self._span(f"{layer}.{func}", original))
        original = BlockLogFile.__dict__["read_block"]
        self._originals.append((BlockLogFile, "read_block", original))
        BlockLogFile.read_block = self._busy(original)

    def uninstall(self) -> None:
        for cls, func, original in reversed(self._originals):
            setattr(cls, func, original)
        self._originals.clear()

    def _span(self, name: str, original):
        tracer = self
        perf = time.perf_counter_ns
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack or get_ident() != tracer._client:
                return original(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                duration = perf() - t0
                stack.pop()
                stack[-1][0] += duration
                own = duration - frame[0]
                tracer._op_self += own
                row = tracer.table.get((tracer._kind, name))
                if row is None:
                    row = tracer.table[(tracer._kind, name)] = [0, 0]
                row[0] += 1
                row[1] += own
                if name == "kernels.match_candidates":
                    tracer._reached_match = True

        wrapper.__wrapped__ = original
        return wrapper

    def _lane(self) -> List[int]:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = [0, 0]
            with self._lanes_lock:
                self._lanes.append(counter)
        return counter

    def _busy(self, original):
        tracer = self
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counter = tracer._lane()
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                counter[1] += perf() - t0
                counter[0] += 1

        wrapper.__wrapped__ = original
        return wrapper

    # -- the root span: one benchmark request ------------------------------

    def begin(self, kind: str) -> None:
        if self._stack:
            raise TraceError(f"request {kind!r} began inside another")
        self._kind = kind
        self._op_self = 0
        self._reached_match = False
        if self.pool is not None:
            self._evictions = self.pool.stats.evictions
        self._stack.append([0])

    def end(self, duration_ns: int) -> None:
        """Close the root span whose traced wall time is ``duration_ns``."""
        if len(self._stack) != 1:
            raise TraceError(f"{len(self._stack) - 1} spans left open")
        residual = duration_ns - self._stack.pop()[0]
        row = self.table.setdefault((self._kind, "root"), [0, 0])
        row[0] += 1
        row[1] += residual
        if self._op_self + residual != duration_ns:
            raise TraceError(
                f"{self._kind}: self times {self._op_self} ns + residual "
                f"{residual} ns != traced wall time {duration_ns} ns"
            )
        counts = self.requests.setdefault(self._kind, [0, 0, 0])
        counts[0] += 1
        counts[1] += self._reached_match
        if self.pool is not None:
            counts[2] += self.pool.stats.evictions - self._evictions

    # -- readouts ------------------------------------------------------------

    def _rows(self, names, kinds):
        """Rows of spans named in ``names`` or inside a layer named there,
        for requests of the given ``kinds`` (all when ``None``)."""
        for (kind, name), row in self.table.items():
            if (kinds is None or kind in kinds) and any(
                name == n or name.startswith(n + ".") for n in names
            ):
                yield row

    def self_ns(self, names, kinds=None) -> int:
        return sum(row[1] for row in self._rows(names, kinds))

    def calls(self, names, kinds=None) -> int:
        return sum(row[0] for row in self._rows(names, kinds))

    def per_call_us(self, names) -> float:
        calls = self.calls(names)
        return self.self_ns(names) / calls / 1e3 if calls else 0.0

    def lane_busy(self) -> Tuple[int, int]:
        """``(read_block calls, busy ns)`` summed over every thread."""
        with self._lanes_lock:
            lanes = list(self._lanes)
        return sum(c[0] for c in lanes), sum(c[1] for c in lanes)
