"""The closed loop: one client thread, each request sent only after the
previous one returned, every answer checked against the oracle.

End-to-end metrics come from untraced runs.  The traced run measures the
same loop untraced and then traced, and reports the per-layer breakdown
and the tracing overhead.

How the end-to-end metrics are taken:

* every wall-clock figure is scaled to a reference host speed: a burst of
  a fixed pure-Python task (:func:`perfbench.host.speed_steps`) runs
  after each unit and around each set-up, and the times of each unit are
  multiplied by the speed measured around it over
  ``REFERENCE_STEPS_PER_S``; the raw figures are reported beside them;
* ``setup_s`` is the median of several set-ups (``SETUP_REPEATS``);
* ``keys_per_s`` divides keys answered or written by the time spent inside
  the program's calls, so the client's own request generation and answer
  checks are left out;
* throughput and the ``*_p50_us``/``*_p99_us`` latencies are medians over
  ``SLICES`` slices of the timed phase;
* the timed phase runs a fixed number of units for the workload and
  ``--seconds`` (:meth:`Workload.timed_units`), so the keys attempted and
  failed repeat exactly for a seed;
* ``ios_per_*_key`` use the charged cost each call returns (Theorem 7's
  parallel membership and level reads count once), over a fixed window of
  ``COUNT_UNITS`` units; ``space_bits_per_key`` and ``peak_rss_mb`` are
  read at the end of that window.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from array import array
from typing import Dict, List, Optional, Tuple

from perfbench.host import REFERENCE_STEPS_PER_S, speed_steps
from perfbench.inputs import Oracle, Traffic, initial_items
from perfbench.workloads import System, Workload, setup

#: an untraced run sets up at least ``SETUP_REPEATS`` times and until
#: ``SETUP_SECONDS`` of set-up time are spent (at most ``SETUP_MAX``);
#: ``setup_s`` is the median
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
SETUP_MAX = 15
#: units run before timing starts (fills memos, column stores, the pool)
WARMUP_UNITS = 100
#: the I/O and space counts cover exactly this many units after warm-up,
#: so they repeat for a seed however fast the program runs; peak memory
#: is read at the same point, because the structure's memos and column
#: store keep growing with the number of units run
COUNT_UNITS = 1000
#: the timed phase is cut into this many slices of equal unit counts;
#: throughput and latency percentiles are medians over the slices, so
#: stalls the speed bursts miss (other tenants of a shared host taking
#: the CPU) move only the slices they hit
SLICES = 10
#: a ``*_p99_us`` needs at least this many samples of its request kind;
#: the timed phase runs enough units to collect them
MIN_P99_SAMPLES = 1000
#: a timed phase that takes longer than this many times ``--seconds``
#: (a far slower program) stops early
EXTEND_LIMIT = 3
#: the host-speed burst after each unit lasts about this share of the
#: unit's time, and at least ``SPEED_MIN_STEPS`` steps
SPEED_SHARE = 0.1
SPEED_MIN_STEPS = 50
#: a unit's times are scaled by the host speed of the bursts of the
#: units at most this many places before or after it
SCALE_WINDOW = 2
#: steps in the host-speed burst before each set-up and after the last
SETUP_SPEED_STEPS = 100_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "keys_per_s": "keys/s",
    "get_p50_us": "us",
    "get_p99_us": "us",
    "mget_p50_us": "us",
    "mget_p99_us": "us",
    "mput_p50_us": "us",
    "mput_p99_us": "us",
    "ios_per_read_key": "ios/key",
    "ios_per_write_key": "ios/key",
    "space_bits_per_key": "bits/key",
    "peak_rss_mb": "MiB",
    "failed_frac": "fraction",
}


#: request kinds, each with its own latency samples
KINDS = ("get", "mget", "mput")


class WrongAnswer(Exception):
    """The program's answer disagrees with the oracle."""


class Client:
    """Sends requests to one dictionary and checks every answer.

    A call that raises counts every key it carried as failed; a per-key
    error value or a refused insert counts that key.  Failed calls are
    left out of the latency samples.  Keys a failed write may or may not
    have changed are handed to :meth:`Oracle.forget`.
    """

    def __init__(self, dictionary, oracle: Oracle) -> None:
        self.d = dictionary
        self.oracle = oracle
        self.tracer = None
        self.latency_ns: Dict[str, array] = {k: array("q") for k in KINDS}
        self.busy_ns = 0  # time spent inside the program's calls
        self.keys = 0  # keys answered or written
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}  # calls that raised, by type
        self.read_keys = 0
        self.read_ios = 0
        self.read_blocks = 0
        self.write_keys = 0
        self.write_ios = 0
        #: time and steps of the host-speed bursts between units
        self.speed_ns = 0
        self.speed_steps = 0
        #: :meth:`mark` after every unit
        self.marks: List[Tuple[int, ...]] = []

    def run_unit(self, unit) -> None:
        busy = self.busy_ns
        for request in unit:
            kind = request[0]
            if kind == "get":
                self.get(request[1])
            elif kind == "mget":
                self.mget(request[1])
            else:
                self.mput(request[1], request[2])
        self.measure_speed(self.busy_ns - busy)
        self.marks.append(self.mark())

    def measure_speed(self, unit_ns: int) -> None:
        """A host-speed burst of about ``SPEED_SHARE`` of the unit's time,
        so that every stretch of the run carries the CPU speed it ran at."""
        if self.speed_ns:
            per_ns = self.speed_steps / self.speed_ns
        else:
            per_ns = REFERENCE_STEPS_PER_S / 1e9
        count = max(SPEED_MIN_STEPS, round(SPEED_SHARE * unit_ns * per_ns))
        t0 = time.perf_counter_ns()
        speed_steps(count)
        self.speed_ns += time.perf_counter_ns() - t0
        self.speed_steps += count

    def mark(self) -> Tuple[int, ...]:
        """``(keys, busy ns, samples of each of KINDS, speed ns, speed
        steps)`` so far."""
        lat = self.latency_ns
        return (self.keys, self.busy_ns, *(len(lat[k]) for k in KINDS),
                self.speed_ns, self.speed_steps)

    # -- timing ------------------------------------------------------------

    def _begin(self, kind: str) -> int:
        if self.tracer is not None:
            self.tracer.begin(kind)
        return time.perf_counter_ns()

    def _end(self, t0: int) -> int:
        duration = time.perf_counter_ns() - t0
        if self.tracer is not None:
            self.tracer.end(duration)
        self.busy_ns += duration
        return duration

    def _raised(self, exc: Exception, keys: int) -> None:
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1
        self.attempted += keys
        self.failed += keys

    # -- requests ------------------------------------------------------------

    def get(self, key: int) -> None:
        t0 = self._begin("get")
        try:
            result = self.d.lookup(key)
        except Exception as exc:  # a failure to count, not to stop on
            self._end(t0)
            self._raised(exc, 1)
            return
        self.latency_ns["get"].append(self._end(t0))
        self.attempted += 1
        self._check_read(key, result)
        self.keys += 1
        self.read_keys += 1
        self.read_ios += result.cost.read_ios
        self.read_blocks += result.cost.blocks_read

    def mget(self, keys: List[int]) -> None:
        t0 = self._begin("mget")
        try:
            outcomes, cost = self.d.batch_lookup(keys)
        except Exception as exc:  # a failure to count, not to stop on
            self._end(t0)
            self._raised(exc, len(keys))
            return
        self.latency_ns["mget"].append(self._end(t0))
        self.attempted += len(keys)
        for key in keys:
            if key not in outcomes:
                raise WrongAnswer(f"batch_lookup left out key {key}")
            outcome = outcomes[key]
            if isinstance(outcome, Exception):
                self.failed += 1
                continue
            self._check_read(key, outcome)
            self.keys += 1
        self.read_keys += len(keys)
        self.read_ios += cost.read_ios
        self.read_blocks += cost.blocks_read

    def mput(self, deletes: List[int], inserts: Dict[int, int]) -> None:
        oracle = self.oracle
        keys = len(deletes) + len(inserts)
        t0 = self._begin("mput")
        try:
            removed, delete_cost = self.d.batch_delete(deletes)
            placed, insert_cost = self.d.batch_insert(inserts)
        except Exception as exc:  # a failure to count, not to stop on
            self._end(t0)
            self._raised(exc, keys)
            for key in [*deletes, *inserts]:
                oracle.forget(key)
            return
        self.latency_ns["mput"].append(self._end(t0))
        self.attempted += keys
        for key in deletes:
            outcome = removed.get(key)
            if isinstance(outcome, Exception):
                self.failed += 1
                oracle.forget(key)
            elif outcome is True:
                oracle.remove(key)
                self.keys += 1
            else:
                raise WrongAnswer(f"batch_delete of live key {key}: {outcome!r}")
        for key, value in inserts.items():
            outcome = placed.get(key)
            if isinstance(outcome, Exception):
                self.failed += 1
                oracle.forget(key)
            elif outcome == (False, None):
                oracle.add(key, value)
                self.keys += 1
            else:
                raise WrongAnswer(f"batch_insert of new key {key}: {outcome!r}")
        self.write_keys += keys
        self.write_ios += delete_cost.total_ios + insert_cost.total_ios

    def _check_read(self, key: int, result) -> None:
        if key in self.oracle.unknown:
            return
        found, value = self.oracle.expect(key)
        if result.found != found or (found and result.value != value):
            raise WrongAnswer(
                f"key {key}: got found={result.found} value={result.value!r}, "
                f"expected found={found} value={value!r}"
            )


class Run:
    """One workload's loaded structure, oracle, traffic and client."""

    def __init__(self, workload: Workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        rng = random.Random(seed)
        self.items = initial_items(rng, workload.keys)
        self.oracle = Oracle(self.items, rng)
        self.traffic = Traffic(
            self.oracle,
            rng,
            gets=workload.gets,
            mget_keys=workload.mget_keys,
            mputs=workload.mputs,
            mput_keys=workload.mput_keys,
        )
        self.system: Optional[System] = None
        self.client: Optional[Client] = None

    def setup(self) -> float:
        """Build a fresh structure, replacing any earlier one; seconds."""
        self.close()
        gc.collect()  # the earlier structure's garbage is not set-up work
        t0 = time.perf_counter()
        self.system = setup(self.workload, self.items, self.workdir)
        elapsed = time.perf_counter() - t0
        self.client = Client(self.system.dictionary, self.oracle)
        return elapsed

    def units(self, count: int) -> None:
        for _ in range(count):
            self.client.run_unit(self.traffic.unit())

    def timed(self, count: int, limit: float,
              start: Optional[float] = None) -> None:
        """Run ``count`` units, stopping early once ``limit`` seconds have
        passed since ``start`` (default: now)."""
        now = time.perf_counter
        deadline = (now() if start is None else start) + limit
        for _ in range(count):
            if now() >= deadline:
                return
            self.client.run_unit(self.traffic.unit())

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
            self.system = None


# -- end-to-end run ---------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in microseconds."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_speed() -> float:
    """Host speed just before or after a set-up, in steps per ns."""
    t0 = time.perf_counter_ns()
    speed_steps(SETUP_SPEED_STEPS)
    return SETUP_SPEED_STEPS / (time.perf_counter_ns() - t0)


def run_end_to_end(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: str,
    *,
    setup_repeats: int = SETUP_REPEATS,
    setup_seconds: float = SETUP_SECONDS,
    warmup_units: int = WARMUP_UNITS,
    count_units: int = COUNT_UNITS,
    min_p99_samples: int = MIN_P99_SAMPLES,
) -> dict:
    """Every end-to-end metric that applies to ``workload``, as
    ``{name: {"value", "unit", "samples"}}``, plus the counts."""
    run = Run(workload, seed, workdir)
    try:
        speeds = [setup_speed()]
        setups = []
        while len(setups) < setup_repeats or (
            sum(setups) < setup_seconds and len(setups) < SETUP_MAX
        ):
            setups.append(run.setup())
            speeds.append(setup_speed())
        run.units(warmup_units)
        client = run.client
        client.errors.clear()
        base = _counters(client)
        marks = [client.mark()]
        first_mark = len(client.marks)
        started = time.perf_counter()
        run.units(count_units)
        counted = _counters(client)
        live = len(run.oracle)
        footprint = run.system.machine.footprint_bits
        rss = peak_rss_mb()
        run.timed(
            workload.timed_units(seconds, min_p99_samples) - count_units,
            EXTEND_LIMIT * seconds,
            started,
        )
        end = _counters(client)
        marks += client.marks[first_mark:]
    finally:
        run.close()

    metrics: Dict[str, dict] = {}

    def put(name: str, value: float, samples: int, raw=None) -> None:
        metrics[name] = {
            "value": value,
            "unit": END_TO_END_UNITS[name],
            "samples": samples,
        }
        if raw is not None:
            metrics[name]["raw"] = raw

    reference = REFERENCE_STEPS_PER_S / 1e9
    put("setup_s",
        statistics.median(
            t * (before + after) / 2 / reference
            for t, before, after in zip(setups, speeds, speeds[1:])
        ),
        len(setups), statistics.median(setups))
    cuts = _cuts(len(marks) - 1)
    scales = _unit_scales(marks, reference)
    rates = []
    scaled_rates = []
    for lo, hi in cuts:
        keys = marks[hi][0] - marks[lo][0]
        rates.append(keys / ((marks[hi][1] - marks[lo][1]) / 1e9))
        scaled_rates.append(keys / (_scaled_busy_ns(marks, scales, lo, hi) / 1e9))
    put("keys_per_s", statistics.median(scaled_rates),
        end["keys"] - base["keys"], statistics.median(rates))
    for i, kind in enumerate(KINDS, start=2):
        latency = client.latency_ns[kind]
        total = marks[-1][i] - marks[0][i]
        if not total:
            continue
        parts = [
            (
                latency[marks[lo][i]:marks[hi][i]],
                [
                    ns * scales[j]
                    for j in range(lo, hi)
                    for ns in latency[marks[j][i]:marks[j + 1][i]]
                ],
            )
            for lo, hi in cuts
            if marks[hi][i] > marks[lo][i]
        ]
        for q, name in ((0.50, "p50"), (0.99, "p99")):
            if q == 0.99 and total < min_p99_samples:
                continue
            put(f"{kind}_{name}_us",
                statistics.median(percentile(scaled, q) for _, scaled in parts),
                total,
                statistics.median(percentile(raw, q) for raw, _ in parts))
    read_keys = counted["read_keys"] - base["read_keys"]
    if read_keys:
        put("ios_per_read_key",
            (counted["read_ios"] - base["read_ios"]) / read_keys, read_keys)
    write_keys = counted["write_keys"] - base["write_keys"]
    if write_keys:
        put("ios_per_write_key",
            (counted["write_ios"] - base["write_ios"]) / write_keys, write_keys)
    put("space_bits_per_key", footprint / live, live)
    put("peak_rss_mb", rss, 1)
    attempted = end["attempted"] - base["attempted"]
    failed = end["failed"] - base["failed"]
    put("failed_frac", failed / attempted, attempted)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": dict(client.errors),
        "speed_steps_per_s": [
            round((marks[hi][6] - marks[lo][6]) / (marks[hi][5] - marks[lo][5])
                  * 1e9)
            for lo, hi in cuts
        ],
    }


def _cuts(units: int) -> List[Tuple[int, int]]:
    """``(first, end)`` unit indices of up to ``SLICES`` non-empty runs of
    units with equal unit counts."""
    cuts = sorted({round(i * units / SLICES) for i in range(SLICES + 1)})
    return list(zip(cuts, cuts[1:]))


def _unit_scales(marks: List[Tuple[int, ...]], reference: float) -> List[float]:
    """Each unit's host speed over the reference speed, from the speed
    bursts of the units within ``SCALE_WINDOW`` of it; the unit's times
    scale by it."""
    units = len(marks) - 1
    scales = []
    for j in range(units):
        a = marks[max(0, j - SCALE_WINDOW)]
        b = marks[min(units, j + SCALE_WINDOW + 1)]
        scales.append((b[6] - a[6]) / (b[5] - a[5]) / reference)
    return scales


def _scaled_busy_ns(marks, scales: List[float], lo: int, hi: int) -> float:
    """Time inside the program's calls in units ``lo`` to ``hi``, at the
    reference host speed."""
    return sum(
        (marks[j + 1][1] - marks[j][1]) * scales[j] for j in range(lo, hi)
    )


def _counters(client: Client) -> dict:
    out = {
        name: getattr(client, name)
        for name in (
            "busy_ns", "keys", "attempted", "failed", "read_keys",
            "read_ios", "read_blocks", "write_keys", "write_ios",
        )
    }
    out.update({kind: len(v) for kind, v in client.latency_ns.items()})
    return out


# -- traced run -------------------------------------------------------------

PER_LAYER_UNITS = {
    "core.mget.self_us": "us",
    "core.get.self_us": "us",
    "core.mput.self_us": "us",
    "core.kernel_path_share": "fraction",
    "expanders.us_per_key": "us/key",
    "expanders.memo_hit_ratio": "fraction",
    "kernels.plan_us": "us/mget",
    "kernels.match_us": "us/mget",
    "kernels.store_column_us": "us/mget",
    "kernels.columns_built_per_mget": "count/mget",
    "pdm.striping.read_us": "us",
    "pdm.striping.write_us": "us",
    "pdm.striping.field_reads_per_mget": "count/mget",
    "pdm.machine.read_us": "us",
    "pdm.machine.write_us": "us",
    "pdm.machine.round_fill": "fraction",
    "pdm.machine.blocks_per_read_key": "blocks/key",
    "pdm.cache.hit_ratio": "fraction",
    "pdm.cache.us_per_mget": "us/mget",
    "pdm.cache.evictions_per_mget": "count/mget",
    "pdm.executors.run_read_us": "us",
    "pdm.executors.run_write_us": "us",
    "fs.blockfile.read_busy_us_per_block": "us/block",
    "fs.blockfile.log_bytes_per_key": "bytes/key",
    "trace.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _memo_counts(system: System):
    stats = system.memo().stats()
    return stats["hits"], stats["misses"]


def _pool_counts(system: System):
    pool = system.machine.cache
    if pool is None:
        return 0, 0
    return pool.stats.hits, pool.stats.requests


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: str,
    *,
    warmup_units: int = WARMUP_UNITS,
) -> dict:
    """Per-layer metrics: one traced set-up, then the units of
    ``seconds / 2`` untraced and as many traced."""
    # Imported here: the wrappers' targets are only needed by traced runs.
    from perfbench.tracing import (
        MACHINE_READS, MACHINE_WRITES, STRIPING_READS, STRIPING_WRITES,
        LayerTracer,
    )

    run = Run(workload, seed, workdir)
    tracer = LayerTracer()
    try:
        tracer.install()
        try:
            tracer.begin("setup")
            t0 = time.perf_counter_ns()
            run.setup()
            tracer.end(time.perf_counter_ns() - t0)
        finally:
            tracer.uninstall()
        system = run.system
        client = run.client
        log_bytes = system.log_bytes()
        run.units(warmup_units)

        client.errors.clear()
        half = workload.timed_units(seconds / 2, 1)
        first = len(client.marks) - 1
        before = _counters(client)
        run.timed(half, EXTEND_LIMIT * seconds / 2)
        untraced = _counters(client)
        mid = len(client.marks) - 1 - first

        memo0 = _memo_counts(system)
        pool0 = _pool_counts(system)
        tracer.pool = system.machine.cache
        client.tracer = tracer
        tracer.install()
        try:
            run.timed(half, EXTEND_LIMIT * seconds / 2)
        finally:
            tracer.uninstall()
            client.tracer = None
        traced = _counters(client)
        marks = client.marks[first:]
        memo1 = _memo_counts(system)
        pool1 = _pool_counts(system)
    finally:
        run.close()

    # keys per second of each half at the reference host speed, so that
    # the host's drift between the halves does not read as overhead
    scales = _unit_scales(marks, REFERENCE_STEPS_PER_S / 1e9)

    def rate(lo: int, hi: int) -> float:
        return _ratio(marks[hi][0] - marks[lo][0],
                      _scaled_busy_ns(marks, scales, lo, hi) / 1e9)

    def delta(name: str) -> int:
        return traced[name] - untraced[name]

    requests = tracer.requests
    mgets = requests.get("mget", [0])[0]
    traffic = ("get", "mget", "mput")
    lane_calls, lane_ns = tracer.lane_busy()

    def per_mget_us(name: str) -> float:
        return _ratio(tracer.self_ns([name], ["mget"]) / 1e3, mgets)

    def core_us(kind: str) -> float:
        count = requests.get(kind, [0])[0]
        return _ratio(tracer.self_ns(["core"], [kind]) / 1e3, count)

    values = {
        "core.mget.self_us": core_us("mget"),
        "core.get.self_us": core_us("get"),
        "core.mput.self_us": core_us("mput"),
        "core.kernel_path_share": _ratio(requests.get("mget", [0, 0])[1], mgets),
        "expanders.us_per_key": _ratio(
            tracer.self_ns(["expanders"], traffic) / 1e3, delta("attempted")
        ),
        "expanders.memo_hit_ratio": _ratio(
            memo1[0] - memo0[0],
            (memo1[0] + memo1[1]) - (memo0[0] + memo0[1]),
        ),
        "kernels.plan_us": per_mget_us("kernels.plan_unique_probe"),
        "kernels.match_us": per_mget_us("kernels.match_candidates"),
        "kernels.store_column_us": per_mget_us("kernels.store_column"),
        "kernels.columns_built_per_mget": _ratio(
            tracer.calls(["kernels.store_column"], ["mget"]), mgets
        ),
        "pdm.striping.read_us": tracer.per_call_us(STRIPING_READS),
        "pdm.striping.write_us": tracer.per_call_us(STRIPING_WRITES),
        "pdm.striping.field_reads_per_mget": _ratio(
            tracer.calls(["pdm.striping.read_fields"], ["mget"]), mgets
        ),
        "pdm.machine.read_us": tracer.per_call_us(MACHINE_READS),
        "pdm.machine.write_us": tracer.per_call_us(MACHINE_WRITES),
        "pdm.machine.round_fill": _ratio(
            delta("read_blocks"), delta("read_ios") * workload.disks
        ),
        "pdm.machine.blocks_per_read_key": _ratio(
            delta("read_blocks"), delta("read_keys")
        ),
        "pdm.cache.hit_ratio": _ratio(pool1[0] - pool0[0], pool1[1] - pool0[1]),
        "pdm.cache.us_per_mget": per_mget_us("pdm.cache"),
        "pdm.cache.evictions_per_mget": _ratio(
            requests.get("mget", [0, 0, 0])[2], mgets
        ),
        "pdm.executors.run_read_us": tracer.per_call_us(
            ["pdm.executors.run_read"]
        ),
        "pdm.executors.run_write_us": tracer.per_call_us(
            ["pdm.executors.run_write"]
        ),
        "fs.blockfile.read_busy_us_per_block": _ratio(lane_ns / 1e3, lane_calls),
        "fs.blockfile.log_bytes_per_key": _ratio(log_bytes, len(run.items)),
        "trace.overhead_frac": 1.0 - _ratio(
            rate(mid, len(marks) - 1), rate(0, mid)
        ),
    }
    metrics = {
        name: {"value": value, "unit": PER_LAYER_UNITS[name]}
        for name, value in values.items()
    }
    return {
        "metrics": metrics,
        "attempted": traced["attempted"] - before["attempted"],
        "failed": traced["failed"] - before["failed"],
        "errors": dict(client.errors),
        "traced_requests": {k: v[0] for k, v in requests.items()},
    }
