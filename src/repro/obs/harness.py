"""Instrumented workload runs: the glue between ``repro.workloads`` and
the observability layer.

:func:`run_instrumented` builds a machine and a dictionary, attaches a
span recorder (and optionally an I/O tracer), replays a generated
workload, collects metrics, and evaluates the theorem-bound monitors —
returning everything as one :class:`ObsReport`.  The CLI
(``python -m repro.obs``) and the smoke benchmark are thin wrappers over
this function.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.reporting import render_table
from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.obs import wallclock
from repro.obs.export import span_events
from repro.obs.latency import DiskTimeline, collect_latency, percentile_rows
from repro.obs.metrics import (
    MetricsRegistry,
    collect_batches,
    collect_load_distribution,
    collect_machine,
    collect_spans,
)
from repro.obs.monitors import MonitorSet, default_monitors
from repro.obs.wallclock import enable_wall_clock
from repro.pdm.executors import create_executor
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.spans import SpanRecorder, attach_spans
from repro.pdm.trace import TraceRecorder, attach
from repro.workloads.replay import ReplaySummary, Workload, replay

STRUCTURES = ("basic", "dynamic")


def _cleanup_on_close(machine: ParallelDiskMachine, directory: str) -> None:
    """Arrange for ``machine.close()`` to also remove ``directory`` (the
    throwaway image backing an ``executor_dir``-less file-backed run)."""
    inner = machine.close

    def close() -> None:
        inner()
        shutil.rmtree(directory, ignore_errors=True)

    machine.close = close  # type: ignore[method-assign]


@dataclass
class ObsReport:
    """Everything one instrumented run produced."""

    structure: str
    params: Dict[str, Any]
    summary: ReplaySummary
    recorder: SpanRecorder
    registry: MetricsRegistry
    monitors: MonitorSet
    tracer: Optional[TraceRecorder] = None
    machine: Any = None
    dictionary: Any = None
    notes: List[str] = field(default_factory=list)
    #: wall-clock channel, populated only by ``run_instrumented(wall=True)``.
    #: Deliberately a *separate* registry and deliberately absent from
    #: :meth:`to_dict`: the committed report stays byte-identical whether
    #: or not the run was timed.
    wall_registry: Optional[MetricsRegistry] = None
    timeline: Optional[DiskTimeline] = None

    @property
    def ok(self) -> bool:
        return self.summary.errors == 0 and self.monitors.ok

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable report (the ``BENCH_smoke.json`` payload)."""
        per_kind = {}
        for kind in sorted(self.summary.ios_by_kind):
            per_kind[kind] = {
                "count": len(self.summary.ios_by_kind[kind]),
                "avg_ios": self.summary.avg(kind),
                "worst_ios": self.summary.worst(kind),
            }
        return {
            "structure": self.structure,
            "params": self.params,
            "operations": self.summary.operations,
            "total_ios": self.summary.total_ios,
            "per_kind": per_kind,
            "span_totals": self.recorder.totals(),
            "metrics": self.registry.as_dict(),
            "monitors": self.monitors.summary(),
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        """The human-readable report the CLI prints."""
        lines: List[str] = []
        lines.append(f"== instrumented run: {self.structure} ==")
        lines.append(
            "params: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        )
        lines.append("")
        lines.append("-- per-operation I/O --")
        rows = [
            [
                kind,
                len(self.summary.ios_by_kind[kind]),
                f"{self.summary.avg(kind):.3f}",
                self.summary.worst(kind),
            ]
            for kind in sorted(self.summary.ios_by_kind)
        ]
        lines.append(render_table(["kind", "count", "avg ios", "worst ios"], rows))
        lines.append("")
        lines.append("-- span totals --")
        rows = [
            [
                name,
                agg["count"],
                agg["total_ios"],
                agg["effective_ios"],
                f"{agg['total_ios'] / agg['count']:.3f}",
            ]
            for name, agg in self.recorder.totals().items()
        ]
        lines.append(
            render_table(
                ["span", "count", "raw ios", "effective ios", "avg raw"], rows
            )
        )
        lines.append("")
        lines.append("-- metrics --")
        lines.append(self.registry.render_text())
        lines.append("")
        lines.append("-- bound monitors --")
        lines.append(
            f"checks: {self.monitors.checks}  "
            f"violations: {len(self.monitors.violations)}  "
            f"{'OK' if self.monitors.ok else 'VIOLATED'}"
        )
        for v in self.monitors.violations:
            lines.append(
                f"  [{v.monitor}] {v.span_name}#{v.span_index}: "
                f"observed {v.observed:g} > budget {v.budget:g} ({v.detail})"
            )
        return "\n".join(lines)

    def render_wall_text(self) -> str:
        """The wall-clock addendum (``--wall`` / ``--percentiles``):
        latency percentile tables per op class / layer / lane, and the
        per-disk utilization summary when the run was traced.  All values
        here are real time — machine-dependent by design."""
        if self.wall_registry is None:
            return "(wall-clock channel not enabled; rerun with --wall)"
        lines: List[str] = []
        lines.append("-- wall latency (us, measured; varies run to run) --")
        for family, label in (
            ("latency.op_us", "op"),
            ("latency.layer_us", "layer"),
            ("latency.lane_us", "lane"),
            ("latency.kernel_us", "stage"),
        ):
            rows = percentile_rows(self.wall_registry, family)
            if not rows:
                continue
            lines.append(
                render_table(
                    [label, "count", "p50", "p95", "p99", "max"], rows
                )
            )
        if self.timeline is not None:
            lines.append("")
            lines.append("-- per-disk utilization (logical rounds) --")
            lines.append(
                render_table(
                    ["disk", "busy", "idle", "utilization"],
                    self.timeline.summary_rows(),
                )
            )
            lines.append(
                f"mean utilization: {self.timeline.mean_utilization:.1%} "
                f"over {self.timeline.total_rounds} rounds"
            )
        return "\n".join(lines)


def build_structure(
    structure: str,
    machine: ParallelDiskMachine,
    *,
    universe_size: int,
    capacity: int,
    sigma: int,
    seed: int,
):
    if structure == "basic":
        return BasicDictionary(
            machine,
            universe_size=universe_size,
            capacity=capacity,
            degree=machine.num_disks,
            seed=seed,
        )
    if structure == "dynamic":
        return DynamicDictionary(
            machine,
            universe_size=universe_size,
            capacity=capacity,
            sigma=sigma,
            seed=seed,
        )
    raise ValueError(
        f"unknown structure {structure!r}; choose from {STRUCTURES}"
    )


def run_instrumented(
    structure: str = "basic",
    *,
    num_disks: int = 16,
    block_items: int = 32,
    universe_size: int = 1 << 20,
    capacity: int = 512,
    operations: int = 512,
    sigma: int = 32,
    insert_fraction: float = 0.4,
    delete_fraction: float = 0.1,
    seed: int = 0,
    trace: bool = False,
    strict: bool = False,
    monitors: Optional[MonitorSet] = None,
    batch: Optional[int] = None,
    cache_blocks: Optional[int] = None,
    wall: bool = False,
    executor: str = "simulated",
    executor_dir: Optional[str] = None,
) -> ObsReport:
    """Replay a generated workload under full instrumentation.

    Returns the spans, metrics and monitor verdicts of the run; with
    ``strict=True`` the first theorem-budget violation raises
    :class:`~repro.obs.monitors.BoundViolationError` instead of being
    recorded.  With ``batch=N`` the replay routes runs of same-kind
    operations through the dictionary's round-packed batch methods and the
    report gains ``batch.*`` metrics (``rounds_saved`` et al.).  With
    ``cache_blocks=N`` the machine runs an ``N``-block buffer pool
    (:mod:`repro.pdm.cache`) and the report gains ``cache.*`` metrics —
    note the theorem-bound monitors assume the uncached cost model, so a
    cached strict run may legitimately *under*-shoot the budgets.

    With ``wall=True`` the span recorder (and tracer, if tracing) also
    run with the wall-clock channel attached: the report gains a separate
    ``wall_registry`` of latency histograms and, when traced, a
    ``timeline`` of per-disk utilization.  The deterministic outputs —
    ``to_dict()``, every metric in ``registry``, every monitor verdict —
    are byte-identical with ``wall`` on or off.

    ``executor`` selects the physical backend (:mod:`repro.pdm.executors`):
    ``"simulated"`` (default, in-memory), or ``"file"`` over real
    per-disk logs in ``executor_dir`` (a temporary directory when
    ``None``, removed when the run's machine is closed by the caller).
    The executor-equivalence invariant means every deterministic output is
    byte-identical across backends; with ``wall=True`` the file backend
    additionally receives the injected wall clock and the lane factory, so
    its worker threads stamp ``disk-lane:<disk>`` spans and the report
    gains ``executor.*`` transfer metrics in ``wall_registry``.
    """
    temp_dir: Optional[str] = None
    if executor == "simulated":
        engine = None
    else:
        if executor_dir is None:
            temp_dir = tempfile.mkdtemp(prefix="repro-executor-")
            executor_dir = temp_dir
        options: Dict[str, Any] = {}
        if wall:
            options["clock"] = wallclock.DEFAULT_CLOCK
            if executor == "file":
                options["lane_factory"] = wallclock.lane
        engine = create_executor(
            executor, directory=executor_dir, **options
        )
    machine = ParallelDiskMachine(
        num_disks, block_items, cache_blocks=cache_blocks, executor=engine
    )
    if temp_dir is not None:
        # The machine owns the throwaway image: closing it removes the
        # logs (callers that want to inspect them pass executor_dir).
        _cleanup_on_close(machine, temp_dir)
    dictionary = build_structure(
        structure,
        machine,
        universe_size=universe_size,
        capacity=capacity,
        sigma=sigma,
        seed=seed,
    )
    workload = Workload.generate(
        name=f"{structure}-mixed",
        universe_size=universe_size,
        operations=operations,
        capacity=capacity,
        value_bits=sigma,
        insert_fraction=insert_fraction,
        delete_fraction=delete_fraction,
        seed=seed,
    )
    recorder = attach_spans(machine)
    tracer = attach(machine) if trace else None
    if wall:
        enable_wall_clock(recorder)
        if tracer is not None:
            enable_wall_clock(tracer)

    summary = replay(dictionary, workload, batch=batch)

    registry = MetricsRegistry()
    collect_machine(registry, machine)
    collect_spans(registry, recorder)
    if batch is not None:
        collect_batches(registry, recorder)
    if structure == "basic":
        collect_load_distribution(
            registry, dictionary.load_histogram(), structure=structure
        )
    else:
        collect_load_distribution(
            registry,
            dictionary.membership.load_histogram(),
            structure=f"{structure}.membership",
        )
        for level, occupied in enumerate(dictionary.level_occupancy()):
            registry.gauge(
                "dynamic_dict.level_occupancy", level=level
            ).set(occupied)

    monitor_set = monitors if monitors is not None else MonitorSet(
        monitors=default_monitors(), strict=strict
    )
    monitor_set.check_recorder(recorder)

    wall_registry: Optional[MetricsRegistry] = None
    timeline = None
    if wall:
        wall_registry = MetricsRegistry()
        collect_latency(wall_registry, recorder)
        if tracer is not None:
            timeline = DiskTimeline.from_tracer(tracer, machine.num_disks)
        obs = machine.executor.observations
        if obs.read_batches or obs.write_batches:
            for key, value in obs.to_dict().items():
                if key == "per_disk_wall_ns":
                    for disk_id, ns in enumerate(value):
                        wall_registry.gauge(
                            "executor.disk_wall_ns", disk=disk_id
                        ).set(ns)
                else:
                    wall_registry.gauge(f"executor.{key}").set(value)

    params = {
        "num_disks": num_disks,
        "block_items": block_items,
        "universe_size": universe_size,
        "capacity": capacity,
        "operations": operations,
        "sigma": sigma,
        "seed": seed,
    }
    if batch is not None:
        params["batch"] = batch
    if cache_blocks is not None:
        params["cache_blocks"] = cache_blocks
    if executor != "simulated":
        # Executor equivalence: the backend changes no deterministic
        # output, but the report should say how the bytes really moved.
        params["executor"] = executor
    return ObsReport(
        structure=structure,
        params=params,
        summary=summary,
        recorder=recorder,
        registry=registry,
        monitors=monitor_set,
        tracer=tracer,
        machine=machine,
        dictionary=dictionary,
        wall_registry=wall_registry,
        timeline=timeline,
    )


def report_events(report: ObsReport) -> List[Dict[str, Any]]:
    """JSONL event stream of one report: a header, every span, every
    metric, every violation."""
    events: List[Dict[str, Any]] = [
        {
            "type": "run",
            "structure": report.structure,
            "params": report.params,
            "operations": report.summary.operations,
            "total_ios": report.summary.total_ios,
        }
    ]
    events.extend(span_events(report.recorder))
    for key, data in report.registry.as_dict().items():
        events.append({"type": "metric", "name": key, **data})
    for v in report.monitors.violations:
        events.append(v.to_dict())
    return events
