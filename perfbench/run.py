"""Run one benchmark workload, or all of them, from a source checkout.

    python3 perfbench/run.py --workload basic-zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

One workload runs in this process.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer breakdown.  The output is
a table of every metric with its unit, sample count and, for wall-clock
metrics scaled to the reference host speed, the raw figure; a host stamp, a
``{"perfbench": ...}`` detail line, and, last, the result line:
``{"correct", "attempted", "failed", "metrics"}`` where ``metrics`` holds
the metrics ``BENCHMARK.json`` gates (``--trace 0``) or lists per layer
(``--trace 1``).  A wrong answer prints ``"correct": false`` and exits 1.

``--all`` runs each workload in its own fresh process and prints one
table of every metric across workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: import from the checkout
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import repro  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
    raise SystemExit(
        f"repro imported from {repro.__file__}, not from this checkout"
    )

from perfbench.harness import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WrongAnswer,
    run_end_to_end,
    run_traced,
)
from perfbench.host import host_stamp  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: the end-to-end metrics every workload reports and BENCHMARK.json gates;
#: the others (``mput_*``, ``ios_per_write_key``, ``failed_frac``) apply to
#: some workloads only or are 0 on most, and appear in the table and the
#: detail line
GATED = (
    "setup_s",
    "keys_per_s",
    "get_p50_us",
    "get_p99_us",
    "mget_p50_us",
    "mget_p99_us",
    "ios_per_read_key",
    "space_bits_per_key",
    "peak_rss_mb",
)
#: scratch space for file-backed disks, inside the checkout
WORKDIR = ROOT / ".perfbench_tmp"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in a fresh process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _table(rows) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip()
        for r in rows
    )


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def pin_to_one_cpu() -> list:
    """Keep this process and the threads it starts on one CPU.

    On a small shared host the file executor's per-disk threads otherwise
    hand the interpreter lock back and forth between CPUs, and its tail
    latency then follows the load other tenants put on the second CPU
    (get_p99_us on basic-file spread by 71% of its median across seeds
    unpinned, 13% pinned, on a 2-vCPU host).  Returns the CPUs in use.
    """
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return [cpu]


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        host = {**host_stamp(), "cpu_affinity": pin_to_one_cpu()}
        runner = run_traced if args.trace else run_end_to_end
        try:
            result = runner(workload, args.seed, args.seconds, workdir)
        except WrongAnswer as exc:
            print(f"wrong answer on {workload.name}: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                              "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another run still uses it
            pass

    metrics = result["metrics"]
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    rows = [("metric", "value", "unit", "samples", "raw")]
    for name, m in metrics.items():
        rows.append((name, _fmt(m["value"]), m["unit"], m.get("samples", ""),
                     _fmt(m["raw"]) if "raw" in m else ""))
    print(_table(rows))
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"errors={result['errors']}")
    print(json.dumps({"perfbench": {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        **result,
    }}, sort_keys=True))

    wanted = PER_LAYER_UNITS if args.trace else GATED
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"{workload.name}: no value for {missing} "
              f"(too few samples for a p99?)", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"],
                   "unit": metrics[name]["unit"]}
            for name in wanted
        },
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one table across workloads."""
    details = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds * 4 + 600,
        )
        sys.stderr.write(proc.stderr)
        detail = next(
            (json.loads(line)["perfbench"]
             for line in proc.stdout.splitlines()
             if line.startswith('{"perfbench"')),
            None,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
        if detail is not None:
            details[name] = detail
    if not details:
        return status
    host = next(iter(details.values()))["host"]
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    rows = [("metric", "unit", *details)]
    for metric, unit in units.items():
        cells = []
        for detail in details.values():
            m = detail["metrics"].get(metric)
            cells.append(
                "-" if m is None else
                _fmt(m["value"]) + (f" (n={m['samples']})" if "samples" in m else "")
            )
        rows.append((metric, unit, *cells))
    print(_table(rows))
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
