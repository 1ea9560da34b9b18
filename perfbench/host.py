"""Host stamp and host speed: what a result was measured on, and how fast
the CPU ran while it was measured.

The host stamp records the best speed of a fixed pure-Python task
(splitmix64 mixes), so that wall-clock figures from different hosts are
never compared raw.  The closed loop runs short bursts of another fixed
task between requests (:func:`speed_steps`), so that each stretch of a
run can be scaled to a reference speed: on a shared host the CPU's speed
drifts by a fifth or more within a minute, and that drift, not the
program, would otherwise set the run-to-run spread of every timing.
"""

from __future__ import annotations

import os
import platform
import time

import numpy

_MASK = (1 << 64) - 1
#: splitmix64 mixes per calibration pass
CALIBRATION_MIXES = 100_000
#: the reference host speed wall-clock metrics are scaled to, in
#: :func:`speed_steps` steps per second
REFERENCE_STEPS_PER_S = 1_000_000
_CELLS = 4096


def mix(count: int) -> int:
    """Run ``count`` splitmix64 mixes; return the last output."""
    z = x = 0
    for _ in range(count):
        z = (z + 0x9E3779B97F4A7C15) & _MASK
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        x ^= x >> 31
    return x


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def probe(self, x: int) -> int:
        return (self.value ^ (x >> 12)) & (_CELLS - 1)


_TABLE = {i: _Cell(i, 7 * i) for i in range(_CELLS)}
_ORDER = list(range(_CELLS))


def speed_steps(count: int) -> int:
    """Run ``count`` steps of the host-speed task; return a checksum.

    A step is a splitmix64 mix, then a dict lookup, a method call, a list
    index and a tuple appended to a short list.  Integer arithmetic alone
    tracked the dictionary's own speed less well: in trials on a 2-vCPU
    host, timings scaled by it spread across runs by up to 0.19 of their
    median, against up to 0.11 with this task.
    """
    table = _TABLE
    order = _ORDER
    out: list = []
    total = z = 0
    for _ in range(count):
        z = (z + 0x9E3779B97F4A7C15) & _MASK
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        x ^= x >> 31
        cell = table[x & (_CELLS - 1)]
        out.append((cell.probe(x), cell.value, order[x >> 52]))
        if len(out) == 64:
            total += out[-1][0]
            out = []
    return total + len(out)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_score() -> float:
    """Pure-Python splitmix64 mixes per second, best of five passes: a
    fixed interpreter-bound task that scales with the host's speed."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        mix(CALIBRATION_MIXES)
        best = min(best, time.perf_counter() - t0)
    return CALIBRATION_MIXES / best


def host_stamp() -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "splitmix64_mixes_per_s": round(calibration_score()),
    }
