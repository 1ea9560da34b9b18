"""The four workloads: structure, geometry, request mix, and why each is here.

A workload's set-up goes from an empty machine to a loaded structure;
``setup`` returns a :class:`System` the closed loop drives.  Geometry
matches the repository's own throughput figures (D=16, B=32, 20,000 keys
in 1,264 one-block buckets for the basic dictionary; D=32, B=64 for
Theorem 7), so the numbers can be read beside them.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import tempfile
from typing import Dict, Optional

from repro.core.basic_dict import BasicDictionary
from repro.core.dynamic_dict import DynamicDictionary
from repro.pdm.executors.filebacked import FileExecutor
from repro.pdm.machine import ParallelDiskMachine

from perfbench.inputs import UNIVERSE, VALUE_BITS

#: fixed expander seeds: the structure is configuration, not input
BASIC_GRAPH_SEED = 6
DYNAMIC_GRAPH_SEED = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    structure: str  # "basic" (§4.1) or "dynamic" (Theorem 7)
    disks: int
    block_items: int
    keys: int  # loaded at set-up
    capacity: int
    gets: int  # single-key lookups per unit
    #: units per second of the closed loop, speed bursts included, when the
    #: benchmark was defined (a 2-vCPU Xeon host running about 1.7 M
    #: mixes/s); sets the length of the timed phase
    units_per_s: float
    mget_keys: int = 64  # keys per batch_lookup; one per unit
    mputs: int = 0  # write requests per unit
    mput_keys: int = 8  # keys deleted, then keys inserted, per write request
    cache_blocks: Optional[int] = None
    file_backed: bool = False

    def mix(self) -> Dict[str, int]:
        """Requests of each kind per unit."""
        return {"mget": 1, "get": self.gets, "mput": self.mputs}

    def timed_units(self, seconds: float, min_samples: int) -> int:
        """Units in a timed phase: ``seconds`` at ``units_per_s``, and
        enough for ``min_samples`` of every request kind.  A fixed count,
        not a deadline, so what a run attempts repeats for a seed."""
        floor = max(
            math.ceil(min_samples / count)
            for count in self.mix().values()
            if count
        )
        return max(math.ceil(seconds * self.units_per_s), floor)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="basic-zipf",
            why=(
                "Basic dictionary, simulated disks, no cache, read-only Zipf "
                "traffic: the kernel hot path alone; cache, file I/O and "
                "writes are bypassed"
            ),
            structure="basic",
            disks=16,
            block_items=32,
            keys=20_000,
            capacity=20_000,
            gets=8,
            units_per_s=430,
        ),
        Workload(
            name="basic-zipf-cached",
            why=(
                "basic-zipf plus a 1,024-block buffer pool (81% of the "
                "buckets): isolates the pool's cost and saved rounds; the "
                "pool also forces the scalar batch path"
            ),
            structure="basic",
            disks=16,
            block_items=32,
            keys=20_000,
            capacity=20_000,
            gets=8,
            units_per_s=220,
            cache_blocks=1024,
        ),
        Workload(
            name="dynamic-mixed",
            why=(
                "Theorem 7 dictionary with reads beside deletes and inserts "
                "at a steady 2,000 keys: level walk, field arrays, "
                "membership writes, column churn"
            ),
            structure="dynamic",
            disks=32,
            block_items=64,
            keys=2_000,
            capacity=4_000,
            gets=4,
            units_per_s=75,
            mputs=1,
        ),
        Workload(
            name="basic-file",
            why=(
                "basic-zipf on the file executor (page-cache reads): fetch, "
                "log decode, column rebuilds; shows the column-store "
                "IndexError in batch_lookup as failures"
            ),
            structure="basic",
            disks=16,
            block_items=32,
            keys=20_000,
            capacity=20_000,
            gets=8,
            units_per_s=60,
            file_backed=True,
        ),
    )
}


class System:
    """One loaded structure and what is needed to measure and release it."""

    def __init__(self, machine, dictionary, directory: Optional[str]):
        self.machine = machine
        self.dictionary = dictionary
        self.directory = directory

    def memo(self):
        """The structure's neighborhood memo (the membership dictionary's,
        for Theorem 7)."""
        d = self.dictionary
        basic = d.membership if isinstance(d, DynamicDictionary) else d
        return basic._neighborhoods

    def log_bytes(self) -> int:
        """Bytes of block log on the file backend (0 when simulated)."""
        if self.directory is None:
            return 0
        return sum(
            entry.stat().st_size for entry in os.scandir(self.directory)
        )

    def close(self) -> None:
        self.machine.close()
        if self.directory is not None:
            shutil.rmtree(self.directory)
            self.directory = None


def setup(workload: Workload, items: Dict[int, int], workdir: str) -> System:
    """From an empty machine to ``items`` loaded (the ``setup_s`` span).

    Includes the file-log writes on the file backend and, with a buffer
    pool, the write-back of the blocks the pool absorbed, so traffic
    starts from a durable structure.
    """
    directory = None
    executor = None
    if workload.file_backed:
        directory = tempfile.mkdtemp(prefix="disks-", dir=workdir)
        executor = FileExecutor(directory)
    machine = ParallelDiskMachine(
        workload.disks,
        workload.block_items,
        cache_blocks=workload.cache_blocks,
        executor=executor,
    )
    system = System(machine, None, directory)
    try:
        if workload.structure == "basic":
            d = BasicDictionary(
                machine,
                universe_size=UNIVERSE,
                capacity=workload.capacity,
                degree=workload.disks,
                seed=BASIC_GRAPH_SEED,
            )
            d.bulk_build(items)
        else:
            d = DynamicDictionary(
                machine,
                universe_size=UNIVERSE,
                capacity=workload.capacity,
                sigma=VALUE_BITS,
                seed=DYNAMIC_GRAPH_SEED,
            )
            d.bulk_load(items)
        if machine.cache is not None:
            machine.cache.flush(machine)
    except BaseException:
        system.close()
        raise
    system.dictionary = d
    return system
