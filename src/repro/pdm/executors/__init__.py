"""Pluggable physical backends for the PDM machines.

The machine plans and charges rounds; a :class:`RoundExecutor` moves the
bytes.  Two implementations:

* :class:`SimulatedExecutor` — in-memory, the default, zero overhead;
* ``FileExecutor`` (:mod:`repro.pdm.executors.filebacked`) — real files,
  one worker thread per disk.

This package ``__init__`` imports only the seam (:mod:`.base`): the file
backend pulls in :mod:`repro.fs`, whose package import reaches back up
through :mod:`repro.core` to the machine — importing them lazily via
:func:`create_executor` keeps the cycle broken no matter which module is
imported first.
"""

from __future__ import annotations

from typing import Optional

from repro.pdm.executors.base import (
    ExecutorObservations,
    ReadResult,
    RoundExecutor,
    SimulatedExecutor,
)

EXECUTOR_NAMES = ("simulated", "file")


def create_executor(
    name: str, *, directory: Optional[str] = None, **options
) -> RoundExecutor:
    """Build an executor by name.

    ``"file"`` needs a ``directory``; extra keyword ``options`` pass
    through to :class:`~repro.pdm.executors.filebacked.FileExecutor`
    (``workers``, ``fsync``, ``transfer_delay_ns``, ``clock``,
    ``lane_factory``).  ``"simulated"`` takes neither.  Any other name
    raises :class:`ValueError`.
    """
    if name == "simulated":
        if directory is not None or options:
            raise ValueError(
                "the simulated executor takes no directory or options"
            )
        return SimulatedExecutor()
    if name == "file":
        if directory is None:
            raise ValueError("the file executor needs a directory")
        from repro.pdm.executors.filebacked import FileExecutor

        return FileExecutor(directory, **options)
    raise ValueError(
        f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}"
    )


__all__ = [
    "EXECUTOR_NAMES",
    "ExecutorObservations",
    "ReadResult",
    "RoundExecutor",
    "SimulatedExecutor",
    "create_executor",
]
