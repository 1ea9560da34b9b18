"""Typed I/O fault errors.

The fault-injection layer (:mod:`repro.pdm.faults`, driven by
:mod:`repro.faults`) makes :meth:`~repro.pdm.machine.AbstractDiskMachine.
read_blocks` / ``write_blocks`` surface failures as *typed* exceptions, so
recovery code can distinguish the paper-relevant failure modes:

* :class:`DiskFailure` — a device is down (outage window of a fault plan);
  every block on it is unreachable until the outage ends.  The structures'
  intrinsic redundancy — ``d`` candidate disks per bucket (Lemma 3),
  ``ceil(2d/3)`` fields per key across ``d`` stripes (Lemma 5) — is what
  makes lookups survivable despite this.
* :class:`TransientIOError` — a read attempt failed but retrying later
  (a later round) may succeed.  The machine retries these itself up to
  ``retry_policy.max_attempts`` times, charging the extra rounds as
  ``retry_ios``.
* :class:`BlockCorruption` — a block's contents no longer match its
  checksum (silent corruption made detectable by verify-on-read; see
  :mod:`repro.pdm.block`).  Degraded dictionary reads treat the block as
  lost and may *read-repair* it from redundancy.

All three derive from :class:`IOFault`; catching that one class is the
"any injected fault" handler.  Exceptions carry the failing addresses and
the logical round clock so failures are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

Addr = Tuple[int, int]


class IOFault(Exception):
    """Base class of every injected/detected I/O failure."""

    def __init__(
        self,
        message: str,
        *,
        addrs: Sequence[Addr] = (),
        disk: Optional[int] = None,
        clock: Optional[int] = None,
    ):
        super().__init__(message)
        self.addrs: Tuple[Addr, ...] = tuple(addrs)
        self.disk = disk
        self.clock = clock

    @property
    def kind(self) -> str:
        return type(self).__name__


class DiskFailure(IOFault):
    """The addressed disk is down (fault-plan outage window)."""


class TransientIOError(IOFault):
    """A read attempt failed; a retry in a later round may succeed."""


class BlockCorruption(IOFault):
    """A block's payload does not match its stored checksum."""
