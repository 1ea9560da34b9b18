"""Vectorized batch kernels: flat-array evaluation of the per-key hot path.

The PR 5 wall-clock sweep made single lookups fast; the remaining
per-*batch* cost was dominated by Python frames — one expander
evaluation, one hash, one bucket scan per key.  This package computes
those for a whole batch at once over flat ``array``/``numpy`` lanes (the
``NeighborhoodMemo`` flat-``array('I')`` design generalized), with the
charged cost untouched: kernels are pure value-to-value functions.

The runtime backend is :class:`~repro.kernels.numpy_backend.NumpyKernel`
(numpy is a hard dependency).  :class:`~repro.kernels.base.PythonKernel`
is its element-for-element reference in the property suite and the loop
it falls back to where vectorization cannot be exact.  A dictionary's
``kernel="off"`` switches the batch fast paths off entirely: that scalar
path is the reference the differential suite and the throughput
benchmark compare the kernel path against.

This package sits beside :mod:`repro.bits` at the bottom of the layer
graph (arch-base): it may be imported from any layer, and from the
project it imports nothing but ``repro.bits``.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.base import Kernel, PythonKernel
from repro.kernels.numpy_backend import NumpyKernel

_NUMPY = NumpyKernel()


def resolve_kernel(spec: Optional[str]) -> Optional[Kernel]:
    """Normalize a dictionary's ``kernel`` argument.

    ``None`` → the shared :class:`NumpyKernel` (kernels are stateless);
    ``"off"`` → ``None``, the scalar batch path.  Anything else raises
    :class:`ValueError`.
    """
    if spec is None:
        return _NUMPY
    if spec == "off":
        return None
    raise ValueError(f"kernel must be None or 'off', got {spec!r}")


__all__ = [
    "Kernel",
    "NumpyKernel",
    "PythonKernel",
    "resolve_kernel",
]
