"""The column kernels of the column-native hot loops.

The per-row loops of the column-native inference stack that read raw
columns — detector window scans, trigger location, same-peer run
segmentation — live in :mod:`repro.core.kernels.stdlib` behind the narrow
module interface documented in the "kernel contract" section of
``src/repro/core/README.md``: inputs are immutable column views, outputs
are plain row indices / counts, and no interning table is ever touched
inside a kernel (materialising interned objects stays with the caller).

There is one backend.  :func:`get_backend`, :func:`default_backend` and
:func:`numpy_version` keep answering for the callers that still pass a
backend around (``InferenceConfig.kernel_backend``, ``kernel=`` on the
column entry points, the benchmark environment stamp).
"""

from __future__ import annotations

from typing import Optional

from repro.core.kernels import stdlib as stdlib_backend

__all__ = [
    "default_backend",
    "get_backend",
    "numpy_version",
]


def default_backend():
    """The kernel backend: the stdlib module."""
    return stdlib_backend


def get_backend(name: Optional[str] = None):
    """Resolve a backend name: ``None``, ``"auto"`` and ``"stdlib"``.

    Raises :class:`ValueError` for any other name.
    """
    if name is None or name in ("auto", "stdlib"):
        return stdlib_backend
    raise ValueError(f"unknown kernel backend {name!r}")


def numpy_version() -> str:
    """Always ``"absent"``: no kernel runs on numpy."""
    return "absent"
