"""Pluggable vectorised kernels for the column-native hot loops.

Every per-row loop of the column-native inference stack — detector window
scans, fit-score withdrawal folds, quiet-span event walks, trigger location,
same-peer run segmentation — lives behind the narrow module interface
defined here, with two interchangeable backends:

* :mod:`repro.core.kernels.stdlib` — the bisect/Counter logic the stack
  shipped with, extracted verbatim.  Always available; the parity reference
  the other backend is checked against.
* :mod:`repro.core.kernels.numpy` — whole-run ``np.cumsum`` /
  ``np.bincount`` / ``np.searchsorted`` / boolean-mask kernels over
  zero-copy ``np.frombuffer`` views of the existing column buffers.  numpy
  stays an **optional** dependency: when it cannot be imported the backend
  is simply absent and selection falls back to stdlib.

Backend selection is one seam — :func:`get_backend` — and a backend is just
a module exposing the kernel functions (see the "kernel contract" section
of ``src/repro/core/README.md``): inputs are immutable column views,
outputs are plain row indices / counts, and no interning table is ever
touched inside a kernel (materialising interned objects stays with the
caller).  Both backends are exercised element-for-element by
``tests/test_kernels.py`` and byte-for-byte on replay signatures by the
parity matrix in ``tests/test_columnar_inference.py``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.kernels import stdlib as stdlib_backend

__all__ = [
    "available_backends",
    "default_backend",
    "get_backend",
    "numpy_version",
]

_numpy_backend = None
_numpy_checked = False


def _load_numpy_backend():
    """Import the numpy backend once; ``None`` when numpy is unavailable."""
    global _numpy_backend, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True
        try:
            from repro.core.kernels import numpy as backend
        except ImportError:
            backend = None
        else:
            if not backend.AVAILABLE:
                backend = None
        _numpy_backend = backend
    return _numpy_backend


def available_backends() -> List[str]:
    """Names accepted by :func:`get_backend`, best (auto-pick) first."""
    names = []
    if _load_numpy_backend() is not None:
        names.append("numpy")
    names.append("stdlib")
    return names


def default_backend():
    """The auto-selected backend: numpy when importable, stdlib otherwise."""
    backend = _load_numpy_backend()
    return backend if backend is not None else stdlib_backend


def get_backend(name: Optional[str] = None):
    """Resolve a backend by name; ``None`` auto-selects (numpy > stdlib).

    Raises :class:`ValueError` for an unknown name and :class:`RuntimeError`
    when ``"numpy"`` is requested explicitly but numpy cannot be imported —
    auto-selection never raises.
    """
    if name is None or name == "auto":
        return default_backend()
    if name == "stdlib":
        return stdlib_backend
    if name == "numpy":
        backend = _load_numpy_backend()
        if backend is None:
            raise RuntimeError(
                "the numpy kernel backend was requested explicitly but numpy "
                "is not importable; use kernel_backend=None (auto) or 'stdlib'"
            )
        return backend
    raise ValueError(f"unknown kernel backend {name!r}")


def numpy_version() -> str:
    """The numpy version backing the numpy kernels, or ``"absent"``."""
    backend = _load_numpy_backend()
    if backend is None:
        return "absent"
    return backend.np.__version__
