"""Multi-backend kernel dispatch for the flat-array engines.

The coloring engine, the q-error metrics, the block-weight tracker, and
the arc-store solvers all reduce to the small kernel surface defined by
:class:`~repro.core.backends.base.Backend`.  This package resolves
which implementation runs them:

* ``numpy`` — the always-available reference
  (:mod:`~repro.core.backends.numpy_backend`);
* ``numba`` — prange-threaded ``@njit(cache=True)`` fusions
  (:mod:`~repro.core.backends.numba_backend`), used automatically when
  importable.

Resolution happens **once per run**: explicit argument
(``Rothko(backend=...)``) beats the process default installed by
:func:`set_default_backend` (``--backend`` on the CLI) beats the
``REPRO_BACKEND`` environment variable beats auto-detection
(numba if importable, else numpy).  ``resolve_backend(None)`` *is* the
process default, so every caller that was not handed a backend lands
on the same instance.  Any other spec is a :class:`ValueError`.  The
optional numba backend degrades silently under ``auto`` when it fails
to import and raises a clear
:class:`ImportError` when named explicitly.  If it imports but fails at
*runtime* it degrades too: numba instances are wrapped in
:class:`~repro.resilience.fallback.ResilientBackend`, so a kernel that
raises mid-run is demoted to the numpy reference (once, with a warning
and a ``resilience.fallback.*`` counter) instead of crashing the run.
Resolved instances are cached per name, so repeated resolution is a
dict lookup, and the resolved ``name`` is what
the observability spans, the coloring-cache key, and the benchmark
results JSON record.

:func:`parallel_round_executor` (in
:mod:`~repro.core.backends.executor`) pairs a resolved backend with the
right fan-out mode for batched split rounds: threads where the kernels
release the GIL, a shared-memory process pool for the numpy path.
"""

from __future__ import annotations

import os

from repro.core.backends.base import Backend, KERNEL_NAMES, SOLVER_KERNEL_NAMES
from repro.core.backends.executor import RoundExecutor, resolve_workers
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.backends import numba_backend as _numba

__all__ = [
    "Backend",
    "KERNEL_NAMES",
    "SOLVER_KERNEL_NAMES",
    "RoundExecutor",
    "available_backends",
    "resolve_backend",
    "resolve_workers",
    "set_default_backend",
]

#: every spec :func:`resolve_backend` accepts (``auto`` prefers numba)
BACKEND_SPECS = ("auto", "numba", "numpy")

#: resolved instances, keyed by name
_INSTANCES: dict[str, Backend] = {}

#: the process-default backend (what ``resolve_backend(None)`` returns)
_DEFAULT: Backend | None = None


def available_backends() -> list[str]:
    """Names of the backends that can actually be instantiated here."""
    names = ["numpy"]
    if _numba.available():
        names.insert(0, "numba")
    return names


def _instantiate(name: str) -> Backend:
    backend = _INSTANCES.get(name)
    if backend is None:
        if name == "numpy":
            backend = NumpyBackend()
        else:
            # Deferred: repro.resilience imports this package's base.
            from repro.resilience.fallback import ResilientBackend

            backend = ResilientBackend(_numba.NumbaBackend())
        _INSTANCES[name] = backend
    return backend


def resolve_backend(spec: "str | Backend | None" = None) -> Backend:
    """Resolve a backend request to an instance.

    ``spec`` may be an instance (returned as-is), one of
    :data:`BACKEND_SPECS` (``"auto"``, ``"numba"``, ``"numpy"``), or
    ``None`` — the process default: whatever :func:`set_default_backend`
    installed, else ``REPRO_BACKEND``, else auto-detection, resolved
    lazily once and cached.  Any other string raises :class:`ValueError`.
    """
    global _DEFAULT
    if spec is None:
        if _DEFAULT is None:
            env = os.environ.get("REPRO_BACKEND", "").strip()
            _DEFAULT = resolve_backend(env or "auto")
        return _DEFAULT
    if not isinstance(spec, str):
        return spec
    if spec not in BACKEND_SPECS:
        raise ValueError(
            f"unknown backend {spec!r}; expected one of "
            f"{', '.join(BACKEND_SPECS)}"
        )
    if spec == "auto":
        return _instantiate("numba" if _numba.available() else "numpy")
    return _instantiate(spec)


def set_default_backend(spec: "str | Backend | None") -> Backend | None:
    """Install the process default and return it; ``None`` drops it, so
    the next ``resolve_backend(None)`` re-reads ``REPRO_BACKEND`` (or
    auto-detects).  The CLI's ``--backend`` flag and tests are the
    intended callers."""
    global _DEFAULT
    _DEFAULT = None if spec is None else resolve_backend(spec)
    return _DEFAULT
