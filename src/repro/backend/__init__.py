"""Pluggable numeric backends — the seventh registry.

The SINR compute layer (kernel blocks, reductions, feasibility linear
algebra, conflict-adjacency assembly) sits behind the
:class:`~repro.backend.base.NumericBackend` interface, selected by name
like every other pipeline axis:

``dense-numpy``
    The reference backend — plain vectorised numpy with dense
    memoization, byte-identical to the seed implementation.  Default.
``blocked-sparse``
    Streams every block, forbids dense ``n x n`` memos
    (``dense_builds == 0`` by construction) and assembles the conflict
    adjacency as CSR — the backend that schedules 100k-link networks.

Backends are **bit-identical by contract**: schedules, slot
assignments and measurements do not depend on the backend, which is why
backend choice never splits a store key (:mod:`repro.store.keys`) and
sweep rows remain comparable across backends.  Register additional
backends with :func:`register_backend`; they become selectable through
``PipelineConfig(backend=...)`` and the CLI ``--backend`` flag.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.api.registry import Registry
from repro.backend.base import NumericBackend
from repro.backend.dense import DenseNumpyBackend
from repro.backend.sparse import BlockedSparseBackend, SparseAdjacency

__all__ = [
    "BlockedSparseBackend",
    "DEFAULT_BACKEND",
    "DenseNumpyBackend",
    "NumericBackend",
    "SparseAdjacency",
    "numeric_backends",
    "register_backend",
    "resolve_backend",
]

#: Name of the default (reference) backend.
DEFAULT_BACKEND = "dense-numpy"

#: The numeric-backend registry — the seventh pluggable axis.
numeric_backends: Registry[NumericBackend] = Registry("numeric backend")
numeric_backends.register(DEFAULT_BACKEND, DenseNumpyBackend())
numeric_backends.register("blocked-sparse", BlockedSparseBackend())


def register_backend(
    name: str, backend: Optional[NumericBackend] = None, *, overwrite: bool = False
):
    """Register a backend instance (direct or decorator form)."""
    if backend is None:
        return numeric_backends.register(name, overwrite=overwrite)
    return numeric_backends.register(name, backend, overwrite=overwrite)


def resolve_backend(
    backend: Union[None, str, NumericBackend] = None
) -> NumericBackend:
    """Resolve a backend spec (name, instance or ``None``) to an instance."""
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, NumericBackend):
        return backend
    return numeric_backends.get(backend)
