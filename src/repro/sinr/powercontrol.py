"""Feasibility under *some* power assignment (global power control).

With noise folded into a margin (the interference-limited assumption),
the SINR conditions for a set ``S`` read, in matrix form::

    q  >=  A q        componentwise, q > 0,

where ``q`` is the power vector and ``A`` is the normalised affectance
matrix ``A[i, j] = beta * l_i^alpha / d_ji^alpha`` (``A[i, i] = 0``).
A positive solution exists iff the spectral radius ``rho(A) < 1``
(Perron-Frobenius); the oracle decides ``rho(A) < 1 - margin``.

**Decision.**  For any positive ``x`` the Collatz–Wielandt bounds give
``min r <= rho(A) <= max r`` with ``r = (A x) / x``.  So
``max r < (1 - margin)(1 - band)`` proves the set feasible, and ``x``
itself is then a noiseless power vector: the set's *certificate*.
``min r >= (1 - margin)(1 + band)`` proves it infeasible.  Otherwise
``x <- A x / max(A x)`` (power iteration) tightens both bounds, for up
to :data:`~repro.constants.FEASIBILITY_MAX_STEPS` steps.  The repair
pass probes ``slot + [link]``, so each probe starts from the memoized
certificate of ``slot`` (kept on the link set's
:class:`~repro.sinr.kernels.KernelCache`) and is usually decided in a
few matrix-vector products.  Only a probe left undecided, because
``rho`` lies inside the band or the iteration stalls, pays an
eigen-solve (:meth:`~repro.backend.base.NumericBackend.spectral_radius`),
and it is accepted only if its Neumann vector ``q`` passes
``A q <= (1 - margin) q``: every accept comes with a witness.

This matters beyond speed.  At large length diversity ``eigvals`` is
wrong both ways: it reports ``rho > 1`` for sets that have a
certificate, and ``rho < 1`` for sets whose Neumann powers fail the
verifier.  A certificate is checked on the very vector that is used.

**Witness.**  :func:`feasible_power_assignment` returns the minimal
Neumann power vector ``q = (I - A)^{-1} b`` (``b = 1`` noiseless,
``b_i = (1 + eps) * beta * N * l_i^alpha`` with noise) whenever ``q``
passes ``A q + beta N l^alpha <= (1 - margin) q``; otherwise it returns
the set's certificate, scaled to clear the noise floor.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import (
    FEASIBILITY_BAND,
    FEASIBILITY_MARGIN,
    FEASIBILITY_MAX_STEPS,
)
from repro.errors import InfeasibleError
from repro.links.linkset import LinkSet
from repro.sinr.model import SINRModel

__all__ = [
    "affectance_matrix",
    "spectral_radius",
    "is_feasible_some_power",
    "feasible_power_assignment",
]


def _indices(links: LinkSet, active: Optional[Sequence[int]]) -> np.ndarray:
    if active is None:
        return np.arange(len(links))
    return np.atleast_1d(np.asarray(active, dtype=int))


def affectance_matrix(
    links: LinkSet, model: SINRModel, active: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Normalised affectance matrix ``A`` of the active subset.

    ``A[i, j] = beta * l_i^alpha / d(s_j, r_i)^alpha`` for ``j != i``;
    row ``i`` collects how strongly each other sender hits receiver
    ``i``, normalised by link ``i``'s own path gain.

    Served by the link set's :class:`~repro.sinr.kernels.KernelCache`:
    repeated subset queries (the repair loop's common case) slice a
    memoized dense matrix instead of rebuilding distances.
    """
    idx = _indices(links, active)
    a = links.kernel().affectance_submatrix(model, idx, idx)
    if not np.all(np.isfinite(a)):
        raise InfeasibleError(
            "two links share a node (d_ji = 0); they can never be concurrently feasible"
        )
    return a


def spectral_radius(matrix: np.ndarray, *, backend=None) -> float:
    """Spectral radius of a non-negative square matrix.

    Delegates to the numeric backend (:mod:`repro.backend`); every
    backend shares the dense ``eigvals`` reference implementation, so
    the result never depends on the backend choice.  The feasibility
    oracle below calls the backend's method only as its ambiguity-band
    fallback.
    """
    from repro.backend import resolve_backend

    return resolve_backend(backend).spectral_radius(matrix)


#: Smallest normal float64: a certificate entry below it has lost
#: precision, so the iteration stops there.
_TINY = float(np.finfo(float).tiny)


def _certificate_key(model: SINRModel, margin: float, idx: np.ndarray) -> Tuple:
    return (float(model.alpha), float(model.beta), float(margin), tuple(idx.tolist()))


def _warm_start(kernel, key: Tuple, a: np.ndarray) -> np.ndarray:
    """Starting vector for the probe ``key``.

    The certificate of the set minus its last link, extended by the
    interference that link receives under it (its Perron-vector entry
    when ``rho`` is near one); all ones when there is none.
    """
    members = key[-1]
    prefix = kernel.certificate(key[:-1] + (members[:-1],))
    if prefix is None:
        return np.ones(len(members))
    received = float(a[-1, :-1] @ prefix)
    x = np.append(prefix, received if _TINY <= received < np.inf else 1.0)
    return x / x.max()


def _collatz_wielandt(
    a: np.ndarray, x: np.ndarray, margin: float
) -> Tuple[Optional[bool], np.ndarray]:
    """Decide ``rho(a) < 1 - margin`` by power iteration from ``x``.

    Returns ``(True, certificate)``, ``(False, x)``, or ``(None, x)``
    when the bounds did not leave the band in the step budget or the
    iterate degenerated (an entry zero, subnormal or non-finite).
    """
    accept_below = (1.0 - margin) * (1.0 - FEASIBILITY_BAND)
    reject_from = (1.0 - margin) * (1.0 + FEASIBILITY_BAND)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(FEASIBILITY_MAX_STEPS):
            if not (np.all(np.isfinite(x)) and x.min() >= _TINY):
                break
            y = a @ x
            ratios = y / x
            if ratios.max() < accept_below:
                return True, x
            if ratios.min() >= reject_from:
                return False, x
            x = y / y.max()
    return None, x


def _neumann(
    a: np.ndarray, b: np.ndarray, floor: "np.ndarray | float", margin: float
) -> Optional[np.ndarray]:
    """``q = (I - A)^{-1} b`` if it is positive, finite and passes
    ``A q + floor <= (1 - margin) q``; else ``None``."""
    try:
        q = np.linalg.solve(np.eye(a.shape[0]) - a, b)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        ok = (
            np.all(np.isfinite(q))
            and np.all(q > 0)
            and np.all(a @ q + floor <= (1.0 - margin) * q)
        )
    return q if ok else None


def _certify(
    links: LinkSet, model: SINRModel, idx: np.ndarray, a: np.ndarray, margin: float
) -> Optional[np.ndarray]:
    """The set's certificate (memoized on the kernel cache), or
    ``None`` when the set is infeasible."""
    kernel = links.kernel()
    key = _certificate_key(model, margin, idx)
    x = kernel.certificate(key)
    if x is not None:
        return x
    verdict, x = _collatz_wielandt(a, _warm_start(kernel, key, a), margin)
    if verdict is None:
        kernel.stats.eig_solves += 1
        certificate = None
        if kernel.backend.spectral_radius(a) < 1.0 - margin:
            q = _neumann(a, np.ones(idx.size), 0.0, margin)
            certificate = None if q is None else q / q.max()
    else:
        kernel.stats.cw_decisions += 1
        certificate = x if verdict else None
    if certificate is not None:
        kernel.remember_certificate(key, certificate)
    return certificate


def is_feasible_some_power(
    links: LinkSet,
    model: SINRModel,
    active: Optional[Sequence[int]] = None,
    *,
    margin: float = FEASIBILITY_MARGIN,
) -> bool:
    """Whether the active subset is feasible under *some* power vector.

    True iff ``rho(A) < 1 - margin``, decided by the Collatz–Wielandt
    oracle (see the module docstring); an accepted set's certificate is
    memoized for :func:`feasible_power_assignment`.  Links sharing a
    node are always infeasible together (captured by an infinite
    affectance).
    """
    idx = _indices(links, active)
    if idx.size <= 1:
        return True
    try:
        a = affectance_matrix(links, model, idx)
    except InfeasibleError:
        return False
    return _certify(links, model, idx, a, margin) is not None


def feasible_power_assignment(
    links: LinkSet,
    model: SINRModel,
    active: Optional[Sequence[int]] = None,
    *,
    margin: float = FEASIBILITY_MARGIN,
) -> np.ndarray:
    """A concrete power vector rendering the active subset feasible.

    First the minimal Neumann solve ``q = (I - A)^{-1} b``, with
    ``b = 1`` noiseless and the interference-limited minimum power
    ``(1+eps) beta N l^alpha`` with noise, kept when it passes
    ``A q + beta N l^alpha <= (1 - margin) q``.  At large length
    diversity ``q`` can be too ill-conditioned for that; then the
    set's certificate ``x`` is used: ``x / max x`` noiseless, and
    ``x * max(b / (x - A x))`` with noise.

    Raises
    ------
    InfeasibleError
        If no power assignment can make the set feasible, or the
        witness overflows float64.
    """
    idx = _indices(links, active)
    lengths = links.lengths[idx]
    if idx.size == 1:
        p = max(model.min_power(float(lengths[0])), 1.0)
        return np.array([p])
    a = affectance_matrix(links, model, idx)
    if model.noiseless:
        b = np.ones(idx.size)
        floor: "np.ndarray | float" = 0.0
    else:
        with np.errstate(over="ignore"):
            gain = lengths**model.alpha
            b = (1.0 + model.epsilon) * model.beta * model.noise * gain
            floor = model.beta * model.noise * gain
    q = _neumann(a, b, floor, margin)
    if q is not None:
        return q
    x = _certify(links, model, idx, a, margin)
    if x is None:
        raise InfeasibleError(
            f"set of {idx.size} links is infeasible under any power "
            f"(spectral radius >= {1.0 - margin})"
        )
    if model.noiseless:
        return x / x.max()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = x * np.max(b / (x - a @ x))
    if not (np.all(np.isfinite(p)) and np.all(p > 0)):
        raise InfeasibleError(
            f"set of {idx.size} links is feasible, but its noise-scaled "
            "power witness overflows float64"
        )
    return p
