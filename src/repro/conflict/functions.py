"""Threshold functions ``f`` defining the conflict graphs (Appendix A).

Two links ``i, j`` are *f-independent* when::

    d(i, j) / l_min  >  f(l_max / l_min),

with ``l_min = min(l_i, l_j)``, ``l_max = max(l_i, l_j)``; otherwise
they conflict.  The three instantiations used by the paper:

* ``f(x) = gamma``                         -> ``G_gamma`` (``G1``),
* ``f(x) = gamma * x^delta``               -> ``G_obl``,
* ``f(x) = gamma * max(1, log^{2/(alpha-2)} x)`` -> ``G_arb``.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ThresholdFunction",
    "ConstantThreshold",
    "PowerLawThreshold",
    "LogThreshold",
]


class ThresholdFunction(abc.ABC):
    """A positive non-decreasing sub-linear function ``f: [1, inf) -> R+``."""

    #: Short name used in reports and benchmark tables.
    name: str = "f"

    @abc.abstractmethod
    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``f`` element-wise on ``x >= 1``."""

    def scalar(self, x: float) -> float:
        """Evaluate at a single point."""
        return float(self(np.asarray([x], dtype=float))[0])

    @property
    @abc.abstractmethod
    def slope_bound(self) -> float:
        """``s_f = sup_{x >= 1} f(x) / x``, finite because ``f`` is sub-linear."""

    def link_radii(self, lengths: np.ndarray) -> np.ndarray:
        """Per-link conflict radius ``r_i = max(l_i f(L_max/l_i), l_i s_f)``.

        Every conflicting pair has ``d(i, j) <= l_min * f(l_max/l_min)
        <= min(r_i, r_j)``: the shorter link's first term covers it
        because ``f`` is non-decreasing and ``l_max <= L_max``, and the
        longer link's second term because ``l_min f(l_max/l_min) =
        l_max * f(x)/x`` with ``x = l_max/l_min``.  The conflict-graph
        build (:mod:`repro.conflict.graph`) sizes its grid cells by it.
        """
        lengths = np.asarray(lengths, dtype=float)
        reach = lengths * self(lengths.max() / lengths)
        return np.maximum(reach, lengths * self.slope_bound)


class ConstantThreshold(ThresholdFunction):
    """``f(x) = gamma``: the graph ``G_gamma``; ``gamma = 1`` is the
    ``G1`` of Theorem 2 (conflict iff ``d(i, j) <= min(l_i, l_j)``)."""

    def __init__(self, gamma: float = 1.0) -> None:
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        self.name = f"G_const({self.gamma:g})"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.gamma)

    @property
    def slope_bound(self) -> float:
        return self.gamma

    def __repr__(self) -> str:
        return f"ConstantThreshold(gamma={self.gamma})"


class PowerLawThreshold(ThresholdFunction):
    """``f(x) = gamma * x^delta`` with ``delta in (0, 1)``: the graph
    ``G^delta_gamma`` whose independent sets are ``P_tau``-feasible for
    an appropriate ``tau`` [13, Cor. 6]."""

    def __init__(self, gamma: float = 1.0, delta: float = 0.25) -> None:
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.name = f"G_pow({self.gamma:g},{self.delta:g})"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.gamma * np.asarray(x, dtype=float) ** self.delta

    @property
    def slope_bound(self) -> float:
        """``gamma``: ``f(x)/x = gamma x^(delta-1)`` peaks at ``x = 1``."""
        return self.gamma

    def __repr__(self) -> str:
        return f"PowerLawThreshold(gamma={self.gamma}, delta={self.delta})"


class LogThreshold(ThresholdFunction):
    """``f(x) = gamma * max(1, log2(x)^(2/(alpha-2)))``: the graph
    ``G_{gamma log}`` whose independent sets are feasible under global
    power control [12, Cor. 1]."""

    def __init__(self, gamma: float = 1.0, alpha: float = 3.0) -> None:
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        if alpha <= 2:
            raise ConfigurationError(f"alpha must exceed 2, got {alpha}")
        self.gamma = float(gamma)
        self.alpha = float(alpha)
        self.exponent = 2.0 / (alpha - 2.0)
        self.name = f"G_log({self.gamma:g})"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        logs = np.log2(np.maximum(x, 1.0))
        return self.gamma * np.maximum(1.0, logs**self.exponent)

    @property
    def slope_bound(self) -> float:
        """``gamma * max(1, (e/ln 2)^e * e^-e)`` with ``e = 2/(alpha-2)``:
        ``log2(x)^e / x`` peaks at ``ln x = e``; about ``1.13 gamma``
        at ``alpha = 3``."""
        e = self.exponent
        log_peak = e * (math.log(e / math.log(2.0)) - 1.0)
        if log_peak > 700.0:  # alpha near 2: the peak overflows float64
            return math.inf
        return self.gamma * math.exp(max(0.0, log_peak))

    def __repr__(self) -> str:
        return f"LogThreshold(gamma={self.gamma}, alpha={self.alpha})"
