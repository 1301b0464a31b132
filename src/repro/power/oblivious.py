"""Oblivious power schemes ``P_tau(i) = C * l_i^(tau * alpha)``.

The power of a link depends only on its own length (Section 2).  The
special cases are uniform power (``tau = 0``), linear power
(``tau = 1``) and the canonical "mean" power (``tau = 1/2``) for which
the oblivious conflict graph ``G_obl`` certifies feasibility [13].
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_TAU
from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.power.base import PowerAssignment

__all__ = ["ObliviousPower", "UniformPower", "LinearPower", "mean_power"]


class ObliviousPower(PowerAssignment):
    """The family ``P_tau`` with scale constant ``C``.

    Parameters
    ----------
    tau:
        Exponent fraction in ``[0, 1]``.  ``tau = 0`` is uniform power,
        ``tau = 1`` linear power; the paper's positive results for
        oblivious power use ``tau in (0, 1)``.
    alpha:
        Path-loss exponent the scheme is tuned for.
    scale:
        The instance-wide constant ``C > 0``.
    """

    def __init__(self, tau: float, alpha: float, *, scale: float = 1.0) -> None:
        if not 0.0 <= tau <= 1.0:
            raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.tau = float(tau)
        self.alpha = float(alpha)
        self.scale = float(scale)

    @property
    def is_oblivious(self) -> bool:
        return True

    @property
    def tau_prime(self) -> float:
        """``tau' = min(tau, 1 - tau)`` — drives the Section 4.1 bound."""
        return min(self.tau, 1.0 - self.tau)

    def powers(self, links: LinkSet) -> np.ndarray:
        """``C * l^(tau * alpha)`` for every link.

        Raises :class:`ConfigurationError` (without a numpy overflow
        warning) when a power leaves float64's finite range, as linear
        power does on long exponential chains.
        """
        with np.errstate(over="ignore"):
            vec = self.scale * links.lengths ** (self.tau * self.alpha)
        if not np.all(np.isfinite(vec)):
            raise ConfigurationError(
                f"{self!r} overflows float64 on links up to length "
                f"{float(links.lengths.max()):.3g}: powers must be positive and finite"
            )
        return vec

    def power_of_length(self, length: float) -> float:
        """Power for a free-standing link of the given length."""
        if length <= 0:
            raise ConfigurationError(f"length must be positive, got {length}")
        return self.scale * length ** (self.tau * self.alpha)

    def rescaled_for_noise(self, links: LinkSet, model) -> "ObliviousPower":
        """A copy whose scale meets the interference-limited minimum
        ``(1 + eps) beta N l^alpha`` for every link in ``links``."""
        if model.noiseless:
            return self
        lengths = links.lengths
        needed = (
            (1.0 + model.epsilon)
            * model.beta
            * model.noise
            * lengths**model.alpha
            / lengths ** (self.tau * self.alpha)
        )
        return ObliviousPower(
            self.tau, self.alpha, scale=max(self.scale, float(needed.max()))
        )

    def __repr__(self) -> str:
        return f"ObliviousPower(tau={self.tau}, alpha={self.alpha}, scale={self.scale:.4g})"


class UniformPower(ObliviousPower):
    """``P_0``: every sender uses the same power."""

    def __init__(self, alpha: float, *, scale: float = 1.0) -> None:
        super().__init__(0.0, alpha, scale=scale)


class LinearPower(ObliviousPower):
    """``P_1``: power proportional to ``l^alpha`` (just-enough power)."""

    def __init__(self, alpha: float, *, scale: float = 1.0) -> None:
        super().__init__(1.0, alpha, scale=scale)


def mean_power(alpha: float, *, scale: float = 1.0) -> ObliviousPower:
    """The canonical ``tau = 1/2`` scheme used by ``G_obl``'s guarantee."""
    return ObliviousPower(DEFAULT_TAU, alpha, scale=scale)
