"""Complex values carried as (unit phase, log magnitude) pairs.

Theta-basis sections behave like exp(+2*pi*k*q^2) before the metric weight
exp(-4*pi*k*q^2) is applied; at k = 400 that is e^{+2500}, far beyond float
range.  Everything magnitude-sensitive therefore travels as a mantissa of
modulus one (or exactly zero) together with a real log-scale, and magnitudes
are only ever combined at the log level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExpComplex", "expc"]

_LOG_ZERO = -np.inf


@dataclass(frozen=True)
class ExpComplex:
    """A complex array in scaled form ``value = mantissa * exp(log_scale)``.

    ``mantissa`` has modulus 1 wherever the value is nonzero and exactly 0
    (with ``log_scale = -inf``) where it vanishes.  ``mantissa`` and
    ``log_scale`` broadcast against each other.
    """

    mantissa: np.ndarray
    log_scale: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(np.shape(self.mantissa), np.shape(self.log_scale))

    def to_complex(self) -> np.ndarray:
        """Collapse to ordinary complex numbers (may over/underflow)."""
        return self.mantissa * np.exp(self.log_scale)

    def abs_log(self) -> np.ndarray:
        """Natural log of the modulus (-inf at exact zeros)."""
        return np.asarray(self.log_scale)

    def conjugate(self) -> "ExpComplex":
        return ExpComplex(np.conjugate(self.mantissa), self.log_scale)

    def __mul__(self, other: "ExpComplex") -> "ExpComplex":
        if not isinstance(other, ExpComplex):
            return NotImplemented
        return ExpComplex(self.mantissa * other.mantissa,
                          np.asarray(self.log_scale) + np.asarray(other.log_scale))

    def scaled(self, log_factor, phase=1.0) -> "ExpComplex":
        """Multiply by ``phase * exp(log_factor)`` with ``|phase| = 1``."""
        return ExpComplex(self.mantissa * phase,
                          np.asarray(self.log_scale) + np.asarray(log_factor))


def expc(values) -> ExpComplex:
    """Wrap ordinary complex values, splitting off the log magnitude."""
    values = np.asarray(values, dtype=complex)
    mag = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scale = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), _LOG_ZERO)
        mantissa = np.where(mag > 0.0, values / np.where(mag > 0.0, mag, 1.0), 0.0 + 0.0j)
    return ExpComplex(mantissa, log_scale)

