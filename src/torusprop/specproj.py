"""Smoothed spectral projectors f(k(E - T)) and their return-time predictor.

The exact kernel is the spectral sum sum_l f(k(E - lambda_l)) times the
eigenvector kernel; f is produced from a compactly supported f-hat by the
trapezoid rule, on a node count sized from the largest argument the sum
needs, so that f and f-hat stay dual to 1e-13 at every eigenvalue.  The
predictor sums over the classical return times t in supp fhat with
phi_t(x) = y,

    sqrt(k)/(2 pi) * sum_t fhat(t) [rho'_t]^{1/2} e^{-i int H^sub} [T^L_t]^k,

where H^sub is the quantized operator's subprincipal symbol and the
transport phase along the lifted path carries the winding holonomy.  A
return that winds by w ends at the lift y + w, where the kernel is
K(y + w, x) = e^{2 pi i k (w_p q_y - w_q p_y)} K(y, x), so its transport
phase also carries the inverse of that lattice gauge factor.  Only T^L's
power depends on k, so the predictor is one k-free ``ProjectorPrediction``
per (y, x), which ``value(k)`` quantizes.  (Note the prefactor: the inverse
semiclassical Fourier transform contributes k^{-1/2} (k/2pi)^{1/2} =
(2pi)^{-1/2} against the propagator's k/2pi, so the constant is
sqrt(k)/(2 pi); a (k/2pi)^{1/2} variant that sometimes appears differs by
sqrt(2 pi) and fails the exact comparison by ~60%.)  Off the image of the
return relation the kernel is rapidly decaying and the predictor has no
terms and the value zero.  ``projector_compare`` pairs each exact value with
its prediction in a propkern.KernelSample, the propagator's record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .propkern import KernelSample, kernel_eval, operator_for
from .thetaq import HermitianOperator, _block_len, quantum_space
from .torusgeo import (
    SymbolField,
    _as_pq,
    check_level,
    return_times,
    rho_level_half,
)

__all__ = [
    "ResolutionError",
    "FourierPair",
    "build_fourier_pair",
    "ReturnTerm",
    "ProjectorPrediction",
    "projector_kernel_exact",
    "projector_kernel_asymptotic",
    "projector_kernel_timequad",
    "projector_compare",
]

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Fourier pairs
# ---------------------------------------------------------------------------


class ResolutionError(RuntimeError):
    """The trapezoid rule does not resolve f within its node cap."""


# The trapezoid rule starts at this many intervals on [-T, T] and doubles up
# to the cap; f counts as resolved when one more doubling moves it by at most
# _F_TOL * max(1, |f(0)|) at every probe argument.
_START_NODES = 512
_MAX_NODES = 1 << 16
_F_TOL = 1e-13
# Probe arguments as fractions of the largest one: the rule's aliasing error
# at u is led by f(u - 2 pi / h), so it is largest at the top of the range.
# The first probe is 0, so the tolerance can scale with f(0).
_PROBES = np.array([0.0, -1.0, -0.875, -0.75, 0.75, 0.875, 1.0])


@dataclass(frozen=True)
class FourierPair:
    """A function f with compactly supported Fourier transform fhat.

    f(E) = (2 pi)^{-1/2} * integral over [-T, T] of fhat(t) e^{i t E} dt,
    by the uniform trapezoid rule: geometrically for the bump, which
    vanishes to all orders at +-T, and down to about 2e-16 for the
    truncated Gaussian, which is e^{-36.1} there.  The node count is sized
    afresh from the largest argument asked for.
    """

    support_T: float
    fhat: Callable

    def f_eval(self, energies) -> np.ndarray:
        """f at the given (array of) arguments, on the node count their
        largest modulus needs; ResolutionError past the node cap."""
        e = np.atleast_1d(np.asarray(energies, dtype=float))
        vals = self._trapezoid(self.node_count(float(np.max(np.abs(e), initial=0.0))),
                               e.ravel())
        return vals.reshape(np.shape(energies)) if np.ndim(energies) else vals[0]

    def node_count(self, u_max: float) -> int:
        """The smallest doubling of _START_NODES whose trapezoid sum moves by
        at most _F_TOL * max(1, |f(0)|) under one more doubling at the probes
        in [-u_max, u_max].

        The sum with step h is periodic in u with period 2 pi / h, so counts
        whose period does not exceed u_max are skipped unchecked: at u near
        two periods, a count and its doubling alias to the same wrong value.
        """

        if not np.isfinite(u_max):
            raise ValueError(f"f requested at a non-finite argument ({u_max})")
        probes = u_max * _PROBES
        n = _START_NODES
        while np.pi * n / self.support_T <= u_max and n <= _MAX_NODES:
            n *= 2
        coarse = self._trapezoid(n, probes)
        while n <= _MAX_NODES:
            fine = self._trapezoid(2 * n, probes)
            if float(np.max(np.abs(fine - coarse))) <= _F_TOL * max(1.0, abs(fine[0])):
                return n
            n, coarse = 2 * n, fine
        raise ResolutionError(
            f"f is not resolved at |u| = {u_max:.4g} within {_MAX_NODES} trapezoid "
            f"nodes on [-{self.support_T:g}, {self.support_T:g}]; shrink the fhat "
            "support or k")

    def _trapezoid(self, n: int, u: np.ndarray) -> np.ndarray:
        """(2 pi)^{-1/2} times the n-interval trapezoid sum of
        fhat(t) e^{i u t} over [-T, T], for each entry of u.

        With z = e^{i u h} and the nodes t_j = j h, the sum is h fhat(0) plus
        the polynomials sum_j w_j fhat(t_j) z^j and sum_j w_j fhat(-t_j) z^-j,
        j = 1 .. n/2, each evaluated by baby and giant steps (Paterson &
        Stockmeyer, SIAM J. Comput. 2, 1973): with j = a B + b and
        B = 2^floor(bitlen(n/2) / 2), about sqrt(n/2), z^j = z^{aB} z^b.  A
        block of arguments then needs two exponential tables of about B
        columns, within the budget, and one (block x B) @ (B x rows) product
        per sign; no arguments x nodes array is held.  The terms are those
        of the plain sum, added in another order.
        """

        half = n // 2
        h = 2.0 * self.support_T / n
        baby = 1 << (half.bit_length() // 2)
        giant = -(-(half + 1) // baby)
        t = h * np.arange(1, half + 1)
        weights = np.full(half, h)
        weights[-1] = 0.5 * h  # the endpoints +-T
        coeffs = np.zeros((2, giant * baby), dtype=complex)
        coeffs[0, 1:half + 1] = weights * np.asarray(self.fhat(t), dtype=complex)
        coeffs[1, 1:half + 1] = weights * np.asarray(self.fhat(-t), dtype=complex)
        plus, minus = np.swapaxes(coeffs.reshape(2, giant, baby), 1, 2)  # [b, a] = c_{aB+b}
        centre = h * complex(np.asarray(self.fhat(0.0), dtype=complex))
        baby_t = h * np.arange(baby)
        giant_t = h * baby * np.arange(giant)
        out = np.empty(u.size, dtype=complex)
        block = _block_len(max(baby, giant))
        for lo in range(0, u.size, block):
            ub = u[lo:lo + block]
            z_b = np.exp(1j * np.outer(ub, baby_t))
            z_a = np.exp(1j * np.outer(ub, giant_t))
            out[lo:lo + block] = centre + np.sum(z_a * (z_b @ plus)
                                                 + np.conj(z_a) * (np.conj(z_b) @ minus), axis=1)
        return out / np.sqrt(TWO_PI)


def _fhat_function(kind: str, support_t: float) -> Callable:
    if kind == "bump":
        def fhat(t):
            t = np.asarray(t, dtype=float)
            u = t / support_t
            inside = np.abs(u) < 1.0
            safe = np.where(inside, 1.0 - u * u, 1.0)
            return np.where(inside, np.exp(-1.0 / safe), 0.0)
        return fhat
    if kind == "gaussian-truncated":
        def fhat(t):
            t = np.asarray(t, dtype=float)
            u = 8.5 * t / support_t
            return np.where(np.abs(t) <= support_t, np.exp(-0.5 * u * u), 0.0)
        return fhat
    raise ValueError(f"unknown Fourier-pair kind {kind!r}; expected 'bump' or "
                     "'gaussian-truncated'")


def build_fourier_pair(kind: str, support_T: float) -> FourierPair:
    """The FourierPair of a fhat kind on [-T, T], 0 < T < inf, built without
    evaluating f.  Both kinds of fhat are real, even and vanish at +-T, so f
    is real; a support too wide to resolve is refused by the first
    ``f_eval`` (ResolutionError)."""

    if not 0.0 < support_T < np.inf:
        raise ValueError(f"support_T must be positive and finite, got {support_T!r}")
    return FourierPair(support_T=float(support_T), fhat=_fhat_function(kind, float(support_T)))


# ---------------------------------------------------------------------------
# exact kernels
# ---------------------------------------------------------------------------


def _spectral_coefficients(op: HermitianOperator, pair: FourierPair,
                           energy: float) -> np.ndarray:
    return np.asarray(pair.f_eval(op.space.k * (energy - op.eigenvalues)), dtype=complex)


def projector_kernel_exact(op: HermitianOperator, pair: FourierPair, energy: float, y, x, *,
                           coeffs: np.ndarray | None = None) -> complex:
    """Kernel of f(k(E - T)) at (y, x), k the level of T's space: spectral
    sum over the eigenbasis; ``coeffs``, if given, are the precomputed
    f(k(E - lambda_l))."""

    if coeffs is None:
        coeffs = _spectral_coefficients(op, pair, float(energy))
    return complex(kernel_eval(op, coeffs, y, x)[0])


def projector_kernel_timequad(op: HermitianOperator, pair: FourierPair, energy: float,
                              y, x) -> complex:
    """The same kernel through the time side: (2 pi)^{-1/2} integral of
    fhat(t) e^{i k t E} U_{k,t}(y, x) dt by the trapezoid rule on twice the
    nodes the spectral route resolves f with.  Exact Fourier inversion up to
    the two quadratures, so it must agree with projector_kernel_exact to
    high accuracy — a wiring check, not an asymptotic one.  The time sum
    w_j = sum_t h fhat(t) e^{ikt(E - lambda_j)} comes first, over node
    chunks within the budget; one ``kernel_eval`` call then contracts w."""

    k = op.space.k
    n = 2 * pair.node_count(float(np.max(np.abs(k * (energy - op.eigenvalues)))))
    h = 2.0 * pair.support_T / n
    t = h * np.arange(1 - n // 2, n // 2)  # |fhat(+-T)| <= 1e-14: endpoints dropped
    coeff = h * np.asarray(pair.fhat(t), dtype=complex) * np.exp(1j * k * t * float(energy))
    chunk, ikt = _block_len(op.eigenvalues.size), -1j * k * t
    weights = sum(coeff[lo:lo + chunk] @ np.exp(np.outer(ikt[lo:lo + chunk], op.eigenvalues))
                  for lo in range(0, t.size, chunk))
    return complex(kernel_eval(op, weights, y, x)[0] / np.sqrt(TWO_PI))


# ---------------------------------------------------------------------------
# the return-time predictor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnTerm:
    """One return of x to y: the k-independent ``amplitude``
    fhat(t) rho'^{1/2} e^{-i int H^sub}, and ``conn_L``, the connection
    integral less the winding's lattice gauge term, whose k-th multiple is
    the transport phase."""

    t: float
    winding: tuple[int, int]
    fhat: complex
    amplitude: complex
    conn_L: float

    def value(self, k: int) -> complex:
        """The term at level k (prefactor excluded)."""
        return self.amplitude * np.exp(1j * float(k) * self.conn_L)


@dataclass(frozen=True)
class ProjectorPrediction:
    """The returns of x to y inside supp fhat, a k-independent state on the
    level curve.  With no terms, x and y are off the image of the return
    relation: the true kernel is rapidly decaying and the predicted value is
    zero."""

    terms: tuple[ReturnTerm, ...]

    def value(self, k: int) -> complex:
        """sqrt(k)/(2 pi) times the sum of the terms at level k; 0j off the
        image."""
        return complex(np.sqrt(float(k)) / TWO_PI * sum(term.value(k) for term in self.terms))


def projector_kernel_asymptotic(sym: SymbolField, pair: FourierPair, energy: float,
                                y, x) -> ProjectorPrediction:
    """Return-time predictor for f(k(E - T))(y, x) on a regular level: every
    return of x to y inside supp fhat with its k-independent data, each
    square root's branch picked by the flow's theta_a.

    Each term is built from the flow state ``return_times`` found the
    return with (no flow is integrated here).  The flow transports to the
    lifted endpoint y + w of its winding w, and the kernel there is
    K(y + w, x) = e^{2 pi i k (w_p q_y - w_q p_y)} K(y, x), so ``conn_L``
    carries -2 pi (w_p q_y - w_q p_y), the lattice gauge factor that brings
    the predictor back to y, where the exact kernel is evaluated.  Raises
    RegularityError when x or y is off the energy level, ValueError when
    either is not a (p, q) point.
    """

    x_pq, y_pq = _as_pq(x), _as_pq(y)
    for pt in (x_pq, y_pq):
        check_level(sym, pt, float(energy))
    terms = []
    for ret in return_times(sym, x_pq, y_pq, (-pair.support_T, pair.support_T)):
        fh = complex(np.asarray(pair.fhat(ret.t), dtype=complex).reshape(()))
        rho_half = rho_level_half(sym, ret.flow, float(energy))[-1]
        gauge = TWO_PI * (ret.winding[0] * y_pq[1] - ret.winding[1] * y_pq[0])
        terms.append(ReturnTerm(t=ret.t, winding=ret.winding, fhat=fh,
                                amplitude=fh * rho_half * np.exp(-1j * ret.flow.action_Hsub[-1]),
                                conn_L=float(ret.flow.conn_L[-1]) - gauge))
    return ProjectorPrediction(tuple(terms))


# ---------------------------------------------------------------------------
# comparison tables
# ---------------------------------------------------------------------------


def _entry_points(entry) -> tuple:
    """A ``projector_compare`` entry as its points (y, x): an entry holding
    sequences is a (y, x) pair, anything else one point, its own pair."""
    if np.iterable(entry) and any(np.iterable(e) for e in entry):
        y, x = entry
        return _as_pq(y), _as_pq(x)
    pt = _as_pq(entry)
    return pt, pt


def projector_compare(sym: SymbolField, pair: FourierPair, energy: float,
                      points, ks) -> list[KernelSample]:
    """Exact versus predicted projector kernels over points x levels, one
    KernelSample each.

    Entries of ``points`` are diagonal points or (y, x) pairs; rows come out
    grouped by point in the order given, with k ascending within a group.
    Each point's prediction is built once and quantized at every k; off the
    image it is 0, so the row's errors are NaN.
    """

    rows = []
    ops = {qs.k: operator_for(qs, sym) for qs in map(quantum_space, ks)}
    coeffs = {k: _spectral_coefficients(op, pair, float(energy)) for k, op in ops.items()}
    for entry in points:
        y_pq, x_pq = _entry_points(entry)
        pred = projector_kernel_asymptotic(sym, pair, energy, y_pq, x_pq)
        for k in sorted(ops):
            exact = projector_kernel_exact(ops[k], pair, energy, y_pq, x_pq, coeffs=coeffs[k])
            rows.append(KernelSample(k, x_pq, y_pq, exact, pred.value(k)))
    return rows
