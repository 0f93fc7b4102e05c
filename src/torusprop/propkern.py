"""Quantum propagators, their Schwartz kernels, and the geometric predictor.

Every exact kernel in the package goes through ``kernel_eval``: the kernel
of g(T) for a Hermitian operator T with eigenpairs (lambda_j, v_j) is
sum_j g(lambda_j) (s(y) . v_j) conj(s(x) . v_j): the sections at each point
are projected onto the eigenvectors once (O(k^2) per point; skipped when the
eigenbasis is the section basis, as for one-diagonal operators), then each
spectral row costs O(k), and no 2k x 2k matrix is formed.  Symbols are
autonomous, so the propagator e^{-i k t T} is the row g = e^{-i k t lambda}.
The predicted side is the leading-order kernel on the graph of the
classical flow,

    (k / 2 pi) * [rho_t(x)]^{1/2} * e^{-i int H^sub} [e^{-i int H} T^L]^k,

with the amplitude and phases supplied by the geometry module.  Kernel
values are reported in the global unit trivialization of the k-th bundle
power: the holomorphic basis values are converted by the factor
e^{-2 pi k (q_y^2 + q_x^2)} e^{2 pi i k (p_y q_y - p_x q_x)} (second slot
conjugated).  The modulus part is already folded into the sections
(thetaq.sections), so only the phase is applied here.  ``KernelSample`` is
the one record of an exact value against a predicted one, for the
propagator here and for the projector (specproj.projector_compare).  How
its errors fall with k is read off ``acceptance.Rate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thetaq import HermitianOperator, QuantumSpace, _block_len, sections, toeplitz_build
from .torusgeo import (
    SymbolField,
    Trajectory,
    integrate_flow,
    prequantum_phase,
    rho_graph_half,
)

__all__ = [
    "KernelSample",
    "kernel_eval",
    "graph_compare",
    "operator_for",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class KernelSample:
    """One exact kernel value at (k, y, x) against its predicted value: the
    comparison record of the propagator and of the smoothed projector.

    Both errors follow from the two complex fields.  The modulus error is
    gauge-independent; the phase error is angle(exact / predicted), wrapped
    to (-pi, pi].  Both are NaN where the prediction is 0 (off the image of
    the return relation), and the phase error also where the exact value is 0.
    """

    k: int
    x: tuple[float, float]
    y: tuple[float, float]
    exact: complex
    predicted: complex

    @property
    def rel_err_modulus(self) -> float:
        if self.predicted == 0:
            return float("nan")
        return float(abs(abs(self.exact) - abs(self.predicted)) / abs(self.predicted))

    @property
    def phase_err(self) -> float:
        if self.exact == 0 or self.predicted == 0:
            return float("nan")
        return float(np.angle(self.exact / self.predicted))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _as_pq(point) -> tuple[float, float]:
    if isinstance(point, complex):
        return float(point.real), float(point.imag)
    arr = np.asarray(point, dtype=float).reshape(-1)
    if arr.size != 2:
        raise ValueError(f"expected a (p, q) point, got {point!r}")
    return float(arr[0]), float(arr[1])


def kernel_eval(qs: QuantumSpace, op: HermitianOperator, spectral, ys, x) -> np.ndarray:
    """Kernels of g_i(op) at (y_i, x) in the unit trivialization, as a
    complex array with one entry per row of ``spectral``.

    Row i of ``spectral`` holds g_i over op's eigenvalues (a 1-d array is one
    row); ``ys`` is one (possibly lifted) point, shared by every row, or one
    point per row.  Entry i is sum_j g_i(lambda_j) (s(y_i) v_j) conj(s(x) v_j)
    times the gauge phase e^{2 pi i k (p_y q_y - p_x q_x)}.
    """

    xp, xq = _as_pq(x)
    return _kernel_rows(qs, op, spectral, ys, (xp, xq),
                        np.conjugate(op.to_eigenbasis(sections(qs, complex(xp, xq)))))


def _kernel_rows(qs: QuantumSpace, op: HermitianOperator, spectral, ys, x_pq, conj_x_modes):
    g = np.atleast_2d(np.asarray(spectral, dtype=complex))
    y = np.asarray(ys, dtype=float).reshape(-1, 2)
    a_modes = op.to_eigenbasis(sections(qs, y[:, 0] + 1j * y[:, 1]).T)
    gauge = np.exp(2j * np.pi * qs.k * (y[:, 0] * y[:, 1] - x_pq[0] * x_pq[1]))
    return ((g * a_modes) @ conj_x_modes) * gauge


def _graph_predictions(traj: Trajectory, k: int) -> np.ndarray:
    """The leading-order kernel (k/2pi) rho^{1/2} e^{-i int H^sub}
    [e^{-i int H} T^L]^k at (phi_t(x), x) for every trajectory time, H^sub
    being T_k(f + g/k)'s g + Delta f / (16 pi) (make_symbol); the flow's
    continuous theta_a picks the square root's branch at each time."""
    return (k / TWO_PI) * rho_graph_half(traj) * np.exp(1j * prequantum_phase(traj, k))


def operator_for(qs: QuantumSpace, sym: SymbolField) -> HermitianOperator:
    """The level-k Hermitian operator quantizing a symbol.

    The model symbol takes the normalized diagonal cos(pi ell / k) plus c/k,
    c the (0, 0) coefficient of its subprincipal modes: e^{pi/(4k)}
    T_k(cos 2 pi q) + c/k, which is T_k(f + g/k) up to O(k^-2)
    (model_cos_symbol), a one-diagonal operator that is its own
    eigendecomposition.  Every other symbol is
    T_k(f + g/k), built in closed form from the Fourier modes of its
    principal part f and subprincipal part g.
    """

    if sym.name == "model-cos":
        freqs, coeffs = sym.sub_modes
        c = float(np.sum(coeffs[~freqs.any(axis=1)].real))
        vals = np.cos(np.pi * np.arange(qs.dim) / qs.k) + c / qs.k
        return HermitianOperator(k=qs.k, diagonals={0: vals})
    return toeplitz_build(qs, sym)


def graph_compare(qs: QuantumSpace, sym: SymbolField, x, tgrid) -> list[KernelSample]:
    """Exact kernel at (phi_t(x), x) versus the predictor, over a forward
    time grid (it need not start at 0): one KernelSample per time, in grid
    order.

    The flow is read at the ``tgrid`` times only; the exact values reuse one
    eigendecomposition; the moving point's sections and the spectral rows
    e^{-i k t lambda} come in chunks of the thetaq._BLOCK_PAIRS budget, at least
    2k/4 rows with a dense eigenbasis, so memory does not grow with the grid.
    """

    tg = np.asarray(tgrid, dtype=float)
    x_pq = _as_pq(x)
    traj = integrate_flow(sym, x_pq, tg)
    preds = _graph_predictions(traj, qs.k)
    ys = traj.points_lifted
    op = operator_for(qs, sym)
    chunk = _block_len(qs.dim, 1 if op.eigenvectors is None else qs.dim // 4)
    conj_x_modes = np.conjugate(op.to_eigenbasis(sections(qs, complex(*x_pq))))  # for every chunk
    exact = np.concatenate([
        _kernel_rows(qs, op, np.exp(-1j * qs.k * np.outer(tg[lo:lo + chunk], op.eigenvalues)),
                     ys[lo:lo + chunk], x_pq, conj_x_modes)
        for lo in range(0, tg.size, chunk)])
    return [KernelSample(k=qs.k, x=x_pq, y=(float(y[0]), float(y[1])),
                         exact=complex(e), predicted=complex(p))
            for y, e, p in zip(ys, exact, preds)]

