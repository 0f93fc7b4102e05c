"""Quantum propagators, their Schwartz kernels, and the geometric predictor.

Exact kernels contract an operator T with the weight-folded sections s of
its own level-k space, ``T.space``.  ``kernel_eval`` is the one contraction
of spectral rows: the kernel of g(T) for eigenpairs (lambda_j, v_j) is
sum_j g(lambda_j) (s(y) . v_j) conj(s(x) . v_j): the sections at each point
are projected onto the eigenvectors once (O(k^2) per point; skipped when the
eigenbasis is the section basis, as for one-diagonal operators), then each
spectral row costs O(k), and no 2k x 2k matrix is formed.  Symbols are
autonomous, and ``_propagated_rows`` walks a propagator's time grid for
s(y) . e^{-i k t T} conj(s(x)): a one-diagonal operator by one
``kernel_eval`` per row block, on the rows e^{-i k t lambda}; any other,
never diagonalized, in Chebyshev-Bessel expansions that need only
``T.apply`` (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984), their
coefficients read off two real FFTs.
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

import math
from dataclasses import dataclass

import numpy as np

from .thetaq import HermitianOperator, QuantumSpace, _block_len, quantum_space, sections, toeplitz_build
from .torusgeo import (
    SymbolField,
    Trajectory,
    _as_pq,
    _as_points,
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


def kernel_eval(op: HermitianOperator, spectral, ys, x) -> np.ndarray:
    """Kernels of g_i(op) at (y_i, x) in the unit trivialization, as a
    complex array with one entry per row of ``spectral``.

    Row i of ``spectral`` holds g_i over op's eigenvalues (a 1-d array is one
    row); ``ys`` is one (possibly lifted) point, shared by every row, or one
    per row, along its last axis (``_as_points``).  Entry i is
    sum_j g_i(lambda_j) (s(y_i) v_j) conj(s(x) v_j) times the gauge phase
    e^{2 pi i k (p_y q_y - p_x q_x)}, s the sections of op's space.
    """

    x_pq = _as_pq(x)
    conj_x_modes = np.conjugate(op.to_eigenbasis(sections(op.space, x_pq)))
    g = np.atleast_2d(np.asarray(spectral, dtype=complex))
    y = _as_points(ys).reshape(-1, 2)
    a_modes = op.to_eigenbasis(sections(op.space, y).T)
    return ((g * a_modes) @ conj_x_modes) * _gauge(op.space.k, y, x_pq)


def _gauge(k: int, y: np.ndarray, x_pq) -> np.ndarray:
    """The unit-gauge phase e^{2 pi i k (p_y q_y - p_x q_x)} at each row of y."""
    return np.exp(2j * np.pi * k * (y[:, 0] * y[:, 1] - x_pq[0] * x_pq[1]))


# ---------------------------------------------------------------------------
# the Chebyshev-Bessel action of e^{-i tau T}
# ---------------------------------------------------------------------------

# The largest argument tau * r of one expansion; longer time steps are taken
# in sub-steps.  Each expansion then needs terms up to order 86.  The rounding of
# the recurrence grows with the term count: on 0.8:0.001:0.9 at k = 400 the
# kernel misses the eigh route by 4.3e-14 of its largest value at this cap
# and by 8.5e-14 at a cap of 160.
_CHEB_ARG = 40.0


def _bessel_terms(z_max: float) -> int:
    """The order N past which 2 sum_{n>N} |J_n(z)| < 1e-17 for every |z| <= z_max,
    from |J_n(z)| <= (|z|/2)^n / n!."""
    n, bound = 0, 1.0
    while n <= z_max or bound >= 1e-18:
        n += 1
        bound *= 0.5 * z_max / n
    return n


def _spectral_box(op: HermitianOperator) -> tuple[float, float]:
    """Centre c and radius r of a Gershgorin interval [c - r, c + r] holding
    op's spectrum: each row's diagonal entry plus or minus the moduli of its
    other entries.  r <= sum_m max |d_m|, and r is much less where the
    diagonal sits off 0."""
    diag = op.diagonals.get(0, np.zeros(op.space.dim)).real
    spread = sum(np.abs(d) for s, d in op.diagonals.items() if s)
    lo, hi = float(np.min(diag - spread)), float(np.max(diag + spread))
    return 0.5 * (lo + hi), max(0.5 * (hi - lo), 1e-300)


def _chebyshev_rows(op: HermitianOperator, box: tuple[float, float], v: np.ndarray,
                    taus: np.ndarray, s_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s_rows[i] . e^{-i taus[i] op} v for each row i, e^{-i taus[-1] op} v)
    for op's spectrum in [c - r, c + r] = ``box`` and |taus| r <= _CHEB_ARG.

    e^{-i tau T} v = e^{-i tau c} sum_n (2 - delta_n0) (-i)^n J_n(tau r)
    T_n((T - c) / r) v (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984): one
    three-term recurrence of ``op.apply`` serves every row, and its last
    row's sum is the vector carried on.  The coefficients (-i)^n J_n(z) are
    the Fourier coefficients of e^{-i z cos theta} (Jacobi-Anger, Abramowitz
    & Stegun 9.1.44-45), read off real FFTs of its two parts over
    N = 2 (n_max + 1) angles, so no temporary outgrows the coefficient block,
    for either sign of tau and for tau = 0: the nearest alias of order
    n <= n_max is order N - n >= n_max + 2, past _bessel_terms' bound.
    """

    centre, radius = box
    n_max = _bessel_terms(float(np.max(np.abs(taus))) * radius)
    phase = np.multiply.outer(taus * radius, np.cos(np.pi * np.arange(2 * n_max + 2) / (n_max + 1)))
    coef = np.fft.rfft(np.cos(phase)) - 1j * np.fft.rfft(np.sin(phase))
    coef = coef[:, :n_max + 1].T / phase.shape[1]
    coef[1:] *= 2.0
    coef *= np.exp(-1j * centre * taus)
    prev, cur = v, (op.apply(v) - centre * v) / radius
    vals = coef[0] * (s_rows @ prev) + coef[1] * (s_rows @ cur)
    carried = coef[0, -1] * prev + coef[1, -1] * cur
    for c in coef[2:]:
        prev, cur = cur, (2.0 / radius) * (op.apply(cur) - centre * cur) - prev
        vals += c * (s_rows @ cur)
        carried += c[-1] * cur
    return vals, carried


def _propagated_rows(op: HermitianOperator, tg: np.ndarray, ys: np.ndarray,
                     x_pq) -> np.ndarray:
    """The propagator kernels at (y_i, t_i; x): s(y_i) . e^{-i k t_i T}
    conj(s(x)) times the unit gauge, s the sections of op's space.

    The time grid is walked in row blocks of the working-set budget.  A
    one-diagonal operator's block of _block_len(2k, 1) rows is one
    ``kernel_eval`` of the spectral rows e^{-i k t lambda}.  Otherwise a row
    is the wider of the 2k sections and the 2 (n_max + 1) Chebyshev angles at
    the _CHEB_ARG cap; each block's rows share expansions about the last time
    reached, each reaching at most _CHEB_ARG / (k r) in time, r the radius of
    _spectral_box; a longer gap is crossed in equal sub-steps first.
    """

    qs = op.space
    if op.diagonals.keys() <= {0}:
        block = _block_len(qs.dim, 1)
        return np.concatenate([
            kernel_eval(op, np.exp(-1j * qs.k * np.outer(tg[lo:lo + block], op.eigenvalues)),
                        ys[lo:lo + block], x_pq) for lo in range(0, tg.size, block)])
    box = _spectral_box(op)
    reach = _CHEB_ARG / (qs.k * box[1])
    block = _block_len(max(qs.dim, 2 * _bessel_terms(_CHEB_ARG) + 2), 1)
    w, t_ref = np.conjugate(sections(qs, x_pq)), 0.0
    out = np.empty(tg.size, dtype=complex)
    for lo in range(0, tg.size, block):
        t, y = tg[lo:lo + block], ys[lo:lo + block]
        s_rows = sections(qs, y).T
        i = 0
        while i < t.size:
            steps = math.ceil(abs(t[i] - t_ref) / reach)
            if steps > 1:
                h = (t[i] - t_ref) / steps
                for _ in range(steps - 1):
                    w = _chebyshev_rows(op, box, w, np.array([qs.k * h]), s_rows[:0])[1]
                t_ref = t[i] - h
            beyond = np.abs(t[i + 1:] - t_ref) > reach
            j = i + 1 + (int(np.argmax(beyond)) if beyond.any() else beyond.size)
            out[lo + i:lo + j], w = _chebyshev_rows(op, box, w, qs.k * (t[i:j] - t_ref),
                                                    s_rows[i:j])
            t_ref, i = t[j - 1], j
    return out * _gauge(qs.k, ys, x_pq)


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
        return HermitianOperator(qs, {0: vals})
    return toeplitz_build(qs, sym)


def graph_compare(sym: SymbolField, x, tgrid, ks) -> list[KernelSample]:
    """Exact kernel at (phi_t(x), x) versus the predictor, over a forward
    time grid (it need not start at 0) and the levels ``ks``: one
    KernelSample per (k, time), grouped by k ascending, in grid order within
    a group.

    k enters the prediction only as the power of the prequantum transport,
    so the one trajectory, read at the ``tgrid`` times only, is the k-free
    prediction, quantized at every k.  Each level's space is built from k as
    given (``quantum_space``: ValueError unless an integer >= 1) before the
    flow runs.  The exact side is one walk of the grid per k
    (_propagated_rows) in row blocks of the thetaq._BLOCK_PAIRS budget, so
    memory does not grow with the grid: ``kernel_eval`` per block for a
    one-diagonal operator, Chebyshev-Bessel expansions of ``op.apply`` for
    any other, which is never diagonalized.
    """

    spaces = sorted(map(quantum_space, ks), key=lambda qs: qs.k)
    tg = np.asarray(tgrid, dtype=float)
    x_pq = _as_pq(x)
    traj = integrate_flow(sym, x_pq, tg)
    ys = traj.points_lifted
    y_pqs = [(float(y[0]), float(y[1])) for y in ys]
    rows = []
    for qs in spaces:
        exact = _propagated_rows(operator_for(qs, sym), tg, ys, x_pq)
        rows += [KernelSample(k=qs.k, x=x_pq, y=y, exact=complex(e), predicted=complex(p))
                 for y, e, p in zip(y_pqs, exact, _graph_predictions(traj, qs.k))]
    return rows
