"""Smoothed spectral projectors f(k(E - T)) and their return-time predictor.

The exact kernel is the spectral sum sum_l f(k(E - lambda_l)) times the
eigenvector kernel; f is produced from a compactly supported f-hat by
Gauss-Legendre quadrature so that f and f-hat stay exactly dual.  The
predictor sums over the classical return times t with phi_t(x) = y inside
the support window,

    sqrt(k)/(2 pi) * sum_t fhat(t) [rho'_t]^{1/2} e^{-i int H^sub} [T^L_t]^k,

where the transport phase along the lifted path carries the winding
holonomy.  (Note the prefactor: the inverse semiclassical Fourier transform
contributes k^{-1/2} (k/2pi)^{1/2} = (2pi)^{-1/2} against the propagator's
k/2pi, so the constant is sqrt(k)/(2 pi); a (k/2pi)^{1/2} variant that
sometimes appears differs by sqrt(2 pi) and fails the exact comparison by
~60%.)  Off the image of the return relation the kernel is rapidly
decaying and the predictor reports exactly zero, tagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .propkern import _spectral_weights, operator_for
from .thetaq import HermitianOperator, QuantumSpace, ResolutionError, quantum_space
from .torusgeo import (
    TORUS,
    SymbolField,
    TorusPhaseSpace,
    integrate_flow,
    norm_X,
    return_times,
    rho_level_half,
)

__all__ = [
    "FourierPair",
    "build_fourier_pair",
    "ReturnTerm",
    "ProjectorPrediction",
    "ProjectorSample",
    "projector_kernel_exact",
    "projector_kernel_asymptotic",
    "projector_kernel_timequad",
    "projector_compare",
]

TWO_PI = 2.0 * np.pi
_BRANCH_STEP = 0.02


# ---------------------------------------------------------------------------
# Fourier pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierPair:
    """A function f with compactly supported Fourier transform fhat.

    f(E) = (2 pi)^{-1/2} * integral over [-T, T] of fhat(t) e^{i t E} dt,
    evaluated on fixed Gauss-Legendre nodes; ``f0`` caches f(0).
    """

    kind: str
    support_T: float
    quad_nodes: int
    fhat: Callable
    t_nodes: np.ndarray
    t_weights: np.ndarray
    f0: float

    def f_eval(self, energies) -> np.ndarray:
        """f at the given (array of) arguments, by the stored quadrature."""
        e = np.atleast_1d(np.asarray(energies, dtype=float))
        coeff = self.t_weights * np.asarray(self.fhat(self.t_nodes), dtype=complex)
        vals = np.exp(1j * np.outer(e, self.t_nodes)) @ coeff / np.sqrt(TWO_PI)
        return vals.reshape(np.shape(energies)) if np.ndim(energies) else vals[0]


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


def _gl_nodes(support_t: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return support_t * x, support_t * w


def build_fourier_pair(kind: str, support_T: float, nodes: int = 512) -> FourierPair:
    """Construct a FourierPair, verifying compact support, quadrature
    resolution (node doubling must move f(0) by <= 1e-10), and realness of f
    for Hermitian-symmetric fhat."""

    if not support_T > 0:
        raise ValueError("support_T must be positive")
    if nodes < 4:
        raise ValueError("need at least 4 quadrature nodes")
    fhat = _fhat_function(kind, float(support_T))
    edge = max(abs(complex(fhat(support_T))), abs(complex(fhat(-support_T))))
    if edge > 1e-14:
        raise ValueError(f"fhat does not vanish at +-T: {edge:.2e}")
    t, w = _gl_nodes(float(support_T), int(nodes))
    f0 = complex(np.sum(w * fhat(t))) / np.sqrt(TWO_PI)
    t2, w2 = _gl_nodes(float(support_T), 2 * int(nodes))
    f0_fine = complex(np.sum(w2 * fhat(t2))) / np.sqrt(TWO_PI)
    if abs(f0 - f0_fine) > 1e-10:
        raise ResolutionError(f"f(0) moved by {abs(f0 - f0_fine):.2e} under node "
                              "doubling; increase nodes")
    pair = FourierPair(kind=kind, support_T=float(support_T), quad_nodes=int(nodes),
                       fhat=fhat, t_nodes=t, t_weights=w, f0=float(f0.real))
    samples = np.linspace(-0.9 * support_T, 0.9 * support_T, 7)
    sym_defect = float(np.max(np.abs(np.asarray(fhat(-samples), dtype=complex)
                                     - np.conjugate(fhat(samples)))))
    if sym_defect <= 1e-12:
        probe = pair.f_eval(np.linspace(-5.0, 5.0, 11))
        imag = float(np.max(np.abs(probe.imag)))
        if imag > 1e-10 * max(1.0, float(np.max(np.abs(probe)))):
            raise ValueError(f"Hermitian-symmetric fhat produced complex f "
                             f"(imag {imag:.2e})")
    return pair


# ---------------------------------------------------------------------------
# exact kernels
# ---------------------------------------------------------------------------


def _spectral_coefficients(op: HermitianOperator, pair: FourierPair,
                           energy: float) -> np.ndarray:
    return np.asarray(pair.f_eval(op.k * (energy - op.eigenvalues)), dtype=complex)


def projector_kernel_exact(qs: QuantumSpace, op: HermitianOperator,
                           pair: FourierPair, energy: float, y, x, *,
                           coeffs: np.ndarray | None = None) -> complex:
    """Kernel of f(k(E - T)) at (y, x): spectral sum over the eigenbasis;
    ``coeffs``, if given, are the precomputed f(k(E - lambda_l))."""

    if coeffs is None:
        coeffs = _spectral_coefficients(op, pair, float(energy))
    return complex(np.sum(coeffs * _spectral_weights(qs, op, y, x)))


def projector_kernel_timequad(qs: QuantumSpace, op: HermitianOperator,
                              pair: FourierPair, energy: float, y, x,
                              nodes: int = 257) -> complex:
    """The same kernel through the time side: (2 pi)^{-1/2} integral of
    fhat(t) e^{i k t E} U_{k,t}(y, x) dt on an independent Gauss-Legendre
    grid.  Exact Fourier inversion up to the two quadratures, so it must
    agree with projector_kernel_exact to high accuracy — a wiring check,
    not an asymptotic one."""

    t, w = _gl_nodes(pair.support_T, int(nodes))
    # kernel of U_{k,t} for every node in one outer product
    spectral = np.exp(np.outer(-1j * qs.k * t, op.eigenvalues))
    kernels = spectral @ _spectral_weights(qs, op, y, x)
    coeff = w * np.asarray(pair.fhat(t), dtype=complex) \
        * np.exp(1j * qs.k * t * float(energy))
    return complex(np.sum(coeff * kernels) / np.sqrt(TWO_PI))


# ---------------------------------------------------------------------------
# the return-time predictor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnTerm:
    """One return-time contribution to the predictor (prefactor excluded)."""

    t: float
    winding: tuple[int, int]
    fhat: complex
    value: complex


@dataclass(frozen=True)
class ProjectorPrediction:
    """Predictor value with its per-return breakdown.

    ``off_image``: no classical return connects x to y inside the window, so
    the true kernel is rapidly decaying and the predicted value is zero.
    """

    value: complex
    k: int
    energy: float
    terms: tuple[ReturnTerm, ...]
    off_image: bool


def _return_term(ps: TorusPhaseSpace, sym: SymbolField, x, y, t_ret: float,
                 winding: tuple[int, int], energy: float, pair: FourierPair,
                 k: int) -> ReturnTerm:
    """fhat(t) rho'^{1/2} e^{-i int H^sub} [T^L]^k for one return time; the
    lifted trajectory endpoint is cross-checked against the winding from the
    return search."""

    fh = complex(np.asarray(pair.fhat(t_ret), dtype=complex).reshape(()))
    if t_ret == 0.0:
        amp = np.sqrt(2.0) / norm_X(ps, sym, 0.0, x)
        return ReturnTerm(t=0.0, winding=winding, fhat=fh, value=fh * amp)
    steps = max(3, int(np.ceil(abs(t_ret) / _BRANCH_STEP)) + 1)
    traj = integrate_flow(sym, x, np.linspace(0.0, t_ret, steps), ps)
    end = traj.points_lifted[-1]
    target = np.asarray(y, dtype=float) + ps.lattice @ np.asarray(winding, dtype=float)
    if float(np.max(np.abs(end - target))) > 1e-6:
        raise RuntimeError(f"return trajectory missed its lifted target by "
                           f"{float(np.max(np.abs(end - target))):.2e}")
    rho_half = rho_level_half(ps, sym, traj, float(energy))[-1].value
    phase = float(k) * traj.conn_L[-1] - traj.action_Hsub[-1]
    return ReturnTerm(t=float(t_ret), winding=winding, fhat=fh,
                      value=fh * rho_half * np.exp(1j * phase))


def projector_kernel_asymptotic(ps: TorusPhaseSpace, sym: SymbolField,
                                pair: FourierPair, energy: float, y, x, k: int,
                                window: tuple[float, float] | None = None) -> ProjectorPrediction:
    """Return-time predictor for f(k(E - T))(y, x) on a regular level.

    ``window`` restricts which return times contribute (default: the full
    support of fhat); shrinking it past a return drops exactly that term,
    which is how term-removal experiments are run.
    """

    t_lo, t_hi = window if window is not None else (-pair.support_T, pair.support_T)
    if t_lo > t_hi:
        raise ValueError("empty return window")
    t_lo = max(t_lo, -pair.support_T)
    t_hi = min(t_hi, pair.support_T)
    x_pq = tuple(np.asarray(x, dtype=float).reshape(2))
    y_pq = tuple(np.asarray(y, dtype=float).reshape(2))
    returns = return_times(sym, x_pq, y_pq, (t_lo, t_hi), ps)
    if not returns:
        return ProjectorPrediction(value=0j, k=int(k), energy=float(energy),
                                   terms=(), off_image=True)
    terms = tuple(_return_term(ps, sym, x_pq, y_pq, float(t), w, energy, pair, k)
                  for t, w in returns)
    prefactor = np.sqrt(float(k)) / TWO_PI
    total = sum(term.value for term in terms)
    return ProjectorPrediction(value=complex(prefactor * total), k=int(k),
                               energy=float(energy), terms=terms,
                               off_image=False)


# ---------------------------------------------------------------------------
# comparison tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectorSample:
    """Exact vs predicted projector kernel value at one (k, y, x)."""

    k: int
    energy: float
    x: tuple[float, float]
    y: tuple[float, float]
    exact: complex
    predicted: complex
    off_image: bool
    rel_err_modulus: float

    @staticmethod
    def build(k, energy, x, y, exact, prediction: ProjectorPrediction) -> "ProjectorSample":
        pred = prediction.value
        if prediction.off_image:
            rel = np.nan
        else:
            rel = abs(abs(exact) - abs(pred)) / abs(pred) if pred != 0 else np.inf
        return ProjectorSample(k=int(k), energy=float(energy), x=tuple(x), y=tuple(y),
                               exact=complex(exact), predicted=complex(pred),
                               off_image=prediction.off_image, rel_err_modulus=float(rel))


def _normalize_point_entry(entry):
    arr = np.asarray(entry, dtype=float)
    if arr.shape == (2,):
        pt = (float(arr[0]), float(arr[1]))
        return pt, pt
    if arr.shape == (2, 2):
        return (float(arr[0, 0]), float(arr[0, 1])), (float(arr[1, 0]), float(arr[1, 1]))
    raise ValueError("each comparison entry must be a point (p, q) or a pair "
                     "((py, qy), (px, qx))")


def projector_compare(sym: SymbolField, pair: FourierPair, energy: float,
                      points, ks, ps: TorusPhaseSpace = TORUS) -> list[ProjectorSample]:
    """Exact versus predicted projector kernels over points x levels.

    Entries of ``points`` are diagonal points or (y, x) pairs; rows come out
    grouped by point in the order given, with k ascending within a group.
    """

    rows = []
    spaces = {int(k): quantum_space(int(k)) for k in ks}
    ops = {k: operator_for(qs, sym) for k, qs in spaces.items()}
    coeffs = {k: _spectral_coefficients(op, pair, float(energy)) for k, op in ops.items()}
    for entry in points:
        y_pq, x_pq = _normalize_point_entry(entry)
        for k in sorted(spaces):
            qs = spaces[k]
            exact = projector_kernel_exact(qs, ops[k], pair, energy, y_pq, x_pq,
                                           coeffs=coeffs[k])
            pred = projector_kernel_asymptotic(ps, sym, pair, energy, y_pq, x_pq, k)
            rows.append(ProjectorSample.build(k, energy, x_pq, y_pq, exact, pred))
    return rows
