"""Classical geometry on the flat two-torus phase space.

The phase space is T^2 = R^2/Z^2 with coordinates (p, q), symplectic form
omega = 4*pi dp^dq (one cell carries symplectic area 4*pi, so the quantum
space at level k has dimension 2k), complex coordinate z = p + i q, and
prequantum connection one-form alpha = 2*pi (p dq - q dp) with d(alpha) =
omega.  These are fixed module constants, not parameters: the quantization
(thetaq) hard-wires the same ones.  This module integrates Hamiltonian
flows together with their linearization and the action/connection
integrals, and computes every geometric coefficient the kernel predictors
need.

A symbol is a function of (p, q) alone, so every flow is autonomous.  It is
held as its Fourier modes, read off the FFT of grid samples and checked
against samples off the grid; a symbol whose modes never decay, or
never reproduce it, is refused as not lattice-periodic or not smooth.
Values, gradients and Hessians are exact mode sums (the flow takes all of
them from one set of phases), and the Toeplitz matrices are built from the
same modes.

Every flow state comes from ``_flow_states``: the exact shear for a symbol
of q alone (``model-cos`` among them), otherwise one adaptive Dormand–Prince
5(4) sweep from t = 0 with fourth-order dense output.  ``integrate_flow``
reads one sweep at its grid; ``return_times`` runs one on each side of 0,
finds every return on it and hands back each return's state, so the
projector integrates no flow of its own.  Each Jacobian stack is judged
once by symplin's symplecticity rule, with no retry.

The coefficients are:

* the prequantum phase: the L-transport along the lifted path is
  e^{i int alpha(X)}, accumulated by the flow as ``Trajectory.conn_L``; the
  canonical bundle K is trivialized by dz, which is flat on the torus, so
  its transport is 1 and no amplitude carries a K factor;
* the half-form transport (dz(u) / dz(M u))^{1/2} of a direction u by the
  flow Jacobian M (``line_half_form``), the canonical-bundle lift that
  every amplitude is: the graph's rho_t^{1/2} = a^{-1/2} (a = det^{1,0} M;
  a frame-pairing route cross-checks rho_t), the level's rho'_t^{1/2}
  (u = X_x) and a Lagrangian line's; theta_a = arg a, carried continuously
  by the flow (|a| >= 1), picks the branch of every square root;
* the transversality coefficient B of a Lagrangian line on the torus, and
  the kernel-side B of the diagonal in the doubled space (T^2 x T^2,
  omega (+) -omega), whose reciprocal is rho'_0;
* classical return times with lattice winding bookkeeping.

Paths are always lifted to R^2 before alpha is integrated: alpha is not
lattice-periodic, and the lift dependence is exactly the bundle holonomy
(a loop p -> p+1 at height q transports by e^{-2 pi i q}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .symplin import (
    COMPLEX_STRUCTURE,
    SYMPLECTIC_GRAM,
    LinearSymplectomorphism,
    branch_sqrt_path,
    holomorphic_determinant,
)

__all__ = [
    "RegularityError",
    "DegenerateError",
    "StepSizeError",
    "SymbolField",
    "make_symbol",
    "model_cos_symbol",
    "Trajectory",
    "wrap_difference",
    "check_level",
    "hamiltonian_vector_field",
    "integrate_flow",
    "prequantum_phase",
    "line_half_form",
    "rho_graph_half",
    "rho_graph_frame",
    "rho_level_half",
    "norm_X",
    "b_coefficient",
    "b_coefficient_diagonal",
    "Return",
    "return_times",
]

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi


class RegularityError(ValueError):
    """The configuration violates a regularity precondition (critical point,
    mismatched energies, non-transverse data)."""


class DegenerateError(ValueError):
    """The requested object is not isolated / not uniquely defined."""


class StepSizeError(RuntimeError):
    """The flow integrator cannot meet its error target."""


# ---------------------------------------------------------------------------
# phase space
# ---------------------------------------------------------------------------

# Gram matrix of omega = 4 pi dp^dq: omega(u, v) = u^T _OMEGA v.  (The metric
# is then omega(., j.) = 4 pi |dz|^2.)
_OMEGA = FOUR_PI * SYMPLECTIC_GRAM
_OMEGA.flags.writeable = False


def _alpha(p, q, v) -> np.ndarray:
    """The connection form alpha = 2 pi (p dq - q dp) at (p, q), paired with
    tangent vectors v of shape (..., 2)."""
    return -TWO_PI * q * v[..., 0] + TWO_PI * p * v[..., 1]


def _as_pq(point) -> tuple[float, float]:
    """A single phase-space point as floats (p, q), for every public function
    that takes one; ValueError for a complex or ragged value or another entry count."""
    try:
        p, q = _as_points(np.reshape(point, -1))
    except ValueError:
        raise ValueError(f"expected a (p, q) point, got {point!r}") from None
    return float(p), float(q)


def _as_points(points) -> np.ndarray:
    """Phase-space points along the last axis as floats, for the entries that take
    arrays of them; ValueError for complex or ragged input or another last axis."""
    try:
        arr = np.asarray(points)  # a ragged nesting raises here
        if np.iscomplexobj(arr) or arr.shape[-1:] != (2,):
            raise ValueError
    except ValueError:
        raise ValueError(f"expected (p, q) points, got {points!r}") from None
    return arr.astype(float, copy=False)


def wrap_difference(a, b) -> np.ndarray:
    """Shortest lattice representative of a - b (components in [-1/2, 1/2]),
    both points along the last axis (``_as_points``)."""
    d = _as_points(a) - _as_points(b)
    return d - np.round(d)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


# Mode extraction: grid sizes N = 16, 32, ... up to this limit; modes at or
# below this share of the largest one are dropped.  The modes of a grid are
# accepted only if they also reproduce the symbol at these off-grid points
# (the first terms of the R2 low-discrepancy sequence): a mode beyond the
# grid's band folds onto a kept one unseen.
_MODES_GRID_MAX = 1024
_MODES_TOL = 1e-14
_MODES_CHECK_POINTS = np.outer([0.7548776662466927, 0.5698402909980532], np.arange(1, 33)) % 1.0


def _fourier_modes(f, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Fourier modes of a real f(p, q): frequencies (M, 2) = (m, n) and
    coefficients c (M,) with f = sum c e^{2 pi i (m p + n q)}.
    The modes of an N x N grid are accepted once every mode with |m| or |n|
    >= N/4 is negligible and their sum matches f at the off-grid check
    points to within the dropped modes' weight plus 1e-14 of the total.
    Raises RegularityError when f is not finite or no grid passes."""

    def samples(p, q):
        vals = np.broadcast_to(np.asarray(f(p, q), dtype=float), np.shape(p))
        if not np.all(np.isfinite(vals)):
            raise RegularityError(f"symbol {name!r} is not finite on the torus")
        return vals

    check = samples(*_MODES_CHECK_POINTS)
    n_grid = 16
    while True:
        axis = np.arange(n_grid) / n_grid
        coeffs = np.fft.fft2(samples(*np.meshgrid(axis, axis, indexing="ij"))) / n_grid ** 2
        # impose c_{-m,-n} = conj(c_{m,n}) exactly, so every T_k is Hermitian
        coeffs = 0.5 * (coeffs + np.conj(np.roll(coeffs[::-1, ::-1], 1, axis=(0, 1))))
        freq = np.rint(np.fft.fftfreq(n_grid, 1.0 / n_grid)).astype(int)
        mm, nn = np.meshgrid(freq, freq, indexing="ij")
        mags = np.abs(coeffs)
        peak = float(np.max(mags))
        tail = float(np.max(mags[np.maximum(np.abs(mm), np.abs(nn)) >= n_grid // 4]))
        failure = f"its modes with |m| or |n| >= {n_grid // 4} reach {tail / (peak or 1.0):.1e} of the largest"
        if tail <= _MODES_TOL * peak:
            keep = mags > _MODES_TOL * peak
            freqs, kept = np.stack([mm[keep], nn[keep]], axis=-1), coeffs[keep]
            miss = float(np.max(np.abs(_mode_sum(freqs, kept)(*_MODES_CHECK_POINTS) - check)))
            if miss <= np.sum(mags[~keep]) + _MODES_TOL * np.sum(mags):
                return freqs, kept
            failure = f"its modes miss it off the grid by {miss:.1e}"
        if n_grid >= _MODES_GRID_MAX:
            raise RegularityError(f"symbol {name!r} is not lattice-periodic, or not smooth: "
                                  f"on the {n_grid} x {n_grid} grid {failure}")
        n_grid *= 2


def _mode_sum(freqs: np.ndarray, weights: np.ndarray) -> Callable:
    """Evaluator (p, q) -> Re sum_j weights[j] e^{2 pi i (m_j p + n_j q)}
    at broadcast points, with shape broadcast(p, q).shape +
    weights.shape[1:].  Each phase is a product of e^{2 pi i m p} and
    e^{2 pi i n q}, so a call takes one exponential per distinct frequency,
    not per mode."""

    lo, hi = freqs.min(axis=0, initial=0), freqs.max(axis=0, initial=0)
    m_range, n_range = np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1)
    m_index, n_index = freqs[:, 0] - lo[0], freqs[:, 1] - lo[1]
    weights = np.asfortranarray(weights, dtype=complex)

    def evaluate(p, q) -> np.ndarray:
        e_p = np.exp(2j * np.pi * np.multiply.outer(p, m_range))
        e_q = np.exp(2j * np.pi * np.multiply.outer(q, n_range))
        return (e_p[..., m_index] * e_q[..., n_index] @ weights).real

    return evaluate


@dataclass(frozen=True)
class SymbolField:
    """A Hamiltonian (principal + subprincipal symbol) with derivative access.

    ``modes`` and ``sub_modes`` hold the (frequencies, coefficients) Fourier
    modes of the two parts.  The callables take broadcastable (p, q) and
    return the broadcast shape, (..., 2) = (H_p, H_q) for ``grad``; ``jet``
    returns everything from one set of phases, (..., 8) = (H, H^sub, H_p,
    H_q, H_pp, H_pq, H_qp, H_qq).  When no mode of either part depends on
    p, the flow is the exact shear of ``_shear_states``.
    """

    name: str
    principal: Callable
    grad: Callable
    jet: Callable
    modes: tuple = field(repr=False, compare=False)
    sub_modes: tuple = field(repr=False, compare=False)


def make_symbol(name: str, principal, subprincipal=None) -> SymbolField:
    """Build a SymbolField from real callables (p, q): both parts become
    their Fourier modes, and values and derivatives are exact mode sums.
    Raises RegularityError when a part is not smooth and lattice-periodic.
    toeplitz_build damps mode (m, n) of T_k(f + g/k) by e^{-pi (m^2 + n^2)
    / (4k)}, so the jet's H^sub, which the flow integrates, is that
    operator's subprincipal symbol g + Delta f / (16 pi) (Charles, CMP 239,
    2003), while ``sub_modes`` keeps g.  This holds for every symbol;
    model_cos_symbol picks its g so that H^sub is its constant.  Parts with
    only m = 0 modes flow as the exact shear (``_shear_states``)."""

    modes = _fourier_modes(principal, name)
    sub_modes = _fourier_modes(subprincipal or (lambda p, q: 0.0), name)
    freqs = np.concatenate([modes[0], sub_modes[0]])
    coeffs = np.concatenate([modes[1], np.zeros(len(sub_modes[1]))])
    d_coeffs = coeffs[:, None] * (2j * np.pi * freqs)  # d/dp, d/dq of each mode
    d2_coeffs = d_coeffs[:, :, None] * (2j * np.pi * freqs)[:, None, :]
    laplace = -0.25 * np.pi * np.sum(modes[0] ** 2, axis=1) * modes[1]  # Delta f / (16 pi)
    weights = np.column_stack([coeffs, np.concatenate([laplace, sub_modes[1]]),
                               d_coeffs, d2_coeffs.reshape(-1, 4)])

    jet = _mode_sum(freqs, weights)
    return SymbolField(
        name=name,
        principal=lambda p, q: jet(p, q)[..., 0],
        grad=lambda p, q: jet(p, q)[..., 2:4],
        jet=jet, modes=modes, sub_modes=sub_modes)


def model_cos_symbol(sub_const: float = 0.0) -> SymbolField:
    """H(p, q) = cos(2*pi*q) with subprincipal part g = c + (pi/4) cos(2*pi*q),
    c = ``sub_const``.

    operator_for quantizes it undamped, as cos(pi ell / k) + c / k, which is
    T_k(f + g/k) up to O(k^-2); so the jet's H^sub, g + Delta f / (16 pi),
    is c.  Like every symbol of q alone, it flows as the exact shear
    phi_t(p, q) = (p + (t/2) sin(2*pi*q), q) (``_shear_states``).
    """

    def principal(p, q):
        return np.cos(TWO_PI * np.asarray(q, dtype=float))

    return make_symbol("model-cos", principal,
                       lambda p, q: float(sub_const) + 0.25 * np.pi * principal(p, q))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """A flow trajectory with linearization and accumulated integrals.

    ``times`` moves strictly monotonically away from t = 0 (decreasing grids
    are used for negative final times) and need not contain 0; all integrals
    are anchored at t = 0.  ``points`` is reduced to the fundamental domain,
    ``points_lifted`` is the continuous lift in R^2 that the connection
    integrals use.  ``theta_a`` is the continuous argument of the holomorphic
    determinant of each Jacobian, 0 at t = 0; ``holomorphic_det`` is that
    determinant, its stack checked by symplin on the first read (in ``integrate_flow``).
    """

    start: np.ndarray
    times: np.ndarray
    points: np.ndarray
    points_lifted: np.ndarray
    jacobians: np.ndarray
    action_H: np.ndarray
    action_Hsub: np.ndarray
    conn_L: np.ndarray
    theta_a: np.ndarray

    @cached_property
    def holomorphic_det(self) -> np.ndarray:
        return holomorphic_determinant(LinearSymplectomorphism(self.jacobians))


def hamiltonian_vector_field(sym: SymbolField, x) -> np.ndarray:
    """X solving omega(X, .) = -dH at the points x (``_as_points``): (-H_q, H_p) / (4*pi)."""
    x = _as_points(x)
    g = sym.grad(x[..., 0], x[..., 1])
    return np.stack([-g[..., 1], g[..., 0]], axis=-1) / FOUR_PI


def _flow_rhs(sym: SymbolField, y: np.ndarray) -> np.ndarray:
    """Joint field of (point, Jacobian M, int H, int H^sub, int alpha(X),
    theta_a), with theta_a' = Im(a'/a) for a = ((M_00 + M_11) + i (M_10 -
    M_01)) / 2, the holomorphic determinant of M."""
    p, q = y[0], y[1]
    h, h_sub, h_p, h_q, h_pp, h_pq, _, h_qq = sym.jet(p, q)
    xv = np.array([-h_q, h_p]) / FOUR_PI
    # DX = d(X)/d(p,q): rows follow (X_p, X_q) = (-H_q, H_p)/(4 pi)
    dx = np.array([[-h_pq, -h_qq], [h_pp, h_pq]]) / FOUR_PI
    dm = (dx @ y[2:6].reshape(2, 2)).ravel()
    theta_rate = (complex(dm[0] + dm[3], dm[2] - dm[1]) / complex(y[2] + y[5], y[4] - y[3])).imag
    return np.concatenate([xv, dm, [h, h_sub, _alpha(p, q, xv), theta_rate]])


# Dormand–Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 1980)
# with Shampine's quartic continuous extension (Hairer–Nørsett–Wanner,
# Solving ODEs I, §II.4–6).  The seventh stage is the next step's first (FSAL).
# Every flow here is autonomous, so the stage times c_i never enter.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# fifth- minus embedded fourth-order weights over all seven stages
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# y(t0 + s h) = y0 + h K^T P [s, s^2, s^3, s^4] for the step's stages K
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _dopri5(rhs: Callable, y0, t_end: float, tol: float) -> Callable:
    """Adaptive DOPRI5 for the autonomous y' = rhs(y) from t = 0 to
    ``t_end`` (either sign); returns the dense evaluator
    ``ts -> (len(ts), n)``, Shampine's quartic over each accepted step's
    stages (y0 exactly at t = 0).  A step is accepted when
    max_i |err_i| / (1 + |y_i|) <= tol, err never below eps, the rounding of
    the step's own sum; a rejected step at the floor 10 eps |t_end|, below
    which it would not advance the time by its own length, raises
    StepSizeError.
    """

    y = np.array(y0, dtype=float)
    span = abs(float(t_end))
    sign = 1.0 if t_end >= 0 else -1.0
    eps = np.finfo(float).eps
    h_min = 10.0 * eps * span
    stages = np.empty((7, y.size))
    stages[0] = rhs(y)
    h = tol ** 0.2 / (1e-3 + float(np.max(np.abs(stages[0]) / (1.0 + np.abs(y)))))
    h = min(span, max(h_min, h))
    t = 0.0
    starts, bases, polys = [], [], []
    while (remaining := sign * (t_end - t)) > 0.0:
        h = min(h, remaining)
        dt = sign * h
        for i in range(1, 6):
            stages[i] = rhs(y + dt * (_DP_A[i] @ stages[:i]))
        y_new = y + dt * (_DP_B @ stages[:6])
        stages[6] = rhs(y_new)
        err = max(eps, float(np.max(np.abs(dt * (_DP_E @ stages)) / (1.0 + np.abs(y_new)))))
        if err <= tol:
            starts.append(sign * t)
            bases.append(y)
            polys.append(dt * (stages.T @ _DP_P))
            t = t_end if h == remaining else t + dt
            y = y_new
            stages[0] = stages[6]
        elif h <= h_min:
            raise StepSizeError(f"flow integrator error estimate {err:.2e} exceeds {tol:.0e} "
                                f"at the step-size floor {h_min:.1e}")
        h = max(h_min, h * min(10.0, max(0.2, 0.9 * (tol / err) ** 0.2)))

    if not starts:
        return lambda ts: np.tile(y, (np.size(ts), 1))
    left, bases, polys = np.array(starts), np.array(bases), np.array(polys)
    width = np.diff(np.append(left, span))

    def dense(ts) -> np.ndarray:
        tau = sign * np.asarray(ts, dtype=float).reshape(-1)
        i = np.clip(np.searchsorted(left, tau, side="right") - 1, 0, left.size - 1)
        s = (tau - left[i]) / width[i]
        return bases[i] + np.einsum("mnj,mj->mn", polys[i], s[:, None] ** np.arange(1, 5))

    return dense


# Sweeps up to |t| = 7 must end within symplin's det rule and check_level's
# tolerance, which their global error reaches at 1e-10.
_FLOW_TOL = 1e-11


def _shear_states(sym: SymbolField, y0: np.ndarray) -> Callable | None:
    """The exact flow state from y0, ts -> (len(ts), 10) in ``_flow_rhs``'s
    columns, for a symbol whose principal and subprincipal modes all have
    m = 0 (None for any other): X = (-H_q, 0) / (4 pi) is constant along
    q = q0, so phi_t is the shear p -> p + t X_p, with M = [[1, -t H_qq /
    (4 pi)], [0, 1]], int H = t H, int H^sub = t H^sub, int alpha(X) =
    alpha(X) t and theta_a = arctan(t H_qq / (8 pi)), from one jet."""
    if sym.modes[0][:, 0].any() or sym.sub_modes[0][:, 0].any():
        return None
    h, h_sub, _, h_q, _, _, _, h_qq = sym.jet(y0[0], y0[1])
    x_p = -h_q / FOUR_PI
    conn = _alpha(y0[0], y0[1], np.array([x_p, 0.0]))
    rate = np.array([x_p, 0.0, 0.0, -h_qq / FOUR_PI, 0.0, 0.0, h, h_sub, conn, 0.0])

    def states(ts) -> np.ndarray:
        t = np.asarray(ts, dtype=float).reshape(-1, 1)
        out = y0 + t * rate
        out[:, 9] = np.arctan(t[:, 0] * h_qq / (8.0 * np.pi))
        return out

    return states


def _flow_states(sym: SymbolField, x: np.ndarray, t_end: float) -> Callable:
    """Dense flow state from x, ts -> (len(ts), 10) in ``_flow_rhs``'s
    columns for ts between 0 and ``t_end``: the exact shear for a symbol of
    q alone (``_shear_states``), otherwise one ``_dopri5`` sweep of
    ``_flow_rhs`` from 0 to t_end under ``_FLOW_TOL``."""
    y0 = np.array([x[0], x[1], 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    return _shear_states(sym, y0) or _dopri5(lambda y: _flow_rhs(sym, y), y0, t_end, _FLOW_TOL)


def _trajectory(x: np.ndarray, times: np.ndarray, states: np.ndarray) -> Trajectory:
    """The Trajectory of states (len(times), 10), its Jacobians checked once."""
    pts = states[:, 0:2]
    traj = Trajectory(start=x, times=times, points=pts - np.floor(pts), points_lifted=pts,
                      jacobians=states[:, 2:6].reshape(-1, 2, 2), action_H=states[:, 6],
                      action_Hsub=states[:, 7], conn_L=states[:, 8], theta_a=states[:, 9])
    traj.holomorphic_det  # the check
    return traj


def integrate_flow(sym: SymbolField, x, times) -> Trajectory:
    """Flow trajectory from x over the given time grid, which moves strictly
    monotonically away from t = 0 (it need not start at 0).

    The state is the point, the Jacobian M row-major, int H, int H^sub,
    int alpha(X) and theta_a (``_flow_rhs``'s columns), from the evaluator
    ``return_times`` also reads: the exact shear for a symbol of q alone,
    otherwise one adaptive Dormand–Prince 5(4) sweep from 0 to the last grid
    time, accepting a step when its embedded error estimate satisfies
    max_i |err_i| / (1 + |y_i|) <= tol = ``_FLOW_TOL``, read at the grid
    from its fourth-order dense output, so the grid does not set the step.
    The Jacobian stack is checked once by symplin's rule, the one
    ``rho_graph_half`` applies (|det M - 1| <= 1e-10 max(1, ||M||_inf^2)
    + 1e-9), which scales with ||M||^2 as the defect of a Jacobian known to
    a relative accuracy does; no sweep is repeated.  Raises RegularityError
    when the grid turns back, repeats a time or crosses 0, StepSizeError
    when a step at the step-size floor misses the tolerance, and symplin's
    StructureError, naming the first bad time index, when the check fails.
    ValueError when x is not a (p, q) point (``_as_pq``).
    """

    x = np.array(_as_pq(x))
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise RegularityError("times must be a one-dimensional grid")
    away = times if times[-1] >= 0.0 else -times  # increasing from >= 0 on a valid grid
    if not (away[0] >= 0.0 and np.all(np.diff(away) > 0.0)):  # NaN fails too
        raise RegularityError("time grids must be strictly monotone, moving away from t = 0")
    return _trajectory(x, times, _flow_states(sym, x, float(times[-1]))(times))


# ---------------------------------------------------------------------------
# prequantum lift
# ---------------------------------------------------------------------------


def prequantum_phase(traj: Trajectory, k: int) -> np.ndarray:
    """The real, unwrapped argument -int H^sub + k (int alpha(X) - int H) of
    e^{-i int H^sub} [e^{-i int H} T^L]^k (times the trivial L' factor),
    where T^L = e^{i int alpha(X)} is the L-transport along the lifted path
    (connection -i alpha).

    The k-th power is taken on the phase accumulator, not by repeated
    multiplication, so large k cannot wrap the argument.
    """

    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError("k must be a positive integer")
    return -traj.action_Hsub + float(k) * (traj.conn_L - traj.action_H)


# ---------------------------------------------------------------------------
# half-form transport and the graph amplitude rho
# ---------------------------------------------------------------------------


def line_half_form(traj: Trajectory, u) -> np.ndarray:
    """Branch-continuous (dz(u) / dz(M u))^{1/2} along the trajectory, one
    complex value per time (1 at t = 0): the half-form transport of a real
    or complexified direction u at the start by the flow Jacobian M (Charles,
    CMP 239, 2003; Borthwick, Paul & Uribe, Invent. Math. 122, 1995).

    With a = ``traj.holomorphic_det`` (its stack checked once by symplin)
    and b the antiholomorphic part of M, dz(M u) = a dz(u) + b dzbar(u).
    The argument is -theta_a minus the principal angle of dz(M u) / (a dz u)
    = 1 + (b/a) dzbar(u) / dz(u), which is continuous in t where that
    factor has positive real part: for real u (|dzbar u| = |dz u| and
    |b| < |a|), and for the (1, 0)-vector (1, -i), where dzbar(u) = 0.
    """
    m = traj.jacobians  # dz(M u) = dz(M e_p) u_0 + dz(M e_q) u_1
    dz_u = complex(u[0] + 1j * u[1])
    dz_pushed = (m[:, 0, 0] + 1j * m[:, 1, 0]) * u[0] + (m[:, 0, 1] + 1j * m[:, 1, 1]) * u[1]
    return branch_sqrt_path(dz_u / dz_pushed,
                            -traj.theta_a - np.angle(dz_pushed / (traj.holomorphic_det * dz_u)))


def rho_graph_half(traj: Trajectory) -> np.ndarray:
    """Branch-continuous [rho_t]^{1/2} = a^{-1/2} along the trajectory, a
    the holomorphic determinant of the flow Jacobian: ``line_half_form`` of
    the (1, 0)-vector, whose argument is -theta_a."""
    return line_half_form(traj, (1.0, -1j))


def rho_graph_frame(traj: Trajectory) -> np.ndarray:
    """rho_t by the frame route: pair the graph tangent frame against the
    kernel-side (2,0)-form and take the ratio to its t=0 value.

    The graph of phi_t is spanned by xi(u) = (M u, u); the form
    Om = c^2 dz_y ^ dzbar_x evaluates to
    c^2 [dz(M u_1) dzbar(u_2) - dz(M u_2) dzbar(u_1)], and
    rho_t = Om_0 / Om_t (the K-transport correction is 1 on the flat torus).
    Shares no code with the holomorphic-block determinant route.
    """

    c2 = TWO_PI  # G in omega = i G dz ^ dzbar; cancels in the ratio
    u1 = np.array([1.0, 0.0])
    u2 = np.array([0.0, 1.0])

    def dz(v):
        return v[0] + 1j * v[1]

    def dzbar(v):
        return v[0] - 1j * v[1]

    omega_t = np.array([
        c2 * (dz(m @ u1) * dzbar(u2) - dz(m @ u2) * dzbar(u1))
        for m in traj.jacobians
    ])
    omega_0 = c2 * (dz(u1) * dzbar(u2) - dz(u2) * dzbar(u1))  # = -2 i c^2
    return omega_0 / omega_t


# ---------------------------------------------------------------------------
# level amplitude rho'
# ---------------------------------------------------------------------------


def _field_norms(xv: np.ndarray) -> np.ndarray:
    """Squared metric norms omega(X, jX) = 4 pi |X|^2 of Hamiltonian field
    values X (..., 2); raises RegularityError when any norm is below 1e-6."""
    vals = FOUR_PI * (xv[..., 0] ** 2 + xv[..., 1] ** 2)
    worst = float(np.sqrt(np.min(vals)))
    if worst < 1e-6:
        raise RegularityError(f"Hamiltonian field norm {worst:.2e} below 1e-6: "
                              "x is (numerically) a critical point")
    return vals


def norm_X(sym: SymbolField, x) -> float:
    """Metric norm sqrt(omega(X, jX)) of the Hamiltonian field at x."""
    return float(np.sqrt(_field_norms(hamiltonian_vector_field(sym, _as_pq(x)))))


def check_level(sym: SymbolField, x, energy: float) -> None:
    """Raise RegularityError unless |H(x) - energy| <= 1e-10 (1 + |energy|);
    a NaN energy fails; ValueError when x is not a (p, q) point."""
    h = float(sym.principal(*_as_pq(x)))
    if not abs(h - energy) <= 1e-10 * (1.0 + abs(energy)):
        raise RegularityError(f"H = {h!r} is off the energy level E = {energy!r}")


def rho_level_half(sym: SymbolField, traj: Trajectory, energy: float) -> np.ndarray:
    """Branch-continuous [rho'_t]^{1/2} along a level-set trajectory, one
    complex value per time.

    In real dimension 2n, rho'_t is the canonical-bundle lift on the energy
    level: in adapted unitary frames (e_1 = X/||X||, f_1 = j e_1, completed)
    it is the normal factor Phi_F = 2 / (||X_x|| ||X_{phi_t x}||) times
    Phi_G, the reciprocal holomorphic determinant of the flow map reduced to
    the symplectic complement G of the flow/energy pair, converted back to
    the global (n,0)-frame.  On the torus (n = 1) G = {0}, so Phi_G = 1 and

        rho'_t = 2 dz(X_x) / (||X_x||^2 dz(M X_x)),

    the half-form transport of u = X_x times sqrt(2)/||X_x||, its value at
    t = 0.  Every sampled point must be a regular point of the energy level,
    and each Jacobian M must carry e_1(x) to (||X_{phi_t x}|| / ||X_x||)
    e_1(phi_t x) to 1e-6, so M X_x is X_{phi_t x} up to the flow's error.
    """
    check_level(sym, traj.start, energy)
    x_src = hamiltonian_vector_field(sym, traj.start)
    x_dst = hamiltonian_vector_field(sym, traj.points_lifted)
    ns2, nt2 = _field_norms(x_src), _field_norms(x_dst)
    # (w_00, w_10): the adapted (e_1, f_1) components of jac e_1(src) at the
    # target; with f_1 = j e_1 they are one complex ratio of dz values
    ratio = np.sqrt(nt2 / ns2)
    pushed = traj.jacobians @ x_src
    w = (pushed[:, 0] + 1j * pushed[:, 1]) / (x_dst[:, 0] + 1j * x_dst[:, 1]) * ratio
    if np.any(np.abs(w.imag) > 1e-6 * np.maximum(1.0, np.abs(w.real))) or \
            np.any(np.abs(w.real - ratio) > 1e-6 * np.maximum(1.0, ratio)):
        raise RegularityError("Jacobian does not carry the source flow direction "
                              "to the target one; is the energy shared?")
    return np.sqrt(2.0 / ns2) * line_half_form(traj, x_src)


# ---------------------------------------------------------------------------
# transversality coefficient B
# ---------------------------------------------------------------------------


def _b_splitting(omega: np.ndarray, cs: np.ndarray, frame: np.ndarray, xv: np.ndarray,
                 degenerate: str) -> complex:
    """B = ||X_1||^2 + i omega(X_1, X_2) for the splitting X = X_1 + X_2 with
    X_1 in j(span frame), X_2 in span frame, under the symplectic Gram matrix
    ``omega`` and complex structure ``cs``.  Raises DegenerateError with the
    text ``degenerate`` when X lies in the span (|X_1| <= 1e-10 |X|)."""
    j_frame = cs @ frame
    coeff = np.linalg.solve(np.column_stack([j_frame, frame]), xv)
    x1 = j_frame @ coeff[:frame.shape[1]]
    x2 = frame @ coeff[frame.shape[1]:]
    if np.linalg.norm(x1) <= 1e-10 * max(np.linalg.norm(xv), 1e-30):
        raise DegenerateError(degenerate)
    return complex(float(x1 @ omega @ (cs @ x1)), float(x1 @ omega @ x2))


def b_coefficient(sym: SymbolField, x, tangent) -> complex:
    """``_b_splitting``'s B on T^2 for the Lagrangian line Gamma spanned by
    ``tangent`` at x: X_1 in j(T Gamma), X_2 in T Gamma.  Raises
    DegenerateError when X lies in the line, ValueError for a non-point x."""

    tau = np.asarray(tangent, dtype=float).reshape(2)
    norm = np.linalg.norm(tau)
    if norm == 0.0:
        raise RegularityError("tangent direction must be nonzero")
    return _b_splitting(_OMEGA, COMPLEX_STRUCTURE, (tau / norm)[:, None],
                        hamiltonian_vector_field(sym, _as_pq(x)),
                        "Hamiltonian field is tangent to the Lagrangian line")


def b_coefficient_diagonal(sym: SymbolField, x) -> complex:
    """The kernel-side B: ``_b_splitting`` on the doubled phase space
    (M x M, omega (+) -omega, j (+) -j) against the diagonal Lagrangian, with
    the field (X, 0).  This is the coefficient whose reciprocal is the t=0
    level amplitude: rho'_0 * B_diag = 1.  For any X it equals ||X||^2 / 2.
    Raises ValueError when x is not a (p, q) point.
    """

    zero = np.zeros((2, 2))
    xv = hamiltonian_vector_field(sym, _as_pq(x))
    return _b_splitting(np.block([[_OMEGA, zero], [zero, -_OMEGA]]),
                        np.block([[COMPLEX_STRUCTURE, zero], [zero, -COMPLEX_STRUCTURE]]),
                        np.vstack([np.eye(2), np.eye(2)]),  # columns (e_i, e_i)
                        np.concatenate([xv, np.zeros(2)]),
                        "field is tangent to the diagonal")


# ---------------------------------------------------------------------------
# return times
# ---------------------------------------------------------------------------


class Return(NamedTuple):
    """One return: its time, its lattice winding w (the flow ends at the
    lift y + w), and the one-sample Trajectory from x to it."""

    t: float
    winding: tuple[int, int]
    flow: Trajectory


def return_times(sym: SymbolField, x, y, window) -> list[Return]:
    """All t in [window] with phi_t(x) = y mod lattice, in order, each a
    ``Return`` with its winding and its flow state.  Requires x, y on a
    common regular level set.

    Samples, Newton iterates and returns all read one ``_flow_states``
    evaluator per side of t = 0.  Each passage through y crosses it along
    the flow: s(t) = wrap_difference(phi_t(x), y) . X(y)/|X(y)| turns from
    negative to non-negative between two consecutive samples, both within
    3 max|X| h of y.  The samples cover the window on a grid of step at
    most h = min(0.02, 0.2 / (1 + max|X|)), plus one sample h past each
    end, so they span a stretch of time even for a zero-width window; a
    distance to y below 1e-9 at five consecutive samples raises
    DegenerateError.  Inside each bracket, Newton solves s = 0, shrinking
    the bracket at every iterate and bisecting where a step would leave it
    or the slope is zero.  A root within 2 _FLOW_TOL / |X(y)| of the
    window, the time by which two sweeps under _FLOW_TOL may place a
    passage apart (seen within 0.5 _FLOW_TOL in position), is clamped into
    it, so a return on a window end by ``integrate_flow``'s reckoning is
    kept; it is a return when its state lands on y + w to 1e-9.  Raises
    ValueError when x or y is not a (p, q) point.
    """

    x, y = np.array(_as_pq(x)), np.array(_as_pq(y))
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo <= t_hi:
        raise RegularityError("window must be ordered [t_min, t_max]")
    check_level(sym, y, float(sym.principal(x[0], x[1])))
    x_y = hamiltonian_vector_field(sym, y)
    _field_norms(np.array([hamiltonian_vector_field(sym, x), x_y]))
    speed = float(np.linalg.norm(x_y))
    u_flow, slack = x_y / speed, 2.0 * _FLOW_TOL / speed

    grid = np.linspace(0.0, 1.0, 17, endpoint=False)
    vmax = float(np.max(np.abs(sym.grad(*np.meshgrid(grid, grid))))) / FOUR_PI
    step = min(0.02, 0.2 / (1.0 + vmax))
    ts = np.linspace(t_lo, t_hi, int(np.ceil((t_hi - t_lo) / step)) + 1)
    ts = np.concatenate([[t_lo - step], ts, [t_hi + step]])
    neg, pos = (_flow_states(sym, x, end) for end in (min(ts[0], 0.0), max(ts[-1], 0.0)))

    def states(times) -> np.ndarray:
        times = np.asarray(times, dtype=float).reshape(-1)
        return np.where((times < 0.0)[:, None], neg(times), pos(times))

    pts = states(ts)[:, 0:2]
    diffs = wrap_difference(pts, y)
    dist = np.linalg.norm(diffs, axis=-1)

    # degenerate (non-isolated) returns: the distance hugs zero over a stretch
    if np.any(np.convolve(dist < 1e-9, np.ones(5, dtype=int), "valid") == 5):
        raise DegenerateError("returns are not isolated (y sits on a fixed set "
                              "of the flow)")

    s = diffs @ u_flow
    near = dist < max(3.0 * vmax * step, 1e-5)
    out: list[Return] = []
    for i in np.nonzero((s[:-1] < 0.0) & (s[1:] >= 0.0) & near[:-1] & near[1:])[0]:
        lo, hi = float(ts[i]), float(ts[i + 1])
        t, pt = hi, pts[i + 1]
        while True:
            g = float(wrap_difference(pt, y) @ u_flow)
            lo, hi = (t, hi) if g < 0.0 else (lo, t)
            slope = float(hamiltonian_vector_field(sym, pt) @ u_flow)
            t_new = t - g / slope if slope != 0.0 else np.inf
            if not lo <= t_new <= hi:
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) <= 1e-14 * max(1.0, abs(t)):
                break
            t, pt = t_new, states(t_new)[0, 0:2]
        if not t_lo - slack <= t_new <= t_hi + slack:
            continue  # a return outside the window
        r = min(max(t_new, t_lo), t_hi)
        # the self-return at t = 0 is structural: snap roundoff-sized roots to it
        r = 0.0 if abs(r) < 1e-12 else r
        state = states(r)
        winding = np.round(state[0, 0:2] - y)
        if float(np.linalg.norm(state[0, 0:2] - y - winding)) > 1e-9:
            continue  # a near miss
        out.append(Return(r, tuple(int(w) for w in winding), _trajectory(x, np.array([r]), state)))
    return out
