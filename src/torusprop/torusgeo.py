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

Flows come in closed form when the symbol carries one (``model-cos``).
Otherwise one adaptive Dormand–Prince 5(4) integrator with fourth-order
dense output serves both ``integrate_flow`` (one sweep per trajectory; its
docstring gives the error norm) and the return-time scan and Newton polish
of ``return_times``.  The Jacobians of every trajectory, closed-form or
integrated, are judged once by symplin's symplecticity rule, with no retry.

The coefficients are:

* the prequantum phase: the L-transport along the lifted path is
  e^{i int alpha(X)}, accumulated by the flow as ``Trajectory.conn_L``; the
  canonical bundle K is trivialized by dz, which is flat on the torus, so
  its transport is 1 and no amplitude carries a K factor;
* the graph amplitude rho_t = 1 / holomorphic determinant a of the flow
  Jacobian, with an independent frame-pairing route as a cross-check; the
  flow carries theta_a = arg a continuously (|a| >= 1, so it is smooth), and
  it alone picks the branch of every amplitude's square root;
* the level-set amplitude rho'_t for energy-surface kernels, in the closed
  form that the general Phi_F * Phi_G lift takes in real dimension 2;
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
from typing import Callable

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
    "rho_graph_half",
    "rho_graph_frame",
    "rho_level_half",
    "norm_X",
    "b_coefficient",
    "b_coefficient_diagonal",
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


def wrap_difference(a, b) -> np.ndarray:
    """Shortest lattice representative of a - b (components in [-1/2, 1/2])."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
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
            series = _mode_sum(freqs, kept)
            miss = max(abs(series(p, q) - val) for p, q, val in zip(*_MODES_CHECK_POINTS, check))
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
    H_q, H_pp, H_pq, H_qp, H_qq).  ``exact_flow``, when present, maps (x,
    times) to the trajectory data in closed form (the integrator's fast
    path).
    """

    name: str
    principal: Callable
    grad: Callable
    jet: Callable
    modes: tuple = field(repr=False, compare=False)
    sub_modes: tuple = field(repr=False, compare=False)
    exact_flow: Callable | None = None


def make_symbol(name: str, principal, subprincipal=None, exact_flow=None) -> SymbolField:
    """Build a SymbolField from real callables (p, q): both parts become
    their Fourier modes, and values and derivatives are exact mode sums.
    Raises RegularityError when a part is not smooth and lattice-periodic.
    toeplitz_build damps mode (m, n) of T_k(f + g/k) by e^{-pi (m^2 + n^2)
    / (4k)}, so the jet's H^sub, which the flow integrates, is that
    operator's subprincipal symbol g + Delta f / (16 pi) (Charles, CMP 239,
    2003), while ``sub_modes`` keeps g.  This holds for every symbol;
    model_cos_symbol picks its g so that H^sub is its constant."""

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
        jet=jet, modes=modes, sub_modes=sub_modes, exact_flow=exact_flow)


def model_cos_symbol(sub_const: float = 0.0) -> SymbolField:
    """H(p, q) = cos(2*pi*q) with subprincipal part g = c + (pi/4) cos(2*pi*q),
    c = ``sub_const``.

    operator_for quantizes it undamped, as cos(pi ell / k) + c / k, which is
    T_k(f + g/k) up to O(k^-2); so the jet's H^sub, g + Delta f / (16 pi),
    is c.  The flow is the exact shear phi_t(p, q) = (p + (t/2) sin(2*pi*q),
    q); all trajectory data has closed forms, installed as the integrator
    fast path.
    """

    def exact_flow(x, times):
        p0, q0 = float(x[0]), float(x[1])
        times = np.asarray(times, dtype=float)
        s = np.sin(TWO_PI * q0)
        c = np.cos(TWO_PI * q0)
        pts = np.stack([p0 + 0.5 * s * times, np.full_like(times, q0)], axis=-1)
        jac = np.zeros(times.shape + (2, 2))
        jac[..., 0, 0] = 1.0
        jac[..., 1, 1] = 1.0
        jac[..., 0, 1] = np.pi * times * c
        return {
            "points_lifted": pts,
            "jacobians": jac,
            "action_H": times * c,
            "action_Hsub": times * float(sub_const),
            # alpha(X) = 2 pi (p X_q - q X_p) = -pi q sin(2 pi q), constant along the shear
            "conn_L": -np.pi * times * q0 * s,
            # the holomorphic determinant is 1 - i pi t cos(2 pi q) / 2
            "theta_a": -np.arctan(0.5 * np.pi * times * c),
        }

    def principal(p, q):
        return np.cos(TWO_PI * np.asarray(q, dtype=float))

    return make_symbol("model-cos", principal,
                       lambda p, q: float(sub_const) + 0.25 * np.pi * principal(p, q),
                       exact_flow=exact_flow)


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
    determinant of each Jacobian, 0 at t = 0.
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


def hamiltonian_vector_field(sym: SymbolField, x) -> np.ndarray:
    """X solving omega(X, .) = -dH: components (-H_q, H_p) / (4*pi)."""
    x = np.asarray(x, dtype=float)
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
    max_i |err_i| / (1 + |y_i|) <= tol; a rejected step at the floor
    |t_end| * eps / tol, below which the rounding of the steps alone would
    exceed tol, raises StepSizeError.
    """

    y = np.array(y0, dtype=float)
    span = abs(float(t_end))
    sign = 1.0 if t_end >= 0 else -1.0
    h_min = span * np.finfo(float).eps / tol
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
        err = float(np.max(np.abs(dt * (_DP_E @ stages)) / (1.0 + np.abs(y_new))))
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
        h = max(h_min, h * (min(10.0, max(0.2, 0.9 * (tol / err) ** 0.2)) if err > 0.0 else 10.0))

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


_FLOW_TOL = 1e-10


def integrate_flow(sym: SymbolField, x, times) -> Trajectory:
    """Flow trajectory from x over the given time grid, which moves strictly
    monotonically away from t = 0 (it need not start at 0).

    Symbols that carry an exact flow skip the integrator.  Otherwise the flow,
    its variational equation, the action/connection integrals and theta_a are
    integrated jointly in one adaptive Dormand–Prince 5(4) sweep from 0 to the
    last grid time, accepting a step when its embedded error estimate satisfies
    max_i |err_i| / (1 + |y_i|) <= tol = ``_FLOW_TOL``; the grid is read from
    the fourth-order dense output, so its spacing does not set the step.
    Either way the Jacobian stack is checked once by symplin's rule, the one
    ``rho_graph_half`` applies (``LinearSymplectomorphism``: |det M - 1|
    <= 1e-10 max(1, ||M||_inf^2) + 1e-9, that is M^T J M = J), which scales
    with ||M||^2 as the defect of a Jacobian known to a relative accuracy
    does; no sweep is repeated.  Raises RegularityError when the grid turns
    back, repeats a time or crosses 0, StepSizeError when a step at the
    step-size floor misses the tolerance, and symplin's StructureError,
    naming the first bad time index, when the check fails.
    """

    x = np.asarray(x, dtype=float).reshape(2)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise RegularityError("times must be a one-dimensional grid")
    away = times if times[-1] >= 0.0 else -times  # increasing from >= 0 on a valid grid
    if not (away[0] >= 0.0 and np.all(np.diff(away) > 0.0)):  # NaN fails too
        raise RegularityError("time grids must be strictly monotone, moving away from t = 0")

    if sym.exact_flow is not None:
        data = sym.exact_flow(x, times)
    else:
        y0 = np.array([x[0], x[1], 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        states = _dopri5(lambda y: _flow_rhs(sym, y), y0, float(times[-1]), _FLOW_TOL)(times)
        data = {"points_lifted": states[:, 0:2], "jacobians": states[:, 2:6].reshape(-1, 2, 2),
                "action_H": states[:, 6], "action_Hsub": states[:, 7], "conn_L": states[:, 8],
                "theta_a": states[:, 9]}
    data = {key: np.asarray(val, dtype=float) for key, val in data.items()}
    LinearSymplectomorphism(data["jacobians"])
    return Trajectory(start=x, times=times, points=data["points_lifted"] - np.floor(data["points_lifted"]), **data)


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
# graph amplitude rho
# ---------------------------------------------------------------------------


def rho_graph_half(traj: Trajectory) -> np.ndarray:
    """Branch-continuous [rho_t]^{1/2} along the trajectory, one complex
    value per time.

    rho_t = 1 / (holomorphic determinant of the flow Jacobian); the
    K-transport it would be divided by is 1 on the flat torus.  Its argument
    is -theta_a, which picks the square root's branch (1 at t = 0).

    The whole trajectory's Jacobians go to ``symplin`` as one stack, so each
    one passes the same checks as a single matrix would (det M = 1 to
    1e-10 of its own squared inf-norm plus 1e-9, determinant
    modulus >= 0.5), under the one implementation of those rules, and a
    failure names the first bad index.
    """

    dets = holomorphic_determinant(LinearSymplectomorphism(traj.jacobians))
    return branch_sqrt_path(1.0 / dets, -traj.theta_a)


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


def _field_norms(sym: SymbolField, pts) -> np.ndarray:
    """Metric norms sqrt(omega(X, jX)) of the Hamiltonian field at points
    (..., 2); raises RegularityError when any of them is below 1e-6."""
    xv = hamiltonian_vector_field(sym, np.asarray(pts, dtype=float))
    vals = np.sqrt(FOUR_PI * (xv[..., 0] ** 2 + xv[..., 1] ** 2))
    worst = float(np.min(vals))
    if worst < 1e-6:
        raise RegularityError(f"Hamiltonian field norm {worst:.2e} below 1e-6: "
                              "x is (numerically) a critical point")
    return vals


def norm_X(sym: SymbolField, x) -> float:
    """Metric norm sqrt(omega(X, jX)) of the Hamiltonian field at x."""
    return float(_field_norms(sym, x))


def check_level(sym: SymbolField, x, energy: float) -> None:
    """Raise RegularityError unless |H(x) - energy| <= 1e-10 (1 + |energy|);
    a NaN energy fails."""
    h = float(sym.principal(x[0], x[1]))
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

        rho'_t = 2 dz(X_x) / (||X_x||^2 dz(X_{phi_t x})),

    evaluated for the whole trajectory at once (the T^K transport it is
    divided by is 1 on the flat torus); it is sqrt(2)/||X_x|| at t = 0.
    Every sampled point must be a regular point of the energy level, and
    each Jacobian M must carry e_1(x) to (||X_{phi_t x}|| / ||X_x||)
    e_1(phi_t x) to 1e-6.  The branch: with a, b the holomorphic and
    antiholomorphic parts of M, dz(M X_x) = a dz(X_x) (1 + (b/a)
    conj(dz X_x)/dz X_x), and |b| < |a|, so the last factor has positive
    real part; the argument of rho'_t is -theta_a minus that factor's
    principal angle.
    """

    check_level(sym, traj.start, energy)
    _field_norms(sym, traj.points)  # regularity guard: ns2, nt2 >= 1e-12 below
    x_src = hamiltonian_vector_field(sym, traj.start)
    x_dst = hamiltonian_vector_field(sym, traj.points_lifted)
    ns2 = FOUR_PI * (x_src[0] ** 2 + x_src[1] ** 2)
    nt2 = FOUR_PI * (x_dst[:, 0] ** 2 + x_dst[:, 1] ** 2)

    dz_src = complex(x_src[0], x_src[1])
    dz_dst = x_dst[:, 0] + 1j * x_dst[:, 1]
    # (w_00, w_10): the adapted (e_1, f_1) components of jac e_1(src) at the
    # target; with f_1 = j e_1 they are one complex ratio of dz values
    ratio = np.sqrt(nt2 / ns2)
    pushed = traj.jacobians @ x_src
    dz_pushed = pushed[:, 0] + 1j * pushed[:, 1]
    w = dz_pushed / dz_dst * ratio
    if np.any(np.abs(w.imag) > 1e-6 * np.maximum(1.0, np.abs(w.real))) or \
            np.any(np.abs(w.real - ratio) > 1e-6 * np.maximum(1.0, ratio)):
        raise RegularityError("Jacobian does not carry the source flow direction "
                              "to the target one; is the energy shared?")
    a = holomorphic_determinant(LinearSymplectomorphism(traj.jacobians))
    return branch_sqrt_path(2.0 * dz_src / (ns2 * dz_dst),
                            -traj.theta_a - np.angle(dz_pushed / (a * dz_src)))


# ---------------------------------------------------------------------------
# transversality coefficient B
# ---------------------------------------------------------------------------


def b_coefficient(sym: SymbolField, x, tangent) -> complex:
    """B = ||X_1||^2 + i omega(X_1, X_2) for the splitting X = X_1 + X_2 with
    X_1 in j(T Gamma), X_2 in T Gamma, Gamma the Lagrangian line spanned by
    ``tangent`` at x.  Raises DegenerateError when X lies in the line."""

    x = np.asarray(x, dtype=float)
    tau = np.asarray(tangent, dtype=float).reshape(2)
    norm = np.linalg.norm(tau)
    if norm == 0.0:
        raise RegularityError("tangent direction must be nonzero")
    tau = tau / norm
    cs = COMPLEX_STRUCTURE
    xv = hamiltonian_vector_field(sym, x)
    basis = np.column_stack([cs @ tau, tau])
    coeff = np.linalg.solve(basis, xv)
    x1 = coeff[0] * (cs @ tau)
    x2 = coeff[1] * tau
    if np.linalg.norm(x1) <= 1e-10 * max(np.linalg.norm(xv), 1e-30):
        raise DegenerateError("Hamiltonian field is tangent to the Lagrangian line")
    norm1_sq = float(x1 @ _OMEGA @ (cs @ x1))
    cross = float(x1 @ _OMEGA @ x2)
    return complex(norm1_sq, cross)


def b_coefficient_diagonal(sym: SymbolField, x) -> complex:
    """The kernel-side B: same splitting run on the doubled phase space
    (M x M, omega (+) -omega, j (+) -j) against the diagonal Lagrangian, with
    the field (X, 0).  This is the coefficient whose reciprocal is the t=0
    level amplitude: rho'_0 * B_diag = 1.  For any X it equals ||X||^2 / 2.
    """

    x = np.asarray(x, dtype=float)
    xv = hamiltonian_vector_field(sym, x)
    zero = np.zeros((2, 2))
    omega4 = np.block([[_OMEGA, zero], [zero, -_OMEGA]])
    cs4 = np.block([[COMPLEX_STRUCTURE, zero], [zero, -COMPLEX_STRUCTURE]])
    diag_basis = np.vstack([np.eye(2), np.eye(2)])  # columns (e_i, e_i)
    basis = np.column_stack([cs4 @ diag_basis, diag_basis])
    x_d = np.concatenate([xv, np.zeros(2)])
    coeff = np.linalg.solve(basis, x_d)
    x1 = (cs4 @ diag_basis) @ coeff[:2]
    x2 = diag_basis @ coeff[2:]
    if np.linalg.norm(x1) <= 1e-10 * max(np.linalg.norm(x_d), 1e-30):
        raise DegenerateError("field is tangent to the diagonal")
    norm1_sq = float(x1 @ omega4 @ (cs4 @ x1))
    cross = float(x1 @ omega4 @ x2)
    return complex(norm1_sq, cross)


# ---------------------------------------------------------------------------
# return times
# ---------------------------------------------------------------------------


def _lifted_positions(sym: SymbolField, x: np.ndarray, t_lo: float, t_hi: float) -> Callable:
    """Evaluator ts -> lifted phi_t(x), shape (len(ts), 2), on [min(t_lo, 0),
    max(t_hi, 0)]: the closed form, or the dense output of one position-only
    integration on each side of t = 0."""

    if sym.exact_flow is not None:
        return lambda ts: np.asarray(
            sym.exact_flow(x, np.asarray(ts, dtype=float).reshape(-1))["points_lifted"])

    neg, pos = (_dopri5(lambda pt: hamiltonian_vector_field(sym, pt), x, end, _FLOW_TOL)
                for end in (min(t_lo, 0.0), max(t_hi, 0.0)))

    def positions(ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float).reshape(-1)
        return np.where((ts < 0.0)[:, None], neg(ts), pos(ts))

    return positions


def return_times(sym: SymbolField, x, y, window) -> list[tuple[float, tuple[int, int]]]:
    """All t in [window] with phi_t(x) = y mod lattice, with lattice windings.

    Dense sampling of the lifted flow followed by Newton refinement of the
    along-flow coordinate, both on one flow evaluator (for generic symbols,
    the dense output of one integration on each side of t = 0).  Newton
    starts once per passage near y, at each sample below the distance
    threshold that is a local minimum of the distance to y; each root is
    verified to land on y to 1e-9 in lattice distance.  Requires x, y on a
    common regular level set.
    """

    x = np.asarray(x, dtype=float).reshape(2)
    y = np.asarray(y, dtype=float).reshape(2)
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo <= t_hi:
        raise RegularityError("window must be ordered [t_min, t_max]")
    check_level(sym, y, float(sym.principal(x[0], x[1])))
    norm_X(sym, x)
    norm_X(sym, y)

    x_y = hamiltonian_vector_field(sym, y)
    speed_y = float(np.linalg.norm(x_y))
    u_flow = x_y / speed_y

    grid = np.linspace(0.0, 1.0, 17, endpoint=False)
    vmax = float(np.max(np.abs(sym.grad(*np.meshgrid(grid, grid))))) / FOUR_PI
    dt = min(0.02, 0.2 / (1.0 + vmax))
    n_samples = max(8, int(np.ceil((t_hi - t_lo) / dt)) + 1)
    ts = np.linspace(t_lo, t_hi, n_samples)
    positions = _lifted_positions(sym, x, t_lo, t_hi)
    pts = positions(ts)
    diffs = wrap_difference(pts, y[None, :])
    dist = np.linalg.norm(diffs, axis=-1)
    step = float(ts[1] - ts[0]) if n_samples > 1 else dt
    # slow passages near y may need a wider Newton trust region than 2 steps
    clamp_radius = 2.0 * step + 3.0 * max(3.0 * vmax * step, 1e-5) / max(speed_y, 1e-9)

    # degenerate (non-isolated) returns: the distance hugs zero over a stretch
    tiny = dist < 1e-9
    if tiny.size >= 5 and np.any(np.convolve(tiny.astype(int), np.ones(5, dtype=int), "valid") == 5):
        raise DegenerateError("returns are not isolated (y sits on a fixed set "
                              "of the flow)")

    thresh = max(3.0 * vmax * step, 1e-5)
    padded = np.concatenate([[np.inf], dist, [np.inf]])
    cand_idx = np.nonzero((dist < thresh) & (dist <= padded[:-2]) & (dist <= padded[2:]))[0]

    roots: list[float] = []
    for idx in cand_idx:
        t_guess = float(ts[idx])
        t_cur = t_guess
        converged = False
        for _ in range(60):
            pt = positions(t_cur)[0]
            g = float(wrap_difference(pt, y) @ u_flow)
            xv = hamiltonian_vector_field(sym, pt)
            slope = float(xv @ u_flow)
            if abs(slope) < 1e-12:
                break
            t_next = t_cur - g / slope
            if abs(t_next - t_cur) < 1e-14:
                t_cur = t_next
                converged = True
                break
            t_cur = min(max(t_next, t_guess - clamp_radius), t_guess + clamp_radius)
        if not converged:
            continue
        final = positions(t_cur)[0]
        if float(np.linalg.norm(wrap_difference(final, y))) > 1e-9:
            continue  # a near miss, not a return
        if not (t_lo - 1e-9 <= t_cur <= t_hi + 1e-9):
            continue
        roots.append(min(max(t_cur, t_lo), t_hi))

    # the self-return at t = 0 is structural: snap roundoff-sized roots to it
    roots = [0.0 if abs(r) < 1e-12 else r for r in roots]
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-6:
            merged.append(r)

    out: list[tuple[float, tuple[int, int]]] = []
    for r in merged:
        lifted = positions(r)[0]
        winding = np.round(lifted - y).astype(int)
        if float(np.linalg.norm(lifted - y - winding)) > 1e-8:
            raise RegularityError("winding bookkeeping failed to close the path")
        out.append((float(r), (int(winding[0]), int(winding[1]))))
    return out
