"""Classical geometry on the flat two-torus phase space.

The phase space is T^2 = R^2/Z^2 with coordinates (p, q), symplectic form
omega = 4*pi dp^dq (one cell carries symplectic area 4*pi, so the quantum
space at level k has dimension 2k), complex coordinate z = p + i q, and
prequantum connection one-form alpha = 2*pi (p dq - q dp) with d(alpha) =
omega.  This module integrates Hamiltonian flows together with their
linearization and the action/connection integrals, and computes every
geometric coefficient the kernel predictors need.

Flows come in closed form when the symbol carries one (``model-cos``).
Otherwise one adaptive Dormand–Prince 5(4) integrator with fourth-order
dense output serves both ``integrate_flow`` (which documents its error
norm) and the return-time scan and Newton polish of ``return_times``.

The coefficients are:

* transport phases along lifted paths for the prequantum line bundle L and
  the (flat, trivialized) canonical bundle K;
* the graph amplitude rho_t = 1 / holomorphic determinant of the flow
  Jacobian, with an independent frame-pairing route as a cross-check;
* the level-set amplitude rho'_t for energy-surface kernels, via a
  general-dimension adapted-frame reduction;
* the transversality coefficient B of a Lagrangian line, in both the
  single-copy and kernel (doubled-space) conventions;
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
    BranchedPhase,
    LinearSymplectomorphism,
    branch_sqrt_path,
    holomorphic_determinant,
)

__all__ = [
    "RegularityError",
    "DegenerateError",
    "StepSizeError",
    "TorusPhaseSpace",
    "TORUS",
    "SymbolField",
    "make_symbol",
    "model_cos_symbol",
    "Trajectory",
    "GeometricLift",
    "hamiltonian_vector_field",
    "integrate_flow",
    "transport_phase",
    "prequantum_phase",
    "rho_graph_half",
    "rho_graph_frame",
    "rho_level_half",
    "level_lift_coefficient",
    "norm_X",
    "b_coefficient",
    "b_coefficient_diagonal",
    "return_times",
    "box_operator",
    "geometric_lift",
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


@dataclass(frozen=True)
class TorusPhaseSpace:
    """The torus R^2/(lattice) with omega = 4*pi dp^dq.

    ``lattice`` holds the two basis vectors as columns; the symplectic cell
    area is fixed at 4*pi, which pins det(lattice) = 1.  ``metric_scale`` is
    G = 2*pi in omega = i G dz ^ dzbar; the Kaehler metric is then
    omega(., j.) = 4*pi |dz|^2.
    """

    lattice: np.ndarray = field(default_factory=lambda: np.eye(2))
    symplectic_area: float = FOUR_PI
    metric_scale: float = TWO_PI

    def __post_init__(self) -> None:
        lat = np.asarray(self.lattice, dtype=float)
        object.__setattr__(self, "lattice", lat)
        if lat.shape != (2, 2):
            raise RegularityError("lattice must be a 2x2 matrix of basis columns")
        if abs(np.linalg.det(lat) - 1.0) > 1e-12:
            raise RegularityError("lattice cell must have unit (p,q) area so the "
                                  "symplectic cell area is 4*pi")
        if not (self.symplectic_area > 0.0 and self.metric_scale > 0.0):
            raise RegularityError("scales must be positive")

    def alpha_coeffs(self, p, q) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (a_p, a_q) of alpha = a_p dp + a_q dq at (p, q)."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return -TWO_PI * q, TWO_PI * p

    def alpha_pairing(self, p, q, v) -> np.ndarray:
        """alpha(v) at (p, q) for tangent vectors v with components (...,2)."""
        a_p, a_q = self.alpha_coeffs(p, q)
        v = np.asarray(v, dtype=float)
        return a_p * v[..., 0] + a_q * v[..., 1]

    def omega_gram(self) -> np.ndarray:
        """Gram matrix of omega: omega(u, v) = u^T Om v."""
        return self.symplectic_area * np.array([[0.0, 1.0], [-1.0, 0.0]])

    def reduce(self, pts) -> np.ndarray:
        """Reduce lifted points to the fundamental domain."""
        pts = np.asarray(pts, dtype=float)
        coords = np.linalg.solve(self.lattice, pts[..., :, None])[..., 0] \
            if pts.ndim > 1 else np.linalg.solve(self.lattice, pts)
        frac = coords - np.floor(coords)
        return (self.lattice @ frac[..., :, None])[..., 0] if pts.ndim > 1 \
            else self.lattice @ frac

    def wrap_difference(self, a, b) -> np.ndarray:
        """Shortest lattice representative of a - b (components in [-1/2, 1/2))."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        coords = d if np.allclose(self.lattice, np.eye(2)) else np.linalg.solve(self.lattice, d.T).T
        wrapped = coords - np.round(coords)
        return wrapped if np.allclose(self.lattice, np.eye(2)) else (self.lattice @ wrapped.T).T

    def check_d_alpha(self, n: int = 7, step: float = 1e-4) -> float:
        """Finite-difference verification of d(alpha) = omega; returns the
        worst absolute defect over an n x n sample grid."""
        worst = 0.0
        for p in np.linspace(0.05, 0.95, n):
            for q in np.linspace(0.05, 0.95, n):
                # d(alpha)(d/dp, d/dq) = d/dp a_q - d/dq a_p
                aq_p = (self.alpha_coeffs(p + step, q)[1] - self.alpha_coeffs(p - step, q)[1]) / (2 * step)
                ap_q = (self.alpha_coeffs(p, q + step)[0] - self.alpha_coeffs(p, q - step)[0]) / (2 * step)
                worst = max(worst, abs(aq_p - ap_q - self.symplectic_area))
        return worst


TORUS = TorusPhaseSpace()


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolField:
    """A Hamiltonian (principal + subprincipal symbol) with derivative access.

    All callables take (t, p, q) with p, q broadcastable arrays and return
    arrays of the broadcast shape; ``grad`` returns (..., 2) = (H_p, H_q),
    ``hess`` returns (..., 2, 2).  ``exact_flow``, when present, maps
    (x, times) to the full trajectory data in closed form and is used as a
    fast path by the integrator.
    """

    name: str
    principal: Callable
    subprincipal: Callable
    grad: Callable
    hess: Callable
    autonomous: bool = True
    exact_flow: Callable | None = None

    def check_periodicity(self, n: int = 16, tol: float = 1e-12) -> None:
        pts = np.linspace(0.0, 1.0, n, endpoint=False)
        pp, qq = np.meshgrid(pts, pts)
        base = self.principal(0.0, pp, qq)
        for dp, dq in ((1.0, 0.0), (0.0, 1.0)):
            shifted = self.principal(0.0, pp + dp, qq + dq)
            if np.max(np.abs(shifted - base)) > tol:
                raise RegularityError(f"symbol {self.name!r} is not lattice-periodic")


def make_symbol(name: str, principal, subprincipal=None, grad=None, hess=None,
                autonomous: bool = True, exact_flow=None, fd_step: float = 1e-5) -> SymbolField:
    """Build a SymbolField, filling missing derivatives by centered finite
    differences with the given step."""

    sub = subprincipal if subprincipal is not None else (lambda t, p, q: np.zeros(np.broadcast_shapes(np.shape(p), np.shape(q))))

    if grad is None:
        def grad(t, p, q, _f=principal, _h=fd_step):  # type: ignore[misc]
            gp = (_f(t, p + _h, q) - _f(t, p - _h, q)) / (2.0 * _h)
            gq = (_f(t, p, q + _h) - _f(t, p, q - _h)) / (2.0 * _h)
            return np.stack(np.broadcast_arrays(gp, gq), axis=-1)

    if hess is None:
        def hess(t, p, q, _f=principal, _h=fd_step):  # type: ignore[misc]
            hpp = (_f(t, p + _h, q) - 2.0 * _f(t, p, q) + _f(t, p - _h, q)) / _h ** 2
            hqq = (_f(t, p, q + _h) - 2.0 * _f(t, p, q) + _f(t, p, q - _h)) / _h ** 2
            hpq = (_f(t, p + _h, q + _h) - _f(t, p + _h, q - _h)
                   - _f(t, p - _h, q + _h) + _f(t, p - _h, q - _h)) / (4.0 * _h ** 2)
            hpp, hpq, hqq = np.broadcast_arrays(hpp, hpq, hqq)
            return np.stack([np.stack([hpp, hpq], axis=-1),
                             np.stack([hpq, hqq], axis=-1)], axis=-2)

    return SymbolField(name=name, principal=principal, subprincipal=sub,
                       grad=grad, hess=hess, autonomous=autonomous,
                       exact_flow=exact_flow)


def model_cos_symbol(sub_const: float = 0.0) -> SymbolField:
    """H(p, q) = cos(2*pi*q) with constant subprincipal part ``sub_const``.

    The flow is the exact shear phi_t(p, q) = (p + (t/2) sin(2*pi*q), q); all
    trajectory data has closed forms, installed as the integrator fast path.
    """

    def principal(t, p, q):
        return np.cos(TWO_PI * np.asarray(q, dtype=float)) + 0.0 * np.asarray(p, dtype=float)

    def subprincipal(t, p, q):
        return np.full(np.broadcast_shapes(np.shape(p), np.shape(q)), float(sub_const))

    def grad(t, p, q):
        gq = -TWO_PI * np.sin(TWO_PI * np.asarray(q, dtype=float))
        gp = np.zeros_like(gq)
        return np.stack(np.broadcast_arrays(gp, gq), axis=-1)

    def hess(t, p, q):
        hqq = -TWO_PI ** 2 * np.cos(TWO_PI * np.asarray(q, dtype=float))
        zero = np.zeros_like(hqq)
        return np.stack([np.stack([zero, zero], axis=-1),
                         np.stack([zero, hqq], axis=-1)], axis=-2)

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
        }

    return SymbolField(name="model-cos", principal=principal, subprincipal=subprincipal,
                       grad=grad, hess=hess, autonomous=True, exact_flow=exact_flow)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """A flow trajectory with linearization and accumulated integrals.

    ``times`` starts at 0 and moves monotonically (decreasing grids are used
    for negative final times); all integrals are anchored at t = 0.
    ``points`` is reduced to the fundamental domain, ``points_lifted`` is the
    continuous lift in R^2 that the connection integrals use.
    """

    start: np.ndarray
    times: np.ndarray
    points: np.ndarray
    points_lifted: np.ndarray
    jacobians: np.ndarray
    action_H: np.ndarray
    action_Hsub: np.ndarray
    conn_L: np.ndarray

    def __post_init__(self) -> None:
        if abs(float(self.times[0])) > 1e-15:
            raise RegularityError("trajectory time grids must start at 0")

    def symplectic_defect(self) -> float:
        jac = self.jacobians
        j_gram = np.array([[0.0, 1.0], [-1.0, 0.0]])
        defect = np.einsum("tji,jk,tkl->til", jac, j_gram, jac) - j_gram
        return float(np.max(np.abs(defect)))


def hamiltonian_vector_field(sym: SymbolField, t: float, x, ps: TorusPhaseSpace = TORUS) -> np.ndarray:
    """X solving omega(X, .) = -dH: components (-H_q, H_p) / (4*pi)."""
    x = np.asarray(x, dtype=float)
    g = sym.grad(t, x[..., 0], x[..., 1])
    return np.stack([-g[..., 1], g[..., 0]], axis=-1) / ps.symplectic_area


def _flow_rhs(sym: SymbolField, ps: TorusPhaseSpace, t: float, y: np.ndarray) -> np.ndarray:
    """Joint field of (point, Jacobian, int H, int H^sub, int alpha(X))."""
    p, q = y[0], y[1]
    xv = hamiltonian_vector_field(sym, t, y[:2], ps)
    h = sym.hess(t, p, q)
    # DX = d(X)/d(p,q): rows follow (X_p, X_q) = (-H_q, H_p)/scale
    dx = np.array([[-h[0, 1], -h[1, 1]], [h[0, 0], h[0, 1]]]) / ps.symplectic_area
    return np.concatenate([xv, (dx @ y[2:6].reshape(2, 2)).ravel(),
                           [sym.principal(t, p, q), sym.subprincipal(t, p, q),
                            ps.alpha_pairing(p, q, xv)]])


# Dormand–Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 1980)
# with Shampine's quartic continuous extension (Hairer–Nørsett–Wanner,
# Solving ODEs I, §II.4–6).  The seventh stage is the next step's first (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
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
    """Adaptive DOPRI5 for y' = rhs(t, y) from t = 0 to ``t_end`` (either
    sign); returns the dense evaluator ``ts -> (len(ts), n)``, Shampine's
    quartic over each accepted step's stages (y0 exactly at t = 0).  A step
    is accepted when max_i |err_i| / (1 + |y_i|) <= tol; a rejected step at
    the floor |t_end| * eps / tol, below which the rounding of the steps
    alone would exceed tol, raises StepSizeError.
    """

    y = np.array(y0, dtype=float)
    span = abs(float(t_end))
    sign = 1.0 if t_end >= 0 else -1.0
    h_min = span * np.finfo(float).eps / tol
    stages = np.empty((7, y.size))
    stages[0] = rhs(0.0, y)
    h = tol ** 0.2 / (1e-3 + float(np.max(np.abs(stages[0]) / (1.0 + np.abs(y)))))
    h = min(span, max(h_min, h))
    t = 0.0
    starts, bases, polys = [], [], []
    while (remaining := sign * (t_end - t)) > 0.0:
        h = min(h, remaining)
        dt = sign * h
        for i in range(1, 6):
            stages[i] = rhs(t + _DP_C[i] * dt, y + dt * (_DP_A[i] @ stages[:i]))
        y_new = y + dt * (_DP_B @ stages[:6])
        stages[6] = rhs(t + dt, y_new)
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


def integrate_flow(sym: SymbolField, x, times, ps: TorusPhaseSpace = TORUS,
                   tol: float = _FLOW_TOL) -> Trajectory:
    """Flow trajectory from x over the given time grid (starting at 0).

    Symbols that carry an exact flow skip the integrator.  Otherwise the flow,
    its variational equation and the action/connection integrals are
    integrated jointly in one adaptive Dormand–Prince 5(4) sweep to the last
    grid time, accepting a step when its embedded error estimate satisfies
    max_i |err_i| / (1 + |y_i|) <= ``tol``; the grid is read from the
    fourth-order dense output, so its spacing does not set the step.  For
    symbols without closed-form derivatives the estimate does not include
    the finite-difference error of ``grad`` and ``hess``.  Raises
    StepSizeError when a step at the step-size floor still misses ``tol``,
    or when the Jacobians lose symplecticity by more than 1e-9.
    """

    x = np.asarray(x, dtype=float).reshape(2)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise RegularityError("times must be a one-dimensional grid")
    if abs(times[0]) > 1e-15:
        raise RegularityError("time grids must start at 0")
    steps = np.diff(times)
    if steps.size and (np.any(steps == 0.0) or (np.any(steps > 0) and np.any(steps < 0))):
        raise RegularityError("time grids must be strictly monotone")

    if sym.exact_flow is not None:
        data = sym.exact_flow(x, times)
    else:
        y0 = np.array([x[0], x[1], 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        states = _dopri5(lambda t, y: _flow_rhs(sym, ps, t, y), y0, float(times[-1]), tol)(times)
        data = {"points_lifted": states[:, 0:2], "jacobians": states[:, 2:6].reshape(-1, 2, 2),
                "action_H": states[:, 6], "action_Hsub": states[:, 7], "conn_L": states[:, 8]}
    lifted = np.asarray(data["points_lifted"], dtype=float)
    traj = Trajectory(
        start=x,
        times=times,
        points=ps.reduce(lifted),
        points_lifted=lifted,
        jacobians=np.asarray(data["jacobians"], dtype=float),
        action_H=np.asarray(data["action_H"], dtype=float),
        action_Hsub=np.asarray(data["action_Hsub"], dtype=float),
        conn_L=np.asarray(data["conn_L"], dtype=float),
    )

    defect = traj.symplectic_defect()
    if defect > 1e-9:
        raise StepSizeError(f"flow Jacobians lost symplecticity (defect {defect:.2e}); "
                            "tighten tol")
    return traj


# ---------------------------------------------------------------------------
# transport phases and prequantum lift
# ---------------------------------------------------------------------------


def transport_phase(ps: TorusPhaseSpace, traj: Trajectory, bundle: str) -> np.ndarray:
    """Unit parallel-transport phases along the lifted path.

    For the prequantum bundle L (connection -i alpha) the transport is
    exp(+i * integral of alpha(X) dt); for the canonical bundle K the global
    dz-trivialization is flat on the torus and the transport is 1.
    """

    if bundle == "L":
        return np.exp(1j * traj.conn_L)
    if bundle == "K":
        return np.ones(traj.times.shape, dtype=complex)
    raise ValueError(f"unknown bundle tag {bundle!r}; expected 'L' or 'K'")


def prequantum_phase(sym: SymbolField, traj: Trajectory, k: int) -> np.ndarray:
    """e^{-i int H^sub} [e^{-i int H} T^L]^k (times the trivial L' factor).

    The k-th power is taken on the phase accumulator, not by repeated
    multiplication, so large k cannot wrap the argument.
    """

    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError("k must be a positive integer")
    phase = -traj.action_Hsub + float(k) * (traj.conn_L - traj.action_H)
    return np.exp(1j * phase)


# ---------------------------------------------------------------------------
# graph amplitude rho
# ---------------------------------------------------------------------------


def rho_graph_half(ps: TorusPhaseSpace, traj: Trajectory) -> list[BranchedPhase]:
    """Branch-continuous [rho_t]^{1/2} along the trajectory.

    rho_t = 1 / (holomorphic determinant of the flow Jacobian); the T^K
    transport phase it is divided by is 1 on the flat torus.  Starts at 1;
    the square root is tracked through branch unwinding.
    """

    dets = np.array([
        holomorphic_determinant(LinearSymplectomorphism(m)) for m in traj.jacobians
    ])
    return branch_sqrt_path(1.0 / dets)


def rho_graph_frame(ps: TorusPhaseSpace, traj: Trajectory) -> np.ndarray:
    """rho_t by the frame route: pair the graph tangent frame against the
    kernel-side (2,0)-form and take the ratio to its t=0 value.

    The graph of phi_t is spanned by xi(u) = (M u, u); the form
    Om = c^2 dz_y ^ dzbar_x evaluates to
    c^2 [dz(M u_1) dzbar(u_2) - dz(M u_2) dzbar(u_1)], and
    rho_t = Om_0 / Om_t (the K-transport correction is 1 on the flat torus).
    Shares no code with the holomorphic-block determinant route.
    """

    c2 = ps.metric_scale  # constant cancels in the ratio; kept for clarity
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


def _adapted_level_frame(x_vec: np.ndarray, omega_gram: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Unitary frame (e_1..e_n, f_1..f_n) for the metric omega(., cs .) with
    e_1 along the flow direction and f_i = cs e_i."""

    dim = x_vec.size
    n = dim // 2
    metric = omega_gram @ cs
    norm = float(x_vec @ metric @ x_vec)
    if norm <= 1e-12:
        raise RegularityError("flow direction has vanishing metric norm")
    es = [x_vec / np.sqrt(norm)]
    fs = [cs @ es[0]]
    for cand in np.eye(dim):
        if len(es) == n:
            break
        v = cand.copy()
        for w in (*es, *fs):
            v -= (w @ metric @ v) * w
        norm2 = float(v @ metric @ v)
        if norm2 <= 1e-10:
            continue
        e = v / np.sqrt(norm2)
        es.append(e)
        fs.append(cs @ e)
    if len(es) != n:
        raise RegularityError("could not complete an adapted frame")
    return np.column_stack([*es, *fs])


def level_lift_coefficient(jac: np.ndarray, x_src: np.ndarray, x_dst: np.ndarray,
                           omega_gram: np.ndarray, cs: np.ndarray) -> complex:
    """The level-set kernel amplitude rho' for one linearized flow map.

    Works in any dimension 2n.  Builds adapted frames (e_1 = X/||X||,
    f_1 = j e_1, the rest completing unitary frames), drops the flow/energy
    pair, takes the reciprocal holomorphic determinant of the reduced map on
    the symplectic complement G (the Phi_G factor), multiplies the
    2 ||X_src||^{-2} normal-direction factor (Phi_F), and converts the
    adapted (n,0)-frames back to the global dz-frame via the determinants of
    their (1,0)-coordinate matrices.  For n = 1 the reduced determinant is
    empty and rho' = 2 dz(X_src) / (||X_src||^2 dz(X_dst)).
    """

    jac = np.asarray(jac, dtype=float)
    dim = jac.shape[0]
    n = dim // 2
    x_src = np.asarray(x_src, dtype=float).reshape(dim)
    x_dst = np.asarray(x_dst, dtype=float).reshape(dim)
    metric = omega_gram @ cs
    ns2 = float(x_src @ metric @ x_src)
    nt2 = float(x_dst @ metric @ x_dst)
    if min(ns2, nt2) <= 1e-12:
        raise RegularityError("flow direction degenerates along the trajectory")

    p_src = _adapted_level_frame(x_src, omega_gram, cs)
    p_dst = _adapted_level_frame(x_dst, omega_gram, cs)
    w = np.linalg.solve(p_dst, jac @ p_src)

    # the flow direction must map to the flow direction:
    # jac e_1(src) = (||X_dst|| / ||X_src||) e_1(dst), nothing elsewhere
    off = np.abs(w[:, 0])
    off[0] = 0.0
    if np.max(off) > 1e-6 * max(1.0, abs(w[0, 0])) or \
            abs(w[0, 0] - np.sqrt(nt2 / ns2)) > 1e-6 * max(1.0, np.sqrt(nt2 / ns2)):
        raise RegularityError("Jacobian does not carry the source flow direction "
                              "to the target one; is the symbol autonomous and "
                              "the energy shared?")

    keep = [*range(1, n), *range(n + 1, dim)]
    psi = w[np.ix_(keep, keep)]
    # G-columns may not leak into the energy direction f_1
    if keep:
        leak = float(np.max(np.abs(w[np.ix_([n], keep)])))
        if leak > 1e-6:
            raise RegularityError("reduced map leaks out of the energy level "
                                  f"(defect {leak:.2e})")
    m = n - 1
    if m:
        a = psi[:m, :m]
        b = psi[:m, m:]
        c = psi[m:, :m]
        d = psi[m:, m:]
        det_psi = complex(np.linalg.det(0.5 * ((a + d) + 1j * (c - b))))
    else:
        det_psi = 1.0 + 0.0j

    def e_frame_det(frame: np.ndarray) -> complex:
        ze = frame[:n, :n] + 1j * frame[n:, :n]
        return complex(np.linalg.det(ze))

    rho_adapted = 2.0 / (np.sqrt(ns2) * np.sqrt(nt2) * det_psi)
    return rho_adapted * e_frame_det(p_src) / e_frame_det(p_dst)


def norm_X(ps: TorusPhaseSpace, sym: SymbolField, t: float, x) -> float:
    """Metric norm sqrt(omega(X, jX)) of the Hamiltonian field at x."""
    xv = hamiltonian_vector_field(sym, t, np.asarray(x, dtype=float), ps)
    val = float(np.sqrt(ps.symplectic_area * (xv[0] ** 2 + xv[1] ** 2)))
    if val < 1e-6:
        raise RegularityError(f"Hamiltonian field norm {val:.2e} below 1e-6: "
                              "x is (numerically) a critical point")
    return val


def rho_level_half(ps: TorusPhaseSpace, sym: SymbolField, traj: Trajectory,
                   energy: float) -> list[BranchedPhase]:
    """Branch-continuous [rho'_t]^{1/2} along a level-set trajectory.

    Starts at sqrt(2)/||X_x||; every sampled point must be a regular point of
    the energy level.
    """

    if not sym.autonomous:
        raise RegularityError("level-set amplitudes require an autonomous symbol")
    e0 = float(sym.principal(0.0, traj.start[0], traj.start[1]))
    if abs(e0 - energy) > 1e-10 * (1.0 + abs(energy)):
        raise RegularityError(f"trajectory starts at H = {e0!r}, not at the "
                              f"requested energy {energy!r}")
    omega_gram = ps.omega_gram()
    cs = np.array([[0.0, -1.0], [1.0, 0.0]])
    x_src = hamiltonian_vector_field(sym, 0.0, traj.start, ps)
    vals = []
    for i, t in enumerate(traj.times):
        norm_X(ps, sym, float(t), traj.points[i])  # regularity guard
        x_dst = hamiltonian_vector_field(sym, float(t), traj.points_lifted[i], ps)
        rho = level_lift_coefficient(traj.jacobians[i], x_src, x_dst, omega_gram, cs)
        vals.append(rho)  # the T^K transport it is divided by is 1 on the flat torus
    return branch_sqrt_path(np.asarray(vals))


# ---------------------------------------------------------------------------
# transversality coefficient B
# ---------------------------------------------------------------------------


def b_coefficient(ps: TorusPhaseSpace, sym: SymbolField, x, tangent) -> complex:
    """B = ||X_1||^2 + i omega(X_1, X_2) for the splitting X = X_1 + X_2 with
    X_1 in j(T Gamma), X_2 in T Gamma, Gamma the Lagrangian line spanned by
    ``tangent`` at x.  Raises DegenerateError when X lies in the line."""

    x = np.asarray(x, dtype=float)
    tau = np.asarray(tangent, dtype=float).reshape(2)
    norm = np.linalg.norm(tau)
    if norm == 0.0:
        raise RegularityError("tangent direction must be nonzero")
    tau = tau / norm
    cs = np.array([[0.0, -1.0], [1.0, 0.0]])
    xv = hamiltonian_vector_field(sym, 0.0, x, ps)
    basis = np.column_stack([cs @ tau, tau])
    coeff = np.linalg.solve(basis, xv)
    x1 = coeff[0] * (cs @ tau)
    x2 = coeff[1] * tau
    if np.linalg.norm(x1) <= 1e-10 * max(np.linalg.norm(xv), 1e-30):
        raise DegenerateError("Hamiltonian field is tangent to the Lagrangian line")
    omega_gram = ps.omega_gram()
    norm1_sq = float(x1 @ omega_gram @ (cs @ x1))
    cross = float(x1 @ omega_gram @ x2)
    return complex(norm1_sq, cross)


def b_coefficient_diagonal(ps: TorusPhaseSpace, sym: SymbolField, x) -> complex:
    """The kernel-side B: same splitting run on the doubled phase space
    (M x M, omega (+) -omega, j (+) -j) against the diagonal Lagrangian, with
    the field (X, 0).  This is the coefficient whose reciprocal is the t=0
    level amplitude: rho'_0 * B_diag = 1.  For any X it equals ||X||^2 / 2.
    """

    x = np.asarray(x, dtype=float)
    xv = hamiltonian_vector_field(sym, 0.0, x, ps)
    omega2 = ps.omega_gram()
    cs2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    zero = np.zeros((2, 2))
    omega4 = np.block([[omega2, zero], [zero, -omega2]])
    cs4 = np.block([[cs2, zero], [zero, -cs2]])
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


def _lifted_positions(sym: SymbolField, ps: TorusPhaseSpace, x: np.ndarray,
                      t_lo: float, t_hi: float) -> Callable:
    """Evaluator ts -> lifted phi_t(x), shape (len(ts), 2), on [min(t_lo, 0),
    max(t_hi, 0)]: the closed form, or the dense output of one position-only
    integration on each side of t = 0."""

    if sym.exact_flow is not None:
        return lambda ts: np.asarray(
            sym.exact_flow(x, np.asarray(ts, dtype=float).reshape(-1))["points_lifted"])

    neg, pos = (_dopri5(lambda t, pt: hamiltonian_vector_field(sym, t, pt, ps), x, end, _FLOW_TOL)
                for end in (min(t_lo, 0.0), max(t_hi, 0.0)))

    def positions(ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float).reshape(-1)
        return np.where((ts < 0.0)[:, None], neg(ts), pos(ts))

    return positions


def return_times(sym: SymbolField, x, y, window, ps: TorusPhaseSpace = TORUS) -> list[tuple[float, tuple[int, int]]]:
    """All t in [window] with phi_t(x) = y mod lattice, with lattice windings.

    Dense sampling of the lifted flow followed by Newton refinement of the
    along-flow coordinate, both on one flow evaluator (for generic symbols,
    the dense output of one integration on each side of t = 0); each root is
    verified to land on y to 1e-9 in lattice distance.  Requires an autonomous symbol and x, y on a common
    regular level set.
    """

    if not sym.autonomous:
        raise RegularityError("return times are defined for autonomous symbols only")
    x = np.asarray(x, dtype=float).reshape(2)
    y = np.asarray(y, dtype=float).reshape(2)
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo <= t_hi:
        raise RegularityError("window must be ordered [t_min, t_max]")
    e_x = float(sym.principal(0.0, x[0], x[1]))
    e_y = float(sym.principal(0.0, y[0], y[1]))
    if abs(e_x - e_y) > 1e-10 * (1.0 + abs(e_x)):
        raise RegularityError(f"x and y lie on different level sets "
                              f"(H(x) = {e_x!r}, H(y) = {e_y!r})")
    norm_X(ps, sym, 0.0, x)
    norm_X(ps, sym, 0.0, y)

    x_y = hamiltonian_vector_field(sym, 0.0, y, ps)
    speed_y = float(np.linalg.norm(x_y))
    u_flow = x_y / speed_y

    grid = np.linspace(0.0, 1.0, 17, endpoint=False)
    vmax = float(np.max(np.abs(sym.grad(0.0, *np.meshgrid(grid, grid))))) / ps.symplectic_area
    dt = min(0.02, 0.2 / (1.0 + vmax))
    n_samples = max(8, int(np.ceil((t_hi - t_lo) / dt)) + 1)
    ts = np.linspace(t_lo, t_hi, n_samples)
    positions = _lifted_positions(sym, ps, x, t_lo, t_hi)
    pts = positions(ts)
    diffs = ps.wrap_difference(pts, y[None, :])
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
    cand_idx = np.nonzero(dist < thresh)[0]

    roots: list[float] = []
    for idx in cand_idx:
        t_guess = float(ts[idx])
        t_cur = t_guess
        converged = False
        for _ in range(60):
            pt = positions(t_cur)[0]
            g = float(ps.wrap_difference(pt, y) @ u_flow)
            xv = hamiltonian_vector_field(sym, 0.0, pt, ps)
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
        if float(np.linalg.norm(ps.wrap_difference(final, y))) > 1e-9:
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


# ---------------------------------------------------------------------------
# normal-coordinate second-order diagnostics
# ---------------------------------------------------------------------------


def box_operator(ps: TorusPhaseSpace, sym: SymbolField, t: float, x):
    """Second-order symbol data in metric-normalized complex coordinates.

    With w = sqrt(G) z (so the metric has unit coefficient), returns

        box_H = H_{w wbar} + (1/2) H_{wbar wbar}
        theta = H_{w wbar} + H_{wbar wbar}     (real for the real symbols here)
        zeta  = theta / 2 + H^sub(x)

    as diagnostics of the second-order kernel expansion coefficients.
    """

    x = np.asarray(x, dtype=float)
    h = sym.hess(t, x[0], x[1])
    hpp, hpq, hqq = float(h[0, 0]), float(h[0, 1]), float(h[1, 1])
    g = ps.metric_scale
    h_zzbar = 0.25 * (hpp + hqq)
    h_zbarzbar = 0.25 * complex(hpp - hqq, 2.0 * hpq)
    h_wwbar = h_zzbar / g
    h_wbarwbar = h_zbarzbar / g
    box_h = h_wwbar + 0.5 * h_wbarwbar
    theta = h_wwbar + h_wbarwbar
    sub = float(sym.subprincipal(t, x[0], x[1]))
    zeta = 0.5 * theta + sub
    if abs(box_h.imag) < 1e-12:
        box_h = box_h.real
    if abs(theta.imag) < 1e-12:
        theta = theta.real
    return box_h, theta, zeta


# ---------------------------------------------------------------------------
# assembled lift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricLift:
    """All predictor ingredients along one trajectory, branch-tracked.

    ``rho_level_half`` is present only when an energy was supplied (level-set
    trajectories)."""

    transport_L: list[BranchedPhase]
    prequantum_k: np.ndarray
    rho_half: list[BranchedPhase]
    rho_level_half: list[BranchedPhase] | None


def geometric_lift(ps: TorusPhaseSpace, sym: SymbolField, traj: Trajectory,
                   k: int, energy: float | None = None) -> GeometricLift:
    """Bundle the transport, prequantum, and amplitude data for a trajectory."""

    transport = [BranchedPhase(complex(np.exp(1j * c)), float(c)) for c in traj.conn_L]
    return GeometricLift(
        transport_L=transport,
        prequantum_k=prequantum_phase(sym, traj, k),
        rho_half=rho_graph_half(ps, traj),
        rho_level_half=None if energy is None else rho_level_half(ps, sym, traj, energy),
    )
