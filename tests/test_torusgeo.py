"""Tests for torus phase-space geometry: flows, transports, amplitudes."""

from __future__ import annotations

import numpy as np
import pytest

from torusprop.symplin import LinearSymplectomorphism, holomorphic_determinant
from torusprop.torusgeo import (
    TORUS,
    DegenerateError,
    RegularityError,
    StepSizeError,
    TorusPhaseSpace,
    b_coefficient,
    b_coefficient_diagonal,
    box_operator,
    geometric_lift,
    hamiltonian_vector_field,
    integrate_flow,
    level_lift_coefficient,
    make_symbol,
    model_cos_symbol,
    norm_X,
    prequantum_phase,
    return_times,
    rho_graph_frame,
    rho_graph_half,
    rho_level_half,
    transport_phase,
)
from torusprop.torusgeo import _dopri5

TWO_PI = 2.0 * np.pi


def model_without_exact_flow(sub_const: float = 0.0):
    """The shear Hamiltonian with closed-form derivatives but no closed-form
    flow: forces the generic integrator through an exactly checkable case."""

    ref = model_cos_symbol(sub_const)
    return make_symbol("model-cos-generic", ref.principal,
                       subprincipal=ref.subprincipal, grad=ref.grad, hess=ref.hess)


def generic_symbol():
    """A two-frequency Hamiltonian with closed-form derivatives (no exact flow)."""

    def principal(t, p, q):
        return np.cos(TWO_PI * np.asarray(q, float)) + 0.3 * np.cos(TWO_PI * np.asarray(p, float))

    def grad(t, p, q):
        gp = -0.3 * TWO_PI * np.sin(TWO_PI * np.asarray(p, float))
        gq = -TWO_PI * np.sin(TWO_PI * np.asarray(q, float))
        return np.stack(np.broadcast_arrays(gp, gq), axis=-1)

    def hess(t, p, q):
        hpp = -0.3 * TWO_PI ** 2 * np.cos(TWO_PI * np.asarray(p, float))
        hqq = -TWO_PI ** 2 * np.cos(TWO_PI * np.asarray(q, float))
        zero = np.zeros_like(hpp + hqq)
        hpp, hqq = np.broadcast_arrays(hpp, hqq)
        return np.stack([np.stack([hpp, zero], axis=-1),
                         np.stack([zero, hqq], axis=-1)], axis=-2)

    return make_symbol("two-frequency", principal, grad=grad, hess=hess)


# ---------------------------------------------------------------------------
# phase space
# ---------------------------------------------------------------------------


def test_d_alpha_equals_omega():
    assert TORUS.check_d_alpha() < 1e-8


def test_lattice_area_is_fixed():
    with pytest.raises(RegularityError, match="4\\*pi"):
        TorusPhaseSpace(lattice=np.diag([2.0, 1.0]))


def test_wrap_difference_is_shortest():
    d = TORUS.wrap_difference(np.array([0.95, 0.1]), np.array([0.05, 0.1]))
    assert np.allclose(d, [-0.1, 0.0])


# ---------------------------------------------------------------------------
# Hamiltonian vector field
# ---------------------------------------------------------------------------


def test_field_of_cos_q():
    sym = model_cos_symbol()
    x = hamiltonian_vector_field(sym, 0.0, np.array([0.3, 0.1]))
    assert np.allclose(x, [0.5 * np.sin(0.2 * np.pi), 0.0], atol=1e-14)


def test_field_of_constant_is_zero():
    sym = make_symbol("const", lambda t, p, q: 0.7 + 0.0 * np.asarray(p, float))
    x = hamiltonian_vector_field(sym, 0.0, np.array([0.3, 0.1]))
    assert np.allclose(x, [0.0, 0.0], atol=1e-10)


def test_field_of_cos_p():
    sym = make_symbol("cos-p", lambda t, p, q: np.cos(TWO_PI * np.asarray(p, float)) + 0.0 * np.asarray(q, float))
    x = hamiltonian_vector_field(sym, 0.0, np.array([0.15, 0.4]))
    assert np.allclose(x, [0.0, -0.5 * np.sin(0.3 * np.pi)], atol=1e-8)


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------


def test_shear_flow_point_and_jacobian():
    sym = model_cos_symbol()
    traj = integrate_flow(sym, (0.3, 0.1), np.linspace(0.0, 1.0, 11))
    assert np.allclose(traj.points[-1], [0.3 + 0.5 * np.sin(0.2 * np.pi), 0.1], atol=1e-12)
    expect_jac = np.array([[1.0, np.pi * np.cos(0.2 * np.pi)], [0.0, 1.0]])
    assert np.allclose(traj.jacobians[-1], expect_jac, atol=1e-10)


def test_time_zero_is_trivial():
    traj = integrate_flow(generic_symbol(), (0.3, 0.1), np.array([0.0]))
    assert np.allclose(traj.points[0], [0.3, 0.1])
    assert np.allclose(traj.jacobians[0], np.eye(2))
    assert traj.action_H[0] == 0.0 and traj.conn_L[0] == 0.0


def test_generic_integrator_reproduces_closed_form():
    # Same Hamiltonian, exact-flow fast path stripped: the RK4 path must
    # reproduce every closed-form trajectory quantity.
    sym_num = model_without_exact_flow(sub_const=0.25)
    sym_ref = model_cos_symbol(sub_const=0.25)
    times = np.linspace(0.0, 1.5, 16)
    got = integrate_flow(sym_num, (0.3, 0.1), times)
    ref = integrate_flow(sym_ref, (0.3, 0.1), times)
    assert np.max(np.abs(got.points_lifted - ref.points_lifted)) < 1e-9
    assert np.max(np.abs(got.jacobians - ref.jacobians)) < 1e-9
    assert np.max(np.abs(got.action_H - ref.action_H)) < 1e-9
    assert np.max(np.abs(got.action_Hsub - ref.action_Hsub)) < 1e-9
    assert np.max(np.abs(got.conn_L - ref.conn_L)) < 1e-9


def test_flow_composition_property():
    sym = generic_symbol()
    s, t = 0.4, 1.0
    whole = integrate_flow(sym, (0.3, 0.1), np.array([0.0, s, t]))
    first = integrate_flow(sym, (0.3, 0.1), np.array([0.0, s]))
    second = integrate_flow(sym, first.points_lifted[-1], np.array([0.0, t - s]))
    assert np.max(np.abs(second.points_lifted[-1] - whole.points_lifted[-1])) < 1e-9
    assert np.max(np.abs(second.jacobians[-1] @ first.jacobians[-1] - whole.jacobians[-1])) < 1e-9
    assert abs(first.action_H[-1] + second.action_H[-1] - whole.action_H[-1]) < 1e-9
    assert abs(first.conn_L[-1] + second.conn_L[-1] - whole.conn_L[-1]) < 1e-9


def test_jacobians_stay_symplectic():
    traj = integrate_flow(generic_symbol(), (0.22, 0.37), np.linspace(0.0, 2.0, 21))
    assert traj.symplectic_defect() < 1e-9


def test_negative_time_grids_work():
    sym = model_cos_symbol()
    traj = integrate_flow(sym, (0.3, 0.1), np.linspace(0.0, -2.0, 21))
    assert traj.times[-1] == -2.0
    assert np.allclose(traj.points_lifted[-1], [0.3 - np.sin(0.2 * np.pi), 0.1], atol=1e-12)


def test_grid_must_start_at_zero():
    with pytest.raises(RegularityError, match="start at 0"):
        integrate_flow(model_cos_symbol(), (0.3, 0.1), np.array([0.1, 0.2]))


def test_grid_must_be_monotone():
    with pytest.raises(RegularityError, match="monotone"):
        integrate_flow(model_cos_symbol(), (0.3, 0.1), np.array([0.0, 0.2, 0.1]))


def test_unreachable_tolerance_is_reported():
    with pytest.raises(StepSizeError, match="error estimate"):
        integrate_flow(generic_symbol(), (0.3, 0.1), np.array([0.0, 1.0]), tol=1e-17)


def test_expression_flow_stays_within_call_budget():
    # finite-difference derivatives: one right-hand side costs ~15 symbol calls
    calls = [0]

    def principal(t, p, q):
        calls[0] += 1
        return np.cos(TWO_PI * np.asarray(q, float)) + 0.0 * np.asarray(p, float)

    traj = integrate_flow(make_symbol("cos-q-fd", principal), (0.3, 0.1), np.linspace(0.0, 1.0, 101))
    assert calls[0] < 2000
    assert np.allclose(traj.points_lifted[-1], [0.3 + 0.5 * np.sin(0.2 * np.pi), 0.1], atol=1e-9)


def test_dense_output_between_steps_matches_shear():
    sym = model_without_exact_flow()
    x = np.array([0.3, 0.1])
    dense = _dopri5(lambda t, pt: hamiltonian_vector_field(sym, t, pt), x, 8.0, 1e-10)
    ts = np.array([0.123, 6.9])
    expect = np.column_stack([0.3 + 0.5 * np.sin(0.2 * np.pi) * ts, np.full(2, 0.1)])
    assert np.max(np.abs(dense(ts) - expect)) < 1e-9
    got = integrate_flow(sym, x, np.array([0.0, 0.123, 6.9]))
    ref = integrate_flow(model_cos_symbol(), x, np.array([0.0, 0.123, 6.9]))
    assert np.max(np.abs(got.points_lifted - ref.points_lifted)) < 1e-9
    assert np.max(np.abs(got.jacobians - ref.jacobians)) < 1e-9


# ---------------------------------------------------------------------------
# transport and prequantum phases
# ---------------------------------------------------------------------------


def test_shear_transport_closed_form():
    sym = model_cos_symbol()
    times = np.linspace(0.0, 2.0, 9)
    traj = integrate_flow(sym, (0.3, 0.1), times)
    got = transport_phase(TORUS, traj, "L")
    expect = np.exp(-1j * np.pi * times * 0.1 * np.sin(0.2 * np.pi))
    assert np.max(np.abs(got - expect)) < 1e-12


def test_loop_holonomy():
    # one full loop p -> p + 1 at fixed q transports by e^{-2 pi i q}
    q0 = 0.1
    sym = model_cos_symbol()
    t_loop = 2.0 / np.sin(TWO_PI * q0)
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, t_loop, 11))
    assert np.allclose(traj.points_lifted[-1], [1.3, q0], atol=1e-12)
    got = transport_phase(TORUS, traj, "L")[-1]
    assert got == pytest.approx(np.exp(-2j * np.pi * q0), abs=1e-12)


def test_canonical_transport_is_trivial():
    traj = integrate_flow(model_cos_symbol(), (0.3, 0.1), np.linspace(0.0, 1.0, 5))
    assert np.allclose(transport_phase(TORUS, traj, "K"), 1.0)


def test_unknown_bundle_rejected():
    traj = integrate_flow(model_cos_symbol(), (0.3, 0.1), np.array([0.0]))
    with pytest.raises(ValueError, match="bundle"):
        transport_phase(TORUS, traj, "L2")


def test_prequantum_phase_closed_form():
    sym = model_cos_symbol()
    q0 = 0.1
    times = np.linspace(0.0, 1.0, 6)
    traj = integrate_flow(sym, (0.3, q0), times)
    base = np.exp(-1j * times * (np.cos(TWO_PI * q0) + np.pi * q0 * np.sin(TWO_PI * q0)))
    for k in (1, 7):
        got = prequantum_phase(sym, traj, k)
        assert np.max(np.abs(got - base ** k)) < 1e-12


def test_prequantum_subprincipal_shift():
    # adding a constant subprincipal multiplies by e^{-i c t}, k-independently
    c = 0.7
    times = np.linspace(0.0, 1.0, 6)
    traj0 = integrate_flow(model_cos_symbol(), (0.3, 0.1), times)
    trajc = integrate_flow(model_cos_symbol(sub_const=c), (0.3, 0.1), times)
    for k in (1, 50):
        ratio = prequantum_phase(model_cos_symbol(sub_const=c), trajc, k) \
            / prequantum_phase(model_cos_symbol(), traj0, k)
        assert np.max(np.abs(ratio - np.exp(-1j * c * times))) < 1e-12


def test_prequantum_constant_hamiltonian():
    c = 0.37
    sym = make_symbol("const", lambda t, p, q: c + 0.0 * np.asarray(p, float))
    times = np.linspace(0.0, 1.0, 4)
    traj = integrate_flow(sym, (0.3, 0.1), times)
    got = prequantum_phase(sym, traj, 11)
    assert np.max(np.abs(got - np.exp(-11j * c * times))) < 1e-9


# ---------------------------------------------------------------------------
# graph amplitude rho
# ---------------------------------------------------------------------------


def test_rho_graph_starts_at_one():
    traj = integrate_flow(model_cos_symbol(), (0.3, 0.1), np.linspace(0.0, 1.0, 51))
    half = rho_graph_half(TORUS, traj)
    assert half[0].value == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_rho_graph_shear_closed_form():
    q0 = 0.1
    times = np.linspace(0.0, 10.0, 501)
    traj = integrate_flow(model_cos_symbol(), (0.3, q0), times)
    half = rho_graph_half(TORUS, traj)
    a = 0.5 * np.pi * times * np.cos(TWO_PI * q0)
    expect = 1.0 / np.sqrt(1.0 + a ** 2) ** 0.5 * np.exp(0.5j * np.arctan(a))
    got = np.array([h.value for h in half])
    assert np.max(np.abs(got - expect)) < 1e-12


def test_rho_graph_frozen_argument_value():
    # q = 0.1, t = 1: arg rho^(1/2) = (1/2) arctan(pi cos(0.2 pi)/2)
    traj = integrate_flow(model_cos_symbol(), (0.3, 0.1), np.linspace(0.0, 1.0, 51))
    half = rho_graph_half(TORUS, traj)
    expect = 0.5 * np.arctan(0.5 * np.pi * np.cos(0.2 * np.pi))
    assert half[-1].branch_angle == pytest.approx(expect, abs=1e-12)
    assert abs(half[-1].value) == pytest.approx(
        (1.0 + (0.5 * np.pi * np.cos(0.2 * np.pi)) ** 2) ** -0.25, abs=1e-12)


def test_rho_definition_closure():
    # rho_half^2 * det^{1,0}(jacobian) * K-transport = 1
    traj = integrate_flow(generic_symbol(), (0.23, 0.31), np.linspace(0.0, 1.5, 76))
    half = rho_graph_half(TORUS, traj)
    t_k = transport_phase(TORUS, traj, "K")
    for i, m in enumerate(traj.jacobians):
        det = holomorphic_determinant(LinearSymplectomorphism(m))
        closure = half[i].value ** 2 * det * t_k[i]
        assert abs(closure - 1.0) < 1e-10


@pytest.mark.parametrize("maker", [model_cos_symbol, generic_symbol])
def test_rho_frame_route_agrees(maker):
    traj = integrate_flow(maker(), (0.3, 0.1), np.linspace(0.0, 1.0, 101))
    half = rho_graph_half(TORUS, traj)
    via_det = np.array([h.value ** 2 for h in half])
    via_frame = rho_graph_frame(TORUS, traj)
    assert np.max(np.abs(via_det - via_frame)) < 1e-9


# ---------------------------------------------------------------------------
# level amplitude rho'
# ---------------------------------------------------------------------------


def test_norm_x_frozen_values():
    sym = model_cos_symbol()
    assert norm_X(TORUS, sym, 0.0, (0.3, 0.1)) == pytest.approx(
        np.sqrt(np.pi) * np.sin(0.2 * np.pi), abs=1e-12)
    assert norm_X(TORUS, sym, 0.0, (0.3, 0.25)) == pytest.approx(np.sqrt(np.pi), abs=1e-12)


def test_norm_x_rejects_critical_points():
    sym = make_symbol("const", lambda t, p, q: 1.0 + 0.0 * np.asarray(p, float))
    with pytest.raises(RegularityError, match="critical"):
        norm_X(TORUS, sym, 0.0, (0.3, 0.1))


def test_rho_level_starts_at_sqrt2_over_norm():
    sym = model_cos_symbol()
    q0 = 0.1
    e0 = np.cos(TWO_PI * q0)
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, 1.0, 51))
    half = rho_level_half(TORUS, sym, traj, e0)
    expect0 = np.sqrt(2.0) / (np.sqrt(np.pi) * np.sin(TWO_PI * q0))
    assert half[0].value == pytest.approx(expect0 + 0.0j, abs=1e-12)


def test_rho_level_constant_for_shear():
    sym = model_cos_symbol()
    q0 = 0.1
    e0 = np.cos(TWO_PI * q0)
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, 4.0, 201))
    half = rho_level_half(TORUS, sym, traj, e0)
    vals = np.array([h.value ** 2 for h in half])
    expect = 2.0 / (np.pi * np.sin(TWO_PI * q0) ** 2)
    assert np.max(np.abs(vals - expect)) < 1e-10


def test_rho_level_ratio_to_rho_graph_at_zero():
    sym = model_cos_symbol()
    q0 = 0.17
    traj = integrate_flow(sym, (0.3, q0), np.array([0.0]))
    rho0 = rho_graph_half(TORUS, traj)[0].value ** 2
    rho_lvl0 = rho_level_half(TORUS, sym, traj, np.cos(TWO_PI * q0))[0].value ** 2
    nx = norm_X(TORUS, sym, 0.0, (0.3, q0))
    assert rho_lvl0 / rho0 == pytest.approx(2.0 / nx ** 2, abs=1e-12)


def test_rho_level_requires_matching_energy():
    sym = model_cos_symbol()
    traj = integrate_flow(sym, (0.3, 0.1), np.array([0.0, 0.5]))
    with pytest.raises(RegularityError, match="energy"):
        rho_level_half(TORUS, sym, traj, 0.123)


def test_level_lift_synthetic_product_system():
    # R^4 local model: free translation in block 1, harmonic rotation in
    # block 2.  X = d/dq*1, the reduced map is the block-2 rotation, and
    # rho'(t) = 2 e^{-it} factorizes as (2/||X||^2) * 1/det^{1,0}(rotation).
    omega4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    cs4 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    x_vec = np.array([0.0, 0.0, 1.0, 0.0])  # d/dq_1 in (p1,p2,q1,q2)
    for t in (0.0, 0.35, 1.2, 2.8):
        c, s = np.cos(t), np.sin(t)
        jac = np.eye(4)
        jac[np.ix_([1, 3], [1, 3])] = np.array([[c, -s], [s, c]])
        rho = level_lift_coefficient(jac, x_vec, x_vec, omega4, cs4)
        assert rho == pytest.approx(2.0 * np.exp(-1j * t), abs=1e-12)
        # independent factor check: Phi_F x Phi_G
        phi_f = 2.0  # ||X||^2 = omega(X, jX) = 1
        rot = LinearSymplectomorphism(np.array([[c, -s], [s, c]]))
        phi_g = 1.0 / holomorphic_determinant(rot)
        assert rho == pytest.approx(phi_f * phi_g, abs=1e-12)


def test_level_lift_rejects_flow_direction_violation():
    omega4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    cs4 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    x_vec = np.array([0.0, 0.0, 1.0, 0.0])
    jac = np.eye(4)
    t = 0.4
    jac[np.ix_([0, 2], [0, 2])] = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    with pytest.raises(RegularityError, match="flow direction"):
        level_lift_coefficient(jac, x_vec, x_vec, omega4, cs4)


# ---------------------------------------------------------------------------
# B coefficients
# ---------------------------------------------------------------------------


def test_b_coefficient_shear_value():
    sym = model_cos_symbol()
    q0 = 0.1
    b = b_coefficient(TORUS, sym, (0.3, q0), tangent=(0.0, 1.0))
    assert b == pytest.approx(np.pi * np.sin(TWO_PI * q0) ** 2 + 0.0j, abs=1e-12)


def test_b_coefficient_tangent_field_degenerate():
    sym = make_symbol("cos-p", lambda t, p, q: np.cos(TWO_PI * np.asarray(p, float)) + 0.0 * np.asarray(q, float))
    with pytest.raises(DegenerateError, match="tangent"):
        b_coefficient(TORUS, sym, (0.15, 0.4), tangent=(0.0, 1.0))


def test_b_coefficient_mixed_line_has_imaginary_part():
    sym = model_cos_symbol()
    b = b_coefficient(TORUS, sym, (0.3, 0.1), tangent=(1.0, 1.0))
    assert b.imag != pytest.approx(0.0, abs=1e-6)
    assert b.real > 0.0


def test_b_diagonal_is_half_norm_squared():
    sym = model_cos_symbol()
    q0 = 0.1
    b_diag = b_coefficient_diagonal(TORUS, sym, (0.3, q0))
    nx = norm_X(TORUS, sym, 0.0, (0.3, q0))
    assert b_diag == pytest.approx(0.5 * nx ** 2 + 0.0j, abs=1e-12)
    # and the M-level coefficient for the transverse line is twice it
    b_line = b_coefficient(TORUS, sym, (0.3, q0), tangent=(0.0, 1.0))
    assert b_line == pytest.approx(2.0 * b_diag, abs=1e-12)


def test_rho_level_zero_is_reciprocal_of_diagonal_b():
    sym = model_cos_symbol()
    q0 = 0.1
    traj = integrate_flow(sym, (0.3, q0), np.array([0.0]))
    rho_lvl0 = rho_level_half(TORUS, sym, traj, np.cos(TWO_PI * q0))[0].value ** 2
    b_diag = b_coefficient_diagonal(TORUS, sym, (0.3, q0))
    assert rho_lvl0 * b_diag == pytest.approx(1.0 + 0.0j, abs=1e-12)


# ---------------------------------------------------------------------------
# return times
# ---------------------------------------------------------------------------


def test_returns_diagonal_small_window():
    sym = model_cos_symbol()
    rts = return_times(sym, (0.3, 0.1), (0.3, 0.1), (-3.0, 3.0))
    assert len(rts) == 1
    assert rts[0][0] == pytest.approx(0.0, abs=1e-10)
    assert rts[0][1] == (0, 0)


def test_returns_diagonal_wide_window():
    sym = model_cos_symbol()
    q0 = 0.1
    rts = return_times(sym, (0.3, q0), (0.3, q0), (-7.0, 7.0))
    t1 = 2.0 / np.sin(TWO_PI * q0)
    expect_times = [-2.0 * t1, -t1, 0.0, t1, 2.0 * t1]
    expect_windings = [(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)]
    assert len(rts) == 5
    for (t, w), te, we in zip(rts, expect_times, expect_windings):
        assert t == pytest.approx(te, abs=1e-9)
        assert w == we
    # symmetry t <-> -t on the diagonal
    ts = [t for t, _ in rts]
    assert np.allclose(sorted(ts), sorted(-t for t in ts), atol=1e-9)


def test_returns_offset_target():
    sym = model_cos_symbol()
    q0 = 0.1
    dp = 0.37
    rts = return_times(sym, (0.3, q0), (0.3 + dp, q0), (-3.0, 3.0))
    s = np.sin(TWO_PI * q0)
    expect = [2.0 * (dp - 1.0) / s, 2.0 * dp / s]
    assert len(rts) == 2
    assert rts[0][0] == pytest.approx(expect[0], abs=1e-9)
    assert rts[0][1] == (-1, 0)
    assert rts[1][0] == pytest.approx(expect[1], abs=1e-9)
    assert rts[1][1] == (0, 0)


def test_returns_by_construction():
    sym = model_cos_symbol()
    traj = integrate_flow(sym, (0.3, 0.1), np.array([0.0, 0.5]))
    y = traj.points[-1]
    rts = return_times(sym, (0.3, 0.1), y, (0.0, 1.0))
    assert any(abs(t - 0.5) < 1e-9 for t, _ in rts)


def test_returns_generic_symbol():
    sym = generic_symbol()
    x = (0.3, 0.1)
    traj = integrate_flow(sym, x, np.linspace(0.0, 0.8, 9))
    y = traj.points[-1]
    rts = return_times(sym, x, y, (0.0, 1.2))
    assert any(abs(t - 0.8) < 1e-7 for t, _ in rts)


def test_returns_p_dependent_expression_symbol():
    # finite-difference derivatives; the orbit through (0.3, 0.1) closes after ~13.6
    sym = make_symbol("mixed", lambda t, p, q: np.cos(TWO_PI * np.asarray(q, float))
                      + 0.1 * np.sin(TWO_PI * np.asarray(p, float)))
    assert return_times(sym, (0.3, 0.1), (0.3, 0.1), (-3.0, 3.0)) == [(0.0, (0, 0))]


def test_returns_require_common_level():
    sym = model_cos_symbol()
    with pytest.raises(RegularityError, match="level"):
        return_times(sym, (0.3, 0.1), (0.3, 0.2), (-1.0, 1.0))


def test_returns_require_regular_points():
    sym = model_cos_symbol()
    with pytest.raises(RegularityError, match="critical"):
        return_times(sym, (0.3, 0.5), (0.3, 0.5), (-1.0, 1.0))


# ---------------------------------------------------------------------------
# box operator diagnostics
# ---------------------------------------------------------------------------


def test_box_of_constant():
    sym = make_symbol("const", lambda t, p, q: 2.0 + 0.0 * np.asarray(p, float),
                      subprincipal=lambda t, p, q: 0.3 + 0.0 * np.asarray(p, float))
    box_h, theta, zeta = box_operator(TORUS, sym, 0.0, (0.3, 0.1))
    assert box_h == pytest.approx(0.0, abs=1e-6)
    assert theta == pytest.approx(0.0, abs=1e-6)
    assert zeta == pytest.approx(0.3, abs=1e-6)


def test_box_of_linear():
    sym = make_symbol("linear", lambda t, p, q: 0.2 * np.asarray(p, float) + 0.7 * np.asarray(q, float))
    box_h, theta, zeta = box_operator(TORUS, sym, 0.0, (0.3, 0.1))
    assert box_h == pytest.approx(0.0, abs=1e-5)
    assert theta == pytest.approx(0.0, abs=1e-5)
    assert zeta == pytest.approx(0.0, abs=1e-5)


def test_box_of_model_closed_form():
    sym = model_cos_symbol(sub_const=0.11)
    q0 = 0.1
    box_h, theta, zeta = box_operator(TORUS, sym, 0.0, (0.3, q0))
    assert box_h == pytest.approx(-0.25 * np.pi * np.cos(TWO_PI * q0), abs=1e-12)
    assert theta == pytest.approx(0.0, abs=1e-12)
    assert zeta == pytest.approx(0.11 + 0.0j, abs=1e-12)


def test_box_finite_difference_oracle():
    # raw finite differences of the principal symbol, normalized the same way
    sym = generic_symbol()
    x = np.array([0.23, 0.37])
    h = 1e-4
    f = lambda p, q: float(sym.principal(0.0, p, q))
    hpp = (f(x[0] + h, x[1]) - 2 * f(*x) + f(x[0] - h, x[1])) / h ** 2
    hqq = (f(x[0], x[1] + h) - 2 * f(*x) + f(x[0], x[1] - h)) / h ** 2
    hpq = (f(x[0] + h, x[1] + h) - f(x[0] + h, x[1] - h)
           - f(x[0] - h, x[1] + h) + f(x[0] - h, x[1] - h)) / (4 * h ** 2)
    g = TORUS.metric_scale
    h_zzbar = 0.25 * (hpp + hqq) / g
    h_zbarzbar = 0.25 * complex(hpp - hqq, 2 * hpq) / g
    box_h, theta, _ = box_operator(TORUS, sym, 0.0, x)
    assert box_h == pytest.approx(h_zzbar + 0.5 * h_zbarzbar, abs=1e-6)
    assert theta == pytest.approx(h_zzbar + h_zbarzbar, abs=1e-6)


# ---------------------------------------------------------------------------
# assembled lift
# ---------------------------------------------------------------------------


def test_geometric_lift_fields():
    sym = model_cos_symbol()
    q0 = 0.1
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, 1.0, 21))
    lift = geometric_lift(TORUS, sym, traj, k=50, energy=np.cos(TWO_PI * q0))
    assert len(lift.transport_L) == 21
    assert all(abs(abs(t.value) - 1.0) < 1e-12 for t in lift.transport_L)
    assert np.max(np.abs(np.abs(lift.prequantum_k) - 1.0)) < 1e-12
    assert lift.rho_half[0].value == pytest.approx(1.0 + 0.0j, abs=1e-13)
    expect0 = np.sqrt(2.0) / (np.sqrt(np.pi) * np.sin(TWO_PI * q0))
    assert lift.rho_level_half[0].value == pytest.approx(expect0 + 0.0j, abs=1e-12)


def test_geometric_lift_without_energy():
    sym = model_cos_symbol()
    traj = integrate_flow(sym, (0.3, 0.1), np.linspace(0.0, 0.5, 6))
    lift = geometric_lift(TORUS, sym, traj, k=10)
    assert lift.rho_level_half is None
