"""Tests for torus phase-space geometry: flows, transports, amplitudes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from torusprop.symplin import LinearSymplectomorphism, StructureError, holomorphic_determinant
from torusprop.torusgeo import (
    DegenerateError,
    RegularityError,
    StepSizeError,
    b_coefficient,
    b_coefficient_diagonal,
    check_level,
    hamiltonian_vector_field,
    integrate_flow,
    make_symbol,
    model_cos_symbol,
    norm_X,
    prequantum_phase,
    return_times,
    rho_graph_frame,
    rho_graph_half,
    rho_level_half,
    wrap_difference,
)
from torusprop import torusgeo
from torusprop.torusgeo import _alpha, _dopri5, _flow_rhs

TWO_PI = 2.0 * np.pi


def generic_symbol():
    """A two-frequency Hamiltonian with mode-sum derivatives (no exact flow)."""

    def principal(p, q):
        return np.cos(TWO_PI * np.asarray(q, float)) + 0.3 * np.cos(TWO_PI * np.asarray(p, float))

    return make_symbol("two-frequency", principal)


# ---------------------------------------------------------------------------
# phase space
# ---------------------------------------------------------------------------


def test_d_alpha_equals_omega():
    # d(alpha)(d/dp, d/dq) = d/dp alpha(d/dq) - d/dq alpha(d/dp) = 4 pi, by
    # central differences on a 7 x 7 grid
    e_p, e_q, h = np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1e-4
    p, q = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 7))
    d_alpha = ((_alpha(p + h, q, e_q) - _alpha(p - h, q, e_q))
               - (_alpha(p, q + h, e_p) - _alpha(p, q - h, e_p))) / (2 * h)
    assert np.max(np.abs(d_alpha - 4.0 * np.pi)) < 1e-8


def test_wrap_difference_is_shortest():
    d = wrap_difference(np.array([0.95, 0.1]), np.array([0.05, 0.1]))
    assert np.allclose(d, [-0.1, 0.0])


# ---------------------------------------------------------------------------
# Hamiltonian vector field
# ---------------------------------------------------------------------------


def test_field_of_cos_q():
    sym = model_cos_symbol()
    x = hamiltonian_vector_field(sym, np.array([0.3, 0.1]))
    assert np.allclose(x, [0.5 * np.sin(0.2 * np.pi), 0.0], atol=1e-14)


def test_field_of_constant_is_zero():
    sym = make_symbol("const", lambda p, q: 0.7 + 0.0 * np.asarray(p, float))
    x = hamiltonian_vector_field(sym, np.array([0.3, 0.1]))
    assert np.allclose(x, [0.0, 0.0], atol=1e-10)


def test_field_of_cos_p():
    sym = make_symbol("cos-p", lambda p, q: np.cos(TWO_PI * np.asarray(p, float)) + 0.0 * np.asarray(q, float))
    x = hamiltonian_vector_field(sym, np.array([0.15, 0.4]))
    assert np.allclose(x, [0.0, -0.5 * np.sin(0.3 * np.pi)], atol=1e-8)


# ---------------------------------------------------------------------------
# Fourier-mode symbols
# ---------------------------------------------------------------------------


def test_mode_sums_match_closed_form_derivatives():
    # f = e^{cos 2 pi q} sin 2 pi p, at points inside and outside the unit cell
    sym = make_symbol("exp-cos-sin", lambda p, q: np.exp(np.cos(TWO_PI * q)) * np.sin(TWO_PI * p))
    rng = np.random.default_rng(5)
    p, q = rng.uniform(-2.0, 3.0, size=(2, 40))
    e, sp, cp = np.exp(np.cos(TWO_PI * q)), np.sin(TWO_PI * p), np.cos(TWO_PI * p)
    sq, cq = np.sin(TWO_PI * q), np.cos(TWO_PI * q)
    w = TWO_PI ** 2
    grad = np.stack([TWO_PI * e * cp, -TWO_PI * sq * e * sp], axis=-1)
    hess = np.stack([np.stack([-w * e * sp, -w * sq * e * cp], axis=-1),
                     np.stack([-w * sq * e * cp, w * e * sp * (sq ** 2 - cq)], axis=-1)], axis=-2)
    assert np.max(np.abs(sym.principal(p, q) - e * sp)) <= 1e-10
    assert np.max(np.abs(sym.grad(p, q) - grad)) <= 1e-10
    assert np.max(np.abs(sym.jet(p, q)[..., 4:] - hess.reshape(-1, 4))) <= 1e-10


def test_modes_are_conjugate_closed():
    freqs, coeffs = generic_symbol().modes
    assert sorted(map(tuple, freqs)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    pair = {tuple(f): c for f, c in zip(freqs, coeffs)}
    assert all(pair[(-m, -n)] == np.conj(c) for (m, n), c in pair.items())


def test_symbol_that_is_not_periodic_is_refused():
    with pytest.raises(RegularityError, match="not lattice-periodic"):
        make_symbol("linear", lambda p, q: 0.2 * p + 0.7 * q)


_BEYOND_FIRST_GRID = {
    "cos-13q": lambda p, q: np.cos(13 * TWO_PI * q),
    "cos-16q": lambda p, q: np.cos(16 * TWO_PI * q),
    "cos-q-and-15q": lambda p, q: np.cos(TWO_PI * q) + 0.01 * np.cos(15 * TWO_PI * q),
    "cos-16p-16q": lambda p, q: np.cos(16 * TWO_PI * (p + q)),
}


@pytest.mark.parametrize("name", sorted(_BEYOND_FIRST_GRID))
def test_modes_beyond_the_first_grid_are_not_aliased(name):
    # on the 16 x 16 grid each of these folds onto a mode with |m|, |n| <= 3;
    # the accepted modes must still reproduce f away from every grid
    f = _BEYOND_FIRST_GRID[name]
    sym = make_symbol(name, lambda p, q: f(p, q))
    p, q = np.random.default_rng(7).uniform(-1.0, 2.0, size=(2, 50))
    assert np.max(np.abs(sym.principal(p, q) - f(p, q))) <= 1e-12


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------


def test_shear_flow_point_and_jacobian():
    sym = model_cos_symbol()
    traj = integrate_flow(sym, (0.3, 0.1), np.linspace(0.0, 1.0, 11))
    assert np.allclose(traj.points[-1], [0.3 + 0.5 * np.sin(0.2 * np.pi), 0.1], atol=1e-12)
    expect_jac = np.array([[1.0, np.pi * np.cos(0.2 * np.pi)], [0.0, 1.0]])
    assert np.allclose(traj.jacobians[-1], expect_jac, atol=1e-10)


def test_closed_form_flow_is_guarded_once():
    calls = []
    base = model_cos_symbol()

    def skewed(x, times):
        calls.append(1)
        data = base.exact_flow(x, times)
        data["jacobians"] = 2.0 * data["jacobians"]
        return data

    with pytest.raises(StructureError, match=r"not symplectic .* at stack index \(0,\)"):
        integrate_flow(dataclasses.replace(base, exact_flow=skewed), (0.3, 0.1), np.linspace(0.0, 1.0, 5))
    assert len(calls) == 1


def test_time_zero_is_trivial():
    traj = integrate_flow(generic_symbol(), (0.3, 0.1), np.array([0.0]))
    assert np.allclose(traj.points[0], [0.3, 0.1])
    assert np.allclose(traj.jacobians[0], np.eye(2))
    assert traj.action_H[0] == 0.0 and traj.conn_L[0] == 0.0


def test_generic_integrator_reproduces_closed_form():
    # Same symbol, exact-flow fast path stripped: the integrator must
    # reproduce every closed-form trajectory quantity, action_Hsub included
    # (the jet's H^sub, c + (pi/4) cos 2 pi q + Delta f / (16 pi), is c)
    sym = model_cos_symbol(sub_const=0.25)
    times = np.linspace(0.0, 1.5, 16)
    got = integrate_flow(dataclasses.replace(sym, exact_flow=None), (0.3, 0.1), times)
    ref = integrate_flow(sym, (0.3, 0.1), times)
    for name in ("points_lifted", "jacobians", "action_H", "action_Hsub", "conn_L", "theta_a"):
        assert np.max(np.abs(getattr(got, name) - getattr(ref, name))) < 1e-9, name
    assert np.max(np.abs(ref.action_Hsub - times * 0.25)) < 1e-9


def test_theta_a_follows_the_holomorphic_determinant():
    # the integrated argument agrees with the determinant's angle mod 2 pi
    traj = integrate_flow(generic_symbol(), (0.23, 0.31), np.linspace(0.0, 3.0, 61))
    dets = holomorphic_determinant(LinearSymplectomorphism(traj.jacobians))
    assert traj.theta_a[0] == 0.0
    assert np.max(np.abs(np.exp(1j * traj.theta_a) - dets / np.abs(dets))) < 1e-9


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
    LinearSymplectomorphism(traj.jacobians)


def test_negative_time_grids_work():
    sym = model_cos_symbol()
    traj = integrate_flow(sym, (0.3, 0.1), np.linspace(0.0, -2.0, 21))
    assert traj.times[-1] == -2.0
    assert np.allclose(traj.points_lifted[-1], [0.3 - np.sin(0.2 * np.pi), 0.1], atol=1e-12)


@pytest.mark.parametrize("maker", [model_cos_symbol, generic_symbol])
@pytest.mark.parametrize("times", [[0.3, 0.7], [-0.3, -1.1], [1.0]])
def test_grid_may_start_later_than_zero(maker, times):
    # the sweep runs from 0 to the last time either way, so prepending 0
    # changes no bit of the rows that were asked for
    sym = maker()
    late = integrate_flow(sym, (0.3, 0.1), np.array(times))
    full = integrate_flow(sym, (0.3, 0.1), np.array([0.0] + times))
    assert np.array_equal(late.times, times)
    for name in ("points", "points_lifted", "jacobians", "action_H", "action_Hsub",
                 "conn_L", "theta_a"):
        assert np.array_equal(getattr(late, name), getattr(full, name)[-len(times):]), name


def test_grid_must_be_monotone():
    # a grid that turns back, repeats a time, crosses 0 or holds NaN is refused
    for sym in (model_cos_symbol(), generic_symbol()):
        for times in ([0.0, 0.2, 0.1], [0.0, 0.1, 0.1], [0.2, 0.1], [-0.1, 0.1], [0.1, -0.1],
                      [0.0, -0.2, -0.1], [0.0, np.nan], [np.nan]):
            with pytest.raises(RegularityError, match="monotone, moving away from t = 0"):
                integrate_flow(sym, (0.3, 0.1), np.array(times))


def test_flow_is_one_sweep_judged_by_the_symplin_rule(monkeypatch):
    # the first sweep's absolute defect exceeds 1e-9, yet it is accurate for
    # Jacobians of this size: it is kept as it is, not swept again
    sym = make_symbol("exp-sin-cos", lambda p, q: np.exp(2.0 * np.sin(TWO_PI * p)) * np.cos(TWO_PI * q))
    times = np.linspace(0.0, 1.0, 101)
    y0 = np.array([0.3, 0.1, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    first = _dopri5(lambda y: _flow_rhs(sym, y), y0, 1.0, 1e-10)(times)[:, 2:6].reshape(-1, 2, 2)
    j_gram = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(np.einsum("tji,jk,tkl->til", first, j_gram, first) - j_gram)) > 1e-9
    sweeps = []

    def counted(*args):
        sweeps.append(args[3])
        return _dopri5(*args)

    monkeypatch.setattr(torusgeo, "_dopri5", counted)
    traj = integrate_flow(sym, (0.3, 0.1), times)
    assert sweeps == [1e-10]
    assert np.array_equal(traj.jacobians, first)
    LinearSymplectomorphism(traj.jacobians)


def test_unreachable_tolerance_is_reported(monkeypatch):
    monkeypatch.setattr(torusgeo, "_FLOW_TOL", 1e-17)
    with pytest.raises(StepSizeError, match="error estimate"):
        integrate_flow(generic_symbol(), (0.3, 0.1), np.array([0.0, 1.0]))


def test_expression_flow_stays_within_call_budget():
    # the symbol is called only to sample its Fourier modes
    calls = [0]

    def principal(p, q):
        calls[0] += 1
        return np.cos(TWO_PI * np.asarray(q, float)) + 0.0 * np.asarray(p, float)

    traj = integrate_flow(make_symbol("cos-q-fd", principal), (0.3, 0.1), np.linspace(0.0, 1.0, 101))
    assert calls[0] < 2000
    assert np.allclose(traj.points_lifted[-1], [0.3 + 0.5 * np.sin(0.2 * np.pi), 0.1], atol=1e-9)


def test_dense_output_between_steps_matches_shear():
    sym = dataclasses.replace(model_cos_symbol(), exact_flow=None)
    x = np.array([0.3, 0.1])
    dense = _dopri5(lambda pt: hamiltonian_vector_field(sym, pt), x, 8.0, 1e-10)
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
    # the L-transport e^{i conn_L}, on the closed-form and the integrated flow
    times = np.linspace(0.0, 2.0, 9)
    for sym in (model_cos_symbol(), dataclasses.replace(model_cos_symbol(), exact_flow=None)):
        traj = integrate_flow(sym, (0.3, 0.1), times)
        got = np.exp(1j * traj.conn_L)
        expect = np.exp(-1j * np.pi * times * 0.1 * np.sin(0.2 * np.pi))
        assert np.max(np.abs(got - expect)) < 1e-12


def test_loop_holonomy():
    # one full loop p -> p + 1 at fixed q transports by e^{-2 pi i q}
    q0 = 0.1
    sym = model_cos_symbol()
    t_loop = 2.0 / np.sin(TWO_PI * q0)
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, t_loop, 11))
    assert np.allclose(traj.points_lifted[-1], [1.3, q0], atol=1e-12)
    got = np.exp(1j * traj.conn_L[-1])
    assert got == pytest.approx(np.exp(-2j * np.pi * q0), abs=1e-12)


def test_prequantum_phase_closed_form():
    sym = model_cos_symbol()
    q0 = 0.1
    times = np.linspace(0.0, 1.0, 6)
    traj = integrate_flow(sym, (0.3, q0), times)
    base = -times * (np.cos(TWO_PI * q0) + np.pi * q0 * np.sin(TWO_PI * q0))
    for k in (1, 7):
        assert np.max(np.abs(prequantum_phase(traj, k) - k * base)) < 1e-12
    # the argument is unwrapped: at large k it is not reduced mod 2 pi
    assert np.max(np.abs(prequantum_phase(traj, 5000) - 5000 * base)) < 1e-9


def test_prequantum_subprincipal_shift():
    # adding a constant subprincipal multiplies by e^{-i c t}, k-independently
    c = 0.7
    times = np.linspace(0.0, 1.0, 6)
    traj0 = integrate_flow(model_cos_symbol(), (0.3, 0.1), times)
    trajc = integrate_flow(model_cos_symbol(sub_const=c), (0.3, 0.1), times)
    for k in (1, 50):
        shift = prequantum_phase(trajc, k) - prequantum_phase(traj0, k)
        assert np.max(np.abs(shift + c * times)) < 1e-12


def test_prequantum_constant_hamiltonian():
    c = 0.37
    sym = make_symbol("const", lambda p, q: c + 0.0 * np.asarray(p, float))
    times = np.linspace(0.0, 1.0, 4)
    traj = integrate_flow(sym, (0.3, 0.1), times)
    got = prequantum_phase(traj, 11)
    assert np.max(np.abs(got + 11 * c * times)) < 1e-9


# ---------------------------------------------------------------------------
# graph amplitude rho
# ---------------------------------------------------------------------------


def test_rho_graph_starts_at_one():
    traj = integrate_flow(model_cos_symbol(), (0.3, 0.1), np.linspace(0.0, 1.0, 51))
    half = rho_graph_half(traj)
    assert half[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_rho_graph_shear_closed_form():
    q0 = 0.1
    times = np.linspace(0.0, 10.0, 501)
    traj = integrate_flow(model_cos_symbol(), (0.3, q0), times)
    half = rho_graph_half(traj)
    a = 0.5 * np.pi * times * np.cos(TWO_PI * q0)
    expect = 1.0 / np.sqrt(1.0 + a ** 2) ** 0.5 * np.exp(0.5j * np.arctan(a))
    assert np.max(np.abs(half - expect)) < 1e-12


def test_rho_graph_frozen_argument_value():
    # q = 0.1, t = 1: arg rho^(1/2) = (1/2) arctan(pi cos(0.2 pi)/2)
    traj = integrate_flow(model_cos_symbol(), (0.3, 0.1), np.linspace(0.0, 1.0, 51))
    half = rho_graph_half(traj)
    expect = 0.5 * np.arctan(0.5 * np.pi * np.cos(0.2 * np.pi))
    assert np.unwrap(np.angle(half))[-1] == pytest.approx(expect, abs=1e-12)
    assert abs(half[-1]) == pytest.approx(
        (1.0 + (0.5 * np.pi * np.cos(0.2 * np.pi)) ** 2) ** -0.25, abs=1e-12)


def test_rho_definition_closure():
    # rho_half^2 * det^{1,0}(jacobian) = 1 (the K-transport is 1 on the flat torus)
    traj = integrate_flow(generic_symbol(), (0.23, 0.31), np.linspace(0.0, 1.5, 76))
    half = rho_graph_half(traj)
    for i, m in enumerate(traj.jacobians):
        det = holomorphic_determinant(LinearSymplectomorphism(m))
        closure = half[i] ** 2 * det
        assert abs(closure - 1.0) < 1e-10


def test_rho_graph_closed_form_matches_the_per_matrix_route():
    sym = make_symbol("p-dependent", lambda p, q: np.cos(TWO_PI * q) + 0.1 * np.sin(TWO_PI * p))
    traj = integrate_flow(sym, (0.3, 0.1), np.linspace(0.0, 1.0, 101))
    got = rho_graph_half(traj) ** 2
    dets = holomorphic_determinant(LinearSymplectomorphism(traj.jacobians))
    assert np.max(np.abs(got * dets - 1.0)) < 1e-13


def test_rho_graph_rejects_non_symplectic_jacobians():
    traj = integrate_flow(generic_symbol(), (0.3, 0.1), np.linspace(0.0, 1.0, 11))
    scaled = dataclasses.replace(traj, jacobians=1.01 * traj.jacobians)
    with pytest.raises(StructureError, match="not symplectic"):
        LinearSymplectomorphism(scaled.jacobians[-1])
    with pytest.raises(StructureError, match="not symplectic"):
        rho_graph_half(scaled)


def test_rho_graph_names_the_first_bad_jacobian():
    traj = integrate_flow(generic_symbol(), (0.3, 0.1), np.linspace(0.0, 1.0, 11))
    jac = traj.jacobians.copy()
    jac[7] *= 1.01
    with pytest.raises(StructureError, match=r"not symplectic .* stack index \(7,\)"):
        rho_graph_half(dataclasses.replace(traj, jacobians=jac))


@pytest.mark.parametrize("maker", [model_cos_symbol, generic_symbol])
def test_rho_frame_route_agrees(maker):
    traj = integrate_flow(maker(), (0.3, 0.1), np.linspace(0.0, 1.0, 101))
    half = rho_graph_half(traj)
    via_det = half ** 2
    via_frame = rho_graph_frame(traj)
    assert np.max(np.abs(via_det - via_frame)) < 1e-9


# ---------------------------------------------------------------------------
# level amplitude rho'
# ---------------------------------------------------------------------------


def test_norm_x_frozen_values():
    sym = model_cos_symbol()
    assert norm_X(sym, (0.3, 0.1)) == pytest.approx(
        np.sqrt(np.pi) * np.sin(0.2 * np.pi), abs=1e-12)
    assert norm_X(sym, (0.3, 0.25)) == pytest.approx(np.sqrt(np.pi), abs=1e-12)


def test_norm_x_rejects_critical_points():
    sym = make_symbol("const", lambda p, q: 1.0 + 0.0 * np.asarray(p, float))
    with pytest.raises(RegularityError, match="critical"):
        norm_X(sym, (0.3, 0.1))


def test_rho_level_starts_at_sqrt2_over_norm():
    sym = model_cos_symbol()
    q0 = 0.1
    e0 = np.cos(TWO_PI * q0)
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, 1.0, 51))
    half = rho_level_half(sym, traj, e0)
    expect0 = np.sqrt(2.0) / (np.sqrt(np.pi) * np.sin(TWO_PI * q0))
    assert half[0] == pytest.approx(expect0 + 0.0j, abs=1e-12)


def test_rho_level_constant_for_shear():
    sym = model_cos_symbol()
    q0 = 0.1
    e0 = np.cos(TWO_PI * q0)
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, 4.0, 201))
    half = rho_level_half(sym, traj, e0)
    vals = half ** 2
    expect = 2.0 / (np.pi * np.sin(TWO_PI * q0) ** 2)
    assert np.max(np.abs(vals - expect)) < 1e-10


def test_rho_level_ratio_to_rho_graph_at_zero():
    sym = model_cos_symbol()
    q0 = 0.17
    traj = integrate_flow(sym, (0.3, q0), np.array([0.0]))
    rho0 = rho_graph_half(traj)[0] ** 2
    rho_lvl0 = rho_level_half(sym, traj, np.cos(TWO_PI * q0))[0] ** 2
    nx = norm_X(sym, (0.3, q0))
    assert rho_lvl0 / rho0 == pytest.approx(2.0 / nx ** 2, abs=1e-12)


def test_check_level_tolerance():
    sym = model_cos_symbol()
    e0 = float(np.cos(TWO_PI * 0.1))
    check_level(sym, (0.7, 0.9), e0)  # the other level component, to rounding
    check_level(sym, (0.3, 0.1), e0 + 1e-11)
    with pytest.raises(RegularityError, match=r"H = .* is off the energy level E = 0\.5"):
        check_level(sym, (0.3, 0.1), 0.5)
    with pytest.raises(RegularityError, match="off the energy level E = nan"):
        check_level(sym, (0.3, 0.1), float("nan"))


def test_rho_level_requires_matching_energy():
    sym = model_cos_symbol()
    traj = integrate_flow(sym, (0.3, 0.1), np.array([0.0, 0.5]))
    with pytest.raises(RegularityError, match="energy"):
        rho_level_half(sym, traj, 0.123)


def test_rho_level_matches_jacobian_route_on_generic_level():
    # p-dependent symbol with mode-sum derivatives: rho' moves along the
    # orbit, and the Jacobian pushes X_x to X_{phi_t x} up to the
    # integrator's error
    sym = make_symbol("q-cos-p-sin", lambda p, q: np.cos(TWO_PI * np.asarray(q, float))
                      + 0.1 * np.sin(TWO_PI * np.asarray(p, float)))
    x = (0.3, 0.1)
    e0 = float(sym.principal(*x))
    x_src = hamiltonian_vector_field(sym, x)
    dz_src = complex(x_src[0], x_src[1])
    norm2 = norm_X(sym, x) ** 2
    for t_end in (7.0, -7.0):
        traj = integrate_flow(sym, x, np.linspace(0.0, t_end, 351))
        vals = rho_level_half(sym, traj, e0) ** 2
        pushed = traj.jacobians @ x_src
        jac_route = 2.0 * dz_src / (norm2 * (pushed[:, 0] + 1j * pushed[:, 1]))
        assert np.max(np.abs(vals - jac_route) / np.abs(jac_route)) < 1e-5
        assert np.ptp(np.abs(vals)) > 1e-2  # not the constant shear value


def test_rho_level_rejects_flow_direction_violation():
    sym = model_cos_symbol()
    q0 = 0.1
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, 1.0, 11))
    c, s = np.cos(0.4), np.sin(0.4)
    rotated = dataclasses.replace(traj, jacobians=np.array([[c, -s], [s, c]]) @ traj.jacobians)
    with pytest.raises(RegularityError, match="flow direction"):
        rho_level_half(sym, rotated, np.cos(TWO_PI * q0))


def test_rho_level_rejects_critical_point_on_trajectory():
    sym = model_cos_symbol()
    q0 = 0.1
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, 1.0, 11))
    points = traj.points.copy()
    points[7] = (0.3, 0.5)  # a critical point of cos(2 pi q)
    with pytest.raises(RegularityError, match="critical"):
        rho_level_half(sym, dataclasses.replace(traj, points=points),
                       np.cos(TWO_PI * q0))


def test_rho_level_is_vectorised_over_the_grid():
    base = model_cos_symbol()
    calls = []

    def grad(p, q):
        calls.append(np.shape(p))
        return base.grad(p, q)

    sym = dataclasses.replace(base, grad=grad)
    q0 = 0.1
    traj = integrate_flow(sym, (0.3, q0), np.linspace(0.0, 7.0, 351))
    calls.clear()
    rho_level_half(sym, traj, np.cos(TWO_PI * q0))
    assert len(calls) <= 3


# ---------------------------------------------------------------------------
# B coefficients
# ---------------------------------------------------------------------------


def test_b_coefficient_shear_value():
    sym = model_cos_symbol()
    q0 = 0.1
    b = b_coefficient(sym, (0.3, q0), tangent=(0.0, 1.0))
    assert b == pytest.approx(np.pi * np.sin(TWO_PI * q0) ** 2 + 0.0j, abs=1e-12)


def test_b_coefficient_tangent_field_degenerate():
    sym = make_symbol("cos-p", lambda p, q: np.cos(TWO_PI * np.asarray(p, float)) + 0.0 * np.asarray(q, float))
    with pytest.raises(DegenerateError, match="tangent"):
        b_coefficient(sym, (0.15, 0.4), tangent=(0.0, 1.0))


def test_b_coefficient_mixed_line_has_imaginary_part():
    sym = model_cos_symbol()
    b = b_coefficient(sym, (0.3, 0.1), tangent=(1.0, 1.0))
    assert b.imag != pytest.approx(0.0, abs=1e-6)
    assert b.real > 0.0


def test_b_diagonal_is_half_norm_squared():
    sym = model_cos_symbol()
    q0 = 0.1
    b_diag = b_coefficient_diagonal(sym, (0.3, q0))
    nx = norm_X(sym, (0.3, q0))
    assert b_diag == pytest.approx(0.5 * nx ** 2 + 0.0j, abs=1e-12)
    # and the M-level coefficient for the transverse line is twice it
    b_line = b_coefficient(sym, (0.3, q0), tangent=(0.0, 1.0))
    assert b_line == pytest.approx(2.0 * b_diag, abs=1e-12)


def test_rho_level_zero_is_reciprocal_of_diagonal_b():
    sym = model_cos_symbol()
    q0 = 0.1
    traj = integrate_flow(sym, (0.3, q0), np.array([0.0]))
    rho_lvl0 = rho_level_half(sym, traj, np.cos(TWO_PI * q0))[0] ** 2
    b_diag = b_coefficient_diagonal(sym, (0.3, q0))
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


def test_returns_start_newton_once_per_passage(monkeypatch):
    # every Newton start that converges evaluates the field at least twice
    # (a step and the one that confirms it), and once more for the flow
    # direction at y, so (calls - 1) // 2 bounds the starts
    sym = model_cos_symbol()
    calls = []
    real = torusgeo.hamiltonian_vector_field

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(torusgeo, "hamiltonian_vector_field", counted)
    rts = return_times(sym, (0.3, 0.1), (0.3, 0.1), (-7.0, 7.0))
    assert len(rts) == 5
    assert (len(calls) - 1) // 2 <= len(rts)


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
    # mode-sum derivatives; the orbit through (0.3, 0.1) closes after ~13.6
    sym = make_symbol("mixed", lambda p, q: np.cos(TWO_PI * np.asarray(q, float))
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
