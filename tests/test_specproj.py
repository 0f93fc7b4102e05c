"""Spectral projector tests.

Anchors: exact duality of the Fourier pair (the time-quadrature route is
Fourier inversion, so the two kernel routes must agree to quadrature
accuracy, not just asymptotically); the closed-form predictor amplitude
sqrt(2)/||X|| on the shear level sets; the winding holonomy e^{-2 pi i k q m}
carried by the transport phase of the lifted return loop, times the lattice
gauge factor that takes the lifted endpoint back to y; and each return's own
piece of the kernel, cut out by a smooth partition of the time axis.
"""

import numpy as np
import pytest

from torusprop.acceptance import Rate
from torusprop.propkern import KernelSample, kernel_eval, operator_for
from torusprop import specproj, torusgeo
from torusprop.harness import symbol_from_selector
from torusprop.specproj import (
    FourierPair,
    ProjectorPrediction,
    ResolutionError,
    build_fourier_pair,
    projector_compare,
    projector_kernel_asymptotic,
    projector_kernel_exact,
    projector_kernel_timequad,
)
from torusprop.thetaq import (
    HermitianOperator,
    basis_matrix,
    quantum_space,
    toeplitz_build,
)
from torusprop.torusgeo import (
    RegularityError,
    integrate_flow,
    model_cos_symbol,
    norm_X,
    return_times,
    rho_level_half,
)

TWO_PI = 2.0 * np.pi
Q0 = 0.1
E0 = float(np.cos(TWO_PI * Q0))
SIN0 = float(np.sin(TWO_PI * Q0))
T_RETURN = 2.0 / SIN0  # first nonzero return time on the q = 0.1 level


# ---------------------------------------------------------------------------
# Fourier pairs
# ---------------------------------------------------------------------------


def test_bump_pair_basics():
    pair = build_fourier_pair("bump", 3.0)
    assert abs(complex(pair.fhat(3.0))) <= 1e-14
    assert abs(complex(pair.fhat(-3.0))) <= 1e-14
    assert float(pair.fhat(0.0)) == pytest.approx(np.exp(-1.0))
    # f(0) equals an independent (Gauss-Legendre) quadrature of fhat over
    # the support
    xg, wg = np.polynomial.legendre.leggauss(256)
    direct = float(np.sum(3.0 * wg * pair.fhat(3.0 * xg))) / np.sqrt(TWO_PI)
    assert pair.f_eval(0.0).real == pytest.approx(direct, rel=1e-14)
    # even real fhat gives a real f
    vals = pair.f_eval(np.linspace(-8.0, 8.0, 33))
    assert float(np.max(np.abs(vals.imag))) <= 1e-12 * float(np.max(np.abs(vals)))


def test_bump_pair_schwartz_decay():
    pair = build_fourier_pair("bump", 3.0)
    assert abs(complex(pair.f_eval(50.0))) <= 1e-4 * pair.f_eval(0.0).real


def test_gaussian_truncated_pair():
    pair = build_fourier_pair("gaussian-truncated", 7.0)
    assert abs(complex(pair.fhat(7.0))) <= 1e-14
    assert float(pair.fhat(0.0)) == pytest.approx(1.0)
    assert pair.f_eval(0.0).real > 0.0


def test_pair_vectorized_eval_matches_scalar():
    pair = build_fourier_pair("bump", 3.0)
    es = np.array([-3.7, 0.0, 1.2, 11.0])
    vec = pair.f_eval(es)
    for e, v in zip(es, vec):
        assert complex(pair.f_eval(float(e))) == pytest.approx(complex(v), abs=1e-15)


def _trapezoid_reference(pair, u, n=16384):
    """f(u) by the n-interval trapezoid rule on [-T, T], one dense sum."""
    t = np.linspace(-pair.support_T, pair.support_T, n + 1)
    w = np.full(n + 1, 2.0 * pair.support_T / n)
    w[[0, -1]] *= 0.5
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return (np.exp(1j * np.outer(u, t)) @ (w * pair.fhat(t))) / np.sqrt(TWO_PI)


@pytest.mark.parametrize("support", [3.0, 7.0])
def test_pair_resolved_at_large_arguments(support):
    # a fixed 512-node rule aliases from |u| ~ 200 on (|f(200)| = 4e-2 for
    # bump:7, where the true value is ~1e-18); at two periods 2 pi / h of the
    # 512-node rule, it and its doubling alias to the same value f(0)
    pair = build_fourier_pair("bump", support)
    us = np.array([200.0, 400.0, 800.0, 4.0 * np.pi * 512 / support])
    assert np.max(np.abs(pair.f_eval(us) - _trapezoid_reference(pair, us))) <= 1e-13
    for u in us:
        assert abs(pair.f_eval(u) - _trapezoid_reference(pair, u)[0]) <= 1e-13


_bump7 = specproj._fhat_function("bump", 7.0)


@pytest.mark.parametrize("fhat", [lambda t: _bump7(t) * (1.0 + 0.3 * np.asarray(t) / 7.0),
                                  lambda t: np.exp(0.5j * np.asarray(t)) * _bump7(t)],
                         ids=["tilted", "complex"])
def test_pair_without_even_symmetry(fhat):
    # fhat(-t) != fhat(t): the z^{-j} half of the sum carries its own terms
    pair = FourierPair(7.0, fhat)
    us = np.array([0.0, 3.7, -3.7, 200.0, -200.0, 800.0, -800.0])
    ref = _trapezoid_reference(pair, us)
    assert np.max(np.abs(pair.f_eval(us) - ref)) <= 1e-13
    for u, r in zip(us, ref):
        assert abs(pair.f_eval(u) - r) <= 1e-13


def test_smoothed_trace_at_k200_is_resolved():
    # sum_l f(k(E - lambda_l)) reaches |u| ~ 360; a fixed 512-node rule gives
    # -1.198 here against the true 0.998
    k = 200
    op = operator_for(quantum_space(k), model_cos_symbol())
    pair = build_fourier_pair("bump", 3.0)
    u = k * (E0 - op.eigenvalues)
    trace = complex(np.sum(pair.f_eval(u)))
    expected = complex(np.sum(_trapezoid_reference(pair, u)))
    assert abs(trace - expected) <= 1e-12
    assert expected.real == pytest.approx(0.998, abs=1e-3)


def test_pair_under_resolved_nodes_raise():
    # |u| = 1e6 needs ~1e6 nodes on [-3, 3], past the node cap: refuse
    # rather than return aliased weights
    pair = build_fourier_pair("bump", 3.0)
    with pytest.raises(ResolutionError):
        pair.f_eval(1e6)
    with pytest.raises(ResolutionError):
        pair.f_eval(np.array([0.0, -1e6]))


def test_pair_argument_guards():
    with pytest.raises(ValueError):
        build_fourier_pair("triangle", 3.0)
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            build_fourier_pair("bump", bad)
    # the rule sizes itself: there is no node-count argument
    with pytest.raises(TypeError):
        build_fourier_pair("bump", 3.0, 2)
    with pytest.raises(ValueError):
        build_fourier_pair("bump", 3.0).f_eval(np.inf)


@pytest.mark.parametrize("kind", ["bump", "gaussian-truncated"])
@pytest.mark.parametrize("support", [1e-3, 0.5, 3.0, 7.0, 40.0])
def test_both_windows_vanish_at_the_edge_and_give_a_real_f(kind, support):
    # what build_fourier_pair no longer probes: fhat vanishes at +-T and,
    # real and even, gives a real f
    pair = build_fourier_pair(kind, support)
    assert max(abs(complex(pair.fhat(support))), abs(complex(pair.fhat(-support)))) <= 1e-14
    probe = pair.f_eval(np.linspace(-5.0, 5.0, 11))
    assert np.max(np.abs(probe.imag)) <= 1e-10 * max(1.0, float(np.max(np.abs(probe))))


def test_building_a_pair_evaluates_no_f(monkeypatch):
    def refuse(*args):
        raise AssertionError("building a Fourier pair evaluated f")

    monkeypatch.setattr(FourierPair, "_trapezoid", refuse)
    for kind in ("bump", "gaussian-truncated"):
        assert build_fourier_pair(kind, 3.0).support_T == 3.0


# ---------------------------------------------------------------------------
# exact kernels
# ---------------------------------------------------------------------------


def test_scalar_operator_reduces_to_bergman_times_f0():
    qs = quantum_space(10)
    e_val = 0.37
    op = HermitianOperator(space=qs, diagonals={0: np.full(qs.dim, e_val)})
    pair = build_fourier_pair("bump", 3.0)
    y, x = (0.22, 0.64), (0.5, 0.31)
    expect = pair.f_eval(0.0).real * kernel_eval(op, np.ones(qs.dim), y, x)[0]
    got = projector_kernel_exact(op, pair, e_val, y, x)
    assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def test_exact_kernel_hermitian_symmetry():
    qs = quantum_space(15)
    op = operator_for(qs, model_cos_symbol())
    pair = build_fourier_pair("bump", 3.0)
    y, x = (0.42, Q0), (0.3, Q0)
    a = projector_kernel_exact(op, pair, E0, y, x)
    b = projector_kernel_exact(op, pair, E0, x, y)
    assert abs(a - np.conjugate(b)) <= 1e-10 * max(1.0, abs(a))


def test_two_route_identity():
    # spectral sum versus time quadrature on twice the nodes:
    # pure wiring, must agree to quadrature accuracy at k = 50
    qs = quantum_space(50)
    op = operator_for(qs, model_cos_symbol())
    pair = build_fourier_pair("bump", 3.0)
    for y, x in (((0.3, Q0), (0.3, Q0)),
                 ((0.45, Q0), (0.3, Q0)),
                 ((0.3, 0.37), (0.61, 0.8))):
        direct = projector_kernel_exact(op, pair, E0, y, x)
        quad = projector_kernel_timequad(op, pair, E0, y, x)
        assert abs(direct - quad) <= 1e-6 * max(1.0, abs(direct))


def test_two_route_identity_at_an_aliasing_level():
    # at k = 200 the spectral sum needs f out to |u| ~ 360, where a fixed
    # 512-node rule aliases (the two routes then differ by 6.5e-8)
    qs = quantum_space(200)
    op = operator_for(qs, model_cos_symbol())
    pair = build_fourier_pair("bump", 7.0)
    x = (0.3, Q0)
    direct = projector_kernel_exact(op, pair, E0, x, x)
    quad = projector_kernel_timequad(op, pair, E0, x, x)
    assert abs(direct - quad) <= 1e-12 * abs(direct)


@pytest.mark.parametrize("symbol, k", [("model-cos", 50), ("cos(2*pi*q)+0.1*sin(2*pi*p)", 20)])
def test_timequad_equals_the_per_node_contraction(symbol, k):
    # the time sum is taken per eigenvalue before one kernel_eval call; the
    # node-by-node sum of coeff_t U_{k,t}(y, x) is the same sum reordered
    qs = quantum_space(k)
    op = operator_for(qs, symbol_from_selector(symbol))
    pair = build_fourier_pair("bump", 3.0)
    y, x = (0.45, Q0), (0.3, Q0)
    n = 2 * pair.node_count(float(np.max(np.abs(k * (E0 - op.eigenvalues)))))
    h = 2.0 * pair.support_T / n
    t = h * np.arange(1 - n // 2, n // 2)
    coeff = h * pair.fhat(t) * np.exp(1j * k * t * E0)
    per_node = kernel_eval(op, np.exp(-1j * k * np.outer(t, op.eigenvalues)), y, x)
    want = complex(coeff @ per_node / np.sqrt(TWO_PI))
    assert abs(projector_kernel_timequad(op, pair, E0, y, x) - want) <= 1e-13 * abs(want)


def test_trace_identity():
    # sum_l f(k(E - lambda_l)) equals the integral of the diagonal kernel
    # against 4 pi dp dq (independent quadrature grid)
    k = 30
    qs = quantum_space(k)
    op = operator_for(qs, model_cos_symbol())
    pair = build_fourier_pair("bump", 3.0)
    coeffs = pair.f_eval(k * (E0 - op.eigenvalues))
    trace = float(np.sum(coeffs).real)

    n = 80
    p = np.arange(n) / n
    xg, wg = np.polynomial.legendre.leggauss(n)
    q, wq = 0.5 * (xg + 1.0), 0.5 * wg
    pp, qq = np.meshgrid(p, q, indexing="ij")
    zz = (pp + 1j * qq).ravel()
    vals = basis_matrix(qs, zz)
    log_sq = 2.0 * vals.log_scale + qs.log_metric_weight(np.imag(zz))[None, :]
    dens = np.sum(coeffs.real[:, None] * np.exp(log_sq), axis=0)
    integral = float(np.sum(dens.reshape(n, n) @ wq) / n * 4.0 * np.pi)
    assert integral == pytest.approx(trace, rel=1e-8)


# ---------------------------------------------------------------------------
# the predictor
# ---------------------------------------------------------------------------


def test_single_return_diagonal_closed_form():
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    k = 100
    x = (0.3, Q0)
    pred = projector_kernel_asymptotic(sym, pair, E0, x, x)
    assert len(pred.terms) == 1
    assert pred.terms[0].t == 0.0
    amp = np.sqrt(2.0) / norm_X(sym, x)
    assert amp == pytest.approx(np.sqrt(2.0 / np.pi) / SIN0, rel=1e-12)
    expected = (np.sqrt(k) / TWO_PI) * np.exp(-1.0) * amp
    assert pred.value(k) == pytest.approx(expected, rel=1e-10)


def test_off_image_point_is_tagged_zero():
    # (0.3, 0.9) lies on the same energy level but on the other component;
    # the shear never connects the two
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 7.0)
    pred = projector_kernel_asymptotic(sym, pair, E0, (0.3, 0.9), (0.3, Q0))
    assert pred.terms == ()
    assert pred.value(100) == 0j


def test_off_image_exact_kernel_is_tiny():
    qs = quantum_space(200)
    op = operator_for(qs, model_cos_symbol())
    pair = build_fourier_pair("bump", 3.0)
    val = projector_kernel_exact(op, pair, E0, (0.3, 0.9), (0.3, Q0))
    assert abs(val) <= 1e-3 * np.sqrt(qs.k / TWO_PI)


def test_triple_return_structure_and_value():
    # supp fhat = [-7, 7] at q0 = 0.1 contains returns 0, +-3.4026 and the
    # marginal +-6.8052 (fhat there ~ 1e-8); at k q0 integer all holonomy
    # phases are 1 and everything adds on the real axis
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 7.0)
    k = 100
    x = (0.3, Q0)
    pred = projector_kernel_asymptotic(sym, pair, E0, x, x)
    assert len(pred.terms) == 5
    times = sorted(term.t for term in pred.terms)
    assert times == pytest.approx([-2 * T_RETURN, -T_RETURN, 0.0, T_RETURN,
                                   2 * T_RETURN], abs=1e-9)
    significant = [term for term in pred.terms if abs(term.fhat) > 1e-6]
    assert len(significant) == 3
    windings = {term.t: term.winding for term in pred.terms}
    assert windings[times[3]] == (1, 0)
    assert windings[times[1]] == (-1, 0)
    amp = np.sqrt(2.0 / np.pi) / SIN0
    fh = pair.fhat
    expected = (np.sqrt(k) / TWO_PI) * amp * (
        float(fh(0.0)) + 2.0 * float(fh(T_RETURN)) + 2.0 * float(fh(2 * T_RETURN)))
    assert pred.value(k) == pytest.approx(expected, rel=1e-9)


def test_winding_holonomy_phase():
    # at k = 37 the loop holonomy e^{-2 pi i k q m} is far from 1, and so is
    # the lattice gauge factor e^{-2 pi i k q m} that takes the lifted
    # endpoint (p + m, q) back to y = (p, q); their product must show up as
    # the phase of the t = +-T_RETURN terms (rho'^{1/2} is real positive for
    # the shear)
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 7.0)
    k = 37
    pred = projector_kernel_asymptotic(sym, pair, E0, (0.3, Q0), (0.3, Q0))
    by_time = {round(term.t, 6): term for term in pred.terms}
    plus = by_time[round(T_RETURN, 6)]
    minus = by_time[round(-T_RETURN, 6)]
    expected = -2.0 * TWO_PI * k * Q0
    assert np.angle(plus.value(k)) == pytest.approx(
        np.angle(np.exp(1j * expected)), abs=1e-8)
    assert np.angle(minus.value(k)) == pytest.approx(
        np.angle(np.exp(-1j * expected)), abs=1e-8)
    amp = np.sqrt(2.0 / np.pi) / SIN0
    assert abs(plus.value(k)) == pytest.approx(float(pair.fhat(T_RETURN)) * amp, rel=1e-9)


def test_window_restriction_and_cross_pair_additivity():
    # keeping the T = 7 pair's returns with |t| < 3 keeps only the t = 0
    # term, which has the same fhat(0) = e^{-1} as the T = 3 bump: the two
    # single-term predictors coincide exactly, at every k
    sym = model_cos_symbol()
    pair7 = build_fourier_pair("bump", 7.0)
    pair3 = build_fourier_pair("bump", 3.0)
    x = (0.3, Q0)
    full = projector_kernel_asymptotic(sym, pair7, E0, x, x)
    windowed = ProjectorPrediction(tuple(t for t in full.terms if abs(t.t) < 3.0))
    narrow = projector_kernel_asymptotic(sym, pair3, E0, x, x)
    assert len(windowed.terms) == 1
    for k in (37, 60):
        assert windowed.value(k) == pytest.approx(narrow.value(k), rel=1e-12)
        # the dropped terms add back exactly, no cross talk
        dropped = sum(t.value(k) for t in full.terms if abs(t.t) > 3.0)
        prefactor = np.sqrt(float(k)) / TWO_PI
        assert full.value(k) - windowed.value(k) == pytest.approx(
            complex(prefactor * dropped), rel=1e-12)
    assert ProjectorPrediction(()).value(60) == 0j


def test_off_level_points_rejected():
    # the t = 0 term alone would report sqrt(2)/||X|| for any point
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    with pytest.raises(RegularityError, match="off the energy level"):
        projector_kernel_asymptotic(sym, pair, 0.5, (0.3, Q0), (0.3, Q0))
    with pytest.raises(RegularityError, match="off the energy level"):
        projector_kernel_asymptotic(sym, pair, E0, (0.3, 0.2), (0.3, Q0))


def test_critical_level_rejected():
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    with pytest.raises(RegularityError):
        projector_kernel_asymptotic(sym, pair, 1.0, (0.3, 0.0), (0.3, 0.0))


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def test_exact_matches_predictor_at_k200():
    qs = quantum_space(200)
    op = operator_for(qs, model_cos_symbol())
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    x = (0.3, Q0)
    exact = projector_kernel_exact(op, pair, E0, x, x)
    pred = projector_kernel_asymptotic(sym, pair, E0, x, x).value(200)
    assert abs(exact - pred) / abs(pred) <= 0.05


def test_compare_table_error_halves_with_k():
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    rows = projector_compare(sym, pair, E0, [(0.3, Q0)], [100, 200])
    assert [r.k for r in rows] == [100, 200]
    assert all(r.predicted != 0 for r in rows)
    assert rows[1].rel_err_modulus <= 0.7 * rows[0].rel_err_modulus


def test_compare_searches_returns_once_per_point(monkeypatch):
    # the returns and their amplitudes do not depend on k: one search per
    # point serves every k, and each row equals the self-contained predictor
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 7.0)
    points = [(0.3, Q0), ((0.55, Q0), (0.3, Q0))]
    searched = []
    real = specproj.return_times

    def counted(*args, **kwargs):
        searched.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(specproj, "return_times", counted)
    rows = projector_compare(sym, pair, E0, points, [60, 120])
    assert len(searched) == len(points)
    for row in rows:
        alone = projector_kernel_asymptotic(sym, pair, E0, row.y, row.x)
        assert len(alone.terms) > 1
        assert abs(row.predicted - alone.value(row.k)) <= 1e-13 * abs(alone.value(row.k))
    assert len(searched) == len(points) + len(rows)


@pytest.mark.parametrize("k", [49, 50])
@pytest.mark.parametrize("selector", ["model-cos", "cos(2*pi*q)+0.1*sin(2*pi*p)"])
def test_kernel_at_a_lattice_translate_carries_the_gauge_factor(selector, k):
    # K(y + w, x) = e^{2 pi i k (w_p q_y - w_q p_y)} K(y, x): the factor the
    # predictor applies to a winding return, whose flow ends at y + w
    qs = quantum_space(k)
    sym = symbol_from_selector(selector)
    op = operator_for(qs, sym)
    x, t = (0.3, Q0), 0.7
    spectral = np.exp(-1j * k * t * op.eigenvalues)
    y = integrate_flow(sym, x, [t]).points[-1]  # on the graph, so |K| ~ k / 2 pi
    base = kernel_eval(op, spectral, y, x)[0]
    for w in ((1, 0), (0, 1), (1, 1), (-2, 1)):
        lifted = kernel_eval(op, spectral, y + w, x)[0]
        factor = np.exp(TWO_PI * 1j * k * (w[0] * y[1] - w[1] * y[0]))
        assert abs(lifted - factor * base) <= 1e-12 * abs(base)


@pytest.mark.parametrize("q, support, k", [(0.1, 7.0, 49), (0.1, 7.0, 51), (0.1, 7.0, 101),
                                            (0.25, 3.0, 50), (0.25, 3.0, 102)])
def test_winding_returns_at_points_off_the_k_lattice(q, support, k):
    # k q_y is not an integer, so each winding return's gauge factor is not 1
    rows = projector_compare(model_cos_symbol(), build_fourier_pair("bump", support),
                             float(np.cos(TWO_PI * q)), [(0.3, q)], [k])
    assert rows[0].rel_err_modulus <= 0.02


def test_expression_projector_carries_the_toeplitz_subprincipal_phase():
    # T_k(f) has subprincipal symbol Delta f / (16 pi); each return's
    # e^{-i int H^sub} carries it.  Without it cos(2 pi p) misses by 0.29
    # at k = 51 and 101, and cos(2 pi q)'s error stays at 0.93 as k grows
    pair = build_fourier_pair("bump", 7.0)
    rows = projector_compare(symbol_from_selector("cos(2*pi*p)"), pair, E0, [(Q0, 0.3)],
                             [51, 101])
    assert max(r.rel_err_modulus for r in rows) <= 0.02
    rows = projector_compare(symbol_from_selector("cos(2*pi*q)"), pair, E0, [(0.3, Q0)],
                             [50, 100, 200])
    for coarse, fine in zip(rows, rows[1:]):
        assert fine.rel_err_modulus <= 0.55 * coarse.rel_err_modulus


def test_predictor_integrates_no_flow_of_its_own(monkeypatch):
    # every term is built from the state return_times found its return with
    def refused(*args, **kwargs):
        raise AssertionError("integrate_flow called")

    monkeypatch.setattr(torusgeo, "integrate_flow", refused)
    sym = symbol_from_selector("cos(2*pi*p)+cos(2*pi*q)+0.3*sin(2*pi*(p+q))")
    x = (0.3, 0.1)
    pred = projector_kernel_asymptotic(sym, build_fourier_pair("bump", 7.0),
                                       float(sym.principal(*x)), x, x)
    assert len(pred.terms) == 5
    # x = y: the terms at -t and t are conjugate up to the sweeps' accuracy
    assert abs(pred.value(101).imag) <= 1e-9 * abs(pred.value(101))


def test_compare_relative_error_smallest_at_widest_level():
    # on levels with larger ||X|| the relative correction shrinks; q0 = 0.25
    # maximizes ||X|| among the sampled levels (support 1.9 keeps every
    # level single-return so the comparison is like for like)
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 1.9)
    errs = {}
    for q0 in (0.08, 0.15, 0.25):
        energy = float(np.cos(TWO_PI * q0))
        rows = projector_compare(sym, pair, energy, [(0.3, q0)], [100])
        errs[q0] = rows[0].rel_err_modulus
    assert errs[0.25] == min(errs.values())


def test_compare_off_image_row():
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    rows = projector_compare(sym, pair, E0, [((0.3, 0.9), (0.3, Q0))], [50])
    assert rows[0].predicted == 0
    assert np.isnan(rows[0].rel_err_modulus) and np.isnan(rows[0].phase_err)
    assert abs(rows[0].exact) <= 1e-3 * np.sqrt(50 / TWO_PI)


# ---------------------------------------------------------------------------
# per-return pieces through a smooth time partition
# ---------------------------------------------------------------------------


def _smooth_step(u):
    """0 for u <= 0, 1 for u >= 1, e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)})
    between: a C-infinity step."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a, b = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
    return a / (a + b)


def _time_partition(times):
    """One window per sorted return time.  The windows sum to 1; window j is
    1 near t_j and steps, over a width of 1, at the midpoints between
    neighbouring returns."""
    mids = 0.5 * (np.asarray(times[:-1]) + np.asarray(times[1:]))

    def rises(t):  # 1, the step up at each midpoint, 0
        t = np.asarray(t, dtype=float)
        return [np.ones_like(t)] + [_smooth_step(t - m + 0.5) for m in mids] + [np.zeros_like(t)]

    return [lambda t, j=j: rises(t)[j] - rises(t)[j + 1] for j in range(len(times))]


def _return_pieces(sym, y, x, ks):
    """Each return with |fhat(t)| >= 0.1 as one KernelSample per k, keyed by
    winding: the exact piece is the time-side kernel on fhat times the
    return's window, the predicted piece is the return's own term."""
    pair = build_fourier_pair("bump", 7.0)
    terms = sorted(projector_kernel_asymptotic(sym, pair, E0, y, x).terms, key=lambda r: r.t)
    windows = _time_partition([term.t for term in terms])
    grid = np.linspace(-7.0, 7.0, 1401)
    assert np.max(np.abs(sum(chi(grid) for chi in windows) - 1.0)) <= 1e-15
    pieces = {}
    for k in ks:
        qs = quantum_space(k)
        op = operator_for(qs, sym)
        for term, chi in zip(terms, windows):
            if abs(term.fhat) < 0.1:
                continue
            assert chi(term.t) == 1.0
            windowed = FourierPair(7.0, lambda t, chi=chi: pair.fhat(t) * chi(t))
            exact = projector_kernel_timequad(op, windowed, E0, y, x)
            pieces.setdefault(term.winding, []).append(
                KernelSample(k, x, y, exact, ProjectorPrediction((term,)).value(k)))
    return pieces


def _worst_ratio(rows, err):
    """The largest step ratio of |err(row)| across the rows' levels."""
    return max(Rate(tuple(r.k for r in rows), tuple(abs(err(r)) for r in rows)).ratios)


def test_each_return_piece_of_an_expression_symbol_falls_at_the_1_over_k_rate():
    # cos(2 pi q) at (0.3, 0.1) returns at t = 0 and +-3.40 inside bump:7,
    # whose terms nearly cancel in the sum; piece by piece, the modulus
    # errors (0.019, 0.0094, 0.0047 at t = 0) and the canonical-bundle
    # phase errors of the returns at +-3.40 (0.033, 0.016, 0.0079) halve
    pieces = _return_pieces(symbol_from_selector("cos(2*pi*q)"), (0.3, Q0), (0.3, Q0),
                            [100, 200, 400])
    assert sorted(pieces) == [(-1, 0), (0, 0), (1, 0)]
    for w, rows in pieces.items():
        assert _worst_ratio(rows, lambda r: r.rel_err_modulus) <= 0.6
        if w != (0, 0):
            assert _worst_ratio(rows, lambda r: r.phase_err) <= 0.6
        assert rows[-1].rel_err_modulus <= 0.01 and abs(rows[-1].phase_err) <= 0.015


def test_each_return_piece_carries_its_lattice_gauge_factor():
    # y = (0.6, 0.1) from x = (0.3, 0.1) on model-cos: k q_y is not an
    # integer at k = 51, 101, 201, so the w = (1, 0) return's lattice gauge
    # factor e^{2 pi i k q_y} is not 1 (without it the phase is off by
    # 0.63 rad at k = 51).
    # Its phase error, 0.036, 0.020 and 0.010, halves with k
    pieces = _return_pieces(model_cos_symbol(), (0.6, Q0), (0.3, Q0), [51, 101, 201])
    assert sorted(pieces) == [(-1, 0), (0, 0), (1, 0)]
    assert _worst_ratio(pieces[(1, 0)], lambda r: r.phase_err) <= 0.6
    for rows in pieces.values():
        assert rows[-1].rel_err_modulus <= 0.01 and abs(rows[-1].phase_err) <= 0.015


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld: the two lifts around one period place the spectrum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("selector, p0", [
    ("cos(2*pi*p)+cos(2*pi*q)", 0.0),
    ("cos(2*pi*p)+cos(2*pi*q)+0.3*sin(2*pi*(p+q))", 0.0425),
], ids=["harper", "three-mode"])
def test_two_lifts_over_one_period_place_the_top_eigenvalues(selector, p0):
    # Bohr-Sommerfeld (Charles, Comm. PDE 28, 2003): E is an eigenvalue of
    # T_k(f + g/k) where the two lifts around the closed orbit {f = E} close
    # up, e^{i (k conn_L(tau) - int H^sub)} h = 1, h = rho'^{1/2}(tau)
    # ||X_x|| / sqrt(2) the canonical-bundle half-lift's holonomy: -1 on a
    # contractible orbit, the Maslov 1/2 (test_torusgeo's holonomy sign).
    # x is put on {f = E} by bisection in q down from the maximum at (p0, p0),
    # located on a 401^2 grid.  The top three levels miss by 1.3e-4..5.5e-4 (Harper)
    # and 2.4e-3..2.6e-3 (three-mode) at k = 50, falling to 0.24 and 0.48 of
    # that at k = 100; without h, or without int H^sub, the miss is order one
    sym = symbol_from_selector(selector)
    f = lambda q: float(sym.principal(p0, q))
    worst = []
    for k in (50, 100):
        misses = []
        for energy in np.sort(toeplitz_build(quantum_space(k), sym).eigenvalues)[-3:]:
            lo, hi = p0, p0 + 0.5  # f falls from its maximum below every energy
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if f(mid) > energy else (lo, mid)
            x = (p0, lo)
            flow = return_times(sym, x, x, (1e-3, 8.0))[0].flow
            h = complex(rho_level_half(sym, flow, f(lo))[0]) * norm_X(sym, x) / np.sqrt(2.0)
            assert abs(h + 1.0) <= 1e-6
            transport = np.exp(1j * k * flow.conn_L[-1])
            misses.append(abs(np.angle(transport * np.exp(-1j * flow.action_Hsub[-1]) * h)))
            assert abs(np.angle(transport * np.exp(-1j * flow.action_Hsub[-1]))) >= 2.5
            assert abs(np.angle(transport * h)) >= 2.5
        assert max(misses) <= 0.2 / k
        worst.append(max(misses))
    assert Rate((50, 100), tuple(worst)).ratios[0] <= 0.65
