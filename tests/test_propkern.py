"""Propagator and kernel tests.

The closed-form anchors: the diagonal model propagator, the Bergman
diagonal at t = 0, and the predictor's t-derivative of phase at t = 0,
-k (cos 2 pi q + pi q sin 2 pi q) + (pi/4) cos 2 pi q for the model symbol.
"""

import numpy as np
import pytest

from torusprop.acceptance import Rate
from torusprop.propkern import (
    KernelSample,
    _graph_predictions,
    graph_compare,
    kernel_eval,
    operator_for,
)
from torusprop import propkern
from torusprop.specproj import (
    ProjectorPrediction,
    ReturnTerm,
    build_fourier_pair,
    projector_kernel_exact,
)
from torusprop.thetaq import (
    HermitianOperator,
    bergman_diag,
    quantum_space,
    sections,
    toeplitz_build,
)
from torusprop.torusgeo import integrate_flow, make_symbol, model_cos_symbol

TWO_PI = 2.0 * np.pi


def cyclic_diagonals(matrix) -> dict:
    """The cyclic diagonals of a dense matrix: shift s holds the entries at
    (ell, (ell - s) mod dim)."""
    dim = len(matrix)
    ell = np.arange(dim)
    return {s: matrix[ell, (ell - s) % dim] for s in range(dim)}


def random_hermitian_op(k: int, seed: int) -> HermitianOperator:
    rng = np.random.default_rng(seed)
    dim = 2 * k
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(k=k, diagonals=cyclic_diagonals(0.5 * (a + a.conj().T)))


def identity_op(k: int) -> HermitianOperator:
    return HermitianOperator(k=k, diagonals={0: np.ones(2 * k)})


def dense_kernel(qs, vecs, spectral, ys, x) -> np.ndarray:
    """The kernel of V diag(g_i) V^H at (y_i, x), built as a dense matrix and
    contracted with the sections, times the unit-gauge phase: an oracle for
    kernel_eval that shares none of its contraction."""
    sx = np.conjugate(sections(qs, complex(*x)))
    out = []
    for g, y in zip(spectral, ys):
        u = vecs @ np.diag(g) @ vecs.conj().T
        gauge = np.exp(2j * np.pi * qs.k * (y[0] * y[1] - x[0] * x[1]))
        out.append(sections(qs, complex(*y)) @ u @ sx * gauge)
    return np.array(out)


def assert_close_to_oracle(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_eval_matches_dense_oracle():
    # a random Hermitian operator: propagator rows e^{-i k t lambda} at
    # several t plus the constant row g = 1, at one shared y and at one
    # (lifted) y per row
    k = 4
    qs = quantum_space(k)
    op = random_hermitian_op(k, 2)
    ts = np.array([0.0, 0.3, 0.7, 1.0])
    spectral = np.vstack([np.exp(-1j * k * np.outer(ts, op.eigenvalues)),
                          np.ones(qs.dim)])
    x = (0.55, 0.4)
    y = (0.3, 0.12)
    shared = kernel_eval(qs, op, spectral, y, x)
    assert_close_to_oracle(shared, dense_kernel(qs, op.eigenvectors, spectral, [y] * 5, x))
    ys = np.array([[0.3, 0.12], [0.45, 0.3], [1.2, -0.1], [0.5, 0.45], [0.6, 0.35]])
    per_row = kernel_eval(qs, op, spectral, ys, x)
    assert_close_to_oracle(per_row, dense_kernel(qs, op.eigenvectors, spectral, ys, x))
    # one row at one point comes back as a one-entry array
    one = kernel_eval(qs, op, spectral[1], y, x)
    assert one.shape == (1,) and one[0] == pytest.approx(shared[1], rel=1e-12)


def test_autonomous_identity_at_zero():
    # at t = 0 the propagator is the identity, whose kernel is the
    # reproducing kernel sum_l s_l(y) conj(s_l(x)) for any eigenbasis
    k = 4
    qs = quantum_space(k)
    op = random_hermitian_op(k, 1)
    y, x = (0.3, 0.12), (0.55, 0.4)
    got = kernel_eval(qs, op, np.exp(-1j * k * 0.0 * op.eigenvalues), y, x)
    want = dense_kernel(qs, np.eye(qs.dim), [np.ones(qs.dim)], [y], x)
    assert_close_to_oracle(got, want)


def test_autonomous_model_is_diagonal_phase():
    # the model operator is diagonal with eigenvalues cos(pi ell / k): its
    # propagator kernel is sum_l e^{-i k t cos(pi l / k)} s_l(y) conj(s_l(x))
    qs = quantum_space(7)
    op = operator_for(qs, model_cos_symbol())
    ell = np.arange(qs.dim)
    ts = np.array([0.0, 0.42, 0.9, 1.7])
    x = (0.3, 0.1)
    ys = np.array([[0.3, 0.1], [0.34, 0.12], [0.8, 0.2], [0.1, 0.6]])
    spectral = np.exp(-1j * qs.k * np.outer(ts, op.eigenvalues))
    closed = np.exp(-1j * qs.k * np.outer(ts, np.cos(np.pi * ell / qs.k)))
    got = kernel_eval(qs, op, spectral, ys, x)
    assert_close_to_oracle(got, dense_kernel(qs, np.eye(qs.dim), closed, ys, x))


def test_kernel_identity_diagonal_is_bergman():
    qs = quantum_space(12)
    op = identity_op(qs.k)
    for z in ((0.3, 0.1), (0.81, 0.66)):
        val = kernel_eval(qs, op, np.ones(qs.dim), z, z)[0]
        assert val.imag == pytest.approx(0.0, abs=1e-10 * abs(val))
        assert val.real == pytest.approx(bergman_diag(qs, complex(*z)), rel=1e-10)


def test_kernel_hermitian_symmetry_at_t_zero():
    qs = quantum_space(9)
    op = identity_op(qs.k)
    ones = np.ones(qs.dim)
    a = kernel_eval(qs, op, ones, (0.3, 0.12), (0.55, 0.4))[0]
    b = kernel_eval(qs, op, ones, (0.55, 0.4), (0.3, 0.12))[0]
    assert abs(a - np.conjugate(b)) <= 1e-10 * max(1.0, abs(a))


def test_exact_kernel_matches_predictor_small_time():
    # the complex values (not just moduli) must agree: this pins the gauge
    # conversion phase between the holomorphic basis and the trivialization
    # the predictor lives in
    qs = quantum_space(100)
    sym = model_cos_symbol()
    x = (0.3, 0.1)
    t = 0.05
    rows = graph_compare(qs, sym, x, [0.0, t])
    exact, pred = rows[-1].exact, rows[-1].predicted
    assert abs(exact - pred) / abs(pred) <= 0.02


def test_graph_compare_small_time_window():
    qs = quantum_space(100)
    rows = graph_compare(qs, model_cos_symbol(), (0.3, 0.1), np.linspace(0.0, 0.1, 21))
    assert max(r.rel_err_modulus for r in rows) <= 0.02
    first = rows[0]
    assert first.exact.real == pytest.approx(bergman_diag(qs, 0.3 + 0.1j), rel=1e-10)
    assert first.predicted == pytest.approx(qs.k / TWO_PI)
    phases = np.unwrap([r.phase_err for r in rows])
    assert phases.shape == (21,)
    assert np.max(np.abs(phases)) <= 0.05


def test_graph_compare_order_one_time():
    # longer-time regime at k = 50, generic-looking base point: the error
    # stays at the O(1/k) scale (observed ~2e-2; bound set at twice that)
    qs = quantum_space(50)
    rows = graph_compare(qs, model_cos_symbol(), (0.5, 0.7), np.linspace(0.0, 1.0, 51))
    assert max(r.rel_err_modulus for r in rows) <= 0.08


def test_kernel_sample_invariants():
    s = KernelSample(k=3, x=(0.0, 0.0), y=(0.1, 0.0), exact=2.0 + 0.0j, predicted=1.0 + 0.0j)
    assert s.rel_err_modulus == pytest.approx(1.0)
    assert s.phase_err == pytest.approx(0.0)
    s2 = KernelSample(k=3, x=(0.0, 0.0), y=(0.1, 0.0), exact=1.0j, predicted=1.0 + 0.0j)
    assert s2.phase_err == pytest.approx(np.pi / 2)
    # a zero exact value has no phase error (a zero prediction: see below)
    s3 = KernelSample(k=3, x=(0.0, 0.0), y=(0.1, 0.0), exact=0j, predicted=2.0 + 0.0j)
    assert np.isnan(s3.phase_err) and s3.rel_err_modulus == 1.0


def test_projector_sample_phase_error_follows_the_kernel_rule():
    def sample(exact, value):
        # one t = 0 term whose value at k = 3 is ``value``; none for 0j
        terms = (ReturnTerm(t=0.0, winding=(0, 0), fhat=1.0 + 0.0j,
                            amplitude=value * TWO_PI / np.sqrt(3.0), conn_L=0.0),)
        pred = ProjectorPrediction(terms if value else ())
        return KernelSample(3, (0.3, 0.1), (0.3, 0.1), exact, pred.value(3))

    assert sample(1.0j, 1.0 + 0.0j).phase_err == pytest.approx(np.pi / 2)
    assert sample(2.0 + 0.0j, 1.0 + 0.0j).phase_err == pytest.approx(0.0)
    off = sample(1e-9 + 1e-9j, 0j)
    assert np.isnan(off.phase_err) and np.isnan(off.rel_err_modulus)


# ---------------------------------------------------------------------------
# predictor structure
# ---------------------------------------------------------------------------


def test_predictor_at_zero_is_k_over_2pi():
    traj = integrate_flow(model_cos_symbol(), (0.3, 0.1), [0.0])
    assert _graph_predictions(traj, 57)[0] == pytest.approx(57 / TWO_PI)


def test_predictor_matches_model_closed_form():
    # (k/2pi) (1+a^2)^{-1/4} e^{i(arctan a)/2} e^{-i k t (cos + pi q sin)}
    # with a = (pi t / 2) cos 2 pi q; the grid's one step is split for the
    # branch tracking
    k, t, q = 40, 0.8, 0.1
    val = graph_compare(quantum_space(k), model_cos_symbol(), (0.3, q), [0.0, t])[-1].predicted
    a = 0.5 * np.pi * t * np.cos(TWO_PI * q)
    smod = (1.0 + a * a) ** (-0.25)
    sphase = 0.5 * np.arctan(a)
    kphase = -k * t * (np.cos(TWO_PI * q) + np.pi * q * np.sin(TWO_PI * q))
    expected = (k / TWO_PI) * smod * np.exp(1j * (sphase + kphase))
    assert abs(val - expected) <= 1e-9 * abs(expected)


def test_predictor_phase_slope_at_zero():
    # d/dt arg at t=0 equals -k (cos + pi q sin) + (pi/4) cos
    k, q = 100, 0.1
    sym = model_cos_symbol()
    h = 1e-4
    up, dn = (_graph_predictions(integrate_flow(sym, (0.3, q), [0.0, s]), k)[-1]
              for s in (h, -h))
    slope = np.angle(up / dn) / (2.0 * h)
    cos, sin = np.cos(TWO_PI * q), np.sin(TWO_PI * q)
    expected = -k * (cos + np.pi * q * sin) + 0.25 * np.pi * cos
    assert slope == pytest.approx(expected, rel=1e-6)


def test_graph_compare_chunks_match_one_call(monkeypatch):
    # a generic symbol (dense eigenbasis) on a 31-row grid cut into chunks
    # of 7 rows against one kernel_eval call over every row
    qs = quantum_space(20)
    sym = make_symbol("cos-q-sin-p", lambda p, q: np.cos(TWO_PI * np.asarray(q, dtype=float))
                      + 0.1 * np.sin(TWO_PI * np.asarray(p, dtype=float)))
    x = (0.3, 0.1)
    tg = np.linspace(0.0, 0.3, 31)
    monkeypatch.setattr(propkern, "_ROW_CHUNK", 7)
    rows = graph_compare(qs, sym, x, tg)
    op = operator_for(qs, sym)
    ys = np.array([r.y for r in rows])
    one = kernel_eval(qs, op, np.exp(-1j * qs.k * np.outer(tg, op.eigenvalues)), ys, x)
    got = np.array([r.exact for r in rows])
    assert np.max(np.abs(got - one)) <= 1e-14 * np.max(np.abs(one))


@pytest.mark.parametrize("principal", [
    lambda p, q: np.cos(TWO_PI * q) + 0.1 * np.sin(TWO_PI * p),
    lambda p, q: np.cos(TWO_PI * p) + np.cos(TWO_PI * q) + 0.3 * np.sin(TWO_PI * (p + q)),
], ids=["cos-q-sin-p", "two-mode"])
def test_generic_propagator_errors_fall_at_the_1_over_k_rate(principal):
    # T_k(f) has subprincipal symbol Delta f / (16 pi); without it in the
    # flow the phase error stays near 0.6-0.7 rad at t = 1 for every k
    sym = make_symbol("generic", principal)
    tg = np.linspace(0.0, 1.0, 101)
    ks = (50, 100)
    runs = [graph_compare(quantum_space(k), sym, (0.3, 0.1), tg) for k in ks]
    phase = Rate(ks, tuple(max(abs(r.phase_err) for r in rows) for rows in runs))
    modulus = Rate(ks, tuple(max(r.rel_err_modulus for r in rows) for rows in runs))
    assert phase.ratios[0] <= 0.65
    assert modulus.ratios[0] <= 0.65
    assert phase.errors[-1] <= 0.01


@pytest.mark.parametrize("k", [50, 400])
def test_symbol_of_q_alone_matches_dense_eigh_oracle(k):
    # cos 2 pi q is one diagonal, so no eigh runs; its propagator and
    # projector kernels must match the dense eigendecomposition's
    qs = quantum_space(k)
    sym = make_symbol("cos2piq", lambda p, q: np.cos(TWO_PI * np.asarray(q, dtype=float))
                      + 0.0 * np.asarray(p, dtype=float))
    op = operator_for(qs, sym)
    assert op.eigenvectors is None
    vals, vecs = np.linalg.eigh(op.dense())
    x = (0.3, 0.1)
    ts = np.array([0.0, 0.35, 1.0])
    rows = graph_compare(qs, sym, x, ts)
    ys = [r.y for r in rows]
    want = dense_kernel(qs, vecs, np.exp(-1j * k * np.outer(ts, vals)), ys, x)
    assert_close_to_oracle(np.array([r.exact for r in rows]), want)
    pair = build_fourier_pair("bump", 3.0)
    energy = float(np.cos(TWO_PI * 0.1))
    y = (0.45, 0.1)
    got = projector_kernel_exact(qs, op, pair, energy, y, x)
    want = dense_kernel(qs, vecs, [pair.f_eval(k * (energy - vals))], [y], x)
    assert_close_to_oracle(np.array([got]), want)


def test_constant_subprincipal_shifts_both_routes_identically():
    # T -> T + (c/k) I multiplies the propagator by e^{-i c t}; the predictor
    # carries the same factor through its subprincipal action integral
    qs = quantum_space(30)
    c, t = 0.7, 0.6
    x = (0.3, 0.1)
    base_rows = graph_compare(qs, model_cos_symbol(), x, [0.0, t])
    shift_rows = graph_compare(qs, model_cos_symbol(sub_const=c), x, [0.0, t])
    factor = np.exp(-1j * c * t)
    assert abs(shift_rows[-1].exact - factor * base_rows[-1].exact) \
        <= 1e-12 * abs(base_rows[-1].exact)
    assert abs(shift_rows[-1].predicted - factor * base_rows[-1].predicted) \
        <= 1e-12 * abs(base_rows[-1].predicted)


# ---------------------------------------------------------------------------
# operator_for
# ---------------------------------------------------------------------------


def test_operator_for_model_fast_path():
    qs = quantum_space(15)
    op = operator_for(qs, model_cos_symbol(sub_const=0.5))
    ell = np.arange(qs.dim)
    assert np.allclose(op.eigenvalues, np.cos(np.pi * ell / qs.k) + 0.5 / qs.k)
    # one diagonal, so the eigenbasis is exactly the standard basis
    assert op.diagonals.keys() == {0}
    assert op.eigenvectors is None
    assert np.array_equal(op.to_eigenbasis(np.eye(qs.dim)), np.eye(qs.dim))


def test_operator_for_generic_includes_subprincipal_weight():
    def principal(p, q):
        return np.cos(TWO_PI * np.asarray(q, dtype=float)) \
            + 0.3 * np.cos(TWO_PI * np.asarray(p, dtype=float))

    def sub(p, q):
        return np.sin(TWO_PI * np.asarray(q, dtype=float))

    qs = quantum_space(8)
    plain = make_symbol("generic", principal)
    with_sub = make_symbol("generic", principal, subprincipal=sub)
    t_plain = operator_for(qs, plain).dense()
    t_full = operator_for(qs, with_sub).dense()
    t_sub = toeplitz_build(qs, make_symbol("only-sub", sub)).dense()
    assert np.max(np.abs(t_plain + t_sub / qs.k - t_full)) <= 1e-12


# ---------------------------------------------------------------------------
# off-graph decay
# ---------------------------------------------------------------------------


def test_offgraph_far_point_is_negligible():
    # the kernel at y = phi_t(x) + (0.5, 0), half a period off the graph
    sym = model_cos_symbol()
    x, t = (0.3, 0.1), 0.1
    y = integrate_flow(sym, x, [t]).points_lifted[-1] + np.array([0.5, 0.0])
    for k in (25, 50):
        qs = quantum_space(k)
        op = operator_for(qs, sym)
        modulus = abs(kernel_eval(qs, op, np.exp(-1j * k * t * op.eigenvalues), y, x)[0])
        assert modulus < 1e-6 * (k / TWO_PI)
