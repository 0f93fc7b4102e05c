"""Propagator and kernel tests.

The closed-form anchors: the diagonal model propagator, the Bergman
diagonal at t = 0, and the predictor's t-derivative of phase at t = 0,
-k (cos 2 pi q + pi q sin 2 pi q) + (pi/4) cos 2 pi q for the model symbol.
"""

import dataclasses

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
from torusprop import propkern, thetaq, torusgeo
from torusprop.specproj import (
    ProjectorPrediction,
    ReturnTerm,
    build_fourier_pair,
    projector_compare,
    projector_kernel_asymptotic,
    projector_kernel_exact,
)
from torusprop.thetaq import (
    HermitianOperator,
    QuantumSpace,
    bergman_diag,
    quantum_space,
    sections,
    toeplitz_build,
)
from torusprop.torusgeo import (
    b_coefficient,
    b_coefficient_diagonal,
    check_level,
    hamiltonian_vector_field,
    integrate_flow,
    line_half_form,
    make_symbol,
    model_cos_symbol,
    norm_X,
    prequantum_phase,
    return_times,
    wrap_difference,
)

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
    return HermitianOperator(space=QuantumSpace(k),
                             diagonals=cyclic_diagonals(0.5 * (a + a.conj().T)))


def identity_op(k: int) -> HermitianOperator:
    return HermitianOperator(space=QuantumSpace(k), diagonals={0: np.ones(2 * k)})


def dense_kernel(qs, vecs, spectral, ys, x) -> np.ndarray:
    """The kernel of V diag(g_i) V^H at (y_i, x), built as a dense matrix and
    contracted with the sections, times the unit-gauge phase: an oracle for
    kernel_eval that shares none of its contraction."""
    sx = np.conjugate(sections(qs, x))
    out = []
    for g, y in zip(spectral, ys):
        u = vecs @ np.diag(g) @ vecs.conj().T
        gauge = np.exp(2j * np.pi * qs.k * (y[0] * y[1] - x[0] * x[1]))
        out.append(sections(qs, y) @ u @ sx * gauge)
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
    shared = kernel_eval(op, spectral, y, x)
    assert_close_to_oracle(shared, dense_kernel(qs, op.eigenvectors, spectral, [y] * 5, x))
    ys = np.array([[0.3, 0.12], [0.45, 0.3], [1.2, -0.1], [0.5, 0.45], [0.6, 0.35]])
    per_row = kernel_eval(op, spectral, ys, x)
    assert_close_to_oracle(per_row, dense_kernel(qs, op.eigenvectors, spectral, ys, x))
    # one row at one point comes back as a one-entry array
    one = kernel_eval(op, spectral[1], y, x)
    assert one.shape == (1,) and one[0] == pytest.approx(shared[1], rel=1e-12)


def test_autonomous_identity_at_zero():
    # at t = 0 the propagator is the identity, whose kernel is the
    # reproducing kernel sum_l s_l(y) conj(s_l(x)) for any eigenbasis
    k = 4
    qs = quantum_space(k)
    op = random_hermitian_op(k, 1)
    y, x = (0.3, 0.12), (0.55, 0.4)
    got = kernel_eval(op, np.exp(-1j * k * 0.0 * op.eigenvalues), y, x)
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
    got = kernel_eval(op, spectral, ys, x)
    assert_close_to_oracle(got, dense_kernel(qs, np.eye(qs.dim), closed, ys, x))


def test_kernel_identity_diagonal_is_bergman():
    qs = quantum_space(12)
    op = identity_op(qs.k)
    for z in ((0.3, 0.1), (0.81, 0.66)):
        val = kernel_eval(op, np.ones(qs.dim), z, z)[0]
        assert val.imag == pytest.approx(0.0, abs=1e-10 * abs(val))
        assert val.real == pytest.approx(bergman_diag(qs, z), rel=1e-10)


def test_kernel_hermitian_symmetry_at_t_zero():
    qs = quantum_space(9)
    op = identity_op(qs.k)
    ones = np.ones(qs.dim)
    a = kernel_eval(op, ones, (0.3, 0.12), (0.55, 0.4))[0]
    b = kernel_eval(op, ones, (0.55, 0.4), (0.3, 0.12))[0]
    assert abs(a - np.conjugate(b)) <= 1e-10 * max(1.0, abs(a))


@pytest.mark.parametrize("point", [0.3 + 0.1j, (0.3, 0.1, 0.2), np.array([0.3 + 0.05j, 0.1]),
                                   ((0.3,), 0.1)])
def test_a_point_that_is_not_a_p_q_pair_is_refused(point):
    # every entry that takes one (p, q) point parses it by the one rule; a
    # complex array must not run with its imaginary part dropped, and a
    # ragged one gets the rule's message, not numpy's
    qs = quantum_space(4)
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    good = (0.3, 0.1)
    energy = float(sym.principal(*good))
    calls = {
        "kernel_eval": lambda: kernel_eval(identity_op(qs.k), np.ones(qs.dim), good, point),
        "bergman_diag": lambda: bergman_diag(qs, point),
        "graph_compare": lambda: graph_compare(sym, point, [0.0, 0.1], [qs.k]),
        "integrate_flow": lambda: integrate_flow(sym, point, [0.0, 0.1]),
        "return_times x": lambda: return_times(sym, point, good, (-1.0, 1.0)),
        "return_times y": lambda: return_times(sym, good, point, (-1.0, 1.0)),
        "check_level": lambda: check_level(sym, point, energy),
        "norm_X": lambda: norm_X(sym, point),
        "b_coefficient": lambda: b_coefficient(sym, point, (0.0, 1.0)),
        "b_coefficient_diagonal": lambda: b_coefficient_diagonal(sym, point),
        "asymptotic y": lambda: projector_kernel_asymptotic(sym, pair, energy, point, good),
        "asymptotic x": lambda: projector_kernel_asymptotic(sym, pair, energy, good, point),
        "compare point": lambda: projector_compare(sym, pair, energy, [point], [4]),
        "compare (y, x)": lambda: projector_compare(sym, pair, energy, [(good, good)], [4]),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"expected a \(p, q\) point"):
            call()


@pytest.mark.parametrize("points", [np.array([0.3 + 0.05j, 0.1]), ((0.3,), 0.1),
                                    np.array([[0.3, 0.1, 0.2]])])
def test_an_array_of_points_that_is_not_p_q_pairs_is_refused(points):
    # the entries that take arrays of points share one rule: no imaginary
    # part dropped, no ragged nesting, (p, q) along the last axis
    op = identity_op(4)
    calls = {
        "kernel_eval ys": lambda: kernel_eval(op, np.ones(op.space.dim), points, (0.3, 0.1)),
        "hamiltonian_vector_field": lambda: hamiltonian_vector_field(model_cos_symbol(), points),
        "sections": lambda: sections(op.space, points),
        "wrap_difference a": lambda: wrap_difference(points, (0.3, 0.1)),
        "wrap_difference b": lambda: wrap_difference((0.3, 0.1), points),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"expected \(p, q\) points"):
            call()


def test_exact_kernel_matches_predictor_small_time():
    # the complex values (not just moduli) must agree: this pins the gauge
    # conversion phase between the holomorphic basis and the trivialization
    # the predictor lives in
    qs = quantum_space(100)
    sym = model_cos_symbol()
    x = (0.3, 0.1)
    t = 0.05
    rows = graph_compare(sym, x, [0.0, t], [qs.k])
    exact, pred = rows[-1].exact, rows[-1].predicted
    assert abs(exact - pred) / abs(pred) <= 0.02


def test_graph_compare_small_time_window():
    qs = quantum_space(100)
    rows = graph_compare(model_cos_symbol(), (0.3, 0.1), np.linspace(0.0, 0.1, 21), [qs.k])
    assert max(r.rel_err_modulus for r in rows) <= 0.02
    first = rows[0]
    assert first.exact.real == pytest.approx(bergman_diag(qs, (0.3, 0.1)), rel=1e-10)
    assert first.predicted == pytest.approx(qs.k / TWO_PI)
    phases = np.unwrap([r.phase_err for r in rows])
    assert phases.shape == (21,)
    assert np.max(np.abs(phases)) <= 0.05


def test_graph_compare_order_one_time():
    # longer-time regime at k = 50, generic-looking base point: the error
    # stays at the O(1/k) scale (observed ~2e-2; bound set at twice that)
    qs = quantum_space(50)
    rows = graph_compare(model_cos_symbol(), (0.5, 0.7), np.linspace(0.0, 1.0, 51), [qs.k])
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
    val = graph_compare(model_cos_symbol(), (0.3, q), [0.0, t], [k])[-1].predicted
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
    # a generic symbol (three diagonals, so Chebyshev blocks) on a 31-row
    # grid cut into blocks of 7 rows against one dense kernel_eval call over
    # every row: at k = 12 a row is the 174 Chebyshev angles, wider than the
    # 2k = 24 sections, so a budget of 7 x 174 pairs sets the block, and the
    # grid's span keeps each block to one expansion
    qs = quantum_space(12)
    sym = make_symbol("cos-q-sin-p", lambda p, q: np.cos(TWO_PI * np.asarray(q, dtype=float))
                      + 0.1 * np.sin(TWO_PI * np.asarray(p, dtype=float)))
    x = (0.3, 0.1)
    tg = np.linspace(0.0, 0.3, 31)
    monkeypatch.setattr(thetaq, "_BLOCK_PAIRS", 7 * (2 * propkern._bessel_terms(propkern._CHEB_ARG) + 2))
    chunks = []
    rows_of = propkern._chebyshev_rows
    monkeypatch.setattr(propkern, "_chebyshev_rows",
                        lambda *a: chunks.append(len(a[4])) or rows_of(*a))
    rows = graph_compare(sym, x, tg, [qs.k])
    assert chunks == [7, 7, 7, 7, 3]
    op = operator_for(qs, sym)
    ys = np.array([r.y for r in rows])
    one = kernel_eval(op, np.exp(-1j * qs.k * np.outer(tg, op.eigenvalues)), ys, x)
    got = np.array([r.exact for r in rows])
    assert np.max(np.abs(got - one)) <= 1e-14 * np.max(np.abs(one))


def test_graph_compare_integrates_one_flow_for_every_k(monkeypatch):
    # k enters the prediction only as a power of the prequantum transport, so
    # a two-k call sweeps the flow once; its rows come grouped by k ascending,
    # each group bit for bit a one-k call
    sym = make_symbol("cos-q-sin-p", lambda p, q: np.cos(TWO_PI * np.asarray(q, dtype=float))
                      + 0.1 * np.sin(TWO_PI * np.asarray(p, dtype=float)))
    tg = np.linspace(0.0, 0.2, 21)
    singles = {k: graph_compare(sym, (0.3, 0.1), tg, [k]) for k in (10, 20)}
    sweeps, dopri5 = [], torusgeo._dopri5
    monkeypatch.setattr(torusgeo, "_dopri5", lambda *a: sweeps.append(a[2]) or dopri5(*a))
    rows = graph_compare(sym, (0.3, 0.1), tg, [20, 10])
    assert len(sweeps) == 1
    assert [r.k for r in rows] == [10] * tg.size + [20] * tg.size
    assert rows == singles[10] + singles[20]


@pytest.mark.parametrize("compare", ["graph", "projector"])
def test_both_comparisons_take_k_as_given(compare):
    # a non-integer k is refused, not truncated; a numpy integer is a level,
    # and the rows carry it as a Python int
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    run = {"graph": lambda ks: graph_compare(sym, (0.3, 0.1), [0.0, 0.1], ks),
           "projector": lambda ks: projector_compare(sym, pair, float(np.cos(0.2 * np.pi)),
                                                     [(0.3, 0.1)], ks)}[compare]
    with pytest.raises(ValueError):
        run([20.7])
    assert all(type(r.k) is int and r.k == 20 for r in run([np.int64(20)]))


_GENERIC = {
    "cos-q-sin-p": lambda p, q: np.cos(TWO_PI * q) + 0.1 * np.sin(TWO_PI * p),
    "two-mode": lambda p, q: np.cos(TWO_PI * p) + np.cos(TWO_PI * q) + 0.3 * np.sin(TWO_PI * (p + q)),
}


_ZOOM = np.linspace(0.8, 0.9, 101)
_ORACLE_GRIDS = {"k12-zoom": (12, _ZOOM), "k50-zoom": (50, _ZOOM), "k200-zoom": (200, _ZOOM),
                 "k400-zoom": (400, _ZOOM), "k12-coarse": (12, np.arange(11.0)),
                 "k50-coarse": (50, np.arange(11.0))}


@pytest.mark.parametrize("name, k, tgrid", [
    pytest.param(name, k, tgrid, id=f"{grid}-{name}")
    for name in _GENERIC for grid, (k, tgrid) in _ORACLE_GRIDS.items()
] + [pytest.param("cos-q-sin-p", 500, _ZOOM, id="k500-zoom-cos-q-sin-p")])
def test_chebyshev_propagator_matches_the_dense_eigh_oracle(name, k, tgrid):
    # the Chebyshev route against e^{-i k t lambda} over the dense matrix's
    # eigh, taken here because the operator's own eigh stops at k = 400:
    # gaps up to 0.8 (zoom) and 1.0 (coarse) are crossed in sub-steps.  eigh's
    # eigenvalues carry rounding near 1e-16 ||T||, so the oracle's own phase
    # drifts like k t 1e-16; these grids keep k t <= 500
    qs = quantum_space(k)
    sym = make_symbol(name, _GENERIC[name])
    x = (0.3, 0.1)
    rows = graph_compare(sym, x, tgrid, [qs.k])
    vals, vecs = np.linalg.eigh(operator_for(qs, sym).dense())
    ys = np.array([r.y for r in rows])
    y_modes = sections(qs, ys).T @ vecs
    x_modes = sections(qs, x) @ vecs
    gauge = np.exp(2j * np.pi * k * (ys[:, 0] * ys[:, 1] - x[0] * x[1]))
    want = (np.exp(-1j * k * np.outer(tgrid, vals)) * y_modes) @ np.conjugate(x_modes) * gauge
    got = np.array([r.exact for r in rows])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("taus", [
    [-1.0, -0.3, 0.0, 1e-13, 0.5, 1.0], [0.0], [1e-13], [-1.0], [1.0, -1.0], [-0.02, 0.02],
], ids=["both-signs", "zero", "tiny", "negative-cap", "cap-last-negative", "small"])
def test_chebyshev_rows_match_exact_phases(taus):
    # a one-diagonal operator spanning its box [-0.6, 2] (centre 0.7) is its
    # own eigenbasis, so e^{-i tau T} v is e^{-i tau d} v exactly; taus of
    # +-1 here reach |tau| r = _CHEB_ARG, the largest argument of one
    # expansion (seen within 8.3e-15 ||v|| over nine draws)
    k = 10
    d = 0.7 + 1.3 * np.cos(np.pi * np.arange(2 * k) / (2 * k - 1))
    op = HermitianOperator(space=QuantumSpace(k), diagonals={0: d})
    box = propkern._spectral_box(op)
    assert box == pytest.approx((0.7, 1.3))
    taus = np.array(taus) * propkern._CHEB_ARG / box[1]
    rng = np.random.default_rng(38)
    v = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
    s_rows = rng.normal(size=(taus.size, 2 * k)) + 1j * rng.normal(size=(taus.size, 2 * k))
    s_rows /= np.linalg.norm(s_rows, axis=1, keepdims=True)
    vals, carried = propkern._chebyshev_rows(op, box, v, taus, s_rows)
    want = np.einsum("ij,ij->i", s_rows, np.exp(-1j * np.outer(taus, d)) * v)
    assert np.max(np.abs(vals - want)) <= 2e-14 * np.linalg.norm(v)
    assert np.max(np.abs(carried - np.exp(-1j * taus[-1] * d) * v)) <= 2e-14 * np.linalg.norm(v)


def test_multi_diagonal_propagator_runs_no_eigh_and_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the propagator diagonalized or densified its operator")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(HermitianOperator, "dense", refuse)
    qs = quantum_space(50)
    sym = make_symbol("two-mode", _GENERIC["two-mode"])
    assert len(operator_for(qs, sym).diagonals) > 1
    rows = graph_compare(sym, (0.3, 0.1), np.linspace(0.0, 1.0, 101), [qs.k])
    assert len(rows) == 101 and all(np.isfinite(r.exact) for r in rows)
    with pytest.raises(AssertionError, match="diagonalized"):
        operator_for(qs, sym).eigenvalues


@pytest.mark.parametrize("name, ks", [pytest.param(n, ks, id=n + tag) for ks, tag in
                                      (((50, 100), ""), ((400, 1000), "-k400-1000")) for n in _GENERIC])
def test_generic_propagator_errors_fall_at_the_1_over_k_rate(name, ks):
    # T_k(f) has subprincipal symbol Delta f / (16 pi); without it in the
    # flow the phase error stays near 0.6-0.7 rad at t = 1 for every k
    sym = make_symbol("generic", _GENERIC[name])
    tg = np.linspace(0.0, 1.0, 101)
    runs = [graph_compare(sym, (0.3, 0.1), tg, [k]) for k in ks]
    phase = Rate(ks, tuple(max(abs(r.phase_err) for r in rows) for rows in runs))
    modulus = Rate(ks, tuple(max(r.rel_err_modulus for r in rows) for rows in runs))
    assert phase.ratios[0] <= 0.65
    assert modulus.ratios[0] <= 0.65
    assert phase.errors[-1] <= 0.01


@pytest.mark.parametrize("name", list(_GENERIC))
def test_generic_propagator_error_is_a_series_in_1_over_k(name):
    # Richardson: with r(k) = exact/pred - 1 = c1/k + c2/k^2 + ..., the
    # complex D(k) = k r(k) - 2k r(2k) = c2/(2k) + ... halves with each
    # doubling of k (0.499-0.506 here).  A k^-1/2 term breaks that: the
    # predictor times (1 + k^-1/2) reads 1.4.  So does an order-one phase:
    # the predictor with its e^{-i int H^sub} undone reads 2.0
    ks, ts = (500, 1000, 2000), [0.25, 0.5, 0.75, 1.0]
    sym = make_symbol(name, _GENERIC[name])
    rows = graph_compare(sym, (0.3, 0.1), ts, ks)
    exact = np.array([r.exact for r in rows]).reshape(3, 4)
    pred = np.array([r.predicted for r in rows]).reshape(3, 4)
    k = np.array(ks, dtype=float)[:, None]

    def richardson_ratios(predicted):
        scaled = k * (exact / predicted - 1.0)
        d = scaled[:-1] - scaled[1:]  # D(500), D(1000) at each t
        return np.abs(d[1]) / np.abs(d[0])

    assert np.all(richardson_ratios(pred) <= 0.6)
    assert np.all(richardson_ratios(pred * (1.0 + k ** -0.5)) > 0.6)
    sub_action = integrate_flow(sym, (0.3, 0.1), ts).action_Hsub
    assert np.all(richardson_ratios(pred * np.exp(1j * sub_action)) > 0.6)


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
    rows = graph_compare(sym, x, ts, [qs.k])
    ys = [r.y for r in rows]
    want = dense_kernel(qs, vecs, np.exp(-1j * k * np.outer(ts, vals)), ys, x)
    assert_close_to_oracle(np.array([r.exact for r in rows]), want)
    pair = build_fourier_pair("bump", 3.0)
    energy = float(np.cos(TWO_PI * 0.1))
    y = (0.45, 0.1)
    got = projector_kernel_exact(op, pair, energy, y, x)
    want = dense_kernel(qs, vecs, [pair.f_eval(k * (energy - vals))], [y], x)
    assert_close_to_oracle(np.array([got]), want)


def test_constant_subprincipal_shifts_both_routes_identically():
    # T -> T + (c/k) I multiplies the propagator by e^{-i c t}; the predictor
    # carries the same factor through its subprincipal action integral.  The
    # model operator takes the spectral route, the expression symbol the
    # Chebyshev route, where the shift moves the expansion's centre
    qs = quantum_space(30)
    c, t = 0.7, 0.6
    x = (0.3, 0.1)
    principal = _GENERIC["cos-q-sin-p"]
    shifted = lambda p, q: c + 0.0 * np.asarray(p, dtype=float)
    for base, shift in ((model_cos_symbol(), model_cos_symbol(sub_const=c)),
                        (make_symbol("e", principal), make_symbol("e", principal, subprincipal=shifted))):
        base_rows = graph_compare(base, x, [0.0, t], [qs.k])
        shift_rows = graph_compare(shift, x, [0.0, t], [qs.k])
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
        modulus = abs(kernel_eval(op, np.exp(-1j * k * t * op.eigenvalues), y, x)[0])
        assert modulus < 1e-6 * (k / TWO_PI)


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("name", ["model-cos"] + list(_GENERIC))
def test_propagator_transverse_profile_is_the_flow_gaussian(name, t):
    # Near the graph, K(c + d) K(c - d) / K(c)^2 = e^{-2 pi k d^T Q d} (1 + O(1/k))
    # with c = phi_t(x), M = d phi_t, G = 2 (I + M M^T)^{-1}, J = [[0, 1], [-1, 0]]
    # and Q = G + (i/2)(G J + (G J)^T); the product cancels the connection's
    # linear phase and the odd O(k^{-1/2}) terms.  Q is measured, not derived:
    # G from the squeezed coherent state, the imaginary part read off the
    # model shear's symmetric phase (ROADMAP item 25, "Status of the formula").
    # G alone and Q with its imaginary part's sign flipped must miss at order one.
    sym = model_cos_symbol() if name == "model-cos" else make_symbol(name, _GENERIC[name])
    rng = np.random.default_rng(25)  # six fixed directions v, |v| in [0.4, 0.6]
    radii, angles = rng.uniform(0.4, 0.6, 6), rng.uniform(0.0, TWO_PI, 6)
    dirs = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    x = (0.3, 0.1)
    traj = integrate_flow(sym, x, [t])
    c, m = traj.points_lifted[-1], traj.jacobians[-1]
    g = 2.0 * np.linalg.inv(np.eye(2) + m @ m.T)
    gj = g @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    q = g + 0.5j * (gj + gj.T)
    forms = {"Q": q, "G": g, "flipped": np.conjugate(q)}
    ks = (50, 100, 200)
    misses = {form: [] for form in forms}
    for k in ks:
        d = dirs / np.sqrt(k)
        ys = np.concatenate([c[None], c + d, c - d])
        kern = propkern._propagated_rows(operator_for(quantum_space(k), sym), np.full(13, t), ys, x)
        ratio = kern[1:7] * kern[7:] / kern[0] ** 2
        for form, f in forms.items():
            quad = np.einsum("vi,ij,vj->v", d, f, d)
            misses[form].append(float(np.max(np.abs(ratio * np.exp(TWO_PI * k * quad) - 1.0))))
    rate = Rate(ks, tuple(misses["Q"]))
    assert all(r <= 0.6 for r in rate.ratios)
    assert rate.errors[-1] <= 0.1
    assert min(misses["G"] + misses["flipped"]) >= 0.5


_LINE_XS = ((0.3, 0.6), (0.55, 0.6))
_LINE_TS = np.array([0.5, 1.0, 3.0])


def _evolved_line_state(sym, k, ys) -> np.ndarray:
    """psi_t(y) = s(y) . e^{-i k t T} e_ell times the unit gauge e^{2 pi i k p q},
    ell = 0.8 k, at the lifted points ys[i] (one row of points per time of
    _LINE_TS): one walk of Chebyshev-Bessel steps, each of at most _CHEB_ARG."""
    qs = quantum_space(k)
    op = operator_for(qs, sym)
    box = propkern._spectral_box(op)
    reach = propkern._CHEB_ARG / (k * box[1])
    v = np.zeros(qs.dim, dtype=complex)
    v[round(0.8 * k)] = 1.0
    t_ref, out = 0.0, []
    for t, y in zip(_LINE_TS, ys):
        steps = int(np.ceil((t - t_ref) / reach))
        rows = sections(qs, y).T
        for i in range(steps):
            taus = np.full(len(y) if i == steps - 1 else 1, k * (t - t_ref) / steps)
            vals, v = propkern._chebyshev_rows(op, box, v, taus, rows if i == steps - 1 else rows[:0])
        out.append(vals * np.exp(2j * np.pi * k * y[:, 0] * y[:, 1]))
        t_ref = t
    return np.array(out)


@pytest.mark.parametrize("name, t_flip, t_no_half", [("cos-q-sin-p", None, 3.0),
                                                     ("two-mode", 3.0, 1.0)])
def test_a_lagrangian_state_follows_the_line_half_form(name, t_flip, t_no_half):
    # e_ell with ell = 0.8 k is a Lagrangian state on Gamma = {q = 0.6}:
    # U_t e_ell at phi_t(x) is psi_0(x) (dz(u)/dz(M u))^{1/2} e^{i prequantum
    # phase} (1 + O(1/k)) for x on Gamma and u = d/dp tangent to it (Charles,
    # CMP 239, 2003).  Misses fall by 0.46-0.51 from k = 800 to 1600.  A
    # principal theta_a flips the sign where the half-form's argument has
    # turned past pi (t = 3 on the two-mode symbol); without the half-form
    # the modulus misses by 0.25-0.5 at (0.55, 0.6)
    sym = make_symbol(name, _GENERIC[name])
    trajs = [integrate_flow(sym, x, _LINE_TS) for x in _LINE_XS]
    ys = np.stack([tr.points_lifted for tr in trajs], axis=1)  # (time, point, 2)

    def predicted(k, half):
        qs = quantum_space(k)
        return np.stack([sections(qs, x)[round(0.8 * k)] * np.exp(2j * np.pi * k * x[0] * x[1])
                         * half(tr) * np.exp(1j * prequantum_phase(tr, k))
                         for x, tr in zip(_LINE_XS, trajs)], axis=1)

    forms = {"half-form": lambda tr: line_half_form(tr, (1.0, 0.0)),
             "principal": lambda tr: line_half_form(
                 dataclasses.replace(tr, theta_a=np.angle(np.exp(1j * tr.theta_a))), (1.0, 0.0)),
             "none": lambda tr: 1.0}
    misses, ratios = {}, {}
    for k in (400, 800, 1600):
        got = _evolved_line_state(sym, k, ys)
        ratios[k] = {form: got / predicted(k, half) for form, half in forms.items()}
        misses[k] = np.stack([np.abs(np.abs(ratios[k]["half-form"]) - 1.0),
                              np.abs(np.angle(ratios[k]["half-form"]))])
    assert np.all(misses[1600] <= 0.6 * misses[800])
    assert np.all(misses[800] < misses[400])
    assert np.max(misses[1600]) <= 1e-2
    if t_flip is not None:
        flipped = ratios[1600]["principal"][list(_LINE_TS).index(t_flip)]
        assert np.all(np.abs(np.angle(flipped)) > 3.0)
    bare = ratios[1600]["none"][list(_LINE_TS).index(t_no_half), 1]
    assert abs(abs(bare) - 1.0) >= 0.2
