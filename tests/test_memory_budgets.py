"""Memory budgets of the exact side, measured with tracemalloc (numpy
reports its buffers to it).

A one-diagonal operator is its own eigendecomposition and allocates O(k);
a multi-diagonal propagator steps O(k) vectors and forms no eigenbasis.
Every exact-side grid walks in blocks of one working-set budget,
thetaq._BLOCK_PAIRS (row, point) or (row, eigenvalue) pairs: the sections
of a Gram quadrature, graph_compare's time rows, the
Fourier pair's arguments and the time-quadrature projector's nodes.  So
each stage's peak stays near its output, and graph_compare's grows only
with its O(rows) records.  The return-time predictor holds one flow
sweep's dense output per side of t = 0.
"""

import tracemalloc

import numpy as np
import pytest

from torusprop import thetaq
from torusprop.propkern import graph_compare, operator_for
from torusprop.harness import symbol_from_selector
from torusprop.specproj import (
    build_fourier_pair,
    projector_kernel_asymptotic,
    projector_kernel_timequad,
)
from torusprop.thetaq import gram_matrix, quantum_space
from torusprop.torusgeo import make_symbol, model_cos_symbol

E0 = float(np.cos(2.0 * np.pi * 0.1))


def traced_peak(fn) -> int:
    """Peak traced bytes while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_model_operator_at_k400_stays_under_1mb():
    qs = quantum_space(400)
    sym = model_cos_symbol()
    assert traced_peak(lambda: operator_for(qs, sym)) < 1_000_000


def test_graph_compare_peak_does_not_grow_with_the_grid():
    qs = quantum_space(400)
    sym = model_cos_symbol()
    peaks = {n: traced_peak(lambda: graph_compare(sym, (0.3, 0.1), np.linspace(0.0, 1.0, n), [qs.k]))
             for n in (2001, 8001)}
    # the 6000 more rows add their trajectory and KernelSample records, about
    # 370 B each; a whole (rows x 2k) spectral matrix would add 77 MB
    assert peaks[8001] - peaks[2001] <= 2_500_000
    assert peaks[8001] < 4_000_000


def _stage(name):
    """A zero-argument call of one exact-side stage, its inputs built
    outside the traced region."""
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 7.0)
    if name == "gram_matrix-k50":
        qs = quantum_space(50)
        return lambda: gram_matrix(qs)
    if name == "graph_compare-k400-101-rows":
        qs = quantum_space(400)
        return lambda: graph_compare(sym, (0.3, 0.1), np.linspace(0.0, 1.0, 101), [qs.k])
    if name == "graph_compare-expr-k400-101-rows":
        # three diagonals: Chebyshev blocks of O(k) vectors, no 800 x 800 eigenbasis (10 MB)
        qs = quantum_space(400)
        expr = make_symbol("cos-q-sin-p", lambda p, q: np.cos(2.0 * np.pi * np.asarray(q, dtype=float))
                           + 0.1 * np.sin(2.0 * np.pi * np.asarray(p, dtype=float)))
        return lambda: graph_compare(expr, (0.3, 0.1), np.linspace(0.0, 1.0, 101), [qs.k])
    if name == "graph_compare-expr-k5-1001-rows":
        # below k = 87 a row is the 174 Chebyshev angles, not the 2k sections:
        # blocks sized from 2k = 10 alone held 600 rows, and their angle
        # arrays took 0.85 MB each
        qs = quantum_space(5)
        expr = symbol_from_selector("cos(2*pi*q)+0.1*sin(2*pi*p)")
        return lambda: graph_compare(expr, (0.3, 0.1), np.linspace(0.0, 1.0, 1001), [qs.k])
    if name == "f_eval-k400":
        # 800 arguments up to |u| ~ 720 on 2048 nodes; unblocked, the angle
        # and cosine arrays would take 13 MB
        u = 400 * (E0 - operator_for(quantum_space(400), sym).eigenvalues)
        return lambda: pair.f_eval(u)
    if name == "asymptotic-five-returns-bump7":
        # two full-state sweeps to -7 and +7, about 50 floats per step held
        five = symbol_from_selector("cos(2*pi*p)+cos(2*pi*q)+0.3*sin(2*pi*(p+q))")
        x = (0.3, 0.1)
        return lambda: projector_kernel_asymptotic(five, pair, float(five.principal(*x)), x, x)
    # 4095 nodes x 400 eigenvalues: the spectral matrix alone would take 26 MB
    qs = quantum_space(200)
    op = operator_for(qs, sym)
    return lambda: projector_kernel_timequad(op, pair, E0, (0.3, 0.1), (0.3, 0.1))


# each stage reads 0.4-0.9 MB; blocks of 2^15 or more pairs read 2.6-5.1 MB;
# the five-return predictor reads 0.86 MB; the k = 5 propagator reads 0.56 MB
# (1.19 MB with blocks sized from 2k alone)
STAGE_BUDGETS = {"gram_matrix-k50": 1_500_000,
                 "graph_compare-k400-101-rows": 1_500_000,
                 "graph_compare-expr-k400-101-rows": 1_500_000,
                 "graph_compare-expr-k5-1001-rows": 800_000, "f_eval-k400": 1_200_000,
                 "timequad-k200": 1_000_000, "asymptotic-five-returns-bump7": 1_300_000}


@pytest.mark.parametrize("name", STAGE_BUDGETS)
def test_stage_peak_stays_within_its_budget(name):
    fn = _stage(name)
    fn()  # lazy set-up (quadrature nodes) out of the traced call
    assert traced_peak(fn) < STAGE_BUDGETS[name]


def test_results_do_not_depend_on_the_budget(monkeypatch):
    # the budget moves only block boundaries: at 64 pairs, blocks of 1-5
    # columns give the default blocks' values up to rounding, and the
    # one-diagonal propagator walks its 31 rows one per block, not all in one
    sym = model_cos_symbol()
    qs = quantum_space(10)
    op_qs = quantum_space(20)
    op = operator_for(op_qs, sym)
    pair = build_fourier_pair("bump", 3.0)
    u = 20 * (E0 - op.eigenvalues)
    x = (0.3, 0.1)

    def results():
        return [gram_matrix(qs), pair.f_eval(u),
                np.array([projector_kernel_timequad(op, pair, E0, x, x)]),
                np.array([r.exact for r in graph_compare(sym, x, np.linspace(0.0, 1.0, 31), [op_qs.k])])]

    default = results()
    monkeypatch.setattr(thetaq, "_BLOCK_PAIRS", 64)
    for got, want in zip(results(), default):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
