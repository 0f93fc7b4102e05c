"""Memory budgets of the exact side, measured with tracemalloc (numpy
reports its buffers to it).

A one-diagonal operator is its own eigendecomposition and allocates O(k);
graph_compare contracts its time rows in fixed-size chunks, so its peak
does not grow with the grid.  The Fourier pair sums over blocks of
arguments, and the time-quadrature projector contracts its node rows in
chunks, so neither holds an arguments x nodes array.
"""

import tracemalloc

import numpy as np

from torusprop.propkern import graph_compare, operator_for
from torusprop.specproj import build_fourier_pair, projector_kernel_timequad
from torusprop.thetaq import quantum_space
from torusprop.torusgeo import model_cos_symbol

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
    peaks = {n: traced_peak(lambda: graph_compare(qs, sym, (0.3, 0.1), np.linspace(0.0, 1.0, n)))
             for n in (2001, 8001)}
    assert peaks[8001] <= 1.25 * peaks[2001]


def test_fourier_pair_at_k400_stays_under_8mb():
    # 800 arguments up to |u| ~ 720 on 2048 nodes; unblocked, the angle and
    # cosine arrays would take 13 MB
    op = operator_for(quantum_space(400), model_cos_symbol())
    pair = build_fourier_pair("bump", 7.0)
    u = 400 * (E0 - op.eigenvalues)
    assert traced_peak(lambda: pair.f_eval(u)) < 8_000_000


def test_timequad_projector_at_k200_stays_under_12mb():
    # 4095 nodes x 400 eigenvalues: the spectral matrix alone would take 26 MB
    qs = quantum_space(200)
    op = operator_for(qs, model_cos_symbol())
    pair = build_fourier_pair("bump", 7.0)
    x = (0.3, 0.1)
    assert traced_peak(lambda: projector_kernel_timequad(qs, op, pair, E0, x, x)) < 12_000_000
