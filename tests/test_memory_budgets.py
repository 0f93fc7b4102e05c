"""Memory budgets of the exact side, measured with tracemalloc (numpy
reports its buffers to it).

A one-diagonal operator is its own eigendecomposition and allocates O(k);
graph_compare contracts its time rows in fixed-size chunks, so its peak
does not grow with the grid.
"""

import tracemalloc

import numpy as np

from torusprop.propkern import graph_compare, operator_for
from torusprop.thetaq import quantum_space
from torusprop.torusgeo import model_cos_symbol


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
