"""Oracles that need no asymptotics, on seeded random symbols.

One fixed draw from ``np.random.default_rng(2026)`` of 24 symbols, each a sum
of 1-5 modes a cos(2 pi (m p + n q) + phi) with (m, n) in {-2..2}^2 \\ {(0, 0)},
a normal and phi uniform on [0, 2 pi), and a point x uniform on [0, 1)^2.
Every draw must pass every oracle: the exact propagator against a dense
``eigh``, the operator's Hermiticity, the spectral-sum projector against
its time quadrature, and det M = 1 and H conserved along the flow.
"""

from functools import lru_cache

import numpy as np
import pytest

from test_propkern import assert_close_to_oracle, dense_kernel
from torusprop.propkern import graph_compare, operator_for
from torusprop.specproj import (
    build_fourier_pair,
    projector_kernel_exact,
    projector_kernel_timequad,
)
from torusprop.thetaq import quantum_space
from torusprop.torusgeo import integrate_flow, make_symbol

TWO_PI = 2.0 * np.pi
TGRID = np.linspace(0.0, 1.0, 21)


def _draw(n_draws: int = 24, seed: int = 2026) -> list:
    """(modes, x) per draw, modes a tuple of (m, n, a, phi).  Per draw: the
    mode count; per mode (m, n), redrawn while (0, 0), then a and phi; then x."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_draws):
        modes = []
        for _ in range(int(rng.integers(1, 6))):
            m, n = 0, 0
            while (m, n) == (0, 0):
                m, n = (int(v) for v in rng.integers(-2, 3, size=2))
            modes.append((m, n, float(rng.normal()), float(rng.uniform(0.0, TWO_PI))))
        draws.append((tuple(modes), tuple(float(v) for v in rng.uniform(0.0, 1.0, size=2))))
    return draws


DRAWS = _draw()
IDS = [f"draw-{i:02d}" for i in range(len(DRAWS))]


@lru_cache(maxsize=None)
def _symbol(i: int):
    modes = DRAWS[i][0]

    def principal(p, q):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        return sum(a * np.cos(TWO_PI * (m * p + n * q) + phi) for m, n, a, phi in modes)

    return make_symbol(f"random-{i}", principal)


@pytest.mark.parametrize("i", range(len(DRAWS)), ids=IDS)
def test_propagator_matches_the_dense_eigh_oracle(i):
    # worst draw 2.9e-14 of max |K|
    k, x = 40, DRAWS[i][1]
    qs = quantum_space(k)
    rows = graph_compare(_symbol(i), x, TGRID, [k])
    vals, vecs = np.linalg.eigh(operator_for(qs, _symbol(i)).dense())
    want = dense_kernel(qs, vecs, np.exp(-1j * k * np.outer(TGRID, vals)), [r.y for r in rows], x)
    assert_close_to_oracle(np.array([r.exact for r in rows]), want)


@pytest.mark.parametrize("i", range(len(DRAWS)), ids=IDS)
def test_operator_is_hermitian(i):
    # worst draw 1.1e-15
    assert operator_for(quantum_space(40), _symbol(i)).hermiticity_defect <= 1e-12


@pytest.mark.parametrize("i", range(len(DRAWS)), ids=IDS)
def test_projector_spectral_sum_matches_its_time_quadrature(i):
    # A10's two routes on the diagonal at x (worst draw 2.1e-15; A10's bound is 1e-6)
    sym, x = _symbol(i), DRAWS[i][1]
    op = operator_for(quantum_space(30), sym)
    pair = build_fourier_pair("bump", 3.0)
    energy = float(sym.principal(*x))
    exact = projector_kernel_exact(op, pair, energy, x, x)
    timequad = projector_kernel_timequad(op, pair, energy, x, x)
    assert abs(exact - timequad) <= 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("i", range(len(DRAWS)), ids=IDS)
def test_flow_keeps_det_m_and_h(i):
    # worst draws: |det M - 1| 8.8e-11; H drift 9.2e-11 (1 + |E|), 92 % of
    # check_level's tolerance 1e-10 (1 + |E|)
    sym, x = _symbol(i), DRAWS[i][1]
    traj = integrate_flow(sym, x, TGRID)
    m = traj.jacobians
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.max(np.abs(det - 1.0)) <= 1e-9
    energy = float(sym.principal(*x))
    drift = sym.principal(traj.points[:, 0], traj.points[:, 1]) - energy
    assert np.max(np.abs(drift)) <= 1e-9 * (1.0 + abs(energy))
