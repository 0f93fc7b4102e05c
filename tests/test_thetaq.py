"""Quantum-space tests: basis sections, gauge, Gram, Toeplitz matrices.

The basis oracles are mpmath at high precision, two ways: the lattice sum
over n and mpmath.jtheta through the theta form of the module docstring;
the theta identities (period, quasi-period, value at 0, nome -> 0) are
checked on the basis through the same form.  The basis gauge is pinned by
a Cauchy-Riemann finite-difference check that the two rejected prefactor
variants fail; the Toeplitz oracle is the closed form
T(cos 2 pi q) = e^{-pi/(4k)} diag(cos(pi l / k)), exact because the
p-integral kills every off-diagonal entry and the q-integral is a complete
Gaussian.
"""

import itertools
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from torusprop.thetaq import (
    ConstructionError,
    EvaluationError,
    QuantumSpace,
    basis_matrix,
    bergman_diag,
    gram_matrix,
    quantum_space,
    sections,
    toeplitz_build,
)
from torusprop import thetaq
from torusprop.propkern import operator_for
from torusprop.torusgeo import make_symbol, model_cos_symbol

TWO_PI = 2.0 * np.pi


def pq(z) -> np.ndarray:
    """Complex z = p + i q as (p, q) points along the last axis, the form
    ``sections`` and ``bergman_diag`` take."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1)


def basis_value(qs, ell: int, z):
    """Psi_ell(z) from ``basis_matrix`` as (log modulus, unit phase)."""
    val = basis_matrix(qs, z)
    return val.log_scale[ell], val.mantissa[ell]


def assert_log_close(value, log_ref, phase_ref, tol=1e-10):
    log_val, phase = value
    assert abs(float(log_val) - log_ref) <= tol * (1.0 + abs(log_ref))
    assert abs(complex(phase) - phase_ref) <= tol


# ---------------------------------------------------------------------------
# basis sections: the theta form
# ---------------------------------------------------------------------------


def mp_theta_form(k: int, ell: int, z: complex) -> tuple[float, complex]:
    """Psi_ell(z) = (k^{1/4} / sqrt(2 pi)) e^{2 pi i ell z} e^{-pi ell^2/(2k)}
    theta_3(pi (2 k z + i ell), e^{-2 pi k}) via mpmath.jtheta, as
    (log modulus, unit phase)."""
    with mpmath.workdps(60):
        zc = mpmath.mpc(z.real, z.imag)
        val = (mpmath.mpf(k) ** mpmath.mpf(0.25) / mpmath.sqrt(2 * mpmath.pi)
               * mpmath.e ** (2j * mpmath.pi * ell * zc - mpmath.pi * ell * ell / (2 * k))
               * mpmath.jtheta(3, mpmath.pi * (2 * k * zc + 1j * ell),
                               mpmath.e ** (-2 * mpmath.pi * k)))
        mag = mpmath.fabs(val)
        return float(mpmath.log(mag)), complex(val / mag)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_theta3_matches_mpmath(k):
    qs = quantum_space(k)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    vals = basis_matrix(qs, z)
    for ell in sorted({0, 1, k, 2 * k - 1}):
        for j, zj in enumerate(z):
            log_ref, phase_ref = mp_theta_form(k, ell, zj)
            assert_log_close((vals.log_scale[ell, j], vals.mantissa[ell, j]),
                             log_ref, phase_ref)


def test_theta3_large_imaginary_part_stays_scaled():
    # theta_3 at w = 3 + 100 i and nome e^{-2 pi} (k = 1, ell = 0): the
    # dominant term alone is e^{~1600}; only the (mantissa, log) split
    # survives, and it must agree with the arbitrary-precision value
    z = complex(3.0, 100.0) / TWO_PI
    log_ref, phase_ref = mp_theta_form(1, 0, z)
    assert log_ref > 1000.0
    assert_log_close(basis_value(quantum_space(1), 0, z), log_ref, phase_ref)


def test_theta3_at_zero_frozen_value():
    # Psi_0(0) at k = 1 is theta_3(0, e^{-2 pi}) / sqrt(2 pi), with
    # theta_3(0, e^{-2 pi}) = 1 + 2 e^{-2 pi} + 2 e^{-8 pi} + ...
    log_val, phase = basis_value(quantum_space(1), 0, 0.0)
    val = complex(phase * np.exp(log_val)) * np.sqrt(TWO_PI)
    assert val == pytest.approx(1.0037348854877391, rel=1e-12)


def test_theta3_nome_to_zero_limit_is_one():
    # at k = 400 the nome e^{-800 pi} underflows: Psi_0 at q = 0.1 is
    # k^{1/4} / sqrt(2 pi) theta_3(800 pi z, e^{-800 pi}), and theta_3 is 1
    log_val, phase = basis_value(quantum_space(400), 0, 0.37 + 0.1j)
    val = complex(phase * np.exp(log_val)) * np.sqrt(TWO_PI) / 400 ** 0.25
    assert val == pytest.approx(1.0, abs=1e-14)


def test_theta3_period_pi():
    # theta_3(w + pi) = theta_3(w) is Psi_ell(z + 1/(2k)) = e^{i pi ell / k} Psi_ell(z)
    qs = quantum_space(5)
    rng = np.random.default_rng(3)
    z = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5)
    a = basis_matrix(qs, z)
    b = basis_matrix(qs, z + 1.0 / (2 * qs.k))
    twist = np.exp(1j * np.pi * np.arange(qs.dim) / qs.k)[:, None]
    assert np.max(np.abs(b.mantissa - twist * a.mantissa)) <= 1e-12
    assert np.max(np.abs(a.log_scale - b.log_scale)) <= 1e-12


def test_theta3_quasi_period():
    # the theta quasi-period is the lattice multiplier
    # Psi_ell(z + i) = e^{2 pi k (1 - 2 i z)} Psi_ell(z)
    qs = quantum_space(5)
    k = qs.k
    rng = np.random.default_rng(11)
    z = rng.uniform(-3, 3, 6) + 1j * rng.uniform(-2, 2, 6)
    lhs = basis_matrix(qs, z + 1j)
    rhs = basis_matrix(qs, z)
    want_log = rhs.log_scale + TWO_PI * k * (1.0 + 2.0 * z.imag)
    assert np.max(np.abs(lhs.log_scale - want_log) / (1.0 + np.abs(want_log))) <= 1e-10
    assert np.max(np.abs(lhs.mantissa - np.exp(-4j * np.pi * k * z.real) * rhs.mantissa)) <= 1e-10


def test_theta3_vectorized_matches_scalar():
    qs = quantum_space(3)
    w = np.array([[0.1 + 0.2j, -1.0 + 3.0j], [2.5 - 0.7j, 0.0 + 0.0j]])
    vec = basis_matrix(qs, w)
    assert vec.mantissa.shape == vec.log_scale.shape == (qs.dim, 2, 2)
    for idx in np.ndindex(w.shape):
        one = basis_matrix(qs, w[idx])
        assert one.mantissa.shape == (qs.dim,)
        assert np.max(np.abs(vec.mantissa[(slice(None),) + idx] - one.mantissa)) <= 1e-14
        assert np.max(np.abs(vec.log_scale[(slice(None),) + idx] - one.log_scale)) <= 1e-12


@dataclass(frozen=True)
class _Window(QuantumSpace):
    """A level-k space summing ``terms`` theta terms on either side of the
    centre term in place of the truncation rule's window."""

    terms: int = 1

    @property
    def theta_terms(self) -> int:
        return self.terms


# ---------------------------------------------------------------------------
# basis sections: the lattice sum
# ---------------------------------------------------------------------------


def mp_basis(k: int, ell: int, z: complex) -> tuple[float, complex]:
    """Independent high-precision evaluation of the basis section."""
    with mpmath.workdps(60):
        zc = mpmath.mpc(z.real, z.imag)
        total = mpmath.mpc(0)
        for n in range(-12, 13):
            m = ell + 2 * k * n
            total += mpmath.e ** (-mpmath.pi * m * m / (2 * k)
                                  + 2j * mpmath.pi * m * zc)
        total *= mpmath.mpf(k) ** mpmath.mpf(0.25) / mpmath.sqrt(2 * mpmath.pi)
        mag = mpmath.fabs(total)
        return float(mpmath.log(mag)), complex(total / mag)


@pytest.mark.parametrize("ell", [0, 3, 10, 19])
def test_basis_matches_lattice_sum_oracle(ell):
    qs = quantum_space(10)
    for z in (0.13 + 0.27j, 0.9 - 0.4j, -1.3 + 1.61j):
        log_ref, phase_ref = mp_basis(qs.k, ell, z)
        assert_log_close(basis_value(qs, ell, z), log_ref, phase_ref, tol=1e-11)


def test_basis_finite_at_top_level():
    qs = quantum_space(400)
    pts = np.array([0.0 + 0.0j, 0.5 + 0.5j, 0.25 + 0.999j, 0.7 - 1.3j, 0.1 + 2.0j])
    vals = basis_matrix(qs, pts)  # raises EvaluationError on overflow
    assert np.all(np.isfinite(vals.mantissa))
    assert np.all(np.isfinite(vals.log_scale))
    with pytest.raises(EvaluationError):
        basis_matrix(quantum_space(5), complex(np.nan, 0.1))


@pytest.mark.parametrize("k", [475, 1000])
def test_basis_mantissa_stays_unit_where_sections_are_subnormal(k):
    # past k = 451 some sections at (0.3, 0.1) are subnormal, and one is 0 at
    # k = 475: the mantissa is e^{i arg}, not the value over its modulus
    qs = quantum_space(k)
    vals = basis_matrix(qs, 0.3 + 0.1j)
    s = sections(qs, (0.3, 0.1))
    nonzero = s != 0
    assert np.any(np.abs(s) < np.finfo(float).tiny)
    assert np.all(vals.mantissa[~nonzero] == 0) and np.all(vals.log_scale[~nonzero] == -np.inf)
    assert np.max(np.abs(np.abs(vals.mantissa[nonzero]) - 1.0)) <= 2.3e-16
    turn = np.angle(vals.mantissa[nonzero] * np.exp(-1j * np.angle(s[nonzero])))
    assert np.max(np.abs(turn)) <= 1e-15


def _fd_dbar(eval_fn, z: complex, h: float = 1e-5) -> tuple[complex, float]:
    """Centered-difference dbar = (d/dp + i d/dq)/2 and a derivative scale."""
    fp = (eval_fn(z + h) - eval_fn(z - h)) / (2.0 * h)
    fq = (eval_fn(z + 1j * h) - eval_fn(z - 1j * h)) / (2.0 * h)
    return 0.5 * (fp + 1j * fq), max(abs(fp), abs(fq), abs(eval_fn(z)))


def test_basis_gauge_holomorphic_and_variants_are_not():
    # Cauchy-Riemann discriminator for the gauge adjudication recorded in
    # QuantumSpace.gauge_note: the implemented prefactor e^{2 pi i ell z} is
    # holomorphic; both rejected prefactor variants, built on the row with
    # that prefactor divided out, carry q-dependence in their phase and
    # fail decisively.
    qs = quantum_space(10)
    k, ell = qs.k, 7
    log_ref = float(basis_value(qs, ell, 0.3 + 0.4j)[0])

    def implemented(z):
        log_val, phase = basis_value(qs, ell, z)
        return complex(phase * np.exp(log_val - log_ref))

    def common(z):
        return implemented(z) * np.exp(-2j * np.pi * ell * z)

    def variant_displayed(z):
        # prefactor exp(2 i pi (ell + k Im z))
        return common(z) * np.exp(2j * np.pi * (ell + k * z.imag))

    def variant_q(z):
        # prefactor exp(2 i pi q (ell + k Im z))
        return common(z) * np.exp(2j * np.pi * z.imag * (ell + k * z.imag))

    for z0 in (0.3 + 0.4j, 0.72 + 0.11j, -0.2 + 0.9j):
        dbar, scale = _fd_dbar(implemented, z0)
        assert abs(dbar) <= 1e-4 * scale
        for variant in (variant_displayed, variant_q):
            dbar_v, scale_v = _fd_dbar(variant, z0)
            assert abs(dbar_v) > 0.02 * scale_v


def test_basis_section_norm_is_lattice_periodic():
    # |Psi_ell|^2 x weight is a function on the torus even though Psi_ell is
    # only quasi-periodic
    qs = quantum_space(12)
    rng = np.random.default_rng(5)
    for ell in (0, 5, 23):
        z = complex(rng.uniform(0, 1), rng.uniform(0, 1))
        base = 2.0 * float(basis_value(qs, ell, z)[0]) - 4.0 * np.pi * qs.k * z.imag ** 2
        for shift in (1.0, 1j, 1.0 + 1j, -2j):
            zs = z + shift
            moved = 2.0 * float(basis_value(qs, ell, zs)[0]) - 4.0 * np.pi * qs.k * zs.imag ** 2
            assert abs(moved - base) <= 1e-10 * (1.0 + abs(base))


# ---------------------------------------------------------------------------
# weight-folded sections
# ---------------------------------------------------------------------------

LIFTED = (0.13 + 0.27j, 0.9 - 0.4j, -1.3 + 1.61j, 0.41 - 0.6j, 2.7 + 2.3j)


@pytest.mark.parametrize("k", [1, 10])
def test_sections_match_lattice_sum_oracle(k):
    qs = quantum_space(k)
    z = np.array(LIFTED)
    vals = sections(qs, pq(z))
    assert vals.shape == (qs.dim, z.size)
    for ell in range(qs.dim):
        for j, zj in enumerate(LIFTED):
            log_ref, phase_ref = mp_basis(k, ell, zj)
            ref = np.exp(log_ref - TWO_PI * k * zj.imag ** 2) * phase_ref
            assert abs(vals[ell, j] - ref) <= 1e-11 * abs(ref)


def test_sections_match_lattice_sum_oracle_at_top_level():
    qs = quantum_space(400)
    z = np.array([0.3 + 0.1j, 0.7 - 1.3j, 0.2 + 2.0j, 0.55 + 0.999j, -0.4 - 0.6j])
    rows = [0, 1, 399, 400, 799]
    ref = np.empty((len(rows), z.size), dtype=complex)
    for i, ell in enumerate(rows):
        for j, zj in enumerate(z):
            log_ref, phase_ref = mp_basis(qs.k, ell, zj)
            ref[i, j] = np.exp(log_ref - TWO_PI * qs.k * zj.imag ** 2) * phase_ref
    vals = sections(qs, pq(z))
    assert np.max(np.abs(vals[rows] - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_sections_lattice_multipliers():
    qs = quantum_space(7)
    rng = np.random.default_rng(23)
    z = rng.uniform(-1, 2, 6) + 1j * rng.uniform(-1, 2, 6)
    base = sections(qs, pq(z))
    scale = np.max(np.abs(base))
    assert np.max(np.abs(sections(qs, pq(z + 1.0)) - base)) <= 1e-12 * scale
    shifted = np.exp(-4j * np.pi * qs.k * z.real) * base
    assert np.max(np.abs(sections(qs, pq(z + 1j)) - shifted)) <= 1e-12 * scale


def test_sections_blocks_match_pointwise():
    qs = quantum_space(400)
    per_block = thetaq._BLOCK_PAIRS // qs.dim
    rng = np.random.default_rng(29)
    n = 2 * per_block + 3
    z = rng.uniform(0, 1, n) + 1j * rng.uniform(-1, 2, n)
    whole = sections(qs, pq(z))
    pointwise = np.stack([sections(qs, pq(zj)) for zj in z], axis=1)
    assert np.max(np.abs(whole - pointwise)) <= 1e-14 * np.max(np.abs(pointwise))


def test_sections_contracts():
    qs = quantum_space(5)
    assert sections(qs, (0.1, 0.2)).shape == (qs.dim,)
    # one (p, q) pair is one point, not two complex ones
    assert np.array_equal(sections(qs, (0.3, 0.1)), sections(qs, [[0.3, 0.1]])[:, 0])
    assert sections(qs, np.zeros((2, 3, 2))).shape == (qs.dim, 2, 3)
    with pytest.raises(EvaluationError):
        sections(qs, (np.nan, 0.1))


def test_sections_stay_finite_beyond_log_form_range():
    # no exponent bookkeeping: the Bergman diagonal is k / 2 pi at k = 5000
    qs = QuantumSpace(k=5000)
    assert bergman_diag(qs, (0.37, 0.81)) == pytest.approx(5000 / TWO_PI, rel=1e-12)


def _lifted_points(k: int, n: int) -> np.ndarray:
    """n random points lifted up to 3 cells away, and the worst-centred
    point q = 1/2, where row 0's centre term has argument |x| = k."""
    rng = np.random.default_rng(41 + k)
    z = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    return np.append(z, 0.3 + 0.5j)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 50, 400])
def test_theta_window_drops_no_bit(k):
    # three more terms on either side change no bit of any section: the
    # first omitted term sits at most 2^-60 below the centre term
    qs = QuantumSpace(k)
    z = pq(_lifted_points(k, 2000 if k < 100 else 300))
    assert np.array_equal(sections(qs, z), sections(_Window(k, qs.theta_terms + 3), z))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 50, 400])
def test_theta_window_one_narrower_changes_bits(k):
    # the rule's window is the smallest one that drops no bit: one term
    # fewer on either side changes some section at these points
    qs = QuantumSpace(k)
    z = pq(_lifted_points(k, 2000 if k < 100 else 300))
    assert not np.array_equal(sections(_Window(k, qs.theta_terms - 1), z), sections(qs, z))


def test_sections_unfolded_are_holomorphic():
    # Cauchy-Riemann discriminator on the weight-folded route: undoing the
    # fold gives a holomorphic section, the folded values are not
    qs = quantum_space(10)
    k, ell = qs.k, 7

    def folded(z):
        return complex(sections(qs, pq(z))[ell])

    def unfolded(z):
        return folded(z) * np.exp(TWO_PI * k * z.imag ** 2)

    for z0 in (0.3 + 0.4j, 0.72 + 0.11j, -0.2 + 0.9j):
        dbar, scale = _fd_dbar(unfolded, z0)
        assert abs(dbar) <= 1e-4 * scale
        dbar_f, scale_f = _fd_dbar(folded, z0)
        assert abs(dbar_f) > 0.02 * scale_f


# ---------------------------------------------------------------------------
# space construction and Gram
# ---------------------------------------------------------------------------


def test_quantum_space_guards():
    with pytest.raises(ValueError):
        quantum_space(0)
    with pytest.raises(ValueError):
        quantum_space(2.5)  # type: ignore[arg-type]


@pytest.mark.parametrize("k", [0, -3, 2.5])
def test_quantum_space_refuses_a_k_it_cannot_hold(k):
    # refused at construction, before the theta window's rule (which never
    # ends at k <= 0) or the rows' range is read
    with pytest.raises(ValueError, match="integer >= 1"):
        QuantumSpace(k)  # type: ignore[arg-type]


def test_building_a_space_runs_no_quadrature(monkeypatch):
    def refuse(*args):
        raise AssertionError("a space build ran the Gram quadrature")

    monkeypatch.setattr(thetaq, "_gram_quadrature", refuse)
    for k in range(1, 51):
        assert quantum_space(k) == QuantumSpace(k)
    assert type(quantum_space(np.int64(7)).k) is int


def test_gauge_note_records_adjudication():
    qs = quantum_space(5)
    assert "exp(-4*pi*k*q^2)" in qs.gauge_note
    assert "Rejected" in qs.gauge_note
    assert "exp(2*i*pi*(ell + k Im z))" in qs.gauge_note
    assert "exp(2*i*pi*q*(ell + k Im z))" in qs.gauge_note


def test_rejected_weight_candidate_fails_the_gram_identity():
    # the rejected weight e^{-2 pi k q^2}: |Psi|^2 times it is |s|^2 e^{2 pi k q^2}
    # for the weight-folded sections s, so each node's factor is e^{pi k q^2}
    # (7.9e24 off the identity at k = 10, against 1.2e-15 for the true weight)
    qs = quantum_space(10)
    nodes, wts = thetaq._quad_nodes(qs.quad_order)
    s = sections(qs, nodes) * np.sqrt(4.0 * np.pi * wts) * np.exp(np.pi * qs.k * nodes[:, 1] ** 2)
    assert np.max(np.abs(np.conjugate(s) @ s.T - np.eye(qs.dim))) > 1e-8


@pytest.mark.parametrize("k", range(1, 51))
def test_gram_is_identity(k):
    qs = quantum_space(k)
    gram = gram_matrix(qs)
    assert np.max(np.abs(gram - np.eye(qs.dim))) <= 1e-8
    diag = np.diagonal(gram)
    assert np.max(np.abs(diag.imag)) <= 1e-12
    assert np.all(diag.real > 0.9)


def test_blocked_gram_matches_one_product():
    # at k = 20 the 2304 quadrature nodes span 16 blocks of up to 150
    # (6000 pairs over 2k = 40 rows, above the 2k/4 floor)
    qs = quantum_space(20)
    nodes, wts = thetaq._quad_nodes(qs.quad_order)
    assert len(nodes) > thetaq._BLOCK_PAIRS // qs.dim
    s = sections(qs, nodes) * np.sqrt(4.0 * np.pi * wts)
    assert np.max(np.abs(gram_matrix(qs) - np.conjugate(s) @ s.T)) <= 1e-14


def test_gram_node_rule_values():
    # smallest multiple of 16, at least 32, with N^2 >= 60 k
    assert {k: quantum_space(k).quad_order for k in (1, 5, 10, 20, 50, 100, 400)} == {
        1: 32, 5: 32, 10: 32, 20: 48, 50: 64, 100: 80, 400: 160}


def test_theta_window_rule_values():
    # smallest R >= 1 with 2 pi k R (R+1) >= 60 ln 2
    assert {k: QuantumSpace(k).theta_terms for k in (1, 2, 3, 4, 5, 6, 50, 400, 5000)} == {
        1: 3, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1, 50: 1, 400: 1, 5000: 1}


def doubling_drift(qs) -> float:
    """How far the Gram matrix moves when the quadrature nodes double."""
    doubled = thetaq._gram_quadrature(qs, 2 * qs.quad_order)
    return float(np.max(np.abs(doubled - gram_matrix(qs))))


@pytest.mark.parametrize("k", [5, 10, 20, 50, 100])
def test_gram_node_rule_matches_the_linear_grid(k):
    # the aliasing bound e^{-pi N^2/(4k)} is far below roundoff, so the
    # sqrt(k) grid agrees with the old 64 * ceil(k/25) nodes per axis
    qs = quantum_space(k)
    old = thetaq._gram_quadrature(qs, 64 * int(np.ceil(k / 25)))
    assert np.max(np.abs(gram_matrix(qs) - old)) <= 5e-14
    assert doubling_drift(qs) <= 1e-9


def test_gram_verified_against_doubling():
    qs = quantum_space(6)
    doubled = thetaq._gram_quadrature(qs, 2 * qs.quad_order)
    assert np.max(np.abs(doubled - gram_matrix(qs))) <= 1e-9
    assert np.max(np.abs(doubled - np.eye(qs.dim))) <= 1e-8


def test_gram_unresolved_quadrature_drifts_under_doubling():
    qs = quantum_space(10)
    coarse = thetaq._gram_quadrature(qs, 12)
    assert np.max(np.abs(thetaq._gram_quadrature(qs, 24) - coarse)) > 1e-9


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_model_operator_analytic_eigendata():
    qs = quantum_space(8)
    op = operator_for(qs, model_cos_symbol())
    ell = np.arange(qs.dim)
    assert np.allclose(op.eigenvalues, np.cos(np.pi * ell / qs.k))
    # one diagonal, so the eigenbasis is exactly the standard basis
    assert op.diagonals.keys() == {0}
    assert op.eigenvectors is None
    assert np.array_equal(op.to_eigenbasis(np.eye(qs.dim)), np.eye(qs.dim))


def test_toeplitz_of_model_symbol_matches_closed_form():
    # p-integration is exactly diagonal; the q-integral is a full Gaussian:
    # T(cos 2 pi q) = e^{-pi/(4k)} diag(cos(pi ell / k)), the model-cos
    # principal part without its subprincipal part
    qs = quantum_space(20)
    op = toeplitz_build(qs, _cos_q_symbol())
    ell = np.arange(qs.dim)
    expected = np.exp(-np.pi / (4 * qs.k)) * np.cos(np.pi * ell / qs.k)
    assert np.max(np.abs(op.dense() - np.diag(expected))) <= 1e-10
    assert op.hermiticity_defect <= 1e-9
    # the coarser contracts: diagonal within O(1/k) of cos(pi ell/k), tiny
    # off-diagonal part
    assert np.max(np.abs(np.diagonal(op.dense()) - np.cos(np.pi * ell / qs.k))) <= 0.05
    off = op.dense() - np.diag(np.diagonal(op.dense()))
    assert np.max(np.abs(off)) <= 1e-6


def test_toeplitz_of_constant_is_identity():
    qs = quantum_space(10)
    one = make_symbol("one", lambda p, q: np.ones(np.broadcast_shapes(
        np.shape(p), np.shape(q))))
    op = toeplitz_build(qs, one)
    assert np.max(np.abs(op.dense() - np.eye(qs.dim))) <= 1e-8


def _quadrature_toeplitz(qs, principal, subprincipal=None):
    """T_k(f + g/k) by quadrature against the weight-folded sections: the
    oracle for the closed-form build, fed the raw callables."""
    nodes, wts = thetaq._quad_nodes(qs.quad_order)
    s = sections(qs, nodes) * np.sqrt(4.0 * np.pi * wts)
    p, q = nodes.T
    vals = np.asarray(principal(p, q), dtype=float)
    if subprincipal is not None:
        vals = vals + np.asarray(subprincipal(p, q), dtype=float) / qs.k
    return np.conjugate(s) @ (vals[:, None] * s.T)


_ORACLE_SYMBOLS = {
    "cos-q-sin-p": (lambda p, q: np.cos(TWO_PI * q) + 0.1 * np.sin(TWO_PI * p), None),
    "exp-cos-sin": (lambda p, q: np.exp(np.cos(TWO_PI * q)) * np.sin(TWO_PI * p)
                    + 0.3 * np.cos(2.0 * TWO_PI * (p + q)), None),
    "with-subprincipal": (lambda p, q: np.cos(TWO_PI * q) + 0.3 * np.cos(TWO_PI * p),
                          lambda p, q: np.sin(TWO_PI * q) * np.cos(TWO_PI * p) + 0.2),
}


@pytest.mark.parametrize("k", [5, 20, 50])
@pytest.mark.parametrize("name", sorted(_ORACLE_SYMBOLS))
def test_closed_form_toeplitz_matches_quadrature(name, k):
    principal, sub = _ORACLE_SYMBOLS[name]
    qs = quantum_space(k)
    op = toeplitz_build(qs, make_symbol(name, principal, subprincipal=sub))
    assert np.max(np.abs(op.dense() - _quadrature_toeplitz(qs, principal, sub))) <= 1e-12
    assert op.hermiticity_defect <= 1e-12


_COVARIANT_MODES = ((1, 0), (0, 1), (1, 1), (2, -1), (3, 2))
# four points in the unit cell and two lifted ones
_COVARIANT_POINTS = np.array([0.3 + 0.1j, 0.71 + 0.55j, 0.05 + 0.93j, 0.48 + 0.37j,
                              1.3 - 0.4j, -2.7 + 3.2j])


def _covariant_symbol(qs, m: int, n: int) -> np.ndarray:
    """s(x)^T T_k(e_mn) conj(s(x)) / sum_l |s_l(x)|^2 at _COVARIANT_POINTS,
    T_k(e_mn) = T_k(cos) + i T_k(sin) of 2 pi (m p + n q), applied with
    ``apply`` (no eigendata, no dense matrix)."""
    phase = lambda p, q: TWO_PI * (m * np.asarray(p, dtype=float) + n * np.asarray(q, dtype=float))
    cos_op = toeplitz_build(qs, make_symbol("cos", lambda p, q: np.cos(phase(p, q))))
    sin_op = toeplitz_build(qs, make_symbol("sin", lambda p, q: np.sin(phase(p, q))))
    s = sections(qs, pq(_COVARIANT_POINTS))
    pair = lambda op: np.sum(s * op.apply(np.conjugate(s)), axis=0)
    return (pair(cos_op) + 1j * pair(sin_op)) / np.sum(np.abs(s) ** 2, axis=0)


@pytest.mark.parametrize("k", [20, 37, 80, 200, 400, 1000, 5000])
def test_covariant_symbol_of_a_toeplitz_mode_is_the_doubly_damped_mode(k):
    # the Berezin transform of T_k(e_mn) is e^{-pi (m^2 + n^2) / (2k)} e_mn:
    # toeplitz_build's damping e^{-pi (m^2 + n^2) / (4k)} twice.  With that
    # single damping in its place the identity misses by about
    # pi (m^2 + n^2) / (4k) at large k, so it pins the damping and with it
    # make_symbol's Delta f / (16 pi).  Rounding grows with the lift of the
    # point
    qs = quantum_space(k)
    z = _COVARIANT_POINTS
    for m, n in _COVARIANT_MODES:
        got = _covariant_symbol(qs, m, n)
        mode = np.exp(2j * np.pi * (m * z.real + n * z.imag))
        a = np.pi * (m * m + n * n) / (4.0 * k)
        assert np.all(np.abs(got - np.exp(-2.0 * a) * mode) <= 1e-14 * (1.0 + np.abs(z) ** 2))
        assert np.all(np.abs(got - np.exp(-a) * mode) >= 0.5 * (np.exp(-a) - np.exp(-2.0 * a)))


def _bergman_pairs(k: int) -> list:
    """Pairs (y, x) within about 0.6 / sqrt(k) of each other modulo Z^2:
    near pairs in the unit cell, pairs that wind across a cell edge once y
    is reduced to the cell, and pairs whose points are lifted by up to 2."""
    rng = np.random.default_rng(23 + k)
    out = []
    for case in range(9):
        x = rng.random(2)
        y = x + rng.normal(size=2) * 0.42 / np.sqrt(k)
        if case % 3 == 1:
            x = np.array([0.995, rng.random()]) if case < 6 else np.array([rng.random(), 0.005])
            y = x + (0.6 / np.sqrt(k)) * np.array([1.0, 0.3] if case < 6 else [0.3, -1.0])
            y -= np.floor(y)
        elif case % 3 == 2:
            x, y = x + rng.integers(-2, 3, size=2), y + rng.integers(-2, 3, size=2)
        out.append((y, x))
    return out


def _bergman_lattice_sum(k: int, y, x, lattice_sign: float = 1.0) -> complex:
    """(k / 2 pi) sum_w e^{-pi k |y + w - x|^2} e^{2 pi i k [(p_x (q_y + w_q)
    - q_x (p_y + w_p)) - (w_p q_y - w_q p_y)]}, w over a 13 x 13 block of
    Z^2 centred on the nearest image, far past e^{-pi k |w|^2}'s last
    significant term at k = 1."""
    centre = np.round(x - y)
    w = centre + np.stack(np.meshgrid(np.arange(-6, 7), np.arange(-6, 7)), -1).reshape(-1, 2)
    d = y + w - x
    phase = (x[0] * (y[1] + w[:, 1]) - x[1] * (y[0] + w[:, 0])
             - lattice_sign * (w[:, 0] * y[1] - w[:, 1] * y[0]))
    return k / TWO_PI * np.sum(np.exp(-np.pi * k * np.sum(d * d, axis=1) + 2j * np.pi * k * phase))


@pytest.mark.parametrize("k", [1, 2, 3, 10, 50, 137, 400, 1000, 5000])
def test_bergman_kernel_is_the_gauged_gaussian_lattice_sum(k):
    # sum_l s_l(y) conj(s_l(x)) in the unit gauge e^{2 pi i k (p_y q_y -
    # p_x q_x)} is the straight-segment transport of alpha times the lattice
    # gauge factor, summed over the images y + w: no eigh, no quadrature.
    # Rounding grows like k (1 + |x|^2 + |y|^2), the gauge's phase (seen
    # within 4e-16 of that over k / 2 pi); a sign flip in either gauge
    # phase misses by orders more
    qs = quantum_space(k)
    for y, x in _bergman_pairs(k):
        s = sections(qs, np.array([y, x]))
        bergman = s[:, 0] @ np.conjugate(s[:, 1])
        unit = np.exp(2j * np.pi * k * (y[0] * y[1] - x[0] * x[1]))
        want = _bergman_lattice_sum(k, y, x)
        tol = 2e-15 * k * (1.0 + x @ x + y @ y) * k / TWO_PI
        assert abs(bergman * unit - want) <= tol, (k, y, x)
        assert abs(bergman / unit - want) >= 1e3 * tol, (k, y, x)
        if np.any(np.round(x - y)):
            assert abs(bergman * unit - _bergman_lattice_sum(k, y, x, -1.0)) >= 1e3 * tol, (k, y, x)


def test_toeplitz_at_k400_is_hermitian_within_symbol_range():
    # T_k(f) is the compression of multiplication by f, so its spectrum lies
    # in [min f, max f] = [-1.1, 1.1]
    sym = make_symbol("cos-q-sin-p", _ORACLE_SYMBOLS["cos-q-sin-p"][0])
    op = toeplitz_build(quantum_space(400), sym)
    assert op.hermiticity_defect <= 1e-12
    assert np.array_equal(op.dense(), op.dense().conj().T)
    assert op.eigenvalues.min() >= -1.1 - 1e-12
    assert op.eigenvalues.max() <= 1.1 + 1e-12


def test_eigendata_of_a_non_diagonal_operator_stops_at_k_400(monkeypatch):
    # the one size limit: above k = 400 a non-diagonal operator's eigendata is
    # refused before a dense matrix or eigh is reached, on every read; apply
    # needs neither, and a one-diagonal operator is its own eigendata at any k
    def refuse(*args):
        raise AssertionError("a dense matrix or eigh was reached")

    monkeypatch.setattr(thetaq.HermitianOperator, "dense", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    qs = quantum_space(401)
    op = toeplitz_build(qs, make_symbol("cos-q-sin-p", _ORACLE_SYMBOLS["cos-q-sin-p"][0]))
    for read in ("eigenvalues", "eigenvectors", "eigenvalues"):
        with pytest.raises(ConstructionError, match="up to k = 400, not k = 401"):
            getattr(op, read)
    v = np.random.default_rng(5).normal(size=qs.dim) + 0j
    want = sum(d * np.roll(v, s) for s, d in op.diagonals.items())
    assert np.max(np.abs(op.apply(v) - want)) <= 1e-14 * np.max(np.abs(want))
    model = operator_for(quantum_space(5000), model_cos_symbol())
    assert model.diagonals.keys() == {0} and model.eigenvectors is None
    assert np.array_equal(model.eigenvalues, model.diagonals[0].real)


def _cos_q_symbol():
    return make_symbol("cos2piq", lambda p, q: np.cos(TWO_PI * np.asarray(q, dtype=float))
                       + 0.0 * np.asarray(p, dtype=float))


def test_operator_apply_matches_dense():
    rng = np.random.default_rng(3)
    qs = quantum_space(20)
    principal, sub = _ORACLE_SYMBOLS["with-subprincipal"]
    op = toeplitz_build(qs, make_symbol("with-subprincipal", principal, subprincipal=sub))
    assert len(op.diagonals) < qs.dim
    # and an operator with every shift, whose band is 2k wide
    a = rng.normal(size=(qs.dim, qs.dim)) + 1j * rng.normal(size=(qs.dim, qs.dim))
    ell = np.arange(qs.dim)
    full = thetaq.HermitianOperator(space=qs, diagonals={s: (a + a.conj().T)[ell, (ell - s) % qs.dim]
                                                         for s in range(qs.dim)})
    for op, shape in itertools.product((op, full), ((qs.dim,), (qs.dim, 3))):
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = op.dense() @ v
        assert np.max(np.abs(op.apply(v) - want)) <= 1e-13 * np.max(np.abs(want))


def test_operator_holds_diagonals_not_a_matrix():
    # cos 2 pi q + 0.1 sin 2 pi p has modes at m = 0 and m = +-1 only
    qs = quantum_space(400)
    op = toeplitz_build(qs, make_symbol("cos-q-sin-p", _ORACLE_SYMBOLS["cos-q-sin-p"][0]))
    assert op.diagonals.keys() == {0, 1, qs.dim - 1}
    assert all(d.shape == (qs.dim,) for d in op.diagonals.values())
    assert not hasattr(op, "matrix")


def test_non_hermitian_diagonals_raise():
    k, dim = 5, 10
    with pytest.raises(ConstructionError):
        thetaq.HermitianOperator(space=QuantumSpace(k), diagonals={1: np.ones(dim)})  # no shift -1
    with pytest.raises(ConstructionError):
        thetaq.HermitianOperator(space=QuantumSpace(k), diagonals={0: 1j * np.ones(dim)})
    with pytest.raises(ConstructionError):
        thetaq.HermitianOperator(space=QuantumSpace(k),
                                 diagonals={1: np.ones(dim), dim - 1: 2.0 * np.ones(dim)})
    with pytest.raises(ValueError):
        thetaq.HermitianOperator(space=QuantumSpace(k), diagonals={dim: np.ones(dim)})


def test_wrong_eigendata_fails_the_residual_check(monkeypatch):
    qs = quantum_space(10)
    op = toeplitz_build(qs, make_symbol("cos-q-sin-p", _ORACLE_SYMBOLS["cos-q-sin-p"][0]))
    # the eigendata eigh returns passes again
    assert thetaq.HermitianOperator(space=qs, diagonals=op.diagonals).eigenvalues.size == qs.dim
    real_eigh = np.linalg.eigh
    # shifted eigenvalues, then eigenvectors paired with the wrong eigenvalues:
    # construction runs no eigh, so the first read of the eigendata raises
    for corrupt in (lambda vals, vecs: (vals + 1e-3, vecs),
                    lambda vals, vecs: (vals, np.roll(vecs, 1, axis=1))):
        monkeypatch.setattr(np.linalg, "eigh", lambda a, corrupt=corrupt: corrupt(*real_eigh(a)))
        bad = thetaq.HermitianOperator(space=qs, diagonals=op.diagonals)
        with pytest.raises(ConstructionError, match="residual"):
            bad.eigenvalues
        with pytest.raises(ConstructionError, match="residual"):
            bad.eigenvectors


@pytest.mark.parametrize("k", [5, 50, 400])
def test_symbol_of_q_alone_takes_the_diagonal_route(k):
    qs = quantum_space(k)
    op = toeplitz_build(qs, _cos_q_symbol())
    assert op.diagonals.keys() == {0}
    assert op.eigenvectors is None
    assert np.array_equal(op.eigenvalues, op.diagonals[0].real)
    assert np.all(op.diagonals[0].imag == 0.0)
    # the same spectrum as dense eigh, up to order
    assert np.max(np.abs(np.sort(op.eigenvalues) - np.linalg.eigvalsh(op.dense()))) <= 1e-14


def _cos_p_symbol():
    def principal(p, q):
        return np.cos(TWO_PI * np.asarray(p, dtype=float)) + 0.0 * np.asarray(
            q, dtype=float)

    return make_symbol("cos2pip", principal)


def _product_symbol():
    def principal(p, q):
        return (np.cos(TWO_PI * np.asarray(q, dtype=float))
                * np.cos(TWO_PI * np.asarray(p, dtype=float)))

    return make_symbol("cos-product", principal)


def _bracket_symbol():
    # X_f(g) for f = cos 2 pi q, g = cos 2 pi p with X = (-H_q, H_p)/(4 pi)
    def principal(p, q):
        return -np.pi * (np.sin(TWO_PI * np.asarray(p, dtype=float))
                         * np.sin(TWO_PI * np.asarray(q, dtype=float)))

    return make_symbol("poisson-bracket", principal)


def test_product_rule_error_decays_in_k():
    errs = {}
    for k in (10, 40):
        qs = quantum_space(k)
        tf = toeplitz_build(qs, _cos_q_symbol()).dense()
        tg = toeplitz_build(qs, _cos_p_symbol()).dense()
        tfg = toeplitz_build(qs, _product_symbol()).dense()
        errs[k] = float(np.linalg.norm(tf @ tg - tfg, 2))
    assert errs[40] <= 0.5 * errs[10]
    assert errs[40] <= 0.2


def test_commutator_tracks_poisson_bracket():
    # i k [T(f), T(g)] approaches one of +/- T({f, g}); the winning sign at
    # k = 10 must keep winning at k = 40 with a shrinking defect
    errs = {}
    for k in (10, 40):
        qs = quantum_space(k)
        tf = toeplitz_build(qs, _cos_q_symbol()).dense()
        tg = toeplitz_build(qs, _cos_p_symbol()).dense()
        tb = toeplitz_build(qs, _bracket_symbol()).dense()
        comm = 1j * k * (tf @ tg - tg @ tf)
        errs[k] = {s: float(np.linalg.norm(comm - s * tb, 2)) for s in (1, -1)}
    sign = min(errs[10], key=errs[10].get)
    bracket_norm = np.pi  # sup |pi sin sin|
    assert errs[10][sign] <= 0.25 * bracket_norm
    assert errs[10][-sign] >= 4.0 * errs[10][sign]
    assert errs[40][sign] <= 0.5 * errs[10][sign]


# ---------------------------------------------------------------------------
# Bergman diagonal
# ---------------------------------------------------------------------------


def test_bergman_diag_approaches_k_over_2pi():
    qs = quantum_space(100)
    val = bergman_diag(qs, (0.3, 0.1))
    assert val == pytest.approx(100.0 / TWO_PI, rel=1e-3)


def test_bergman_diag_positive_and_periodic():
    qs = quantum_space(10)
    rng = np.random.default_rng(17)
    for _ in range(4):
        z = complex(rng.uniform(0, 1), rng.uniform(0, 1))
        base = bergman_diag(qs, pq(z))
        assert base > 0.0
        for shift in (1.0, 1j, -1.0 + 1j):
            assert bergman_diag(qs, pq(z + shift)) == pytest.approx(base, rel=1e-10)
