"""Tests for linear-symplectomorphism bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from torusprop.acceptance import _uniform
from torusprop.symplin import (
    COMPLEX_STRUCTURE,
    SYMPLECTIC_GRAM,
    BranchContinuityError,
    LinearSymplectomorphism,
    StructureError,
    branch_sqrt_path,
    holomorphic_determinant,
    polar_determinant,
    random_symplectic,
)
from torusprop.symplin import _polar


def sp(matrix):
    return LinearSymplectomorphism(np.asarray(matrix, dtype=float))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_identity_is_accepted():
    g = sp(np.eye(2))
    assert g.matrix.shape == (2, 2)


@pytest.mark.parametrize("shape", [(4, 4), (3, 3), (2,), (5, 2, 3)])
def test_only_2x2_matrices_are_accepted(shape):
    with pytest.raises(StructureError, match="must be 2 x 2"):
        sp(np.ones(shape))


def test_non_symplectic_matrix_rejected():
    with pytest.raises(StructureError, match="not symplectic"):
        sp([[1.0, 0.0], [0.0, 2.0]])


def test_standard_structures_are_read_only():
    for built in (COMPLEX_STRUCTURE, SYMPLECTIC_GRAM):
        with pytest.raises(ValueError):
            built[0, 0] = 1.0


# ---------------------------------------------------------------------------
# holomorphic determinant: frozen closed-form values
# ---------------------------------------------------------------------------


def test_identity_block_is_one():
    assert holomorphic_determinant(sp(np.eye(2))) == pytest.approx(1.0 + 0.0j)


@pytest.mark.parametrize("s", [0.3, 1.0, -2.2])
def test_shear_block_value(s):
    det = holomorphic_determinant(sp([[1.0, s], [0.0, 1.0]]))
    assert det == pytest.approx(1.0 - 0.5j * s, abs=1e-14)


def test_diagonal_scaling_block_value():
    det = holomorphic_determinant(sp([[2.0, 0.0], [0.0, 0.5]]))
    assert det == pytest.approx(1.25 + 0.0j, abs=1e-14)


def test_rotation_block_is_unit_phase():
    th = 0.7
    rot = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    det = holomorphic_determinant(sp(rot))
    assert det == pytest.approx(np.exp(1j * th), abs=1e-14)


def test_block_composes_under_unitary_factor():
    # j-commuting factor on the left multiplies the block determinant.
    th = 0.4
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    shear = np.array([[1.0, 0.8], [0.0, 1.0]])
    lhs = holomorphic_determinant(sp(rot @ shear))
    rhs = holomorphic_determinant(sp(rot)) * holomorphic_determinant(sp(shear))
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_modulus_one_iff_commutes_with_j():
    uniform = np.random.default_rng(4021).random
    j0 = COMPLEX_STRUCTURE
    for _ in range(200):
        m = random_symplectic(uniform)
        g = sp(m)
        det = holomorphic_determinant(g)
        commutator = np.linalg.norm(m @ j0 - j0 @ m, np.inf)
        assert abs(det) >= 1.0 - 1e-9
        if commutator < 1e-12:
            assert abs(det) == pytest.approx(1.0, abs=1e-9)
        if abs(abs(det) - 1.0) < 1e-12:
            assert commutator < 1e-6


# ---------------------------------------------------------------------------
# polar decomposition
# ---------------------------------------------------------------------------


def test_polar_factors_reconstruct_and_classify():
    j0 = COMPLEX_STRUCTURE
    m = random_symplectic(np.random.default_rng(2024).random)
    g = sp(m)
    _, g1, g2 = _polar(g)
    assert np.allclose(g1.matrix @ g2.matrix, m, atol=1e-9)
    # unitary part commutes with j, positive part is symmetric w.r.t. it
    assert np.linalg.norm(g1.matrix @ j0 - j0 @ g1.matrix, np.inf) < 1e-9
    assert np.allclose(g2.matrix, g2.matrix.T, atol=1e-9)
    assert np.min(np.linalg.eigvalsh(0.5 * (g2.matrix + g2.matrix.T))) > 0.0


def test_polar_determinant_matches_block_determinant():
    uniform = np.random.default_rng(901).random
    for _ in range(50):
        g = sp(random_symplectic(uniform))
        d_block = holomorphic_determinant(g)
        d_polar = polar_determinant(g)
        assert abs(d_block - d_polar) <= 1e-9 * (1.0 + abs(d_block))


def test_polar_determinant_positive_factor_value():
    # diag(2, 1/2): singular pair (1/2, 2) -> (sigma + 1/sigma)/2 = 1.25,
    # unitary part is the identity.
    det = polar_determinant(sp([[2.0, 0.0], [0.0, 0.5]]))
    assert det == pytest.approx(1.25 + 0.0j, abs=1e-12)


def test_polar_determinant_diagonalizes_each_metric_square_once(monkeypatch):
    # one svd of each stack gives the metric square's eigenvalues and both
    # polar factors
    g = sp(random_symplectic(np.random.default_rng(11).random, size=5))
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    det = polar_determinant(g)
    assert det.shape == (5,)
    assert calls == [("svd", (5, 2, 2))]


# ---------------------------------------------------------------------------
# stacks (..., 2, 2)
# ---------------------------------------------------------------------------


def _mixed_batch(uniform):
    """Random draws next to closed-form members: the identity, a rotation, a
    large shear and a scaling, shaped (3, 8, 2, 2)."""
    th = 0.9
    rot = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    shear = [[1.0, 40.0], [0.0, 1.0]]
    scale = [[3.0, 0.0], [0.0, 1.0 / 3.0]]
    drawn = random_symplectic(uniform, size=20)
    return np.concatenate([np.stack([np.eye(2), rot, shear, scale]), drawn]).reshape((3, 8, 2, 2))


def test_stacked_determinants_match_per_matrix_calls():
    batch = _mixed_batch(np.random.default_rng(71).random)
    g = sp(batch)
    holo, polar = holomorphic_determinant(g), polar_determinant(g)
    assert holo.shape == polar.shape == (3, 8)
    for idx in np.ndindex(3, 8):
        one = sp(batch[idx])
        assert abs(holo[idx] - holomorphic_determinant(one)) <= 1e-15
        assert abs(polar[idx] - polar_determinant(one)) <= 1e-15
    _, g1, g2 = _polar(g)
    assert g1.matrix.shape == g2.matrix.shape == batch.shape
    assert np.array_equal(g2.matrix[1, 5], _polar(sp(batch[1, 5]))[2].matrix)


def test_random_symplectic_stack_is_symplectic():
    stack = random_symplectic(np.random.default_rng(5).random, size=300)
    assert stack.shape == (300, 2, 2)
    sp(stack)
    # independent draws, not one matrix repeated
    assert len({m.tobytes() for m in stack}) == 300


def test_stdlib_sampler_draws_symplectic_stacks_and_single_matrices():
    # the self-test battery's sampler, backed by random.Random, not numpy.random
    stack = random_symplectic(_uniform(3), size=200)
    sp(stack)
    assert len({m.tobytes() for m in stack}) == 200
    one = random_symplectic(_uniform(4))
    assert one.shape == (2, 2)
    assert np.array_equal(one, random_symplectic(_uniform(4), size=1)[0])


def test_stack_with_one_non_symplectic_member_raises():
    stack = random_symplectic(np.random.default_rng(6).random, size=50)
    stack[31] = stack[31] * 1.01
    with pytest.raises(StructureError, match=r"not symplectic .* stack index \(31,\)"):
        sp(stack)


def test_symplectic_tolerance_is_per_matrix():
    # the shear's ||M||_inf^2 ~ 1e8 allows it an atol of ~1e-2; the small
    # matrix, off by 1e-3 in det, must still meet its own atol of 1e-10
    big = np.array([[1.0, 1e4], [0.0, 1.0]])
    small = np.diag([1.0 + 1e-3, 1.0])
    sp(big)
    with pytest.raises(StructureError, match="not symplectic"):
        sp(small)
    with pytest.raises(StructureError, match=r"stack index \(1,\)"):
        sp(np.stack([big, small]))


def test_symplectic_tolerance_is_not_numpy_default_rtol():
    # M^T J M - J is 1e-6 on the +-1 entries: within numpy's default
    # rtol = 1e-5, far outside the documented 1e-10 + 1e-9 relative
    with pytest.raises(StructureError, match="not symplectic"):
        sp(np.diag([1.0 + 1e-6, 1.0]))
    with pytest.raises(StructureError, match="not symplectic"):
        sp(np.diag([1.0 + 2e-9, 1.0]))
    sp(np.diag([1.0 + 5e-10, 1.0]))


def test_determinant_rule_decides_as_the_entrywise_gram_rule():
    # M^T J M = det(M) J for 2 x 2 matrices, so |det M - 1| <= atol + 1e-9
    # is the entrywise rule |M^T J M - J| <= atol + 1e-9 |J|; scale draws so
    # that det M - 1 sits at fractions of that tolerance on either side
    base = random_symplectic(np.random.default_rng(12).random, size=60)
    atol = 1e-10 * np.maximum(1.0, np.linalg.norm(base, np.inf, axis=(1, 2)) ** 2)
    for fraction in (0.5, 0.9, 1.1, 2.0, -0.9, -1.1):
        m = base * np.sqrt(1.0 + fraction * (atol + 1e-9))[:, None, None]
        gram = np.swapaxes(m, 1, 2) @ SYMPLECTIC_GRAM @ m
        entrywise = np.all(np.isclose(gram, SYMPLECTIC_GRAM, rtol=1e-9,
                                      atol=1e-10 * np.maximum(1.0, np.linalg.norm(
                                          m, np.inf, axis=(1, 2)) ** 2)[:, None, None]),
                           axis=(1, 2))
        assert np.all(entrywise) == (abs(fraction) < 1.0)
        for one, accepted in zip(m, entrywise):
            if accepted:
                sp(one)
            else:
                with pytest.raises(StructureError, match="not symplectic"):
                    sp(one)


def test_stack_with_one_corrupted_block_raises():
    stack = random_symplectic(np.random.default_rng(8).random, size=40)
    g = sp(stack)
    corrupted = stack.copy()
    corrupted[12] = 0.2 * np.eye(2)  # det^{1,0} = 0.2, below the 0.5 floor
    object.__setattr__(g, "matrix", corrupted)
    with pytest.raises(StructureError, match="modulus 0.2 < 0.5"):
        holomorphic_determinant(g)


def test_polar_reconstruction_is_checked_per_matrix(monkeypatch):
    # a right singular factor that is not orthogonal for one matrix of the
    # stack makes its factors miss g1 g2 = g; that matrix alone must fail
    stack = random_symplectic(np.random.default_rng(9).random, size=10)
    real_svd = np.linalg.svd

    def one_bad_svd(a):
        u, sigma, vt = real_svd(a)
        vt = vt.copy()
        vt[4, 0, 0] += 1e-6
        return u, sigma, vt

    monkeypatch.setattr(np.linalg, "svd", one_bad_svd)
    with pytest.raises(StructureError, match=r"fail to reconstruct .* stack index \(4,\)"):
        _polar(sp(stack))


# ---------------------------------------------------------------------------
# branch-continuous square roots
# ---------------------------------------------------------------------------


def test_branch_sqrt_winds_past_the_cut():
    theta = np.linspace(0.0, 3.0 * np.pi, 400)
    path = np.exp(1j * theta)
    roots = branch_sqrt_path(path, theta)
    expected = np.exp(0.5j * theta)
    assert np.max(np.abs(roots - expected)) < 1e-12
    # final angle is 3 pi / 2, NOT the principal -pi/2
    assert np.unwrap(np.angle(roots))[-1] == pytest.approx(1.5 * np.pi, abs=1e-12)


def test_branch_sqrt_consecutive_outputs_stay_close():
    theta = np.linspace(0.0, 3.0 * np.pi, 400)
    roots = branch_sqrt_path(np.exp(1j * theta), theta)
    angles = np.unwrap(np.angle(roots))
    assert np.max(np.abs(np.diff(angles))) < 0.25 * np.pi


def test_branch_sqrt_of_shear_family():
    # (1 - i a)^(-1/2) along a: squared path must reproduce the input.
    a = np.linspace(0.0, 40.0, 2000)
    vals = 1.0 / (1.0 - 1j * a)
    roots = branch_sqrt_path(vals, np.arctan(a))
    sq = roots ** 2
    assert np.max(np.abs(sq - vals) / np.abs(vals)) < 1e-12
    # modulus follows the quarter-power law (1 + a^2)^(-1/4)
    mods = np.abs(roots)
    assert np.max(np.abs(mods - (1.0 + a ** 2) ** -0.25)) < 1e-12


def test_branch_sqrt_follows_its_arguments_on_any_grid():
    # steps of 3 pi / 4 cannot be unwrapped, but the true arguments pick
    # the branch: the roots are e^{i theta / 2}
    theta = np.linspace(0.0, 3.0 * np.pi, 5)
    roots = branch_sqrt_path(np.exp(1j * theta), theta)
    assert np.max(np.abs(roots - np.exp(0.5j * theta))) < 1e-15
    with pytest.raises(BranchContinuityError, match=r"misses .* by 0\.1 rad .* index 0"):
        branch_sqrt_path(np.exp(1j * theta), theta + 0.1)


def test_branch_sqrt_rejects_zero():
    with pytest.raises(BranchContinuityError, match="zero"):
        branch_sqrt_path([1.0, 0.0, 1.0], [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_gram_and_structure_helpers_are_consistent():
    j, gram = COMPLEX_STRUCTURE, SYMPLECTIC_GRAM
    assert np.array_equal(j @ j, -np.eye(2))
    assert np.array_equal(j.T @ gram @ j, gram)
    assert np.array_equal(gram @ j, np.eye(2))  # metric is euclidean
    sp(j)
