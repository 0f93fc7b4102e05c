"""Linear symplectomorphisms and their holomorphic determinants.

A linear map g of (R^{2n}, omega_std) compatible with complex structures
j_src, j_dst acts on the (1,0)-subspaces after complexification; the
determinant of that block drives every amplitude in the propagator and
projector predictors.  This module provides:

* ``LinearSymplectomorphism`` — validated container (symplectic to 1e-10,
  complex structures compatible and tamed; the standard structures are
  built and checked once per n);
* ``holomorphic_block`` / ``holomorphic_determinant`` — the (1,0)->(1,0)
  block and its determinant, computed in adapted unitary frames;
* ``polar_decompose`` / ``polar_determinant`` — metric polar factors and the
  product formula prod (sigma + 1/sigma)/2 * det_C(unitary part), an
  independent route to the same determinant;
* ``branch_sqrt_path`` — branch-continuous square roots along a path of
  nonzero complex values, tracked through angle unwinding and returned as
  one complex array.

Coordinates are ordered (p_1..p_n, q_1..q_n); omega(u, v) = u^T J v with
J = [[0, I], [-I, 0]], and the standard complex structure sends
d/dp_i -> d/dq_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "StructureError",
    "BranchContinuityError",
    "LinearSymplectomorphism",
    "standard_symplectic_gram",
    "standard_complex_structure",
    "holomorphic_block",
    "holomorphic_determinant",
    "polar_decompose",
    "polar_determinant",
    "branch_sqrt_path",
    "random_symplectic",
]

_ATOL = 1e-10


class StructureError(ValueError):
    """Matrix data violates the symplectic/complex-structure contracts."""


class BranchContinuityError(ValueError):
    """A path of values is sampled too coarsely to track the branch."""


def _check_complex_structure(j: np.ndarray, gram: np.ndarray, scale: float) -> None:
    n2 = j.shape[0]
    if not np.allclose(j @ j, -np.eye(n2), atol=_ATOL * scale):
        raise StructureError("complex structure does not square to -identity")
    # Compatibility omega(j., j.) = omega  <=>  j^T J j = J.
    if not np.allclose(j.T @ gram @ j, gram, atol=_ATOL * scale):
        raise StructureError("complex structure is not compatible with omega")
    metric = gram @ j  # symmetric once compatible
    if np.min(np.linalg.eigvalsh(0.5 * (metric + metric.T))) <= _ATOL:
        raise StructureError("complex structure is not tamed by omega "
                             "(omega(u, j u) must be positive definite)")


@lru_cache(maxsize=None)
def standard_symplectic_gram(n: int) -> np.ndarray:
    """Gram matrix J of omega_std in (p, q) ordering: omega(u,v) = u^T J v.
    Built once per n; the array is read-only."""
    eye = np.eye(n)
    gram = np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])
    gram.flags.writeable = False
    return gram


@lru_cache(maxsize=None)
def standard_complex_structure(n: int) -> np.ndarray:
    """The standard j with j d/dp_i = d/dq_i, j d/dq_i = -d/dp_i.  Built and
    validated once per n; the array is read-only."""
    eye = np.eye(n)
    cs = np.block([[np.zeros((n, n)), -eye], [eye, np.zeros((n, n))]])
    _check_complex_structure(cs, standard_symplectic_gram(n), 1.0)
    cs.flags.writeable = False
    return cs


@dataclass(frozen=True)
class LinearSymplectomorphism:
    """A validated symplectic matrix with complex structures at both ends.

    ``matrix`` maps the source copy of R^{2n} to the target copy;
    ``source_cs`` / ``target_cs`` default to the standard complex structure.
    The matrix is always checked; a structure is checked unless it equals
    the standard one, which was checked when it was built.
    """

    matrix: np.ndarray
    source_cs: np.ndarray | None = None
    target_cs: np.ndarray | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise StructureError(f"matrix must be 2n x 2n, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        n = m.shape[0] // 2
        gram = standard_symplectic_gram(n)
        scale = max(1.0, float(np.linalg.norm(m, np.inf)) ** 2)
        if not np.allclose(m.T @ gram @ m, gram, atol=_ATOL * scale):
            raise StructureError("matrix is not symplectic (M^T J M != J)")
        j_std = standard_complex_structure(n)
        for name in ("source_cs", "target_cs"):
            cs = getattr(self, name)
            cs = j_std if cs is None else np.asarray(cs, dtype=float)
            if cs.shape != m.shape:
                raise StructureError(f"{name} must match the matrix shape")
            if np.array_equal(cs, j_std):
                cs = j_std
            else:
                _check_complex_structure(cs, gram, max(1.0, float(np.linalg.norm(cs, np.inf)) ** 2))
            object.__setattr__(self, name, cs)

    @property
    def dim_n(self) -> int:
        return self.matrix.shape[0] // 2

    def same_cs(self) -> bool:
        return np.array_equal(self.source_cs, self.target_cs)


def _unitary_frame(cs: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Columns (e_1..e_n, f_1..f_n) orthonormal for g(u,v) = omega(u, cs v),
    with f_i = cs e_i.  In this frame cs becomes the standard j and omega the
    standard J, so (1,0)-blocks can be read off positionally.
    """

    n2 = cs.shape[0]
    n = n2 // 2
    if np.array_equal(cs, standard_complex_structure(n)):
        return np.eye(n2)
    metric = gram @ cs
    es: list[np.ndarray] = []
    fs: list[np.ndarray] = []
    for cand in np.eye(n2):
        if len(es) == n:
            break
        v = cand.copy()
        for w in (*es, *fs):
            v -= (w @ metric @ v) * w
        norm2 = float(v @ metric @ v)
        if norm2 <= 1e-8:
            continue
        e = v / np.sqrt(norm2)
        es.append(e)
        fs.append(cs @ e)
    if len(es) != n:
        raise StructureError("failed to build a unitary frame for the "
                             "complex structure (degenerate metric?)")
    frame = np.column_stack([*es, *fs])
    j_std = standard_complex_structure(n)
    if not (np.allclose(frame.T @ gram @ frame, gram, atol=1e-9)
            and np.allclose(np.linalg.solve(frame, cs @ frame), j_std, atol=1e-9)):
        raise StructureError("unitary frame construction lost symplecticity")
    return frame


def _block_1_0(mat: np.ndarray) -> np.ndarray:
    """(1,0)->(1,0) block of a matrix written in standard-j coordinates, or
    of each matrix in a stack (..., 2n, 2n).

    For mat = [[A, B], [C, D]] the complexified action on z = p + i q has
    C-linear part ((A + D) + i (C - B)) / 2.
    """

    n = mat.shape[-1] // 2
    a = mat[..., :n, :n]
    b = mat[..., :n, n:]
    c = mat[..., n:, :n]
    d = mat[..., n:, n:]
    return 0.5 * ((a + d) + 1j * (c - b))


def holomorphic_block(g: LinearSymplectomorphism) -> np.ndarray:
    """Complex n x n matrix of g acting (1,0)_source -> (1,0)_target."""
    n = g.dim_n
    gram = standard_symplectic_gram(n)
    p_src = _unitary_frame(g.source_cs, gram)
    p_dst = _unitary_frame(g.target_cs, gram)
    mat = np.linalg.solve(p_dst, g.matrix @ p_src)
    return _block_1_0(mat)


def holomorphic_determinant(g: LinearSymplectomorphism) -> complex:
    """det of the (1,0)-block.  Always has modulus >= 1 for valid input;
    a value below 0.5 indicates corrupted data and raises."""
    det = complex(np.linalg.det(holomorphic_block(g)))
    _check_modulus(det)
    return det


def _check_modulus(dets) -> None:
    """Raise unless every holomorphic determinant in ``dets`` has modulus
    >= 0.5 (it is >= 1 in exact arithmetic)."""
    worst = float(np.min(np.abs(dets)))
    if worst < 0.5:
        raise StructureError(
            f"holomorphic determinant has modulus {worst:.3g} < 0.5; "
            "symplectic data is corrupted (the modulus is >= 1 in exact arithmetic)")


def polar_decompose(
    g: LinearSymplectomorphism,
) -> tuple[LinearSymplectomorphism, LinearSymplectomorphism]:
    """Split g = g1 g2 with g1 unitary (commutes with cs) and g2 positive
    symmetric for the metric omega(., cs .).  Requires source_cs == target_cs.
    """

    if not g.same_cs():
        raise StructureError("polar decomposition needs matching source and "
                             "target complex structures")
    n = g.dim_n
    gram = standard_symplectic_gram(n)
    frame = _unitary_frame(g.source_cs, gram)
    ghat = np.linalg.solve(frame, g.matrix @ frame)
    sym = ghat.T @ ghat
    lam, vec = np.linalg.eigh(0.5 * (sym + sym.T))
    if np.min(lam) <= 0.0:
        raise StructureError("polar decomposition met a non-positive metric square")
    sqrt_lam = np.sqrt(lam)
    g2_hat = (vec * sqrt_lam) @ vec.T
    g1_hat = ghat @ (vec / sqrt_lam) @ vec.T
    resid = float(np.linalg.norm(g1_hat @ g2_hat - ghat, np.inf))
    if resid > 1e-9 * max(1.0, float(np.linalg.norm(ghat, np.inf))):
        raise StructureError(f"polar factors fail to reconstruct the map (residual {resid:.2e})")
    inv_frame = np.linalg.inv(frame)
    g1 = LinearSymplectomorphism(frame @ g1_hat @ inv_frame, g.source_cs, g.source_cs)
    g2 = LinearSymplectomorphism(frame @ g2_hat @ inv_frame, g.source_cs, g.source_cs)
    return g1, g2


def polar_determinant(g: LinearSymplectomorphism) -> complex:
    """Holomorphic determinant via polar factors:

        prod over singular-value pairs (sigma + 1/sigma)/2   x   det_C(g1).

    The positive factor uses the n singular values <= 1 (they come in
    sigma, 1/sigma pairs); the unitary factor contributes the phase.
    Agrees with ``holomorphic_determinant`` but shares no code path with the
    block formula applied to g itself.
    """

    if not g.same_cs():
        raise StructureError("polar determinant needs matching source and "
                             "target complex structures")
    n = g.dim_n
    gram = standard_symplectic_gram(n)
    frame = _unitary_frame(g.source_cs, gram)
    ghat = np.linalg.solve(frame, g.matrix @ frame)
    sym = ghat.T @ ghat
    lam = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    if np.min(lam) <= 0.0:
        raise StructureError("polar determinant met a non-positive metric square")
    sigma = np.sqrt(lam[:n])  # ascending, so these are the pairs' small halves
    positive_factor = float(np.prod(0.5 * (sigma + 1.0 / sigma)))
    g1, _ = polar_decompose(g)
    return positive_factor * complex(np.linalg.det(holomorphic_block(g1)))


def branch_sqrt_path(values) -> np.ndarray:
    """Continuous square root along a discretely sampled path, as a complex
    array of the path's length.

    ``values`` must start with positive real part (the branch anchor) and be
    sampled finely enough that consecutive arguments differ by less than
    pi/2; otherwise the branch cannot be tracked and an error asks for a
    finer grid.  Output arguments then differ by less than pi/4 step to step,
    so np.unwrap(np.angle(roots)) recovers the tracked branch angles.
    """

    vals = np.asarray(values, dtype=complex).ravel()
    if vals.size == 0:
        return vals
    if np.any(np.abs(vals) == 0.0):
        raise BranchContinuityError("branch tracking undefined through a zero value")
    if vals[0].real <= 0.0:
        raise BranchContinuityError(
            f"first path value {vals[0]:.6g} must have positive real part "
            "to anchor the principal branch")
    args = np.angle(vals)
    step = np.diff(args)
    step = (step + np.pi) % (2.0 * np.pi) - np.pi
    worst = float(np.max(np.abs(step))) if step.size else 0.0
    if worst >= 0.5 * np.pi:
        raise BranchContinuityError(
            f"consecutive path values jump by {worst:.3f} rad >= pi/2; "
            "the sampling grid is too coarse to track the branch — refine it")
    theta = np.empty_like(args)
    theta[0] = args[0]
    if step.size:
        theta[1:] = args[0] + np.cumsum(step)
    return np.sqrt(np.abs(vals)) * np.exp(0.5j * theta)


def random_symplectic(n: int, rng: np.random.Generator, n_factors: int = 6) -> np.ndarray:
    """Random element of Sp(2n, R) as a product of shears and block scalings.

    Used by tests and the self-check battery; factor scales are kept moderate
    so products stay well-conditioned.
    """

    dim = 2 * n
    out = np.eye(dim)
    for _ in range(n_factors):
        kind = rng.integers(0, 3)
        sym = rng.normal(scale=0.4, size=(n, n))
        sym = 0.5 * (sym + sym.T)
        blk = np.eye(dim)
        if kind == 0:
            blk[:n, n:] = sym
        elif kind == 1:
            blk[n:, :n] = sym
        else:
            a = np.eye(n) + rng.normal(scale=0.25, size=(n, n))
            while abs(np.linalg.det(a)) < 0.2:
                a = np.eye(n) + rng.normal(scale=0.25, size=(n, n))
            blk[:n, :n] = a
            blk[n:, n:] = np.linalg.inv(a).T
        out = blk @ out
    return out
