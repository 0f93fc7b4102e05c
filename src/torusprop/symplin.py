"""Linear symplectomorphisms and their holomorphic determinants.

A linear symplectic map g of (R^{2n}, omega_std) acts on the (1,0)-subspace
of the standard complex structure z = p + i q after complexification; the
determinant of that block drives every amplitude in the propagator and
projector predictors.  The standard structure is the only one the theta
basis of the quantum spaces is holomorphic for, so it is the only one
here.  Every function below takes one 2n x 2n matrix or a stack of them
(..., 2n, 2n), the way ``numpy.linalg`` does, and checks each matrix of a
stack against its own scale.  This module provides:

* ``LinearSymplectomorphism`` — validated container (M^T J M = J to 1e-10
  of each matrix's own squared inf-norm plus 1e-9 relative);
* ``holomorphic_block`` / ``holomorphic_determinant`` — the (1,0)->(1,0)
  block ((A + D) + i (C - B)) / 2 of g = [[A, B], [C, D]] and its
  determinant;
* ``polar_determinant`` — the product formula
  prod (sigma + 1/sigma)/2 * det_C(unitary part) over the metric polar
  factors, both read from one singular value decomposition of g, an
  independent route to the same determinant;
* ``branch_sqrt_path`` — square roots of nonzero complex values on the
  branch a continuous argument estimate picks (the flow integrates one),
  returned as one complex array;
* ``random_symplectic`` — random elements of Sp(2n, R), one or a stack.

Coordinates are ordered (p_1..p_n, q_1..q_n); omega(u, v) = u^T J v with
J = [[0, I], [-I, 0]], and the standard complex structure j sends
d/dp_i -> d/dq_i, so the metric omega(., j .) is euclidean.
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
    "polar_determinant",
    "branch_sqrt_path",
    "random_symplectic",
]

_ATOL = 1e-10
_RTOL = 1e-9
# largest distance (rad) between a branch_sqrt_path argument and its estimate
_BRANCH_ATOL = 1e-3
# factors in each product ``random_symplectic`` draws
_N_FACTORS = 6


class StructureError(ValueError):
    """Matrix data violates the symplectic contract."""


class BranchContinuityError(ValueError):
    """An argument estimate does not pick the branch of its value."""


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
    """The standard j with j d/dp_i = d/dq_i, j d/dq_i = -d/dp_i, the
    structure every holomorphic block is taken against.  Built once per n;
    the array is read-only."""
    eye = np.eye(n)
    cs = np.block([[np.zeros((n, n)), -eye], [eye, np.zeros((n, n))]])
    cs.flags.writeable = False
    return cs


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _inf_norms(m: np.ndarray) -> np.ndarray:
    """The inf-norm (largest absolute row sum) of each matrix in a stack."""
    return np.linalg.norm(m, np.inf, axis=(-2, -1))


def _where(ok: np.ndarray) -> str:
    """' at stack index (i, ...)' naming the first False entry of a
    per-matrix check, or '' for a single matrix."""
    return f" at stack index {tuple(int(i) for i in np.argwhere(~ok)[0])}" if ok.ndim else ""


@dataclass(frozen=True)
class LinearSymplectomorphism:
    """A validated 2n x 2n symplectic matrix, or a stack (..., 2n, 2n) of
    them: |M^T J M - J| <= 1e-10 max(1, ||M||_inf^2) + 1e-9 |J| entrywise."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2:
            raise StructureError(f"matrix must be 2n x 2n, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        gram = standard_symplectic_gram(m.shape[-1] // 2)
        atol = _ATOL * np.maximum(1.0, _inf_norms(m) ** 2)
        ok = np.all(np.isclose(_transpose(m) @ gram @ m, gram, rtol=_RTOL,
                               atol=atol[..., None, None]), axis=(-2, -1))
        if not np.all(ok):
            raise StructureError("matrix is not symplectic (M^T J M != J)" + _where(ok))

    @property
    def dim_n(self) -> int:
        return self.matrix.shape[-1] // 2


def holomorphic_block(g: LinearSymplectomorphism) -> np.ndarray:
    """Complex n x n matrix of g acting (1,0) -> (1,0), one per matrix of a
    stack.

    For g = [[A, B], [C, D]] in standard-j coordinates the complexified
    action on z = p + i q has C-linear part ((A + D) + i (C - B)) / 2.
    """

    mat, n = g.matrix, g.dim_n
    a = mat[..., :n, :n]
    b = mat[..., :n, n:]
    c = mat[..., n:, :n]
    d = mat[..., n:, n:]
    return 0.5 * ((a + d) + 1j * (c - b))


def holomorphic_determinant(g: LinearSymplectomorphism) -> complex | np.ndarray:
    """det of the (1,0)-block: a complex number, or an array of the stack's
    shape.  Always has modulus >= 1 for valid input; a value below 0.5
    indicates corrupted data and raises."""
    det = np.linalg.det(holomorphic_block(g))
    _check_modulus(det)
    return det if det.ndim else complex(det)


def _check_modulus(dets) -> None:
    """Raise unless every holomorphic determinant in ``dets`` has modulus
    >= 0.5 (it is >= 1 in exact arithmetic)."""
    worst = float(np.min(np.abs(dets)))
    if worst < 0.5:
        raise StructureError(
            f"holomorphic determinant has modulus {worst:.3g} < 0.5; "
            "symplectic data is corrupted (the modulus is >= 1 in exact arithmetic)")


def _polar(g: LinearSymplectomorphism):
    """The eigenvalues (ascending) of each metric square M^T M, and the
    polar factors g = g1 g2, all from one singular value decomposition
    M = U S V^T: the eigenvalues are the squared singular values, g1 = U V^T
    is unitary (commutes with j) and g2 = V S V^T is positive symmetric for
    the euclidean metric omega(., j .); for a stack, the stacks of the
    factors.  Taking them from M itself rather than from M^T M keeps their
    error at the conditioning of M, not its square.  Each reconstruction
    g1 g2 must match its matrix to 1e-9 of max(1, ||M||_inf)."""

    m = g.matrix
    u, sigma, vt = np.linalg.svd(m)
    if np.min(sigma) <= 0.0:
        raise StructureError("polar decomposition met a non-positive metric square")
    g2 = (_transpose(vt) * sigma[..., None, :]) @ vt
    g1 = u @ vt
    resid = _inf_norms(g1 @ g2 - m)
    ok = resid <= 1e-9 * np.maximum(1.0, _inf_norms(m))
    if not np.all(ok):
        raise StructureError("polar factors fail to reconstruct the map (residual "
                             f"{float(np.max(resid)):.2e}){_where(ok)}")
    return sigma[..., ::-1] ** 2, LinearSymplectomorphism(g1), LinearSymplectomorphism(g2)


def polar_determinant(g: LinearSymplectomorphism) -> complex | np.ndarray:
    """Holomorphic determinant via polar factors:

        prod over singular-value pairs (sigma + 1/sigma)/2   x   det_C(g1).

    The positive factor uses the n singular values <= 1 (they come in
    sigma, 1/sigma pairs), taken from the singular value decomposition that
    also builds the factors; the unitary factor contributes the phase.
    Agrees with ``holomorphic_determinant`` but shares no code path with the
    block formula applied to g itself.  A stack gives an array of the
    stack's shape.
    """

    lam, g1, _ = _polar(g)
    sigma = np.sqrt(lam[..., :g.dim_n])  # ascending, so these are the pairs' small halves
    positive_factor = np.prod(0.5 * (sigma + 1.0 / sigma), axis=-1)
    det = positive_factor * np.linalg.det(holomorphic_block(g1))
    return det if det.ndim else complex(det)


def branch_sqrt_path(values, arguments) -> np.ndarray:
    """Square roots sqrt(|v|) e^{i theta/2} of nonzero complex values, as a
    complex array of the path's length, on the branch that ``arguments``
    picks.

    ``arguments`` are estimates of the continuous arguments of ``values``
    (for example integrated along the flow).  Each theta is the principal
    angle of its value plus the multiple of 2 pi nearest the estimate; it
    must then agree with the estimate to 1e-3 rad, or the estimate does not
    belong to the value and BranchContinuityError is raised.  A zero value
    has no argument and raises too.
    """

    vals = np.asarray(values, dtype=complex).ravel()
    estimate = np.asarray(arguments, dtype=float).ravel()
    if np.any(vals == 0.0):
        raise BranchContinuityError("branch undefined at a zero value")
    angle = np.angle(vals)
    theta = angle + 2.0 * np.pi * np.round((estimate - angle) / (2.0 * np.pi))
    miss = np.abs(theta - estimate)
    bad = miss > _BRANCH_ATOL
    if np.any(bad):
        first = int(np.argmax(bad))
        raise BranchContinuityError(
            f"argument estimate misses its value's argument by {miss[first]:.3g} rad "
            f"(mod 2 pi) at path index {first}")
    return np.sqrt(np.abs(vals)) * np.exp(0.5j * theta)


def random_symplectic(n: int, uniform, size: int | None = None) -> np.ndarray:
    """Random element of Sp(2n, R) as a product of _N_FACTORS shears and
    block scalings, or a stack (size, 2n, 2n) of independent ones drawn in
    one call.

    ``uniform(shape)`` returns an array of that shape drawn from U[0, 1),
    for example ``np.random.default_rng(seed).random``.  Each factor is,
    with equal odds, a shear [[I, S], [0, I]] or [[I, 0], [S, I]] with S
    symmetric, or a block scaling [[A, 0], [0, A^{-T}]] with |det A| >= 0.2,
    redrawn until it holds.  Normal entries come from Box-Muller pairs.
    Used by tests and the self-check battery; factor scales are kept
    moderate so products stay well-conditioned.  ``size=None`` gives one
    matrix, drawn exactly as a stack of size 1 would draw it.
    """

    def normal(scale, shape):
        u = uniform((2,) + shape)
        return scale * np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1])

    shape = () if size is None else (int(size),)
    dim = 2 * n
    eye = np.broadcast_to(np.eye(dim), shape + (dim, dim))
    out = eye.copy()
    for _ in range(_N_FACTORS):
        kind = np.floor(3.0 * uniform(shape))
        sym = normal(0.4, shape + (n, n))
        sym = 0.5 * (sym + _transpose(sym))
        blk = eye.copy()
        blk[kind == 0, :n, n:] = sym[kind == 0]
        blk[kind == 1, n:, :n] = sym[kind == 1]
        scaling = kind == 2
        a = np.zeros((np.count_nonzero(scaling), n, n))  # det 0: every block is drawn
        while np.any(redraw := np.abs(np.linalg.det(a)) < 0.2):
            a[redraw] = np.eye(n) + normal(0.25, (np.count_nonzero(redraw), n, n))
        blk[scaling, :n, :n] = a
        blk[scaling, n:, n:] = _transpose(np.linalg.inv(a))
        out = blk @ out
    return out
