"""The torus's 2 x 2 linear algebra: linear symplectomorphisms of the
tangent plane and their holomorphic determinants.

A linear symplectic map g of (R^2, omega_std) acts on the (1,0)-line of the
standard complex structure z = p + i q, after complexification, as
multiplication by one complex number det^{1,0}(g); it drives every
amplitude in the propagator and projector predictors.  The standard
structure is the only one the theta basis of the quantum spaces is
holomorphic for, so it is the only one here.  Every function below takes
one 2 x 2 matrix or a stack of them (..., 2, 2), the way ``numpy.linalg``
does, and checks each matrix of a stack against its own scale.  This
module provides:

* ``SYMPLECTIC_GRAM`` / ``COMPLEX_STRUCTURE`` — the read-only J and j;
* ``LinearSymplectomorphism`` — validated container (det M = 1 to 1e-10 of
  each matrix's own squared inf-norm plus 1e-9; since M^T J M = det(M) J,
  this is M^T J M = J);
* ``holomorphic_determinant`` — det^{1,0}(g) = ((a + d) + i (c - b)) / 2 for
  g = [[a, b], [c, d]];
* ``polar_determinant`` — the same number as (sigma + 1/sigma)/2 x e^{i theta}
  from one singular value decomposition of g, an independent route;
* ``branch_sqrt_path`` — square roots of nonzero complex values on the
  branch a continuous argument estimate picks (the flow integrates one);
* ``random_symplectic`` — random elements of Sp(2, R), one or a stack.

Coordinates are ordered (p, q); omega(u, v) = u^T J v with
J = [[0, 1], [-1, 0]], and j sends d/dp -> d/dq, so the metric
omega(., j .) is euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StructureError",
    "BranchContinuityError",
    "SYMPLECTIC_GRAM",
    "COMPLEX_STRUCTURE",
    "LinearSymplectomorphism",
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

SYMPLECTIC_GRAM = np.array([[0.0, 1.0], [-1.0, 0.0]])
SYMPLECTIC_GRAM.flags.writeable = False
COMPLEX_STRUCTURE = np.array([[0.0, -1.0], [1.0, 0.0]])
COMPLEX_STRUCTURE.flags.writeable = False


class StructureError(ValueError):
    """Matrix data violates the symplectic contract."""


class BranchContinuityError(ValueError):
    """An argument estimate does not pick the branch of its value."""


def _inf_norms(m: np.ndarray) -> np.ndarray:
    """The inf-norm (largest absolute row sum) of each matrix in a stack."""
    return np.linalg.norm(m, np.inf, axis=(-2, -1))


def _where(ok: np.ndarray) -> str:
    """' at stack index (i, ...)' naming the first False entry of a
    per-matrix check, or '' for a single matrix."""
    return f" at stack index {tuple(int(i) for i in np.argwhere(~ok)[0])}" if ok.ndim else ""


@dataclass(frozen=True)
class LinearSymplectomorphism:
    """A validated 2 x 2 symplectic matrix, or a stack (..., 2, 2) of them:
    |det M - 1| <= 1e-10 max(1, ||M||_inf^2) + 1e-9."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim < 2 or m.shape[-2:] != (2, 2):
            raise StructureError(f"matrix must be 2 x 2, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        ok = np.abs(det - 1.0) <= _ATOL * np.maximum(1.0, _inf_norms(m) ** 2) + _RTOL
        if not np.all(ok):
            raise StructureError("matrix is not symplectic (M^T J M != J)" + _where(ok))


def holomorphic_determinant(g: LinearSymplectomorphism) -> complex | np.ndarray:
    """det^{1,0}(g) = ((a + d) + i (c - b)) / 2 for g = [[a, b], [c, d]]: a
    complex number, or an array of the stack's shape.  Always has modulus
    >= 1 for valid input; a value below 0.5 indicates corrupted data and
    raises."""
    m = g.matrix
    det = 0.5 * ((m[..., 0, 0] + m[..., 1, 1]) + 1j * (m[..., 1, 0] - m[..., 0, 1]))
    worst = float(np.min(np.abs(det)))
    if worst < 0.5:
        raise StructureError(
            f"holomorphic determinant has modulus {worst:.3g} < 0.5; "
            "symplectic data is corrupted (the modulus is >= 1 in exact arithmetic)")
    return det if det.ndim else complex(det)


def _polar(g: LinearSymplectomorphism):
    """The singular values (descending) of each matrix and its polar factors
    g = g1 g2, all from one singular value decomposition M = U S V^T:
    g1 = U V^T is a rotation (commutes with j) and g2 = V S V^T is positive
    symmetric for the euclidean metric omega(., j .); for a stack, the
    stacks of all three.  Taking them from M itself rather than from M^T M
    keeps their error at the conditioning of M, not its square.  Each
    reconstruction g1 g2 must match its matrix to 1e-9 of
    max(1, ||M||_inf)."""

    m = g.matrix
    u, sigma, vt = np.linalg.svd(m)
    if np.min(sigma) <= 0.0:
        raise StructureError("polar decomposition met a non-positive metric square")
    g2 = (np.swapaxes(vt, -1, -2) * sigma[..., None, :]) @ vt
    g1 = u @ vt
    resid = _inf_norms(g1 @ g2 - m)
    ok = resid <= 1e-9 * np.maximum(1.0, _inf_norms(m))
    if not np.all(ok):
        raise StructureError("polar factors fail to reconstruct the map (residual "
                             f"{float(np.max(resid)):.2e}){_where(ok)}")
    return sigma, LinearSymplectomorphism(g1), LinearSymplectomorphism(g2)


def polar_determinant(g: LinearSymplectomorphism) -> complex | np.ndarray:
    """Holomorphic determinant via polar factors:

        (sigma + 1/sigma)/2   x   e^{i theta},

    with sigma <= 1 the smaller singular value of g (the two are sigma and
    1/sigma) and theta the angle of the rotation g1, both from the singular
    value decomposition that builds the factors; e^{i theta} is g1's first
    column read as a complex number.  Agrees with ``holomorphic_determinant``
    but shares no code path with it.  A stack gives an array of the stack's
    shape.
    """

    sigma, g1, _ = _polar(g)
    small = sigma[..., -1]
    det = 0.5 * (small + 1.0 / small) * (g1.matrix[..., 0, 0] + 1j * g1.matrix[..., 1, 0])
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


def random_symplectic(uniform, size: int | None = None) -> np.ndarray:
    """Random element of Sp(2, R) as a product of _N_FACTORS shears and
    scalings, or a stack (size, 2, 2) of independent ones drawn in one call.

    ``uniform(shape)`` returns an array of that shape drawn from U[0, 1),
    for example ``np.random.default_rng(seed).random``.  Each factor is,
    with equal odds, a shear [[1, s], [0, 1]] or [[1, 0], [s, 1]], or a
    scaling diag(a, 1/a) with |a| >= 0.2, redrawn until it holds.  Normal
    entries come from Box-Muller pairs.  Used by tests and the self-check
    battery; factor scales are kept moderate so products stay
    well-conditioned.  ``size=None`` gives one matrix, drawn exactly as a
    stack of size 1 would draw it.
    """

    def normal(scale, shape):
        u = uniform((2,) + shape)
        return scale * np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1])

    shape = () if size is None else (int(size),)
    eye = np.broadcast_to(np.eye(2), shape + (2, 2))
    out = eye.copy()
    for _ in range(_N_FACTORS):
        kind = np.floor(3.0 * uniform(shape))
        s = normal(0.4, shape)
        blk = eye.copy()
        blk[kind == 0, 0, 1] = s[kind == 0]
        blk[kind == 1, 1, 0] = s[kind == 1]
        scaling = kind == 2
        a = np.zeros(np.count_nonzero(scaling))  # 0: every scale is drawn
        while np.any(redraw := np.abs(a) < 0.2):
            a[redraw] = 1.0 + normal(0.25, (np.count_nonzero(redraw),))
        blk[scaling, 0, 0] = a
        blk[scaling, 1, 1] = 1.0 / a
        out = blk @ out
    return out
