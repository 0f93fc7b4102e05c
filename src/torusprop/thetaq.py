"""The quantum side: theta-function bases, Gram tests, Toeplitz matrices.

The level-k quantum space over the torus is the 2k-dimensional space of
entire functions with the lattice multipliers f(z+1) = f(z),
f(z+i) = e^{2 pi k (1 - 2 i z)} f(z).  Its standard basis is

    Psi_ell(z) = (k^{1/4} / sqrt(2 pi)) * sum_{n in Z}
                 exp(-pi (ell + 2 k n)^2 / (2k)) exp(2 pi i (ell + 2 k n) z)
               = (k^{1/4} / sqrt(2 pi)) e^{2 pi i ell z} e^{-pi ell^2/(2k)}
                 theta_3(pi (2 k z + i ell), e^{-2 pi k}),

orthonormal for the pointwise weight e^{-4 pi k q^2} against the Liouville
measure 4 pi dp dq.

Gauge adjudication (recorded, not silent): two candidate prefactor forms in
circulation — exp(2 i pi (ell + k Im z)) and exp(2 i pi q (ell + k Im z)) —
are both rejected here because they are not holomorphic in z (the
Cauchy-Riemann check in the test suite fails for them, and the first also
fails orthonormality under every weight); the e^{2 pi i ell z} form above is
the one derived from the lattice multipliers, and the weight candidate
e^{-2 pi k q^2} is replaced by the derived e^{-4 pi k q^2}, which passes the
Gram identity (``gram_matrix``; A1 and the tests check it).  Every
QuantumSpace carries this record in ``gauge_note``.

Sections are evaluated at points (p, q), with the weight's square root folded in:

    s_ell(p, q) = Psi_ell(p + i q) e^{-2 pi k q^2}
                = (k^{1/4} / sqrt(2 pi)) * sum_{n in Z}
                  exp(-(pi / 2k) (ell + 2 k n + 2 k q)^2) e^{2 pi i (ell + 2 k n) p},

a periodized Gaussian whose terms are all at most 1, so ``sections`` returns
plain complex values for every row and point at once.  |s_ell|^2 is the
pointwise density of Psi_ell against the weight, and the kernels carry only
the unit-gauge phase.  The unweighted Psi_ell grows like e^{2 pi k q^2},
beyond float range at large k and |q|; ``basis_matrix``, the one entry
that takes z = p + i q, gives it in log form (unit mantissa, log modulus)
as a view of the same sections.  No kernel path calls it; the tests
referee the sections through it against mpmath.

Toeplitz operators are assembled in closed form from a symbol's Fourier modes
(``toeplitz_build``), one weighted cyclic shift per mode, and are held as
those cyclic diagonals (``HermitianOperator``); quadrature serves only the
Gram identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .torusgeo import SymbolField, _as_pq, _as_points

__all__ = [
    "ConstructionError",
    "EvaluationError",
    "QuantumSpace",
    "quantum_space",
    "HermitianOperator",
    "LogForm",
    "basis_matrix",
    "sections",
    "gram_matrix",
    "toeplitz_build",
    "bergman_diag",
]

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi
# The one size limit: the dense eigh of a non-diagonal operator (sections hold at any k).
_EIGH_K_MAX = 400
# The one working-set budget: (row, point) or (row, eigenvalue) pairs per block of every
# exact-side grid (_block_len); 94 KiB temporaries, under glibc's 128 KiB mmap threshold.
_BLOCK_PAIRS = 6000
# The theta window's one truncation rule: the first omitted term is <= 2^-60 of the centre term.
_LOG_TAIL = 60.0 * math.log(2.0)

GAUGE_NOTE = (
    "basis prefactor exp(2*pi*i*ell*z) (derived from the lattice multipliers); "
    "weight exp(-4*pi*k*q^2) against 4*pi dp dq. Rejected candidates: prefactor "
    "exp(2*i*pi*(ell + k Im z)) [not holomorphic, fails orthonormality under any "
    "weight], prefactor exp(2*i*pi*q*(ell + k Im z)) [not holomorphic], weight "
    "exp(-2*pi*k*q^2) [fails the Gram identity test]."
)


class ConstructionError(RuntimeError):
    """An operator failed its Hermiticity or eigen-residual check, or needs a dense eigh above k = 400."""


class EvaluationError(RuntimeError):
    """A basis evaluation produced non-finite values."""


# ---------------------------------------------------------------------------
# quantum space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumSpace:
    """Level-k space of theta sections, k an integer >= 1 (stored as an int;
    ValueError otherwise); its numerical parameters follow from k.

    ``theta_terms`` is the half-width R of the shifted theta summation
    window, the smallest R >= 1 with 2 pi k R (R+1) >= 60 ln 2: the first
    omitted term, at x +- 2k(R+1) for a centre term at |x| <= k, sits at
    most 2^-60 below it (R = 3, 2, 2 at k = 1, 2, 3, then 1);
    ``quad_order`` the Gram quadrature's nodes per axis N, the smallest
    multiple of 16, at least 32, with N^2 >= 60 k: the trapezoid rule on the
    torus misses the Gram integral only by aliasing, about e^{-pi N^2/(4k)}
    <= e^{-15 pi} (Trefethen & Weideman, SIAM Rev. 56, 2014);
    ``gauge_note`` records which basis/weight gauge passed adjudication.
    """

    k: int
    gauge_note: ClassVar[str] = GAUGE_NOTE

    def __post_init__(self) -> None:
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))

    @property
    def dim(self) -> int:
        return 2 * self.k

    @property
    def theta_terms(self) -> int:
        r = 1
        while TWO_PI * self.k * r * (r + 1) < _LOG_TAIL:
            r += 1
        return r

    @property
    def quad_order(self) -> int:
        n = math.isqrt(60 * self.k - 1) + 1
        return max(32, -(-n // 16) * 16)

    def log_metric_weight(self, q) -> np.ndarray:
        """log of the pointwise weight: -4*pi*k*q^2."""
        return -FOUR_PI * self.k * np.asarray(q, dtype=float) ** 2


def quantum_space(k: int) -> QuantumSpace:
    """The level-k QuantumSpace, for any integer k >= 1, with the theta window
    and Gram nodes ``QuantumSpace`` derives from k.  It runs no quadrature:
    the Gram identity is the ``gram_matrix`` contract."""

    return QuantumSpace(k)


def _block_len(width: int, floor: int = 1) -> int:
    """Columns per block of a width-row grid: the fewest whole budget shares reaching floor."""
    share = max(1, _BLOCK_PAIRS // max(1, width))
    return share * max(1, -(-floor // share))


# ---------------------------------------------------------------------------
# basis sections
# ---------------------------------------------------------------------------


class LogForm(NamedTuple):
    """Values mantissa * exp(log_scale), |mantissa| = 1 (0 at an exact zero)."""

    mantissa: np.ndarray
    log_scale: np.ndarray


def basis_matrix(qs: QuantumSpace, z) -> LogForm:
    """All 2k unweighted sections Psi_ell at (possibly lifted) complex
    z = p + i q in log form, shape (2k,) + shape(z): the one entry that takes
    z, the argument of the holomorphic Psi_ell.

    A view of ``sections`` at the points (p, q): one call for every row and
    point, with the folded weight e^{-2 pi k q^2} moved back into the log
    modulus, where Psi_ell may lie far beyond float range.  The mantissa is
    e^{i arg}, unit at any k, even where a section is subnormal.
    Raises what ``sections`` raises.
    """

    z = np.asarray(z, dtype=complex)
    vals = sections(qs, np.stack([z.real, z.imag], axis=-1))
    with np.errstate(divide="ignore"):
        return LogForm(np.where(vals != 0, np.exp(1j * np.angle(vals)), 0.0),
                       np.log(np.abs(vals)) + TWO_PI * qs.k * z.imag ** 2)


def sections(qs: QuantumSpace, points) -> np.ndarray:
    """Weight-folded sections s_ell = Psi_ell(p + i q) e^{-2 pi k q^2} at
    (possibly lifted) points (p, q) along the last axis (``_as_points``), as
    plain complex values of shape (2k,) + points.shape[:-1].

    For each row and point the series is summed over ``qs.theta_terms``
    terms on either side of its largest one, whose argument x has |x| <= k,
    so the first omitted term is at most 2^-60 of it (``QuantumSpace``), in
    blocks of points holding at most ``_BLOCK_PAIRS`` (row, point) pairs.
    Raises EvaluationError on non-finite output.
    """

    pts = _as_points(points)
    flat = pts.reshape(-1, 2)
    out = np.empty((qs.dim, len(flat)), dtype=complex)
    k, radius = qs.k, qs.theta_terms
    ell = np.arange(qs.dim, dtype=float)[:, None]
    offsets = 2.0 * k * np.arange(-radius, radius + 1)
    const = k ** 0.25 / np.sqrt(TWO_PI)
    block = _block_len(qs.dim)
    for lo in range(0, len(flat), block):
        p, q = flat[lo:lo + block].T
        # term n has Gaussian argument ell + 2k(n + q); centre on the
        # largest, whose argument x satisfies |x| <= k
        shifted = ell + 2.0 * k * q
        m_centre = ell - 2.0 * k * np.round(shifted / (2.0 * k))
        x = shifted + (m_centre - ell)
        hops = np.exp(2j * np.pi * np.outer(offsets, p))
        acc = np.zeros_like(x, dtype=complex)
        for off, hop in zip(offsets, hops):
            acc += np.exp(-(np.pi / (2.0 * k)) * (x + off) ** 2) * hop
        acc *= np.exp(2j * np.pi * m_centre * p)
        out[:, lo:lo + block] = const * acc
    if not np.all(np.isfinite(out)):
        raise EvaluationError("section evaluation produced non-finite values")
    return out.reshape((qs.dim,) + pts.shape[:-1])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _quad_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # uniform nodes (p, q) in both directions: the Hermitian product of two
    # sections (weight included) is lattice-periodic in p and in q, so the
    # trapezoid rule is spectrally accurate on the whole torus
    x = np.arange(n) / n
    nodes = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    return nodes, np.full(n * n, 1.0 / (n * n))


def gram_matrix(qs: QuantumSpace) -> np.ndarray:
    """Gram matrix G[l, l'] = integral of Psi_l' conj(Psi_l) x weight x 4 pi dp dq.

    The quadrature is summed over blocks of at least 2k/4 nodes (so the
    2k x 2k updates do not dominate); no 2k x (all nodes) array is held.
    """

    return _gram_quadrature(qs, qs.quad_order)


def _gram_quadrature(qs: QuantumSpace, n_nodes: int) -> np.ndarray:
    """sum_b conj(S_b) S_b^T over node blocks b: S_b holds all 2k sections at
    the block's nodes times the square root of (Liouville x quadrature
    weight) and the weight's factor e^{2 pi k q^2 + log_metric_weight(q) / 2},
    exactly 1.0 for its own."""

    nodes, wts = _quad_nodes(n_nodes)
    q = nodes[:, 1]
    unfold = np.exp(TWO_PI * qs.k * q ** 2 + 0.5 * qs.log_metric_weight(q))
    gram = np.zeros((qs.dim, qs.dim), dtype=complex)
    block = _block_len(qs.dim, qs.dim // 4)
    for lo in range(0, len(nodes), block):
        s = sections(qs, nodes[lo:lo + block])
        s *= np.sqrt(FOUR_PI * wts[lo:lo + block]) * unfold[lo:lo + block]
        gram += np.conjugate(s) @ s.T
    return gram


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _adjoint(diagonals: dict) -> dict:
    """The cyclic diagonals of the adjoint: shift m becomes shift -m, with
    its row rolled by -m and conjugated."""
    return {(-s) % d.size: np.conjugate(np.roll(d, -s)) for s, d in diagonals.items()}


def _hermitian_parts(diagonals: dict) -> tuple[dict, float]:
    """(A + A^H) / 2 and max |A - A^H| for A given by its cyclic diagonals."""
    adj = _adjoint(diagonals)
    herm, defect = {}, 0.0
    for s in sorted(diagonals.keys() | adj.keys()):
        a, b = diagonals.get(s, 0), adj.get(s, 0)
        herm[s] = 0.5 * (a + b)
        defect = max(defect, float(np.max(np.abs(a - b))))
    return herm, defect


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian operator on the level-k ``space`` it acts on, held as its
    cyclic diagonals, with eigendata computed on first read.

    ``diagonals`` maps a shift m in [0, 2k) to the length-2k row d_m: the
    operator sends v to sum_m d_m * roll(v, m), i.e. row ell holds d_m[ell]
    in column (ell - m) mod 2k.  Memory is O(#shifts x k), and ``apply``
    needs nothing more.

    The given diagonals A must be Hermitian to 1e-12 (max |A - A^H| against
    max(1, max |A|)), checked at construction: the operator stores their
    Hermitian part (A + A^H) / 2 and, as ``hermiticity_defect``,
    max |A - A^H|.  ``eigenvalues`` and ``eigenvectors`` are computed
    together on the first read of either, never at construction.  An
    operator whose only shift is 0 is its own eigendecomposition
    (eigenvalues the diagonal, in basis order; the standard basis, recorded
    as ``eigenvectors = None``) at any k, and no dense matrix is formed.
    Any other operator is expanded to a dense matrix only to feed ``eigh``,
    only up to k = 400 (above it a read raises first), and the residual,
    computed on the stored diagonals, must stay within 1e-9 (1 + max |lambda|).
    All three checks raise ConstructionError, the last two on every read.  The
    shift-0 route has no residual check: its stored d_0 is real.
    """

    space: QuantumSpace
    diagonals: dict
    hermiticity_defect: float = field(init=False)

    def __post_init__(self) -> None:
        dim = self.space.dim
        diags = {}
        for s, d in self.diagonals.items():
            d = np.asarray(d, dtype=complex)
            if not (isinstance(s, (int, np.integer)) and 0 <= s < dim and d.shape == (dim,)):
                raise ValueError(f"diagonals must map shifts in [0, {dim}) to "
                                 f"length-{dim} rows, got shift {s!r} of shape {d.shape}")
            diags[int(s)] = d
        scale = max([1.0] + [float(np.max(np.abs(d))) for d in diags.values()])
        diags, defect = _hermitian_parts(diags)
        if defect > 1e-12 * scale:
            raise ConstructionError(f"operator diagonals are not Hermitian to 1e-12 "
                                    f"(defect {defect:.2e})")
        object.__setattr__(self, "diagonals", diags)
        object.__setattr__(self, "hermiticity_defect", defect)

    @cached_property
    def _eigendata(self) -> tuple[np.ndarray, np.ndarray | None]:
        if self.diagonals.keys() <= {0}:
            return np.array(self.diagonals.get(0, np.zeros(self.space.dim)).real), None
        if self.space.k > _EIGH_K_MAX:
            raise ConstructionError(f"a non-diagonal operator is diagonalized up to "
                                    f"k = {_EIGH_K_MAX}, not k = {self.space.k}")
        vals, vecs = np.linalg.eigh(self.dense())
        resid = float(np.max(np.abs(self.apply(vecs) - vecs * vals[None, :])))
        if resid > 1e-9 * (1.0 + float(np.max(np.abs(vals)))):
            raise ConstructionError(f"eigendecomposition residual {resid:.2e} exceeds 1e-9")
        return vals, vecs

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigendata[0]

    @property
    def eigenvectors(self) -> np.ndarray | None:
        return self._eigendata[1]

    @cached_property
    def _band(self) -> tuple[np.ndarray, np.ndarray]:
        """The diagonals as one (2k, hi - lo + 1) band, shifts taken in
        (-k, k] and column j holding shift hi - j, and the cyclic indices
        ell - hi of v for ell in [0, 2k + hi - lo): row ell of the band meets
        window ell of v at those indices, v[ell - hi .. ell - lo]."""
        dim = self.space.dim
        signed = {s - dim if s > self.space.k else s: d for s, d in self.diagonals.items()}
        lo, hi = (min(signed), max(signed)) if signed else (0, 0)
        band = np.zeros((dim, hi - lo + 1), dtype=complex)
        for s, d in signed.items():
            band[:, hi - s] = d
        return band, np.arange(-hi, dim - lo) % dim

    def apply(self, v) -> np.ndarray:
        """The operator applied to v (shape (2k,) or (2k, n)): one row-by-window
        product over the band, O(band width) per entry of v."""
        v = np.asarray(v, dtype=complex)
        band, reach = self._band
        padded = v[reach]  # a fresh C-ordered copy
        # windows[ell, ..., j] = padded[ell + j, ...], a view
        windows = np.ndarray(v.shape + (band.shape[1],), complex, padded, 0,
                             padded.strides + padded.strides[:1])
        rows = band.reshape((len(band),) + (1,) * v.ndim + (band.shape[1],))  # (2k, 1, .., width)
        return (rows @ windows[..., None])[..., 0, 0]

    def to_eigenbasis(self, rows) -> np.ndarray:
        """rows @ eigenvectors: the coefficients of row vectors against the
        eigenbasis (the rows themselves when it is the standard basis)."""
        rows = np.asarray(rows, dtype=complex)
        return rows if self.eigenvectors is None else rows @ self.eigenvectors

    def dense(self) -> np.ndarray:
        """The full 2k x 2k matrix, built on demand (for eigh and oracles)."""
        dim = self.space.dim
        ell = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for s, d in self.diagonals.items():
            out[ell, (ell - s) % dim] = d
        return out


def toeplitz_build(qs: QuantumSpace, sym: SymbolField) -> HermitianOperator:
    """T_k(f + g/k) for the principal part f and subprincipal part g, as
    cyclic diagonals in closed form from their Fourier modes.
    T_k(e^{2 pi i (m p + n q)}) is a weighted cyclic shift (Bouzouina &
    De Bievre, CMP 178, 1996): row ell holds
    e^{-pi (m^2 + n^2) / (4k)} e^{-i pi n (2 ell - m) / (2k)} in column
    (ell - m) mod 2k, so the modes of one m fill the diagonal of shift
    m mod 2k in O(#modes x k).  HermitianOperator symmetrizes the sum and
    records its Hermiticity defect, refusing one above 1e-12 (the modes are
    then not those of a real function).  A symbol of q alone gives shift 0
    only and needs no eigh.
    """

    k, dim = qs.k, qs.dim
    freqs = np.concatenate([sym.modes[0], sym.sub_modes[0]])
    coeffs = np.concatenate([sym.modes[1], sym.sub_modes[1] / k])
    ell = np.arange(dim)
    raw: dict = {}
    for m in sorted(set(freqs[:, 0].tolist())):  # np.unique would import numpy.ma
        n = freqs[freqs[:, 0] == m, 1]
        c = coeffs[freqs[:, 0] == m] * np.exp(-np.pi * (m * m + n * n) / (4.0 * k))
        row = raw.setdefault(m % dim, np.zeros(dim, dtype=complex))
        row += c @ np.exp(-1j * np.pi * np.multiply.outer(n, 2 * ell - m) / (2.0 * k))
    return HermitianOperator(qs, raw)


def bergman_diag(qs: QuantumSpace, x) -> float:
    """Diagonal of the projector kernel at the point x = (p, q) (``_as_pq``):
    sum_l |Psi_l(p + i q)|^2 x weight(q)."""

    return float(np.sum(np.abs(sections(qs, _as_pq(x))) ** 2))
