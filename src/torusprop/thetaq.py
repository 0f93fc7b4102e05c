"""The quantum side: theta-function bases, Gram tests, Toeplitz matrices.

The level-k quantum space over the torus is the 2k-dimensional space of
entire functions with the lattice multipliers f(z+1) = f(z),
f(z+i) = e^{2 pi k (1 - 2 i z)} f(z).  Its standard basis is

    Psi_ell(z) = (k^{1/4} / sqrt(2 pi)) * sum_{n in Z}
                 exp(-pi (ell + 2 k n)^2 / (2k)) exp(2 pi i (ell + 2 k n) z)
               = (k^{1/4} / sqrt(2 pi)) e^{2 pi i ell z} e^{-pi ell^2/(2k)}
                 theta3(pi (2 k z + i ell), e^{-2 pi k}),

orthonormal for the pointwise weight e^{-4 pi k q^2} against the Liouville
measure 4 pi dp dq.

Gauge adjudication (recorded, not silent): two candidate prefactor forms in
circulation — exp(2 i pi (ell + k Im z)) and exp(2 i pi q (ell + k Im z)) —
are both rejected here because they are not holomorphic in z (the
Cauchy-Riemann check in the test suite fails for them, and the first also
fails orthonormality under every weight); the e^{2 pi i ell z} form above is
the one derived from the lattice multipliers, and the weight candidate
e^{-2 pi k q^2} is replaced by the derived e^{-4 pi k q^2}, which passes the
construction-time Gram self-test.  Every QuantumSpace carries this record in
``gauge_note``.

Sections are evaluated with the square root of that weight folded in:

    s_ell(z) = Psi_ell(z) e^{-2 pi k q^2}
             = (k^{1/4} / sqrt(2 pi)) * sum_{n in Z}
               exp(-(pi / 2k) (ell + 2 k n + 2 k q)^2) e^{2 pi i (ell + 2 k n) p},

a periodized Gaussian whose terms are all at most 1, so ``sections`` returns
plain complex values for every row and point at once.  |s_ell|^2 is the
pointwise density of Psi_ell against the weight, and the kernels carry only
the unit-gauge phase.  ``theta3``, ``basis_eval`` and ``basis_matrix``, which
carry (mantissa, exponent) pairs for the unweighted Psi_ell, are kept as the
reference the tests compare ``sections`` against.

Toeplitz matrices are assembled in closed form from a symbol's Fourier modes
(``toeplitz_build``), one weighted cyclic shift per mode; quadrature serves
only the Gram identity and the construction self-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expval import ExpComplex, expc
from .torusgeo import SymbolField

__all__ = [
    "TruncationError",
    "ResolutionError",
    "ConstructionError",
    "EvaluationError",
    "QuantumSpace",
    "quantum_space",
    "HermitianOperator",
    "theta3",
    "basis_eval",
    "basis_matrix",
    "sections",
    "gram_matrix",
    "toeplitz_build",
    "bergman_diag",
]

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi
# Sections cannot overflow at any k; the size limit is the dense 2k x 2k
# operators and their eigendecomposition.
K_MAX = 400
# Most (row, point) pairs one block of ``sections`` holds, so the grid
# temporaries stay a few MB however many points are asked for.
_BLOCK_PAIRS = 1 << 15

GAUGE_NOTE = (
    "basis prefactor exp(2*pi*i*ell*z) (derived from the lattice multipliers); "
    "weight exp(-4*pi*k*q^2) against 4*pi dp dq. Rejected candidates: prefactor "
    "exp(2*i*pi*(ell + k Im z)) [not holomorphic, fails orthonormality under any "
    "weight], prefactor exp(2*i*pi*q*(ell + k Im z)) [not holomorphic], weight "
    "exp(-2*pi*k*q^2) [fails the Gram identity test]."
)


class TruncationError(RuntimeError):
    """The theta series window is too small for the requested accuracy."""


class ResolutionError(RuntimeError):
    """Doubling the quadrature nodes moved the result: grid under-resolved."""


class ConstructionError(RuntimeError):
    """A construction-time self-test failed."""


class EvaluationError(RuntimeError):
    """A basis evaluation produced non-finite values."""


# ---------------------------------------------------------------------------
# quantum space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumSpace:
    """Level-k space of theta sections with its numerical parameters.

    ``theta_terms`` is the half-width of the shifted theta summation window;
    ``quad_order`` the node count per axis for the Gram quadrature;
    ``gauge_note`` records which basis/weight gauge passed adjudication.
    """

    k: int
    theta_terms: int
    quad_order: int
    gauge_note: str = GAUGE_NOTE

    @property
    def dim(self) -> int:
        return 2 * self.k

    def log_metric_weight(self, q) -> np.ndarray:
        """log of the pointwise weight: -4*pi*k*q^2."""
        return -FOUR_PI * self.k * np.asarray(q, dtype=float) ** 2


def _default_theta_terms(nome_log: float) -> int:
    # window wide enough that the edge term sits ~e^{-34} below the peak
    return max(3, int(np.ceil(np.sqrt(34.0 / abs(nome_log)))) + 1)


def quantum_space(k: int) -> QuantumSpace:
    """Build the level-k QuantumSpace, self-testing orthonormality at small k.

    The theta window reaches e^{-34} below its peak, and the Gram quadrature
    takes 64 nodes per axis per started 25 levels.  The self-test (k <= 50,
    per-basis-vector norms and a far off-diagonal pair) guards the gauge
    conventions; the full Gram identity is the gram_matrix contract."""

    if not (isinstance(k, (int, np.integer)) and 1 <= k <= K_MAX):
        raise ValueError(f"k must be an integer in [1, {K_MAX}], got {k!r}")
    qs = QuantumSpace(k=int(k), theta_terms=_default_theta_terms(-TWO_PI * k),
                      quad_order=64 * max(1, int(np.ceil(k / 25))))
    if k <= 50:
        _construction_self_test(qs)
    return qs


def _construction_self_test(qs: QuantumSpace) -> None:
    ells = np.arange(qs.dim) if qs.dim <= 30 else np.unique(
        np.concatenate([[0, 1, qs.k - 1, qs.k, qs.dim - 2, qs.dim - 1],
                        np.linspace(0, qs.dim - 1, 8).astype(int)]))
    p, q, wts = _quad_nodes(qs.quad_order)
    # undo the folded e^{-2 pi k q^2} and apply the space's own weight, so a
    # wrong weight shows up as a norm defect
    unfold = np.exp(TWO_PI * qs.k * q ** 2 + 0.5 * qs.log_metric_weight(q))
    rows = sections(qs, p + 1j * q, ells) * unfold
    norms = np.sum(np.abs(rows) ** 2 * wts, axis=1) * FOUR_PI
    worst = float(np.max(np.abs(norms - 1.0)))
    # one representative far-off-diagonal inner product
    inner = complex(np.sum(np.conjugate(rows[0]) * rows[-1] * wts) * FOUR_PI)
    worst = max(worst, abs(inner))
    if worst > 1e-8:
        raise ConstructionError(
            f"basis self-test defect {worst:.2e} > 1e-8 at k={qs.k}: the gauge "
            "conventions or quadrature resolution are wrong")


# ---------------------------------------------------------------------------
# theta function
# ---------------------------------------------------------------------------


def theta3(w, nome_log: float, terms: int | None = None) -> ExpComplex:
    """theta_3(w, nome) = sum_n nome^{n^2} e^{2 i n w} with nome = e^{nome_log}.

    Summed over the window |n - n*| <= terms around the index n* of maximal
    term magnitude, in (mantissa, exponent) form; raises TruncationError when
    the window's edge terms are not negligible against the peak.
    """

    if not nome_log < 0.0:
        raise ValueError("nome_log must be negative (|nome| < 1)")
    w = np.asarray(w, dtype=complex)
    radius = _default_theta_terms(nome_log) if terms is None else int(terms)
    if radius < 1:
        raise ValueError("need at least one theta term on each side")
    n_star = np.imag(w) / nome_log
    base = np.round(n_star).astype(int)
    offsets = np.arange(-radius, radius + 1)
    n_idx = base[..., None] + offsets
    # term_n = exp(n^2 nome_log + 2 i n w): split into log-magnitude and phase
    log_mag = (n_idx.astype(float) ** 2) * nome_log - 2.0 * n_idx * np.imag(w)[..., None]
    phase = 2.0 * n_idx * np.real(w)[..., None]
    peak = np.max(log_mag, axis=-1, keepdims=True)
    terms_scaled = np.exp(log_mag - peak) * np.exp(1j * phase)
    total = np.sum(terms_scaled, axis=-1)
    edge = np.maximum(np.exp(log_mag[..., 0] - peak[..., 0]),
                      np.exp(log_mag[..., -1] - peak[..., 0]))
    if np.any(edge > 1e-16):
        raise TruncationError(
            f"theta window edge terms reach {float(np.max(edge)):.2e} of the peak; "
            "increase the term count for this nome")
    return expc(total).scaled(np.squeeze(peak, axis=-1))


# ---------------------------------------------------------------------------
# basis sections
# ---------------------------------------------------------------------------


def basis_eval(qs: QuantumSpace, ell: int, z) -> ExpComplex:
    """The basis section Psi_ell at (possibly lifted) points z = p + i q.

    Entire in z; all prefactors are combined at the log level.  Raises
    IndexError for ell outside [0, 2k) and EvaluationError on non-finite
    output (which the scaling should make impossible for k <= 400).
    """

    if not (isinstance(ell, (int, np.integer)) and 0 <= ell < qs.dim):
        raise IndexError(f"basis index {ell!r} outside [0, {qs.dim})")
    z = np.asarray(z, dtype=complex)
    k = qs.k
    th = theta3(np.pi * (2.0 * k * z + 1j * ell), -TWO_PI * k, qs.theta_terms)
    log_pref = (0.25 * np.log(k) - 0.5 * np.log(TWO_PI)
                - np.pi * ell ** 2 / (2.0 * k) - TWO_PI * ell * np.imag(z))
    out = th.scaled(log_pref, np.exp(2j * np.pi * ell * np.real(z)))
    mant = np.asarray(out.mantissa)
    logs = np.asarray(out.log_scale)
    if not (np.all(np.isfinite(mant)) and np.all(np.isfinite(logs) | (logs == -np.inf))):
        raise EvaluationError("basis evaluation produced non-finite values")
    return out


def basis_matrix(qs: QuantumSpace, z) -> ExpComplex:
    """All 2k basis sections at the given points: shape (2k,) + shape(z)."""

    z = np.asarray(z, dtype=complex)
    mant = np.empty((qs.dim,) + z.shape, dtype=complex)
    logs = np.empty((qs.dim,) + z.shape, dtype=float)
    for ell in range(qs.dim):
        row = basis_eval(qs, ell, z)
        mant[ell] = row.mantissa
        logs[ell] = row.log_scale
    return ExpComplex(mant, logs)


def sections(qs: QuantumSpace, z, ells=None) -> np.ndarray:
    """Weight-folded sections s_ell(z) = Psi_ell(z) e^{-2 pi k q^2} at
    (possibly lifted) points z = p + i q, as plain complex values of shape
    (len(ells),) + shape(z); all 2k rows by default.

    For each row and point the series is summed over ``qs.theta_terms``
    terms on either side of its largest one.  Raises IndexError for rows
    outside [0, 2k), TruncationError when the window's edge terms exceed
    1e-16 of its centre term, and EvaluationError on non-finite output.
    """

    z = np.asarray(z, dtype=complex)
    rows = np.arange(qs.dim) if ells is None else np.asarray(ells).reshape(-1)
    if rows.size and not (np.issubdtype(rows.dtype, np.integer)
                          and rows.min() >= 0 and rows.max() < qs.dim):
        raise IndexError(f"basis rows {ells!r} outside [0, {qs.dim})")
    flat = z.reshape(-1)
    out = np.empty((rows.size, flat.size), dtype=complex)
    k, radius = qs.k, qs.theta_terms
    ell = rows.astype(float)[:, None]
    offsets = 2.0 * k * np.arange(-radius, radius + 1)
    const = k ** 0.25 / np.sqrt(TWO_PI)
    block = max(1, _BLOCK_PAIRS // max(1, rows.size))
    for lo in range(0, flat.size if rows.size else 0, block):
        p = flat.real[lo:lo + block]
        q = flat.imag[lo:lo + block]
        # term n has Gaussian argument ell + 2k(n + q); centre on the
        # largest, whose argument x satisfies |x| <= k
        shifted = ell + 2.0 * k * q
        m_centre = ell - 2.0 * k * np.round(shifted / (2.0 * k))
        x = shifted + (m_centre - ell)
        # the edge terms sit at x +- 2k*radius: log ratio to the centre term
        edge_log = -TWO_PI * radius * (k * radius - float(np.max(np.abs(x))))
        if edge_log > np.log(1e-16):
            raise TruncationError(
                f"theta window edge terms reach {np.exp(edge_log):.2e} of the "
                f"centre term at k={k}; increase theta_terms")
        hops = np.exp(2j * np.pi * np.outer(offsets, p))
        acc = np.zeros_like(x, dtype=complex)
        for off, hop in zip(offsets, hops):
            acc += np.exp(-(np.pi / (2.0 * k)) * (x + off) ** 2) * hop
        acc *= np.exp(2j * np.pi * m_centre * p)
        out[:, lo:lo + block] = const * acc
    if not np.all(np.isfinite(out)):
        raise EvaluationError("section evaluation produced non-finite values")
    return out.reshape((rows.size,) + z.shape)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _quad_nodes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # periodic direction: uniform nodes, exact for trigonometric integrands
    p = np.arange(n) / n
    wp = np.full(n, 1.0 / n)
    # q direction: Gauss-Legendre on [0, 1]
    xg, wg = np.polynomial.legendre.leggauss(n)
    q = 0.5 * (xg + 1.0)
    wq = 0.5 * wg
    pp, qq = np.meshgrid(p, q, indexing="ij")
    ww = np.outer(wp, wq)
    return pp.ravel(), qq.ravel(), ww.ravel()


def _weighted_sections(qs: QuantumSpace, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weight-folded sections at the quadrature grid, times the square root
    of (Liouville x quadrature weight); returns (S, p, q, w)."""

    p, q, wts = _quad_nodes(n_nodes)
    s = sections(qs, p + 1j * q)
    s *= np.sqrt(FOUR_PI * wts)
    return s, p, q, wts


def gram_matrix(qs: QuantumSpace, verify: bool = False) -> np.ndarray:
    """Gram matrix G[l, l'] = integral of Psi_l' conj(Psi_l) x weight x 4 pi dp dq.

    With ``verify=True`` the integral is recomputed on a doubled grid and a
    drift above 1e-9 raises ResolutionError.
    """

    s, _, _, _ = _weighted_sections(qs, qs.quad_order)
    gram = np.conjugate(s) @ s.T
    if verify:
        s2, _, _, _ = _weighted_sections(qs, 2 * qs.quad_order)
        gram2 = np.conjugate(s2) @ s2.T
        drift = float(np.max(np.abs(gram2 - gram)))
        if drift > 1e-9:
            raise ResolutionError(f"Gram quadrature drifted {drift:.2e} under node "
                                  "doubling; raise quad_order")
        gram = gram2
    return gram


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix on the level-k space, with eigendata attached.

    Without eigendata the matrix is diagonalized; either way the
    eigendecomposition residual must stay within 1e-9.
    ``hermiticity_defect`` records how far a built matrix was from
    Hermitian before symmetrization.
    """

    k: int
    matrix: np.ndarray
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    hermiticity_defect: float = 0.0

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (2 * self.k, 2 * self.k):
            raise ValueError(f"matrix must be {2 * self.k} x {2 * self.k}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.conj().T))) > 1e-12 * scale:
            raise ValueError("operator matrix is not Hermitian to 1e-12")
        if self.eigenvalues is None or self.eigenvectors is None:
            vals, vecs = np.linalg.eigh(m)
            object.__setattr__(self, "eigenvalues", vals)
            object.__setattr__(self, "eigenvectors", vecs)
        else:
            object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
            object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=complex))
        resid = float(np.max(np.abs(self.matrix @ self.eigenvectors
                                    - self.eigenvectors * self.eigenvalues[None, :])))
        if resid > 1e-9 * (1.0 + float(np.max(np.abs(self.eigenvalues)))):
            raise ValueError(f"eigendecomposition residual {resid:.2e} exceeds 1e-9")


def toeplitz_build(qs: QuantumSpace, sym: SymbolField) -> HermitianOperator:
    """T_k(f + g/k) for the principal part f and subprincipal part g, in
    closed form from their Fourier modes.  T_k(e^{2 pi i (m p + n q)}) is a
    weighted cyclic shift (Bouzouina & De Bievre, CMP 178, 1996): row ell holds
    e^{-pi (m^2 + n^2) / (4k)} e^{-i pi n (2 ell - m) / (2k)} in column
    (ell - m) mod 2k.  The sum must come out Hermitian to 1e-9 before
    symmetrization (the defect is recorded); the Hermitian average is then
    eigendecomposed.
    """

    k, dim = qs.k, qs.dim
    freqs = np.concatenate([sym.modes[0], sym.sub_modes[0]])
    coeffs = np.concatenate([sym.modes[1], sym.sub_modes[1] / k])
    ell = np.arange(dim)
    raw = np.zeros((dim, dim), dtype=complex)
    for m in np.unique(freqs[:, 0]):  # the modes of one m share a shifted diagonal
        n = freqs[freqs[:, 0] == m, 1]
        c = coeffs[freqs[:, 0] == m] * np.exp(-np.pi * (m * m + n * n) / (4.0 * k))
        raw[ell, (ell - m) % dim] += c @ np.exp(-1j * np.pi * np.multiply.outer(n, 2 * ell - m) / (2.0 * k))
    scale = max(1.0, float(np.max(np.abs(raw))))
    defect = float(np.max(np.abs(raw - raw.conj().T)))
    if defect > 1e-9 * scale:
        raise ConstructionError(f"Toeplitz matrix asymmetry {defect:.2e} exceeds 1e-9: "
                                "the symbol modes are not those of a real function")
    herm = 0.5 * (raw + raw.conj().T)
    return HermitianOperator(k=qs.k, matrix=herm, hermiticity_defect=defect)


def bergman_diag(qs: QuantumSpace, z) -> float:
    """Diagonal of the projector kernel: sum_l |Psi_l(z)|^2 x weight(z)."""

    return float(np.sum(np.abs(sections(qs, complex(z))) ** 2))
