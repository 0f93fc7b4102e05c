"""Self-test criteria: every headline numerical claim as one pass/fail check.

Each criterion returns a CriterionResult with the worst measured value, the
bound it must satisfy, and a details dict holding the adjudication data that
the check also produces (gauge note, modulus-exponent winner, prefactor
variants, factor-2 bookkeeping).  The registry order A1..A12 goes from basis
orthonormality through propagator and projector asymptotics to the amplitude
cross-checks.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import numpy as np

from .propkern import KernelSample, graph_compare, kernel_eval, operator_for
from .specproj import (ProjectorPrediction, build_fourier_pair, projector_kernel_asymptotic,
                       projector_kernel_exact, projector_kernel_timequad)
from .symplin import LinearSymplectomorphism, holomorphic_determinant, polar_determinant, random_symplectic
from .thetaq import bergman_diag, gram_matrix, quantum_space
from .torusgeo import (
    b_coefficient,
    b_coefficient_diagonal,
    integrate_flow,
    model_cos_symbol,
    norm_X,
    rho_graph_frame,
    rho_graph_half,
    rho_level_half,
)

__all__ = ["CriterionResult", "Rate", "REGISTRY", "run_all"]

TWO_PI = 2.0 * np.pi
_POINT = (0.3, 0.1)
_Q0 = 0.1
_E0 = float(np.cos(TWO_PI * _Q0))


@dataclass(frozen=True)
class CriterionResult:
    criterion_id: str
    description: str
    measured: float
    bound: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Rate:
    """Errors e_i measured at levels k_i, for the statements that exact minus
    predicted falls like a power of 1/k: ``ratios`` holds e_{i+1} / e_i and
    ``orders`` the local powers log2(e_i / e_{i+1}) / log2(k_{i+1} / k_i),
    inf where the finer error is 0."""

    ks: tuple[int, ...]
    errors: tuple[float, ...]

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(float(fine / coarse) for coarse, fine in zip(self.errors, self.errors[1:]))

    @property
    def orders(self) -> tuple[float, ...]:
        return tuple(np.inf if fine == 0 else float(np.log2(coarse / fine) / np.log2(k_fine / k_coarse))
                     for k_coarse, k_fine, coarse, fine
                     in zip(self.ks, self.ks[1:], self.errors, self.errors[1:]))


def _uniform(seed: int):
    """U[0, 1) arrays of a given shape from the stdlib ``random.Random(seed)``:
    53 random bits per float, vectorised by numpy."""
    rng = random.Random(seed)

    def draw(shape):
        bits = np.frombuffer(rng.randbytes(8 * int(np.prod(shape))), dtype="<u8") >> np.uint64(11)
        return (bits * 2.0 ** -53).reshape(shape)

    return draw


def _seed() -> int:
    return int(os.environ.get("TP_SEED", "7"))


def _crit_a1() -> CriterionResult:
    worst = 0.0
    per_k = {}
    note = ""
    for k in (5, 10, 20, 50):
        qs = quantum_space(k)
        defect = float(np.max(np.abs(gram_matrix(qs) - np.eye(qs.dim))))
        per_k[k] = defect
        worst = max(worst, defect)
        note = qs.gauge_note
    return CriterionResult(
        "A1", "theta basis orthonormality, k in {5,10,20,50}", worst, 1e-8,
        worst <= 1e-8, {"per_k": per_k, "gauge_note": note})


def _crit_a2() -> CriterionResult:
    qs = quantum_space(100)
    target = qs.k / TWO_PI
    pts = [(float(p), float(q)) for p, q in _uniform(_seed())((5, 2))]
    errs = {pt: abs(bergman_diag(qs, pt) - target) / target for pt in pts}
    worst = max(errs.values())
    return CriterionResult(
        "A2", "Bergman diagonal approaches k/2pi at k=100", worst, 1e-3,
        worst <= 1e-3, {"points": pts, "per_point": {str(p): e for p, e in errs.items()}})


def _crit_a3() -> CriterionResult:
    k = 100
    sym = model_cos_symbol()
    tg = np.linspace(0.0, 0.1, 101)
    rows = graph_compare(sym, _POINT, tg, [k])
    err_quarter = max(r.rel_err_modulus for r in rows)
    # alternative modulus law (1+a^2)^{-1/2} for the same closed-form model
    a = 0.5 * np.pi * tg * np.cos(TWO_PI * _POINT[1])
    half_mod = (k / TWO_PI) * (1.0 + a * a) ** (-0.5)
    err_half = float(np.max([abs(abs(r.exact) - m) / m
                             for r, m in zip(rows, half_mod)]))
    winner = "quarter" if err_quarter <= err_half else "half"
    return CriterionResult(
        "A3", "propagator kernel vs graph predictor, small times, k=100",
        err_quarter, 0.02, err_quarter <= 0.02,
        {"modulus_exponent_winner": winner,
         "err_quarter_power": err_quarter, "err_half_power": err_half})


def _crit_a4() -> CriterionResult:
    sym = model_cos_symbol()
    tg = np.linspace(0.0, 1.0, 101)
    rows = graph_compare(sym, _POINT, tg, (50, 100))
    errs = {k: max(r.rel_err_modulus for r in rows if r.k == k) for k in (50, 100)}
    ratio = Rate(tuple(errs), tuple(errs.values())).ratios[0]
    return CriterionResult(
        "A4", "graph-kernel error drops at the 1/k rate from k=50 to k=100",
        ratio, 0.65, ratio <= 0.65, {"err_k50": errs[50], "err_k100": errs[100]})


def _crit_a5() -> CriterionResult:
    # the kernel at y = phi_t(x) + (0.2, 0) falls faster than any power of 1/k
    sym = model_cos_symbol()
    t = 0.5
    y = integrate_flow(sym, _POINT, [t]).points_lifted[-1] + np.array([0.2, 0.0])
    moduli = {}
    for k in (50, 100):
        op = operator_for(quantum_space(k), sym)
        moduli[k] = abs(kernel_eval(op, np.exp(-1j * k * t * op.eigenvalues), y, _POINT)[0])
    order = Rate(tuple(moduli), tuple(moduli.values())).orders[0]
    return CriterionResult(
        "A5", "off-graph kernel decay order between k=50 and k=100", order, 3.0,
        order >= 3.0, {"moduli": moduli})


def _crit_a6() -> CriterionResult:
    count = 1000
    g = LinearSymplectomorphism(random_symplectic(_uniform(_seed()), size=count))
    holo = holomorphic_determinant(g)
    worst = float(np.max(np.abs(holo - polar_determinant(g)) / (1.0 + np.abs(holo))))
    return CriterionResult(
        "A6", "holomorphic determinant equals its polar-decomposition formula",
        worst, 1e-9, worst <= 1e-9, {"matrices": count})


def _crit_a7() -> CriterionResult:
    k, c, t = 50, 0.7, 0.5
    tg = [0.0, t]
    base = graph_compare(model_cos_symbol(), _POINT, tg, [k])[-1]
    shifted = graph_compare(model_cos_symbol(sub_const=c), _POINT, tg, [k])[-1]
    factor = np.exp(-1j * c * t)
    res_exact = abs(shifted.exact - factor * base.exact) / abs(base.exact)
    res_pred = abs(shifted.predicted - factor * base.predicted) / abs(base.predicted)
    worst = max(res_exact, res_pred)
    return CriterionResult(
        "A7", "constant subprincipal shift acts as exactly exp(-ict) on both routes",
        worst, 1e-12, worst <= 1e-12,
        {"residual_exact": res_exact, "residual_predictor": res_pred,
         "c": c, "t": t, "k": k})


def _crit_a8() -> CriterionResult:
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 3.0)
    amp = np.sqrt(2.0) / norm_X(sym, _POINT)
    fhat0 = float(np.real(pair.fhat(0.0)))
    errs, exacts = {}, {}
    for k in (100, 200):
        exacts[k] = abs(projector_kernel_exact(operator_for(quantum_space(k), sym), pair,
                                               _E0, _POINT, _POINT))
        target = (np.sqrt(k) / TWO_PI) * fhat0 * amp
        errs[k] = abs(exacts[k] - target) / target
    # the (k/2pi)^{1/2} prefactor variant differs by sqrt(2 pi); report how
    # badly it would miss so the normalization is pinned by data
    variant = np.sqrt(200 / TWO_PI) * fhat0 * amp
    variant_err = abs(exacts[200] - variant) / variant
    ratio = Rate(tuple(errs), tuple(errs.values())).ratios[0]
    passed = errs[200] <= 0.05 and ratio <= 0.7
    return CriterionResult(
        "A8", "projector diagonal matches sqrt(k)/(2pi) fhat(0) sqrt(2)/||X||",
        errs[200], 0.05, passed,
        {"err_k100": errs[100], "err_k200": errs[200], "ratio": ratio,
         "ratio_bound": 0.7,
         "display_variant_rel_err": variant_err,
         "normalization_note": (
             "the prefactor is sqrt(k)/(2pi): the k^{-1/2} inverse-transform "
             "factor times (k/2pi)^{1/2} node density times the k/2pi "
             "propagator amplitude integrates to it; the (k/2pi)^{1/2} "
             "variant misses the exact value by the factor sqrt(2pi), "
             "measured above")})


def _crit_a9() -> CriterionResult:
    sym = model_cos_symbol()
    pair = build_fourier_pair("bump", 7.0)
    k = 200
    exact = projector_kernel_exact(operator_for(quantum_space(k), sym), pair, _E0,
                                   _POINT, _POINT)
    full = projector_kernel_asymptotic(sym, pair, _E0, _POINT, _POINT)
    stripped = ProjectorPrediction(tuple(t for t in full.terms if abs(t.t) < 3.0))
    err_full, err_stripped = (KernelSample(k, _POINT, _POINT, exact, pred.value(k)).rel_err_modulus
                              for pred in (full, stripped))
    degradation = err_stripped / err_full if err_full > 0 else np.inf
    passed = err_full <= 0.10 and degradation >= 2.0
    return CriterionResult(
        "A9", "multi-return predictor tracks the diagonal; return terms matter",
        err_full, 0.10, passed,
        {"err_with_returns": err_full, "err_without_returns": err_stripped,
         "degradation": degradation, "degradation_bound": 2.0,
         "return_times": sorted(t.t for t in full.terms),
         "significant_terms": sum(1 for t in full.terms if abs(t.fhat) > 1e-6)})


def _crit_a10() -> CriterionResult:
    op = operator_for(quantum_space(50), model_cos_symbol())
    pair = build_fourier_pair("bump", 3.0)
    pairs = (((0.3, _Q0), (0.3, _Q0)),
             ((0.6, _Q0), (0.6, _Q0)),
             ((0.45, _Q0), (0.3, _Q0)))
    worst = 0.0
    per = {}
    for y, x in pairs:
        a = projector_kernel_exact(op, pair, _E0, y, x)
        b = projector_kernel_timequad(op, pair, _E0, y, x)
        rel = abs(a - b) / max(1.0, abs(a))
        per[f"{y}<-{x}"] = rel
        worst = max(worst, rel)
    # the time side runs on twice the nodes the spectral side resolves f with
    n_spectral = pair.node_count(float(np.max(np.abs(op.space.k * (_E0 - op.eigenvalues)))))
    return CriterionResult(
        "A10", "spectral-sum and time-quadrature projector routes agree, k=50",
        worst, 1e-6, worst <= 1e-6,
        {"per_pair": per, "quad_nodes": (n_spectral, 2 * n_spectral)})


def _crit_a11() -> CriterionResult:
    sym = model_cos_symbol()
    x = _POINT
    tg = np.linspace(0.0, 1.0, 201)
    traj = integrate_flow(sym, x, tg)
    det_route = rho_graph_half(traj) ** 2
    frame_route = rho_graph_frame(traj)
    route_gap = float(np.max(np.abs(det_route - frame_route)))

    nx = norm_X(sym, x)
    short = integrate_flow(sym, x, np.array([0.0, 1e-3]))
    rho_l0 = complex(rho_level_half(sym, short, _E0)[0]) ** 2
    level_gap = abs(rho_l0 - 2.0 / nx ** 2)

    b_diag = b_coefficient_diagonal(sym, x)
    product_gap = abs(rho_l0 * b_diag - 1.0)
    b_line = b_coefficient(sym, x, (0.0, 1.0))

    worst = max(route_gap / 1e-9, level_gap / 1e-10, product_gap / 1e-10)
    return CriterionResult(
        "A11", "amplitude cross-checks: det vs frame route, level-set ratios",
        route_gap, 1e-9,
        route_gap <= 1e-9 and level_gap <= 1e-10 and product_gap <= 1e-10,
        {"route_gap": route_gap, "rho_level0_vs_2_over_X2": level_gap,
         "rho_level0_times_B_diag_minus_1": product_gap,
         "b_diagonal": complex(b_diag), "b_gamma0_line": complex(b_line),
         "factor_2_note": (
             "the diagonal-embedding transversality coefficient is ||X||^2/2 "
             "and inverts rho'_0 exactly; the {p=const}-line coefficient is "
             "twice that (pi sin^2 here), the two differ by the factor 2 the "
             "doubled-space pairing absorbs"),
         "worst_normalized": worst})


def _crit_a12() -> CriterionResult:
    sym = model_cos_symbol()
    tg = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    traj = integrate_flow(sym, _POINT, tg)
    halves = rho_graph_half(traj)
    # theta_a picks each branch; on this fine grid the principal angle of
    # each ratio is the step of the branch angle
    max_step = float(np.max(np.abs(np.angle(halves[1:] / halves[:-1]))))
    rho = 1.0 / traj.holomorphic_det
    sq_gap = float(np.max(np.abs(halves ** 2 - rho)))
    passed = max_step < np.pi / 4 and sq_gap <= 1e-12
    return CriterionResult(
        "A12", "branch-continuous sqrt: small argument steps, exact squares",
        max_step, float(np.pi / 4), passed,
        {"max_arg_step": max_step, "square_reconstruction_gap": sq_gap,
         "grid_points": int(tg.size)})


REGISTRY = {
    "A1": _crit_a1,
    "A2": _crit_a2,
    "A3": _crit_a3,
    "A4": _crit_a4,
    "A5": _crit_a5,
    "A6": _crit_a6,
    "A7": _crit_a7,
    "A8": _crit_a8,
    "A9": _crit_a9,
    "A10": _crit_a10,
    "A11": _crit_a11,
    "A12": _crit_a12,
}


def run_all() -> list[CriterionResult]:
    return [runner() for runner in REGISTRY.values()]
