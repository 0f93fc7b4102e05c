"""The benchmark's workloads: each is a fixed-order list of CLI operations.

Every operation is one ``toeplitz-propagator`` invocation.  Its inputs depend
only on the workload seed, and no operation passes more than two k values, so
the harness thread pool never grows past two workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PROP_HEADER = ("t", "re_exact", "im_exact", "re_pred", "im_pred",
               "abs_exact", "abs_pred", "rel_err_modulus", "phase_err")
PROJ_HEADER = ("k", "p", "q", "re_exact", "im_exact", "re_pred", "im_pred",
               "abs_exact", "abs_pred", "rel_err_modulus", "phase_err")
LIFT_HEADER = ("t", "transport_L_phase", "prequantum_phase", "rho_half_re",
               "rho_half_im", "rho_level_half_re", "rho_level_half_im")

# A9's bound on the projector's relative modulus error, applied to the
# seeded level-projector rows.
SEEDED_REL_ERR_BOUND = 0.10

# The README example at its documented grid; it fails today with a
# StepSizeError, so it is only run (and logged) in the traced pass.
KNOWN_FAILURE_PROBE = ("propagator", "--symbol", "cos(2*pi*q)+0.1*sin(2*pi*p)",
                       "--k", "50", "--tgrid", "0:0.01:1")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its table must look like."""

    name: str               # file stem for the table and the reference table
    argv: tuple             # arguments after the program name
    kind: str               # propagator | projector | lifts | selftest
    rows: int               # expected data rows (selftest: criteria)
    writes_out: bool        # table goes to --out; otherwise it is stdout
    fixed: bool             # inputs do not depend on the seed
    env: dict = field(default_factory=dict)

    @property
    def table_name(self) -> str:
        return self.name + (".json" if self.kind == "selftest" else ".csv")


def _prop(name, rows, *args):
    return Op(name, ("propagator",) + args + ("--out", name + ".csv"),
              "propagator", rows, True, True)


def level_points(seed: int) -> list:
    """Eight points on the model level through q = 0.1: seven at q = 0.1 and
    one at q = 0.9, with p drawn from the seed."""
    rng = random.Random(seed)
    qs = [0.1] * 7 + [0.9]
    return [(round(rng.uniform(0.0, 1.0), 6), q) for q in qs]


def _model_ops(seed: int) -> list:
    return [
        _prop("prop-k100", 101, "--k", "100", "--point", "0.3,0.1", "--tgrid", "0:0.01:1"),
        _prop("zoom-k100", 101, "--k", "100", "--tgrid", "0.8:0.001:0.9"),
        _prop("prop-k400", 101, "--k", "400", "--tgrid", "0:0.01:1"),
        Op("proj-readme", ("projector", "--k", "100,200", "--point", "0.3,0.1",
                           "--fhat", "bump:3"), "projector", 2, False, True),
        Op("lifts-k100", ("lifts", "--k", "100", "--tgrid", "0:0.01:1",
                          "--out", "lifts-k100.csv"), "lifts", 101, True, True),
        Op("selftest", ("selftest", "--out", "selftest.json"), "selftest",
           12, True, False, {"TP_SEED": str(seed)}),
    ]


def _generic_level_ops(seed: int) -> list:
    pts = ";".join(f"{p!r},{q!r}" for p, q in level_points(seed))
    return [
        _prop("expr-q-prop", 101, "--symbol", "cos(2*pi*q)", "--k", "50",
              "--tgrid", "0:0.01:1"),
        _prop("expr-pq-prop", 6, "--symbol", "cos(2*pi*q)+0.1*sin(2*pi*p)",
              "--k", "50", "--tgrid", "0:0.01:0.05"),
        Op("expr-q-proj", ("projector", "--symbol", "cos(2*pi*q)", "--k", "50",
                           "--point", "0.3,0.1", "--fhat", "bump:3"),
           "projector", 1, False, True),
        Op("proj-seeded", ("projector", "--k", "200,400", "--point", pts,
                           "--fhat", "bump:7"), "projector", 16, False, False),
    ]


# model: the README runs on the integrable model-cos symbol, whose operator
# is analytic and whose flow is closed-form, and the selftest.
# generic-level: the expression-symbol route, the only one that builds
# Toeplitz matrices by quadrature and integrates the flow numerically, and
# the seeded multi-return projector on one model level.  A pass of either
# workload takes about 30 s, so a 30 s run makes one (run.pass_count).
WORKLOADS = {"model": _model_ops, "generic-level": _generic_level_ops}


def workload_ops(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)
