"""One pass/fail line per self-test criterion, at the stated tolerance."""

import pytest

from torusprop.acceptance import REGISTRY, _uniform, run_all
from torusprop.harness import main


def test_registry_is_complete_and_ordered():
    assert list(REGISTRY) == [f"A{i}" for i in range(1, 13)]


@pytest.mark.parametrize("criterion_id", list(REGISTRY))
def test_criterion(criterion_id):
    res = REGISTRY[criterion_id]()
    assert res.criterion_id == criterion_id
    assert res.passed, (
        f"{criterion_id} failed: measured={res.measured:.6g} "
        f"bound={res.bound:.6g} details={res.details}")


def test_seeded_criteria_repeat_under_one_seed(monkeypatch):
    monkeypatch.setenv("TP_SEED", "1801")
    for criterion_id in ("A2", "A6"):
        first, second = REGISTRY[criterion_id](), REGISTRY[criterion_id]()
        assert first.measured == second.measured
        assert first.details == second.details


def test_a2_points_are_the_stdlib_draws_of_its_seed(monkeypatch):
    points = {}
    for seed in (1, 2):
        monkeypatch.setenv("TP_SEED", str(seed))
        points[seed] = REGISTRY["A2"]().details["points"]
        assert points[seed] == [tuple(row) for row in _uniform(seed)((5, 2)).tolist()]
    assert points[1] != points[2]


def test_selftest_json_is_byte_identical_under_one_seed(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("TP_SEED", "1801")
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        assert main(["selftest", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("seed", [102, 1448, 1562])
def test_a6_passes_at_seeds_whose_draws_are_ill_conditioned(monkeypatch, seed):
    # polar factors read from M^T M lose digits at the square of M's
    # condition number: at these seeds A6 measured 1.34e-9 > 1e-9 (102) or
    # a factor failed the symplectic check (1448, 1562)
    monkeypatch.setenv("TP_SEED", str(seed))
    res = REGISTRY["A6"]()
    assert res.passed, f"A6 failed at TP_SEED={seed}: measured={res.measured:.6g}"
