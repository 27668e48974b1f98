"""Verification-suite plumbing: determinism, sizes, and parallel parity."""

import pytest

from asmice.laurent import LaurentPoly
from asmice.verify import (SUITE_NAMES, CheckResult, build_suite, run_suite)

EXPECTED_SIZES = {"ybe": 7, "ik": 11, "cauchy": 5,
                  "sdet": 30, "lemmas": 10, "chain": 41}


def test_suite_names_and_sizes():
    assert SUITE_NAMES == ("ybe", "ik", "cauchy", "sdet", "lemmas", "chain")
    for name, size in EXPECTED_SIZES.items():
        assert len(build_suite(name)) == size


def test_build_is_deterministic_in_seed():
    a = build_suite("ik", seed=5)
    b = build_suite("ik", seed=5)
    assert [(f, kw) for f, kw in a] == [(f, kw) for f, kw in b]
    c = build_suite("ik", seed=6)
    assert [kw for _, kw in a] != [kw for _, kw in c]


def test_all_concatenates_every_suite():
    items = build_suite("all", seed=0)
    assert len(items) == sum(EXPECTED_SIZES.values())
    funcs = [f for f, _ in items]
    expected = [f for name in SUITE_NAMES for f, _ in build_suite(name)]
    assert funcs == expected


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        build_suite("everything")


def test_max_n_caps_but_never_exceeds():
    assert len(build_suite("ik", max_n=2)) == 6       # 3 each at n=1,2
    assert len(build_suite("ik", max_n=99)) == 11     # capped at n=4
    assert len(build_suite("cauchy", max_n=3)) == 3


def test_sdet_max_n_bounds_the_bivariate_items():
    items = build_suite("sdet", 0, 1)
    assert any(f.__name__ == "check_sdet_bivariate" for f, _ in items)
    assert all(kw["n"] <= 1 for _, kw in items)


def test_star_triangle_suite_passes():
    results = run_suite("ybe", seed=0)
    assert len(results) == 7
    assert all(r.passed for r in results)
    assert all(r.name == "ybe-pair" for r in results)
    assert all("64 equal" in r.details for r in results)


def test_small_suites_pass():
    for name, max_n in (("ik", 3), ("cauchy", 3), ("lemmas", 3)):
        results = run_suite(name, seed=0, max_n=max_n)
        assert results and all(r.passed for r in results), name


def test_chain_suite_small_passes():
    results = run_suite("chain", seed=0, max_n=2)
    assert len(results) == 20
    assert all(r.passed for r in results)


def test_chain_counts_at_three_grow_with_max_n():
    items = build_suite("chain", 0, 8)
    threes = [kw["n"] for f, kw in items
              if f.__name__ == "check_chain_count" and kw["x"] == 3]
    assert threes == list(range(1, 9))
    for f, kw in items:
        if f.__name__ == "check_chain_count":
            assert f(**kw).passed, kw


def test_process_pool_matches_serial():
    serial = run_suite("cauchy", seed=3, max_n=3)
    parallel = run_suite("cauchy", seed=3, max_n=3, workers=2)
    assert ([(r.name, r.passed, r.details) for r in serial]
            == [(r.name, r.passed, r.details) for r in parallel])


@pytest.mark.parametrize("workers", [0, -1])
def test_run_suite_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        run_suite("ybe", seed=0, workers=workers)


def test_check_result_repr():
    assert repr(CheckResult("probe", True, "n=2")) == "[pass] probe: n=2"
    assert repr(CheckResult("probe", False)) == "[FAIL] probe"


def test_one_pass_of_the_suite_changes_few_grids(monkeypatch):
    # weights of labels on mixed grids go to their common grid once
    # (laurent.common_grid), not once per operation that mixes them
    changes = 0
    rescale = LaurentPoly.rescale

    def counted(self, new_scale):
        nonlocal changes
        changes += new_scale != self.scale
        return rescale(self, new_scale)

    monkeypatch.setattr(LaurentPoly, "rescale", counted)
    for func, kwargs in build_suite("all", seed=0):
        assert func(**kwargs).passed
    assert changes < 400
