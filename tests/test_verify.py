"""Verification-suite plumbing: determinism, sizes, and parallel parity;
each check seen to fail on a planted wrong identity."""

import inspect
import sys

import pytest

from asmice import sixvertex, verify, ybe
from asmice.cyclotomic import Cyclotomic
from asmice.laurent import LaurentPoly, NonDivisible, divide_exact
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


def test_one_pass_of_the_suite_inverts_no_cyclotomic(monkeypatch):
    # q^(1/4) enters as a root-of-unity power (chain.z_prefactor) and
    # bracket products compare without dividing by a coefficient
    inverted = []
    inverse = Cyclotomic.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    for func, kwargs in build_suite("all", seed=0):
        assert func(**kwargs).passed
    assert inverted == []


def test_one_pass_of_the_suite_divides_only_where_a_quotient_exists(
        monkeypatch):
    # z_brute and ik_z attempt the division only where Z is a Laurent
    # polynomial and den is no monomial (sixvertex._z_quotient), so no
    # divide_exact fails, and none divides by a monomial
    calls, raised = [], []

    def counted(num, den):
        calls.append(den)
        try:
            return divide_exact(num, den)
        except NonDivisible:
            raised.append((num, den))
            raise

    for name, module in list(sys.modules.items()):
        if (name.startswith("asmice")
                and getattr(module, "divide_exact", None) is divide_exact):
            monkeypatch.setattr(module, "divide_exact", counted)
    for func, kwargs in build_suite("all", seed=0):
        assert func(**kwargs).passed
    assert calls and raised == []
    assert not [den for den in calls
                if isinstance(den, LaurentPoly) and den.is_monomial()]


def test_recursion_draw_redraws_a_repeated_row_parameter(monkeypatch):
    # x_0 = y_1 + 1 = 1 repeats x_1 in the first draw, not in the second
    draws = iter([([5, 1], [-3, 0]), ([5, 2], [-3, 0])])
    monkeypatch.setattr(verify, "_draw_ik_params", lambda rng, n: next(draws))
    assert verify._draw_recursion_params(None, 2, 0, 1) == ([1, 2], [-3, 0])
    assert next(draws, None) is None


def _twice(f):
    return lambda *args: f(*args) * 2


def _plus_one(f):
    return lambda *args: f(*args) + 1


def _doubled_right_side(sides):
    def broken(y, z):
        lhs, rhs = sides(y, z)
        return lhs, {b: v * 2 for b, v in rhs.items()}
    return broken


def _w_shifted(sums):
    # every w-exponent of the formal state sum one grid unit up
    def broken(p, formal):
        grid, ts, blocks = sums(p, formal)
        return grid, ts, {u + 1 if formal else u: cs
                          for u, cs in blocks.items()}
    return broken


def _undivisible(*args):
    raise NonDivisible("planted")


#: check name -> (module, name, breaker of the original, the details that
#: name the item, formatted with its arguments).  Each breaker makes one
#: side of the check's identity wrong.
PLANTED = {
    "check_ybe_pair": (ybe, "_sides", _doubled_right_side, "y={y} z={z}"),
    "check_ik_match": (verify, "z_brute", _twice, "n={n} xs="),
    "check_lemma_symmetry": (
        verify, "z_brute", lambda f: lambda p: f(p) * p.xs[0],
        "n={n} swap"),
    "check_lemma_recursion": (
        sixvertex, "z_brute", lambda f: lambda p: f(p) * p.n, "n={n} ("),
    "check_lemma_degree": (
        sixvertex, "_state_sum", _w_shifted, "n={n} ys="),
    "check_cauchy": (verify, "cauchy_det_closed", _plus_one, "n={n} xs="),
    "check_sdet_pair": (verify, "s_det_closed", _plus_one, "n={n} (a,b)"),
    "check_sdet_bivariate": (
        verify, "s_det_closed_bivariate", _plus_one, "n={n} closed form"),
    "check_sdet_collapse": (verify, "s_det_closed", _plus_one, "n={n} a=b*"),
    "check_chain_count": (verify, "a_via_chain", _plus_one, "A({n};{x})"),
    "check_chain_displayed": (
        verify, "z_half_eps_product", _twice, "n={n} bracket"),
    "check_chain_ean": (verify, "half_spec_value", _twice, "n={n} x={x}"),
    "check_chain_grid_match": (
        verify, "z_half_eps_brute", _twice, "n={n} x={x}"),
}


def _first_item(name):
    """The kwargs of the first seed-0 item of the named check."""
    return next(kw for f, kw in build_suite("all", seed=0)
                if f.__name__ == name)


def test_every_check_has_a_planted_failure():
    # a new check must come with a test of its failing side
    checks = {name for name, f in inspect.getmembers(verify,
                                                     inspect.isfunction)
              if name.startswith("check_")}
    assert checks == set(PLANTED)


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_check_fails_on_a_planted_wrong_identity(name, monkeypatch):
    module, target, breaker, naming = PLANTED[name]
    kwargs = _first_item(name)
    assert getattr(verify, name)(**kwargs).passed
    monkeypatch.setattr(module, target, breaker(getattr(module, target)))
    result = getattr(verify, name)(**kwargs)
    assert result.passed is False
    assert naming.format(**kwargs) in result.details


def test_bivariate_check_fails_when_a_factor_does_not_divide(monkeypatch):
    monkeypatch.setattr(verify, "divide_exact", _undivisible)
    result = verify.check_sdet_bivariate(2)
    assert result.passed is False
    assert result.details == "n=2 divisibility by (s-t^k)^(n-k) fails at k=0"
