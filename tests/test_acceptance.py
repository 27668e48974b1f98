"""Acceptance gate: one timed pass/fail line per criterion.

Every comparison is exact (integers, rationals, Laurent polynomials,
cyclotomic scalars); there are no tolerances anywhere.  Each criterion
prints `criterion N (<label>): PASS|FAIL [<seconds>]` even when it fails,
and enforces its own wall-clock budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from asmice.asm import count_asms_brute
from asmice.chain import (a_via_chain, ean_normalize, half_spec_value,
                          ik_eps_ratfunc, q_fourth_root, z_half_eps_product)
from asmice.dets import EpsilonGrid, antidiagonal_block_det, general_x_matrix
from asmice.formulas import a2_formula, a3_formula, a_formula, b_chain
from asmice.intpoly import IntPoly
from asmice.matrices import det_exact
from asmice.transfer import DEFAULT_BOUND, transfer_count
from asmice.verify import build_suite, run_suite
from asmice.ybe import ybe_check

SMALL_COUNTS = (1, 2, 7, 42, 429, 7436)


@lru_cache(maxsize=None)
def _xpoly(n):
    return transfer_count(n)


@contextmanager
def criterion(num, label, capsys, budget):
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield
        dt = time.monotonic() - t0
        assert dt < budget, (f"criterion {num} took {dt:.1f}s, "
                             f"budget {budget}s")
        status = "PASS"
    finally:
        dt = time.monotonic() - t0
        with capsys.disabled():
            print(f"criterion {num} ({label}): {status}  [{dt:.1f}s]")


def test_criterion_1_counting_methods_agree(capsys):
    with criterion(1, "counting chain", capsys, budget=60):
        for n, want in enumerate(SMALL_COUNTS, start=1):
            assert count_asms_brute(n) == want
            assert _xpoly(n)(1) == want
            assert a_formula(n) == want
        for n in range(1, 13):
            assert _xpoly(n)(1) == a_formula(n)


def test_criterion_2_two_enumeration(capsys):
    with criterion(2, "2-enumeration", capsys, budget=30):
        for n in range(1, 13):
            assert _xpoly(n)(2) == 2 ** (n * (n - 1) // 2)
            assert a2_formula(n) == 2 ** (n * (n - 1) // 2)


def test_criterion_3_three_enumeration(capsys):
    with criterion(3, "3-enumeration", capsys, budget=30):
        assert a3_formula(3) == 9
        assert a3_formula(4) == 90
        for n in range(1, 13):          # covers both parity branches
            assert _xpoly(n)(3) == a3_formula(n)


def test_criterion_4_factor_chain(capsys):
    with criterion(4, "factor chain", capsys, budget=30):
        chain = b_chain(DEFAULT_BOUND + 1)
        x = IntPoly.x()
        assert chain[4] == x + IntPoly.const(6)
        assert chain[5] == x + IntPoly.const(2)
        assert chain[6] == IntPoly([60, 70, 12, 1])
        for n in range(1, DEFAULT_BOUND + 1):
            c = 1 if n % 2 else 2
            assert _xpoly(n) == chain[n] * chain[n + 1] * c


def test_criterion_5_star_triangle(capsys):
    with criterion(5, "star-triangle identity", capsys, budget=10):
        items = build_suite("ybe", seed=0)
        assert len(items) == 7          # 2 pinned + 5 random pairs
        for _, kw in items:
            rep = ybe_check(kw["y"], kw["z"])
            assert rep.passed
            assert rep.equal_count == 64
            assert rep.trivial_count == 44
            assert rep.rotation_pairing_ok
            assert not rep.failures


def test_criterion_6_determinant_state_sum_and_lemmas(capsys):
    with criterion(6, "state sum as determinant + lemmas", capsys,
                   budget=120):
        ik_items = build_suite("ik", seed=0)
        sets = {(tuple(kw["xs"]), tuple(kw["ys"])) for _, kw in ik_items}
        assert len(sets) >= 10
        ik_results = run_suite("ik", seed=0)
        assert len(ik_results) == 11
        assert all(r.passed for r in ik_results)
        lemma_results = run_suite("lemmas", seed=0)
        assert len(lemma_results) == 10
        assert all(r.passed for r in lemma_results)
        recursion = [r.details for r in lemma_results
                     if r.name == "deletion-recursion"]
        assert any("non-corner" in d for d in recursion)
        assert any(d.endswith("corner") and "non" not in d
                   for d in recursion)


def test_criterion_7_determinant_lemmas(capsys):
    with criterion(7, "determinant lemmas", capsys, budget=60):
        cauchy_results = run_suite("cauchy", seed=0)
        assert len(cauchy_results) == 5
        assert all(r.passed for r in cauchy_results)
        sdet_results = run_suite("sdet", seed=0)
        assert len(sdet_results) == 30
        assert all(r.passed for r in sdet_results)
        assert any("divisibility" in r.details for r in sdet_results)


def test_criterion_8_specialization_chain(capsys):
    with criterion(8, "specialization chain", capsys, budget=120):
        q4 = q_fourth_root(1)
        for n in range(1, 7):
            pref = (Fraction(-1) ** n) * q4.inverse() ** n
            assert (z_half_eps_product(n).expand_ratfunc()
                    == ik_eps_ratfunc(n, 1) * pref)
            assert a_via_chain(n, 1) == a_formula(n)
        for n in range(1, 6):
            assert a_via_chain(n, 2) == a2_formula(n)
            assert a_via_chain(n, 3) == a3_formula(n)
            assert (ean_normalize(n, half_spec_value(n, 3), 3)
                    == a3_formula(n))


def test_criterion_9_block_factorization(capsys):
    with criterion(9, "block factorization", capsys, budget=30):
        s0 = Fraction(7, 5)
        for f in ((0,), (-1, 1), (-2, 0, 2), (-3, -1, 1, 3),
                  (-4, -2, 0, 2, 4)):
            m = general_x_matrix(EpsilonGrid.symmetric(f), s=s0)
            even, odd = antidiagonal_block_det(m)
            assert det_exact(m) == even * odd
