"""The three benchmark workloads: fixed job lists over asmice's public API.

A job is a name, a group, a thunk that does the work, and a check that
turns the thunk's result into (passed, canonical value).  Only the thunks
are timed; checks run after the pass.  Canonical values are integers,
coefficient lists and booleans, never printed text, so the digest of a
pass pins the answers and not their formatting.

Every call goes through a module attribute (``chain.a_via_chain``, not a
name bound at import), so the tracer's patches see it.

Workloads, and why each was chosen (times from a shared 2-CPU Linux
machine with Python 3.11):

* ``enumerate``: ``asmice.cli.run`` on ``table``, ``bseq`` and ``count``.
  The user-facing counting path; it runs the transfer sweep (41 calls,
  one at n = 14), ``IntPoly`` arithmetic and brute enumeration at n = 6,
  and no ``LaurentPoly`` or ``Cyclotomic`` multiply.  n stops at 14, the
  transfer bound; brute force stops at 6 because n = 7 alone takes about
  12 s and would drown the sweep.
* ``verify``: every item of ``verify.build_suite("all", 0)``, in order,
  in one process.  ``LaurentPoly`` multiply and exact divide with integer
  coefficients over wide spans, Bareiss determinants and ``z_brute``;
  the transfer sweep is idle.  The suite seed is fixed at 0, the
  acceptance gate's seed: drawn parameters set the polynomial spans, and
  seeds 0..7 take between 12 s and 40 s, a spread no regression bound
  could absorb.
* ``specialize``: acceptance criteria 8 and 9.  The same ``laurent`` and
  ``matrices`` layers as ``verify``, but with ``Fraction`` and Q(zeta_24)
  coefficients on narrow spans, so ``Cyclotomic`` arithmetic dominates.
  The displayed-product equality stops at n = 6 and ``a_via_chain`` at
  x = 2, 3 at n = 5, as in the acceptance tests.

The verify pool (``run_suite(workers=...)``) is deliberately not used: on
a small shared machine it would measure the scheduler.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from fractions import Fraction

from asmice import chain, cli, dets, formulas, matrices, verify

WORKLOADS = ("enumerate", "verify", "specialize")

#: seed of the verify suite; see the module docstring
VERIFY_SUITE_SEED = 0

#: symmetric epsilon grids and the rational s of acceptance criterion 9
BLOCK_GRIDS = ((0,), (-1, 1), (-2, 0, 2), (-3, -1, 1, 3), (-4, -2, 0, 2, 4))
BLOCK_S = Fraction(7, 5)

#: (full, small) sizes; "small" is the self-test's smallest inputs
SIZES = {
    "full": {"table": 14, "bseq": 14, "count": 6, "verify_n": None,
             "eq_n": 6, "chain23_n": 5, "grids": 5},
    "small": {"table": 5, "bseq": 5, "count": 4, "verify_n": 2,
              "eq_n": 2, "chain23_n": 2, "grids": 2},
}


#: run() does the timed work; check(result) -> (passed, canonical value)
Job = namedtuple("Job", "name group run check")


def build(workload, size="full"):
    """The job list of one workload."""
    sizes = SIZES[size]
    if workload == "enumerate":
        return _enumerate_jobs(sizes)
    if workload == "verify":
        return _verify_jobs(sizes)
    if workload == "specialize":
        return _specialize_jobs(sizes)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def digest(canonical):
    """sha256 of the canonical values of one pass, in job order."""
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------- enumerate ----------

def _cli(argv):
    return lambda: cli.run(argv)


def _check_table(report):
    rows = [json.loads(line) for line in report.outputs]
    ok = report.passed and bool(rows)
    canon = []
    for n, row in enumerate(rows, start=1):
        coeffs = [int(c) for c in row["poly"]]
        values = [sum(c * x ** k for k, c in enumerate(coeffs))
                  for x in (1, 2, 3)]
        listed = [int(row["a1"]), int(row["a2"]), int(row["a3"])]
        want = [formulas.a_formula(n), formulas.a2_formula(n),
                formulas.a3_formula(n)]
        ok = ok and row["n"] == n and values == want and listed == want
        canon.append([row["n"], listed, coeffs])
    return ok, canon


def _check_report(report):
    return report.passed, [passed for _, passed, _ in report.checks]


def _check_count(n):
    def check(report):
        value = int(report.outputs[0])
        checks = [passed for _, passed, _ in report.checks]
        return (report.passed and value == formulas.a_formula(n),
                [value, checks])
    return check


def _enumerate_jobs(sizes):
    t, b, c = sizes["table"], sizes["bseq"], sizes["count"]
    return [
        Job(f"table --max-n {t}", "cli.table",
            _cli(["table", "--max-n", str(t), "--format", "json"]),
            _check_table),
        Job(f"bseq --max-n {b}", "cli.bseq",
            _cli(["bseq", "--max-n", str(b)]), _check_report),
        Job(f"count --n {c}", "cli.count",
            _cli(["count", "--n", str(c), "--method",
                  "brute,transfer,formula"]), _check_count(c)),
    ]


# ---------- verify ----------

#: item-function prefix -> suite name, for the per-suite spans
_SUITE_OF_PREFIX = {"check_ybe": "ybe", "check_ik": "ik",
                    "check_cauchy": "cauchy", "check_sdet": "sdet",
                    "check_lemma": "lemmas", "check_chain": "chain"}


def _suite_of(func):
    for prefix, suite in _SUITE_OF_PREFIX.items():
        if func.__name__.startswith(prefix):
            return suite
    raise ValueError(f"verify item {func.__name__} belongs to no known suite")


def _check_result(result):
    return result.passed, [result.name, result.passed]


def _verify_jobs(sizes):
    items = verify.build_suite("all", VERIFY_SUITE_SEED, sizes["verify_n"])
    return [Job(f"{func.__name__}#{k}", f"verify.{_suite_of(func)}",
                (lambda f=func, kw=kwargs: f(**kw)), _check_result)
            for k, (func, kwargs) in enumerate(items)]


# ---------- specialize ----------

def _displayed_equality(n):
    pref = (Fraction(-1) ** n) * chain.q_fourth_root(1).inverse() ** n
    return (chain.z_half_eps_product(n).expand_ratfunc()
            == chain.ik_eps_ratfunc(n, 1) * pref)


def _block_factorization(f):
    m = dets.general_x_matrix(dets.EpsilonGrid.symmetric(f), s=BLOCK_S)
    even, odd = dets.antidiagonal_block_det(m)
    return matrices.det_exact(m) == even * odd


def _check_true(result):
    return result is True, result is True


def _check_formula(formula, n):
    def check(value):
        return value == formula(n), value
    return check


def _specialize_jobs(sizes):
    jobs = []
    for n in range(1, sizes["eq_n"] + 1):
        jobs.append(Job(f"displayed-product n={n}", "specialize.equality",
                        (lambda n=n: _displayed_equality(n)), _check_true))
        jobs.append(Job(f"a_via_chain({n},1)", "specialize.chain",
                        (lambda n=n: chain.a_via_chain(n, 1)),
                        _check_formula(formulas.a_formula, n)))
    for n in range(1, sizes["chain23_n"] + 1):
        for x, formula in ((2, formulas.a2_formula), (3, formulas.a3_formula)):
            jobs.append(Job(f"a_via_chain({n},{x})", "specialize.chain",
                            (lambda n=n, x=x: chain.a_via_chain(n, x)),
                            _check_formula(formula, n)))
    for f in BLOCK_GRIDS[:sizes["grids"]]:
        jobs.append(Job(f"block-factorization f={list(f)}",
                        "specialize.block",
                        (lambda f=f: _block_factorization(f)), _check_true))
    return jobs
