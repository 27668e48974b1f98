"""Verification suites: every identity in the package re-checked end to end.

Each suite builds a list of independent check items with all random
parameters drawn up front from a seeded generator, so results do not
depend on execution order and the items can run in a process pool.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .brackets import qdiff
from .chain import (a_via_chain, ean_normalize, half_spec_value,
                    ik_eps_product, ik_eps_ratfunc, z_half_eps_brute,
                    z_half_eps_product, z_prefactor)
from .dets import (cauchy_det_closed, cauchy_matrix, kronecker_exponent,
                   s_det_closed, s_det_closed_bivariate, s_matrix,
                   s_matrix_bivariate)
from .formulas import a2_formula, a3_formula, a_formula
from .izergin import IkInstance, ik_z
from .laurent import NonDivisible, divide_exact
from .matrices import det_exact
from .sixvertex import (SpectralParams, lemma_degree_check,
                        lemma_recursion_check, z_brute)
from .ybe import ybe_check

SUITE_NAMES = ("ybe", "ik", "cauchy", "sdet", "lemmas", "chain")

#: the largest size override every suite can draw: the Cauchy suite takes
#: n distinct xs from 1..MAX_N
MAX_N = 39

#: fixed (y, z) pairs always included in the Yang-Baxter suite
YBE_PINNED = ((Fraction(2), Fraction(3)),
              (Fraction(1, 2), Fraction(3, 2)))


class CheckResult:
    __slots__ = ("name", "passed", "details")

    def __init__(self, name, passed, details=""):
        self.name = name
        self.passed = bool(passed)
        self.details = details

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.details}"
                                            if self.details else "")


# ---------- item functions (module level so a process pool can run them) ----

def check_ybe_pair(y, z):
    rep = ybe_check(y, z)
    details = (f"y={y} z={z}: {rep.equal_count}/64 equal, "
               f"{rep.trivial_count} trivial, rotation pairing "
               f"{'ok' if rep.rotation_pairing_ok else 'BROKEN'}")
    return CheckResult("ybe-pair", rep.passed, details)


def check_ik_match(n, xs, ys):
    p = SpectralParams(xs, ys)
    ok = ik_z(IkInstance(p)) == z_brute(p)
    return CheckResult("ik-vs-brute",
                       ok, f"n={n} xs={list(xs)} ys={list(ys)}")


def check_lemma_symmetry(n, xs, ys, i, k):
    p = SpectralParams(xs, ys)
    z = z_brute(p)
    ok = (z == z_brute(p.swap_x(i, k))) and (z == z_brute(p.swap_y(i, k)))
    return CheckResult("row-column-symmetry", ok,
                       f"n={n} swap positions {i},{k}")


def check_lemma_recursion(n, xs, ys, i, j):
    p = SpectralParams(xs, ys)
    ok = lemma_recursion_check(n, p, i, j)
    kind = "corner" if i == j == 0 else "non-corner"
    return CheckResult("deletion-recursion", ok, f"n={n} ({i},{j}) {kind}")


def check_lemma_degree(n, xs, ys):
    ok = lemma_degree_check(n, SpectralParams(xs, ys))
    return CheckResult("degree-bound", ok, f"n={n} ys={list(ys)}")


def check_cauchy(n, xs, ys):
    ok = det_exact(cauchy_matrix(xs, ys)) == cauchy_det_closed(xs, ys)
    return CheckResult("cauchy-det", ok, f"n={n} xs={list(xs)} ys={list(ys)}")


def check_sdet_pair(n, a, b):
    ok = det_exact(s_matrix(n, a, b)) == s_det_closed(n, a, b)
    return CheckResult("ratio-det-closed", ok, f"n={n} (a,b)=({a},{b})")


def check_sdet_bivariate(n):
    """S(n; s, t) against its closed form, and the cleared determinant's
    divisibility by (s - t^k)^(n-k), all on the exact image s -> u^K,
    t -> u (see the dets module docstring), where s - t^k is d(K - k) up
    to a unit."""
    direct = det_exact(s_matrix_bivariate(n))
    ok = direct == s_det_closed_bivariate(n)
    details = f"n={n} closed form"
    if ok:
        big = kronecker_exponent(n)
        try:
            for k in range(n):
                divide_exact(direct.num, qdiff(big - k) ** (n - k))
        except NonDivisible:
            ok = False
            details = f"n={n} divisibility by (s-t^k)^(n-k) fails at k={k}"
        else:
            details = f"n={n} closed form + (s-t^k)^(n-k) divisibility"
    return CheckResult("ratio-det-bivariate", ok, details)


def check_sdet_collapse(n, a, b):
    k = Fraction(a, b)
    direct = det_exact(s_matrix(n, a, b))
    ok = (k.denominator == 1 and 0 <= k < n and direct.num.is_zero
          and s_det_closed(n, a, b).num.is_zero)
    return CheckResult("ratio-det-rank-collapse", ok,
                       f"n={n} a=b*{k}: determinant vanishes")


def check_chain_count(n, x):
    want = {1: a_formula, 2: a2_formula, 3: a3_formula}[x](n)
    got = a_via_chain(n, x)
    return CheckResult("chain-count", got == want,
                       f"A({n};{x}) = {got} via s->1 limit")


def check_chain_displayed(n):
    ok = z_half_eps_product(n) == ik_eps_product(n, 1) * z_prefactor(n, 1)
    return CheckResult("chain-displayed-product", ok,
                       f"n={n} bracket product == determinant evaluation")


def check_chain_ean(n, x):
    want = {1: a_formula, 2: a2_formula, 3: a3_formula}[x](n)
    got = ean_normalize(n, half_spec_value(n, x), x)
    return CheckResult("chain-ean", got == want,
                       f"n={n} x={x}: normalized merged-point value = {got}")


def check_chain_grid_match(n, x):
    ok = z_half_eps_brute(n, x) == ik_eps_ratfunc(n, x) * z_prefactor(n, x)
    return CheckResult("chain-state-sum", ok,
                       f"n={n} x={x}: grid state sum == determinant form")


# ---------- random parameter drawing ----------

def _draw_fraction(rng, lo=1, hi=30):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4)))


def _draw_ik_params(rng, n):
    while True:
        xs = []
        while len(xs) < n:
            v = _draw_fraction(rng)
            if v not in xs:
                xs.append(v)
        ys = []
        while len(ys) < n:
            v = -_draw_fraction(rng, 0, 30)
            if v not in ys:
                ys.append(v)
        labels = [x - y for x in xs for y in ys]
        if all(v not in (0, 1) for v in labels):
            return xs, ys


def _draw_recursion_params(rng, n, i, j):
    xs, ys = _draw_ik_params(rng, n)
    xs[i] = ys[j] + 1
    if len(set(xs)) == n:
        return xs, ys
    return _draw_recursion_params(rng, n, i, j)


def _draw_ybe_pair(rng):
    while True:
        y = Fraction(rng.randint(1, 8), rng.choice((1, 2, 3, 4)))
        z = Fraction(rng.randint(1, 8), rng.choice((1, 2, 3, 4)))
        if y not in (0, 1) and z not in (0, 1) and y + z not in (0, 1):
            return y, z


# ---------- suite builders ----------

def _build_ybe(rng, max_n):
    pairs = list(YBE_PINNED)
    while len(pairs) < len(YBE_PINNED) + 5:
        pairs.append(_draw_ybe_pair(rng))
    return [(check_ybe_pair, {"y": y, "z": z}) for y, z in pairs]


def _build_ik(rng, max_n):
    max_n = min(max_n or 4, 4)
    items = []
    for n in range(1, max_n + 1):
        for _ in range(3 if n <= 3 else 2):
            xs, ys = _draw_ik_params(rng, n)
            items.append((check_ik_match, {"n": n, "xs": xs, "ys": ys}))
    return items


def _build_cauchy(rng, max_n):
    max_n = max_n or 5
    items = []
    for n in range(1, max_n + 1):
        xs = rng.sample(range(1, MAX_N + 1), n)
        ys = rng.sample(range(-40, 0), n)
        items.append((check_cauchy, {"n": n, "xs": xs, "ys": ys}))
    return items


def _build_sdet(rng, max_n):
    max_n = max_n or 5
    items = []
    for a, b in ((1, 3), (2, 4), (1, 2), (2, 3)):
        for n in range(1, max_n + 1):
            items.append((check_sdet_pair, {"n": n, "a": a, "b": b}))
    for n in range(1, min(max_n, 3) + 1):
        items.append((check_sdet_bivariate, {"n": n}))
    for n in range(2, max_n + 1):
        items.append((check_sdet_collapse, {"n": n, "a": 3, "b": 3}))
        if n > 2:
            items.append((check_sdet_collapse, {"n": n, "a": 4, "b": 2}))
    return items


def _build_lemmas(rng, max_n):
    max_n = min(max_n or 4, 4)
    items = []
    for n in range(2, max_n + 1):
        xs, ys = _draw_ik_params(rng, n)
        items.append((check_lemma_symmetry,
                      {"n": n, "xs": xs, "ys": ys, "i": 0, "k": n - 1}))
    for n, i, j in ((2, 0, 0), (3, 1, 2), (4, 2, 1)):
        if n > max_n:
            continue
        xs, ys = _draw_recursion_params(rng, n, i, j)
        items.append((check_lemma_recursion,
                      {"n": n, "xs": xs, "ys": ys, "i": i, "j": j}))
    for n in range(1, max_n + 1):
        xs, ys = _draw_ik_params(rng, n)
        items.append((check_lemma_degree, {"n": n, "xs": xs, "ys": ys}))
    return items


def _build_chain(rng, max_n):
    max_n = max_n or 5
    items = []
    for n in range(1, max_n + 1):
        for x in (1, 2, 3):
            items.append((check_chain_count, {"n": n, "x": x}))
    for n in range(1, min(max_n, 6) + 1):
        items.append((check_chain_displayed, {"n": n}))
    for n in range(1, min(max_n, 3) + 1):
        for x in (1, 2, 3):
            items.append((check_chain_grid_match, {"n": n, "x": x}))
    for n in range(1, min(max_n, 4) + 1):
        for x in (1, 2, 3):
            items.append((check_chain_ean, {"n": n, "x": x}))
    return items


_BUILDERS = {
    "ybe": _build_ybe,
    "ik": _build_ik,
    "cauchy": _build_cauchy,
    "sdet": _build_sdet,
    "lemmas": _build_lemmas,
    "chain": _build_chain,
}


def build_suite(name, seed=0, max_n=None):
    """The (function, kwargs) items of one suite, parameters pre-drawn."""
    rng = random.Random(seed)
    if name == "all":
        items = []
        for s in SUITE_NAMES:
            items.extend(_BUILDERS[s](rng, max_n))
        return items
    if name not in _BUILDERS:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {SUITE_NAMES + ('all',)}")
    return _BUILDERS[name](rng, max_n)


def _call_item(item):
    func, kwargs = item
    return func(**kwargs)


def run_suite(name, seed=0, max_n=None, workers=1):
    """Run one suite (or "all"); returns CheckResults in build order."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    items = build_suite(name, seed, max_n)
    if workers > 1:
        # the pool pulls in multiprocessing, socket and subprocess: only
        # a pooled run pays for them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_call_item, items))
    return [_call_item(it) for it in items]
