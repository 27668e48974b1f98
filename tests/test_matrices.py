"""Exact determinants: packed and Bareiss paths vs the cofactor oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from asmice import laurent, matrices, verify
from asmice.brackets import qdiff
from asmice.chain import tau_poly
from asmice.cyclotomic import cyclotomic_embed
from asmice.dets import (EpsilonGrid, antidiagonal_block_det,
                         general_x_matrix)
from asmice.laurent import (LaurentPoly, RatFunc, _mul_terms, _pack,
                            common_grid, diff_product)
from asmice.matrices import RingMatrix, _det_cofactor, cleared_det, det_exact
from asmice.sixvertex import SpectralParams


def ones(rows):
    """Plain rows as rows of factor tuples: each entry a 1-tuple."""
    return [[(p,) for p in row] for row in rows]


def det_packed(rows):
    """_det_packed on plain rows."""
    return matrices._det_packed(ones(rows))


def schoolbook(factors):
    """The product of factors on their common grid, term by
    term (1 for no factors)."""
    terms, scale = {0: 1}, 1
    for p in common_grid(factors):
        terms, scale = _mul_terms(terms, p.terms), p.scale
    return LaurentPoly(scale, terms)


def test_pinned_small_determinants():
    assert det_exact(RingMatrix([[1, 2], [3, 4]])) == -2
    assert det_exact(RingMatrix([[2, 3], [5, 7]])) == -1
    assert det_exact(RingMatrix([[5]])) == 5
    identity = RingMatrix.from_fn(4, 4, lambda i, j: int(i == j))
    assert det_exact(identity) == 1
    m3 = RingMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert det_exact(m3) == -3


def test_methods_agree_on_random_integer_matrices():
    rng = random.Random(11)
    for _ in range(6):
        m = RingMatrix.from_fn(4, 4, lambda i, j: rng.randrange(-9, 10))
        assert det_exact(m) == _det_cofactor(m)


def test_methods_agree_on_random_fraction_matrices():
    rng = random.Random(13)
    for _ in range(4):
        m = RingMatrix.from_fn(
            3, 3, lambda i, j: Fraction(rng.randrange(-9, 10),
                                        rng.randrange(1, 7)))
        assert det_exact(m) == _det_cofactor(m)


def test_methods_agree_on_laurent_entries():
    rng = random.Random(17)

    def entry(i, j):
        return qdiff(rng.randrange(1, 6)) + LaurentPoly.const(rng.randrange(-3, 4))

    m = RingMatrix.from_fn(3, 3, entry)
    assert det_exact(m) == _det_cofactor(m)


def test_ratfunc_entries_clear_denominators():
    m = RingMatrix.from_fn(
        3, 3, lambda i, j: RatFunc(LaurentPoly.one(), qdiff(i + j + 1)))
    d = det_exact(m)
    assert d == _det_cofactor(m)
    assert not d.is_zero


def test_singular_and_zero_pivot_cases():
    assert det_exact(RingMatrix([[1, 2], [2, 4]])) == 0
    assert det_exact(RingMatrix([[0, 1], [1, 0]])) == -1      # needs a row swap
    zero_col = RingMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    assert det_exact(zero_col) == 0


class _OffInt(int):
    """An int whose products are wrong by the left factor."""

    def __mul__(self, other):
        return int(self) * int(other) + int(self)


def test_bareiss_refuses_an_inexact_integer_step(monkeypatch):
    # Bareiss divides each step by the previous pivot exactly over Z; a
    # wrong product surfaces as a remainder, which raises, never truncates
    monkeypatch.setattr(matrices, "_det_packed", lambda rows: None)
    assert det_exact(RingMatrix([[2, 1, 1], [1, 3, 1], [1, 1, 4]])) == 17
    off = RingMatrix([[_OffInt(v) for v in row]
                      for row in ([2, 1, 1], [1, 3, 1], [1, 1, 4])])
    with pytest.raises(ArithmeticError, match="inexact integer division"):
        det_exact(off)


def test_shape_validation():
    with pytest.raises(ValueError):
        det_exact(RingMatrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        RingMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RingMatrix([])


def test_matrix_helpers():
    m = RingMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert RingMatrix.from_fn(2, 2, lambda i, j: m[j, i]) == \
        RingMatrix([[1, 3], [2, 4]])
    assert RingMatrix.from_fn(2, 2, lambda i, j: 2 * m[i, j]) == \
        RingMatrix([[2, 4], [6, 8]])
    assert m.is_square
    assert not RingMatrix([[1, 2, 3], [4, 5, 6]]).is_square


def test_cleared_reciprocals():
    rng = random.Random(9)
    for n in (1, 2, 3, 4):
        e = [[qdiff(Fraction(rng.randrange(1, 20), rng.choice([1, 2])))
              * LaurentPoly.const(rng.choice([1, 2, -3]), 2)
              for _ in range(n)] for _ in range(n)]
        want = RingMatrix([[schoolbook(row[:j] + row[j + 1:])
                            for j in range(n)] for row in e])
        d = cleared_det(e)
        assert d == _det_cofactor(want)
        prod = LaurentPoly.one(2)
        for row in e:
            for x in row:
                prod = prod * x
        recip = RingMatrix([[RatFunc(LaurentPoly.one(2), x) for x in row]
                            for row in e])
        assert d == _det_cofactor(recip) * prod


def polys(nonzero):
    """Univariate polynomials of up to 3 terms on grids 1, 2, 4 or 12, with
    negative exponents and coefficients; zero unless nonzero."""
    terms = st.dictionaries(st.integers(-8, 8),
                            st.integers(-50, 50).filter(bool),
                            min_size=int(nonzero), max_size=3)
    return st.builds(LaurentPoly, st.sampled_from([1, 2, 4, 12]), terms)


@st.composite
def cleared_arrays(draw):
    """(dens, nums) for cleared_det at n = 1..4: nonzero denominators,
    numerators that are now and then zero, or None; and now and then a
    Fraction coefficient in one denominator, which the packer refuses."""
    n = draw(st.integers(1, 4))

    def square(nonzero):
        return draw(st.lists(st.lists(polys(nonzero), min_size=n,
                                      max_size=n), min_size=n, max_size=n))

    dens = square(True)
    nums = square(False) if draw(st.booleans()) else None
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        dens[i][j] = dens[i][j] * Fraction(1, 2)
    return dens, nums


def expanded_cleared(dens, nums):
    """The matrix [num_ij * prod_{k != j} den_ik], each entry multiplied
    out on the schoolbook."""
    n = len(dens)
    return RingMatrix([[schoolbook(([nums[i][j]] if nums else [])
                                   + row[:j] + row[j + 1:])
                        for j in range(n)] for i, row in enumerate(dens)])


@given(cleared_arrays())
def test_cleared_det_matches_the_cofactor_oracle(array):
    dens, nums = array
    want = _det_cofactor(expanded_cleared(dens, nums))
    assert cleared_det(dens, nums) == want


def test_cleared_det_rejects_arrays_that_are_not_square():
    one, t = LaurentPoly.one(), LaurentPoly.var_power(1)
    for dens, nums in (([[t + one, t]], None), ([[t + one], [t]], None),
                       ([[t, t], [t]], None), ([], None),
                       ([[t]], [[t, t]]), ([[t, t], [t, t]], [[t, t]])):
        with pytest.raises(ValueError, match="square"):
            cleared_det(dens, nums)


def multiplied_out(dens):
    """The cleared matrix [prod_{k != j} den_ik], each entry multiplied
    out on the schoolbook."""
    return [[schoolbook(row[:j] + row[j + 1:]) for j in range(len(row))]
            for row in dens]


def test_cleared_izergin_korepin_draws_match_bareiss():
    # two n = 5 draws of the verify suite's parameters: each entry is 4
    # factors d(a) d(a - 1) of up to 4 terms, on grids up to 12
    n = 5
    for seed in (101, 102):
        p = SpectralParams(*verify._draw_ik_params(random.Random(seed), n))
        dens = [[diff_product({p.label(i, j): 1, p.label(i, j) - 1: 1})
                 for j in range(n)] for i in range(n)]
        assert cleared_det(dens) == matrices._det_bareiss(
            multiplied_out(dens))


def test_packed_seven_row_tau_matrix_matches_bareiss(monkeypatch):
    # the chain's cleared tau matrix at n = 7, x = 3
    check_packed_tau_matrix(monkeypatch, 7)


def test_packed_nine_row_tau_matrix_matches_bareiss(monkeypatch):
    # nine rows: the most that the packer takes at its default cutoff
    assert matrices._PACKED_MAX_N == 9
    check_packed_tau_matrix(monkeypatch, 9)


def check_packed_tau_matrix(monkeypatch, n):
    grid = EpsilonGrid.standard(n)
    dens = [[tau_poly(grid.g(i, j), 3) for j in range(n)] for i in range(n)]
    want = matrices._det_bareiss(multiplied_out(dens))
    monkeypatch.setattr(matrices, "_det_bareiss", None)
    assert cleared_det(dens) == want


def test_cleared_det_beyond_the_packed_size_takes_bareiss(monkeypatch):
    # the cutoff is lowered so that seven rows cross it; one cleared
    # Bareiss past the default cutoff takes seconds
    monkeypatch.setattr(matrices, "_PACKED_MAX_N", 6)
    rng = random.Random(37)
    n = 7
    dens, nums = ([[LaurentPoly(rng.choice([1, 2]),
                                {rng.randrange(-3, 4): rng.randrange(-9, 10)
                                 for _ in range(3)}) or LaurentPoly.one()
                    for _ in range(n)] for _ in range(n)] for _ in range(2))
    nums[2][5] = LaurentPoly.zero()
    calls = []
    bareiss = matrices._det_bareiss
    monkeypatch.setattr(matrices, "_det_bareiss",
                        lambda rows: calls.append(len(rows)) or bareiss(rows))
    for num in (None, nums):
        calls.clear()
        d = cleared_det(dens, num)
        assert calls == [n]
        assert d == _det_cofactor(expanded_cleared(dens, num))


def coefficient_types(values):
    return {type(c) for x in values for c in
            (x.terms.values() if isinstance(x, LaurentPoly) else (x,))}


def test_bareiss_runs_over_the_integers(monkeypatch):
    # the 5x5 matrix takes the packed path and the 7x7 one, past the
    # lowered cutoff, Bareiss; each sees int coefficients only, as does
    # the 1x1 packed product of the denominators
    monkeypatch.setattr(matrices, "_PACKED_MAX_N", 6)
    seen = {}
    pack, bareiss, mul = (matrices._det_packed, matrices._det_bareiss,
                          LaurentPoly.__mul__)

    def packed(rows):
        out = pack(rows)
        if out is not None:
            seen.setdefault(("packed", len(rows)), set()).update(
                coefficient_types(p for row in rows for e in row for p in e))
        return out

    def checked(a, b):
        seen.setdefault("bareiss", set()).update(coefficient_types((a, b)))
        return mul(a, b)

    def traced(rows):
        monkeypatch.setattr(LaurentPoly, "__mul__", checked)
        try:
            return bareiss(rows)
        finally:
            monkeypatch.setattr(LaurentPoly, "__mul__", mul)

    monkeypatch.setattr(matrices, "_det_packed", packed)
    monkeypatch.setattr(matrices, "_det_bareiss", traced)
    for f, path in (((-4, -2, 0, 2, 4), ("packed", 5)),
                    ((-3, -2, -1, 0, 1, 2, 3), "bareiss")):
        grid = EpsilonGrid.symmetric(f)
        seen.clear()
        m = general_x_matrix(grid, s=Fraction(7, 5))
        d = det_exact(m)
        assert seen == {path: {int}, ("packed", 1): {int}}
        for u in (3, Fraction(1, 2)):           # x = u^2
            at_x = RingMatrix.from_fn(grid.n, grid.n,
                                      lambda i, j: m[i, j].eval_units(u))
            assert d.eval_units(u) == _det_cofactor(at_x)


def test_block_factorization_multiplies_no_fractions(monkeypatch):
    # the specialize workload's largest block-factorization job: with
    # s = 7/5 every RatFunc holds int coefficients, so no schoolbook
    # product sees a Fraction
    seen = set()
    mul_terms = laurent._mul_terms

    def checked(a, b):
        seen.update(map(type, a.values()), map(type, b.values()))
        return mul_terms(a, b)

    monkeypatch.setattr(laurent, "_mul_terms", checked)
    m = general_x_matrix(EpsilonGrid.symmetric((-4, -2, 0, 2, 4)),
                         s=Fraction(7, 5))
    even, odd = antidiagonal_block_det(m)
    assert det_exact(m) == even * odd
    assert seen <= {int}


def test_fraction_coefficient_rows_take_bareiss(monkeypatch):
    # Fraction coefficients, even with denominator 1, are not packed: the
    # matrix runs Bareiss as it stands, with no content split off a row
    row = [LaurentPoly(2, {-1: Fraction(2), 3: Fraction(-3)}),
           LaurentPoly.const(Fraction(5))]
    m = RingMatrix([row, [qdiff(1), qdiff(2)]])
    calls = []
    bareiss = matrices._det_bareiss
    monkeypatch.setattr(matrices, "_det_bareiss",
                        lambda rows: calls.append(rows) or bareiss(rows))
    assert det_exact(m) == _det_cofactor(m)
    assert calls == [m.rows]


# ---------- the packed determinant against Bareiss and cofactors ----------

@st.composite
def packable_rows(draw):
    """Square rows of int-coefficient LaurentPolys: mixed or
    single grids (scales 1, 2, 4, 12), negative exponents, zero entries,
    exponents r_i + c_j + g*k that leave a lattice step g, and now and
    then a zero row, a zero column, a repeated row, or orthogonal rows
    whose determinant meets the Hadamard bound."""
    n = draw(st.integers(1, 6))
    g = draw(st.sampled_from([1, 2, 3]))
    span = draw(st.sampled_from([0, 1, 4]))
    scales = st.sampled_from([1, 2, 4, 12])
    if not draw(st.booleans()):
        scales = st.just(draw(scales))
    offsets = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    r, c = draw(offsets), draw(offsets)
    terms = st.dictionaries(st.integers(0, span),
                            st.integers(-10 ** 6, 10 ** 6), max_size=3)
    rows = [[LaurentPoly(draw(scales),
                         {ri + cj + g * k: v
                          for k, v in draw(terms).items()})
             for cj in c] for ri in r]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["plain", "zero row", "zero column",
                                  "repeated row", "orthogonal"]))
    if shape == "orthogonal":
        # blocks [[a, -b], [b, a]] down the diagonal, and [a] last at odd
        # n, times t^(r_i + c_j) on one grid: |det| = prod_i (row i's L2)
        scale = draw(scales)
        rows = [[LaurentPoly.zero()] * n for _ in range(n)]
        for k in range(0, n, 2):
            a, b = draw(st.integers(-10 ** 6, 10 ** 6)), \
                draw(st.integers(-10 ** 6, 10 ** 6))
            block = [[a, -b], [b, a]]
            for di in range(min(2, n - k)):
                for dj in range(min(2, n - k)):
                    rows[k + di][k + dj] = LaurentPoly(
                        scale, {r[k + di] + c[k + dj]: block[di][dj]})
    elif shape == "zero row":
        rows[i] = [LaurentPoly.zero()] * n
    elif shape == "zero column":
        for row in rows:
            row[j] = LaurentPoly.zero()
    elif shape == "repeated row" and i != j:
        rows[i] = list(rows[j])
    return rows


@given(packable_rows())
def test_packed_determinant_matches_bareiss_and_cofactor(rows):
    d = det_packed(rows)
    assert d == matrices._det_bareiss(rows) == _det_cofactor(RingMatrix(rows))


def packed_ints(rows):
    """(the packed ints, the determinant) of _det_packed on rows of factor
    tuples; an entry that reaches the subset expansion as a multiplier is
    read as the int 1 * entry."""
    seen = []
    cofactor = matrices._det_cofactor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "_det_cofactor",
                   lambda m: seen.append([[1 * e for e in row]
                                          for row in m.rows]) or cofactor(m))
        d = matrices._det_packed(rows)
    ints, = seen
    return ints, d


def test_packed_lattice_step_compacts_the_slots():
    # entries whose factors are in t^2 on grid 1 pack to the same ints as
    # the same entries in t, and unpack with every exponent doubled (less
    # the shift of the factors' offsets)
    rng = random.Random(23)
    cs = [[[{k: rng.randrange(-9, 10) for k in range(3)} for _ in range(2)]
           for _ in range(4)] for _ in range(4)]

    def rows(g):
        # factor f of each entry is t^(lo_f) times a polynomial in t^g
        return [[tuple(LaurentPoly(1, {g * k + lo: v for k, v in f.items()})
                       for f, lo in zip(e, (-5, 3))) for e in row]
                for row in cs]

    def expanded(g):
        return [[schoolbook(e) for e in row] for row in rows(g)]

    (ints1, d1), (ints2, d2) = packed_ints(rows(1)), packed_ints(rows(2))
    assert ints1 == ints2
    assert d2 == matrices._det_bareiss(expanded(2))
    # each of the 4 rows contributes t^(-5 + 3) once
    assert d2.terms == {2 * k + 8: v for k, v in d1.terms.items()}
    assert d1 == matrices._det_bareiss(expanded(1))


def test_packed_shifts_take_out_row_and_column_monomials():
    # every entry of b has a nonzero constant term, so
    # a = diag(t^r) b diag(t^c) packs to the ints of b
    rng = random.Random(31)
    b = [[LaurentPoly(1, {0: rng.choice([-2, -1, 1, 2]),
                          rng.randrange(1, 4): rng.randrange(-9, 10)})
          for _ in range(4)] for _ in range(4)]
    r, c = [3, -7, 0, 5], [-2, 4, 4, -6]
    a = [[LaurentPoly.var_power(ri + cj) * x for x, cj in zip(row, c)]
         for row, ri in zip(b, r)]
    (ints_a, da), (ints_b, db) = packed_ints(ones(a)), packed_ints(ones(b))
    assert ints_a == ints_b
    assert da == LaurentPoly.var_power(sum(r) + sum(c)) * db == \
        matrices._det_bareiss(a)


def test_packed_hadamard_matrices_meet_the_bound():
    # |det H| = sqrt(prod_i sum_j |h_ij|^2), the Hadamard bound itself;
    # det [[8, -8], [8, 8]] = 128 needs a second byte for its sign bit
    h2 = [[8, -8], [8, 8]]
    h4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    for h, det in ((h4, 16), (h2, 128)):
        n = len(h)
        for e in (0, 3):
            rows = [[LaurentPoly(1, {e * (i + j): v})
                     for j, v in enumerate(row)] for i, row in enumerate(h)]
            d = det_packed(rows)
            assert d == _det_cofactor(RingMatrix(rows)) == \
                LaurentPoly(1, {e * n * (n - 1): det})


def test_packed_determinant_rejects_bits_above_the_top_slot(monkeypatch):
    # [[1 + t, 1 + t], [1, 2]]: degree sums 1 over the rows and 2 over the
    # columns, so 2 slots; P = 8 * 5 gives the bound 7, one byte per slot
    one, t = LaurentPoly.one(), LaurentPoly.var_power(1)
    rows = [[one + t, one + t], [one, 2 * one]]
    ints, d = packed_ints(ones(rows))
    assert _det_cofactor(RingMatrix(ints)) == _pack([1, 1], 8)
    assert d == one + t
    cofactor = matrices._det_cofactor
    for bad in (1 << 16, -(1 << 16)):
        monkeypatch.setattr(matrices, "_det_cofactor",
                            lambda m, bad=bad: cofactor(m) + bad)
        with pytest.raises(ArithmeticError):
            det_packed(rows)


def test_packed_slots_one_byte_narrower_overflow(monkeypatch):
    width = laurent._width
    monkeypatch.setattr(laurent, "_width",
                        lambda bits: max(width(bits) - 8, 8))

    def top_slot_overflows(rows):
        try:
            det_packed(rows)
        except OverflowError:
            # an entry wider than a slot; this cannot occur since entries
            # multiply as shifts of their factors and no entry is packed
            # into slots, but the search still must not count it
            return False
        except ArithmeticError:
            return True
        return False

    # some drawn determinant must need the byte taken away; no shrinking
    find(packable_rows(), top_slot_overflows,
         settings=settings(phases=[Phase.generate]))


def test_seven_rows_go_through_bareiss(monkeypatch):
    # past a cutoff lowered to six rows
    monkeypatch.setattr(matrices, "_PACKED_MAX_N", 6)
    rng = random.Random(29)
    rows = [[LaurentPoly(rng.choice([1, 2]),
                         {rng.randrange(-3, 4): rng.randrange(-9, 10)
                          for _ in range(2)}) for _ in range(7)]
            for _ in range(7)]
    assert det_packed(rows) is None
    monkeypatch.setattr(matrices, "_PACKED_MAX_N", 7)
    packed = det_packed(rows)
    monkeypatch.setattr(matrices, "_PACKED_MAX_N", 6)
    calls = []
    bareiss = matrices._det_bareiss
    monkeypatch.setattr(matrices, "_det_bareiss",
                        lambda rows: calls.append(1) or bareiss(rows))
    m = RingMatrix(rows)
    assert det_exact(m) == packed == _det_cofactor(m)
    assert calls == [1]


def test_row_contents_multiply_back():
    rng = random.Random(19)
    for _ in range(4):
        m = RingMatrix.from_fn(
            3, 3, lambda i, j: (qdiff(rng.randrange(1, 5))
                                + LaurentPoly.const(rng.randrange(-3, 4)))
            * Fraction(rng.randrange(1, 9), rng.randrange(1, 9)) * (i + 2))
        d = det_exact(m)
        assert d == _det_cofactor(m)
    m = RingMatrix([[Fraction(1, 2), Fraction(3, 4)], [6, 4]])
    assert det_exact(m) == Fraction(-5, 2)
    assert type(det_exact(RingMatrix([[2, 4], [3, 9]]))) is int
    zero_row = RingMatrix([[LaurentPoly.zero(), LaurentPoly.zero()],
                           [qdiff(1), qdiff(2)]])
    assert det_exact(zero_row) == 0


def test_cyclotomic_coefficient_determinants_match_cofactors():
    # a row that is z^4 times rationals: Bareiss over Q(zeta_24)
    z4 = cyclotomic_embed(6)
    t = LaurentPoly.var_power(1)
    for m in (RingMatrix([[2 * z4, 3 * z4], [1, 5]]),
              RingMatrix([[t * z4 + z4, 3 * t * z4], [t + 1, 5 * t]])):
        assert det_exact(m) == _det_cofactor(m)
    assert det_exact(RingMatrix([[2 * z4, 3 * z4], [1, 5]])) == 7 * z4


# ---------- mixed entries, lifted into one ring ----------

def lifted(m):
    """m with its entries in one ring, lifted apart from det_exact: every
    entry a RatFunc beside a RatFunc, else every scalar a constant beside
    a LaurentPoly."""
    entries = [x for row in m.rows for x in row]
    ring = next((r for r in (RatFunc, LaurentPoly)
                 if any(isinstance(x, r) for x in entries)), None)
    if ring is None:
        return m
    lift = RatFunc if ring is RatFunc else LaurentPoly.const
    return RingMatrix([[x if isinstance(x, ring) else lift(x) for x in row]
                       for row in m.rows])


mixed_polys = st.builds(
    lambda terms, scale: LaurentPoly(scale, terms),
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=3),
    st.sampled_from([1, 2]))

MIXED_KINDS = {
    "int": st.integers(-3, 3),
    "Fraction": st.fractions(-3, 3, max_denominator=4),
    "Cyclotomic": st.builds(lambda c, k: c * cyclotomic_embed(k),
                            st.integers(-2, 2), st.sampled_from([3, 4, 8])),
    "LaurentPoly": mixed_polys,
    "RatFunc": st.builds(lambda p, a: RatFunc(p, qdiff(a)), mixed_polys,
                         st.integers(1, 3)),
}


@st.composite
def mixed_matrices(draw):
    """1 to 4 rows whose entries mix the kinds drawn, ints, Fractions,
    Cyclotomics, one-variable LaurentPolys and RatFuncs, zeros included."""
    kinds = draw(st.lists(st.sampled_from(sorted(MIXED_KINDS)), min_size=1,
                          max_size=3, unique=True))
    n = draw(st.integers(1, 4))
    entry = st.one_of([MIXED_KINDS[k] for k in kinds])
    return RingMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=120)
@given(mixed_matrices())
def test_mixed_entries_match_the_cofactors_of_the_lifted_matrix(m):
    d = det_exact(m)
    oracle = lifted(m)
    assert d == _det_cofactor(oracle)
    if oracle is not m:
        assert isinstance(d, type(oracle[0, 0]))


def test_mixed_entries_are_lifted_into_one_ring():
    t = LaurentPoly.var_power(1)
    assert det_exact(RingMatrix([[1, t, 0], [t, 1, t], [0, t, 1]])) \
        == 1 - 2 * t * t
    r = RatFunc(1, qdiff(1))
    assert det_exact(RingMatrix([[r, 1], [0, r]])) == r * r
    # a RatFunc beside an int lifts the int to a RatFunc
    s = RatFunc(qdiff(2), qdiff(1))
    assert det_exact(RingMatrix([[s, 1], [3, s]])) == s * s - 3
    # a zero pivot with no row to swap in is the ring's zero
    zero = det_exact(RingMatrix([[0, Fraction(1, 2)], [0, t]]))
    assert isinstance(zero, LaurentPoly) and zero.is_zero
