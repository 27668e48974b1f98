"""Square-ice states with domain-wall boundaries and the matrix bijection."""

from collections import Counter

import pytest

from asmice.asm import Asm, enumerate_asms
from asmice.ice import (ASM_ENTRY_OF_STATE, IceInvalid, IceState, from_ice,
                        to_ice)
from dwbc_search import search_dwbc_states


def test_single_site_state():
    s = to_ice(Asm([[1]]))
    assert s.n == 1 and s[0, 0] == 1


def test_bijection_matches_direct_search():
    for n in (1, 2, 3, 4):
        via_matrix = {to_ice(a) for a in enumerate_asms(n)}
        direct = set(search_dwbc_states(n))
        assert via_matrix == direct
        assert len(direct) == [1, 2, 7, 42][n - 1]


def test_round_trip():
    for n in (1, 2, 3, 4):
        for a in enumerate_asms(n):
            assert from_ice(to_ice(a)) == a


def test_state_count_invariants():
    for n in (2, 3, 4):
        for s in search_dwbc_states(n):
            c = Counter(v for row in s.grid for v in row)
            assert c[1] - c[2] == n
            assert c[3] == c[4]
            assert c[5] == c[6]
            assert sum(c.values()) == n * n


def test_top_row_has_one_source_and_no_sink():
    for n in (2, 3, 4):
        for s in search_dwbc_states(n):
            top = [s[0, j] for j in range(n)]
            assert top.count(1) == 1
            assert top.count(2) == 0


def test_entry_dictionary_matches_bijection():
    for a in enumerate_asms(3):
        s = to_ice(a)
        for i in range(3):
            for j in range(3):
                assert ASM_ENTRY_OF_STATE[s[i, j]] == a.rows[i][j]


def test_invalid_states_rejected():
    with pytest.raises(IceInvalid, match="boundary"):
        IceState([[2]])
    with pytest.raises(IceInvalid):
        IceState([[1, 1], [1, 1]])
    with pytest.raises(IceInvalid):
        IceState([[7]])


def test_valid_literal_state_accepted():
    a = next(iter(enumerate_asms(2)))
    s = to_ice(a)
    grid = [[s[i, j] for j in range(2)] for i in range(2)]
    assert IceState(grid) == s
