import random
from itertools import permutations
from math import factorial

import pytest

from cweil.autgroup import aut_order
from cweil.codes import code_from_rows
from cweil.database import BUNDLED, load_bundled
from tests.constructions import (
    b12, d_chain, direct_sum, e7, e8, i2, permute_code, table2_codes,
)
from tests.test_constructions import LENGTH16_TABLE

# Every recorded order in every bundled file.  Loading a bundled file whose
# digest is in CERTIFIED recomputes none of them, so this is where they are
# certified.  The length-24 cases keep their bare names as ids.
BUNDLED_ORDERS = [
    pytest.param(fname, rec.name,
                 id=rec.name if fname == "codes_2ii_n24" else f"{fname}-{rec.name}")
    for fname in BUNDLED for rec in load_bundled(fname).records
    if rec.aut is not None
]


def brute_force_aut(C):
    """|Aut(C)| by testing every permutation in S_n against the generators."""
    members = set(C.words)
    supports = [[i for i, b in enumerate(row) if b] for row in C.rows]
    return sum(
        all(sum(1 << sigma[i] for i in s) in members for s in supports)
        for sigma in permutations(range(C.n))
    )


def test_aut_i2():
    assert aut_order(i2()) == 2


def test_aut_e8():
    assert aut_order(e8()) == 1344


def test_aut_trivial_codes():
    full = code_from_rows(2, 5, ["10000", "01000", "00100", "00010", "00001"])
    assert aut_order(full) == factorial(5)


def test_aut_b12():
    # consistency with the certified length-16 value: B12 is indecomposable,
    # so Aut(B12+2i2) = Aut(B12) x (Aut(i2) wr S_2), giving 184320 / 8
    assert aut_order(b12()) == 184320 // 8 == 23040


def test_aut_matches_length16_table():
    for name, C in table2_codes().items():
        assert aut_order(C) == LENGTH16_TABLE[name][1], name


def test_aut_invariant_under_permutation():
    rng = random.Random(7)
    for fname in ("codes_2i_n16", "codes_2ii_n16"):
        for rec in load_bundled(fname).records:
            for _ in range(3):
                sigma = list(range(16))
                rng.shuffle(sigma)
                assert aut_order(permute_code(rec.code, sigma)) == rec.aut, rec.name


@pytest.mark.parametrize(
    "C",
    [i2(), e7(), e8(), direct_sum(i2(), i2(), i2(), i2()), d_chain(8),
     code_from_rows(2, 6, ["110000", "011100"])],
    ids=["i2", "e7", "e8", "4i2", "d8", "zero-column"],
)
def test_aut_matches_brute_force(C):
    assert aut_order(C) == brute_force_aut(C)


@pytest.mark.parametrize("fname,name", BUNDLED_ORDERS)
def test_aut_recomputes_length24_order(fname, name):
    rec = load_bundled(fname)[name]
    assert aut_order(rec.code) == rec.aut


def test_aut_divides_factorial():
    for name, C in table2_codes().items():
        assert factorial(16) % aut_order(C) == 0, name
