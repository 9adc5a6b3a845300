from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from cweil.autgroup import aut_order
from cweil.codes import check_type, dual_code
from cweil.database import BUNDLED, load_bundled
from tests.closures import weight_distribution
from tests.constructions import (
    b12,
    bundled_witnesses,
    d14,
    d_chain,
    direct_sum,
    e7,
    e8,
    f16,
    golay24,
    i2,
    table2_codes,
    tetracode,
)

# genus-1 tuple coefficients (16),(14,2),(12,4),(10,6),(8,8) and |Aut|,
# one row per class of binary self-dual length-16 codes
LENGTH16_TABLE = {
    "E16": ((1, 0, 28, 0, 198), 5160960),
    "F16": ((1, 0, 12, 64, 102), 73728),
    "A8^2": ((1, 0, 28, 0, 198), 3612672),
    "D14+i2": ((1, 1, 14, 63, 98), 112896),
    "B12+2i2": ((1, 2, 16, 62, 94), 184320),
    "A8+4i2": ((1, 4, 20, 60, 86), 516096),
    "8i2": ((1, 8, 28, 56, 70), 10321920),
}


def test_length16_weight_distributions():
    for name, C in table2_codes().items():
        wd = weight_distribution(C)
        assert all(wd[i] == 0 for i in range(1, 16, 2)), name
        low = tuple(wd[2 * i] for i in range(5))
        assert low == LENGTH16_TABLE[name][0], name
        # self-dual codes containing the all-ones word: mirrored distribution
        assert wd[16] == 1 and tuple(wd[16 - 2 * i] for i in range(5))[2:] == low[2:], name


def test_length16_all_self_dual():
    for name, C in table2_codes().items():
        assert C.k == 8 and check_type(C, "2I"), name


def test_length16_mass_formula():
    # sum over classes of N!/|Aut| = number of self-dual codes
    # = prod_{i=1}^{N/2-1} (2^i + 1)
    total = sum(
        Fraction(factorial(16), aut) for (_, aut) in LENGTH16_TABLE.values()
    )
    expect = 1
    for i in range(1, 8):
        expect *= 2**i + 1
    assert total == expect == 635037975


def test_doubly_even_sublist():
    codes = table2_codes()
    even = {name for name, C in codes.items() if check_type(C, "2II")}
    assert even == {"E16", "A8^2"}
    # Type II mass formula at length 16
    total = sum(Fraction(factorial(16), LENGTH16_TABLE[n][1]) for n in even)
    expect = 1
    for i in range(7):
        expect *= 2**i + 1
    assert total == expect == 9845550


def test_e7_is_even_hamming_subcode():
    C = e7()
    assert C.k == 3
    assert weight_distribution(C) == (1, 0, 0, 0, 7, 0, 0, 0)


def test_d_chain_weights_divisible_by_four():
    for n in (4, 8, 12, 16):
        C = d_chain(n)
        assert C.k == n // 2 - 1
        assert all(w % 4 == 0 for w, c in enumerate(weight_distribution(C)) if c)


def test_b12_distribution():
    wd = weight_distribution(b12())
    assert wd == (1, 0, 0, 0, 15, 0, 32, 0, 15, 0, 0, 0, 1)


def test_d14_distribution():
    wd = weight_distribution(d14())
    assert wd == (1, 0, 0, 0, 14, 0, 49, 0, 49, 0, 14, 0, 0, 0, 1)


def test_f16_not_doubly_even():
    C = f16()
    assert check_type(C, "2I") and not check_type(C, "2II")


def test_golay24():
    C = golay24()
    assert C.k == 12
    assert check_type(C, "2II")
    wd = weight_distribution(C)
    assert wd[0] == wd[24] == 1
    assert wd[8] == wd[16] == 759
    assert wd[12] == 2576
    assert all(c == 0 for w, c in enumerate(wd) if w not in (0, 8, 12, 16, 24))


def test_tetracode_type():
    t = tetracode()
    assert check_type(t, "Q") and not check_type(t, "Q1")


def test_direct_sum_distribution_convolves():
    a, b = e8(), i2()
    wd = weight_distribution(direct_sum(a, b))
    wa, wb = weight_distribution(a), weight_distribution(b)
    for w in range(11):
        assert wd[w] == sum(
            wa[u] * wb[w - u] for u in range(max(0, w - 2), min(8, w) + 1)
        )


_witnesses = cache(bundled_witnesses)


@pytest.mark.parametrize("fname,name", [
    (fname, rec.name) for fname in BUNDLED for rec in load_bundled(fname).records
])
def test_bundled_record_matches_its_construction(fname, name):
    # every bundled basis is exactly its construction's, so the order below
    # is the one tests/test_autgroup.py recomputes (and aut_order caches)
    rec, C = load_bundled(fname)[name], _witnesses()[name]
    assert C == rec.code
    assert weight_distribution(C) == weight_distribution(rec.code)
    assert rec.aut is None or aut_order(C) == rec.aut
