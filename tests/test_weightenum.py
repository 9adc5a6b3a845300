import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cweil import weightenum
from cweil.codes import code_from_rows, permute_code
from cweil.constructions import e8, i2, table2_codes, tetracode
from cweil.cyclo import CycNum
from cweil.database import load_bundled
from cweil.poly import tuple_profile
from cweil.weightenum import cwe, cwe_binary_fast, cwe_generic

# genus-2 tuple coefficients of the seven length-16 classes, columns
# (12,2,2) (10,4,2) (8,6,2) (8,4,4) (6,6,4) (8,4,2,2) (10,2,2,2)
# (6,6,2,2) (6,4,4,2) (4,4,4,4)
GENUS2_TABLE = {
    "E16": (0, 0, 0, 420, 0, 0, 336, 4704, 0, 29400),
    "F16": (0, 0, 0, 84, 192, 576, 48, 1056, 3264, 8088),
    "A8^2": (0, 0, 0, 420, 0, 0, 336, 4704, 0, 29400),
    "D14+i2": (0, 14, 49, 98, 196, 672, 84, 1176, 3038, 7056),
    "B12+2i2": (2, 30, 94, 120, 212, 750, 120, 1264, 2820, 6120),
    "A8+4i2": (12, 68, 172, 188, 280, 852, 192, 1344, 2408, 4536),
    "8i2": (56, 168, 280, 420, 560, 840, 336, 1120, 1680, 2520),
}
GENUS2_COLUMNS = (
    (12, 2, 2),
    (10, 4, 2),
    (8, 6, 2),
    (8, 4, 4),
    (6, 6, 4),
    (8, 4, 2, 2),
    (10, 2, 2, 2),
    (6, 6, 2, 2),
    (6, 4, 4, 2),
    (4, 4, 4, 4),
)
GENUS1_TABLE = {
    "E16": (1, 0, 28, 0, 198),
    "F16": (1, 0, 12, 64, 102),
    "A8^2": (1, 0, 28, 0, 198),
    "D14+i2": (1, 1, 14, 63, 98),
    "B12+2i2": (1, 2, 16, 62, 94),
    "A8+4i2": (1, 4, 20, 60, 86),
    "8i2": (1, 8, 28, 56, 70),
}
GENUS1_COLUMNS = ((16,), (14, 2), (12, 4), (10, 6), (8, 8))


def _profile_value(prof, key, conductor=8):
    got = prof.get(key, CycNum.zero(conductor))
    return int(got.as_rational())


def test_cwe1_repetition():
    c = cwe(i2(), 1)
    assert c.terms == {(2, 0): CycNum.one(8), (0, 2): CycNum.one(8)}


def test_cwe0_is_power_of_single_variable():
    c = cwe_generic(e8(), 0)
    assert c.g == 0 and c.terms == {(8,): CycNum.one(8)}


def test_genus1_table():
    for name, C in table2_codes().items():
        prof = tuple_profile(cwe(C, 1))
        got = tuple((_profile_value(prof, k)) for k in GENUS1_COLUMNS)
        # mirror tuples (2,14) etc. appear as sorted keys (14,2): same entries
        assert got == GENUS1_TABLE[name], name


def test_genus2_table():
    t0 = time.time()
    for name, C in table2_codes().items():
        prof = tuple_profile(cwe(C, 2))
        got = tuple(_profile_value(prof, k) for k in GENUS2_COLUMNS)
        assert got == GENUS2_TABLE[name], name
        # the 2-part genus-2 tuples repeat the genus-1 table
        g1 = tuple(_profile_value(prof, k) for k in GENUS1_COLUMNS)
        assert g1 == GENUS1_TABLE[name], name
    assert time.time() - t0 < 10


def test_total_mass():
    for C, g in [(i2(), 1), (i2(), 2), (e8(), 1), (e8(), 2), (tetracode(), 1)]:
        c = cwe(C, g)
        total = sum(x.as_rational() for x in c.terms.values())
        assert total == len(C.words) ** g


def test_generic_equals_fast():
    for C, g in [(e8(), 1), (e8(), 2), (i2(), 3)]:
        assert cwe_generic(C, g) == cwe_binary_fast(C, g)
    rows = []
    for j in range(8):
        r = [0] * 16
        r[2 * j] = r[2 * j + 1] = 1
        rows.append(r)
    i2_8 = code_from_rows(2, 16, rows)
    assert cwe_generic(i2_8, 1) == cwe_binary_fast(i2_8, 1)


def test_permutation_invariance():
    rng = random.Random(3)
    C = table2_codes()["F16"]
    base1, base2 = cwe(C, 1), cwe(C, 2)
    for _ in range(3):
        sigma = list(range(16))
        rng.shuffle(sigma)
        Cp = permute_code(C, sigma)
        assert cwe(Cp, 1) == base1 and cwe(Cp, 2) == base2


def test_budget_refused():
    with pytest.raises(ValueError):
        cwe(table2_codes()["E16"], 2, budget=1000)


def test_tetracode_cwe1():
    prof = tuple_profile(cwe(tetracode(), 1))
    # 9 words: 1 zero word and 8 of weight 3; ternary variables x_0, x_1, x_2
    keys = set(prof)
    assert (4,) in keys
    total = sum(x.as_rational() for x in cwe(tetracode(), 1).terms.values())
    assert total == 9


def _bits(word: int, n: int) -> list[int]:
    return [(word >> i) & 1 for i in range(n)]


@pytest.mark.parametrize("rec", load_bundled("codes_2i_n16").records,
                         ids=lambda rec: rec.name)
def test_genus2_kernel_matches_generic_on_bundled_2i16(rec):
    assert cwe_binary_fast(rec.code, 2) == cwe_generic(rec.code, 2)


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.just(64), st.integers(min_value=1, max_value=64)),
       data=st.data())
@example(n=64, data=None)
def test_genus2_kernel_matches_generic_on_random_codes(n, data):
    if data is None:  # the top bit alone, and with the bottom one
        words = [1 << 63, (1 << 63) | 1]
    else:
        words = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
        words = [w | (1 << (n - 1)) for w in words]  # every row uses bit n-1
    C = code_from_rows(2, n, [_bits(w, n) for w in words])
    assert cwe_binary_fast(C, 2) == cwe_generic(C, 2)
    assert cwe_binary_fast(C, 1) == cwe_generic(C, 1)


def test_genus2_kernel_is_chunk_independent(monkeypatch):
    C = table2_codes()["F16"]  # 256 words: 86 blocks of 3 rows, the last short
    assert weightenum.PAIR_CHUNK // 256 < 256  # the default splits it too
    whole = cwe_binary_fast(C, 2)
    monkeypatch.setattr(weightenum, "PAIR_CHUNK", 3 * 256)
    assert cwe_binary_fast(C, 2) == whole
    monkeypatch.setattr(weightenum, "PAIR_CHUNK", 1)
    assert cwe_binary_fast(C, 2) == whole


def test_codes_longer_than_64_take_the_generic_path():
    # the popcount kernel is uint64 and would drop the top two coordinates
    n = 66
    words = [(1 << 65) | (1 << 64) | 0b1011, (1 << 65) | (1 << 40) | 1, (1 << 63) | 0b110]
    C = code_from_rows(2, n, [_bits(w, n) for w in words])
    with pytest.raises(ValueError, match="N <= 64"):
        cwe_binary_fast(C, 2)
    with pytest.raises(ValueError, match="N <= 64"):
        cwe_binary_fast(C, 1)
    assert cwe(C, 1) == cwe_generic(C, 1)
    assert cwe(C, 2) == cwe_generic(C, 2)
    assert sum(int(c.as_rational()) for c in cwe(C, 2).terms.values()) == 64


def test_popcount_kernel_refuses_odd_p_and_genus_0():
    with pytest.raises(ValueError, match="p = 2"):
        cwe_binary_fast(tetracode(), 1)
    with pytest.raises(ValueError, match="g >= 1"):
        cwe_binary_fast(e8(), 0)
