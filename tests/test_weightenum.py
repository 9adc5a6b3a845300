import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cweil.codes import LinearCode, code_from_rows
from cweil.cyclo import CycNum
from cweil.database import BUNDLED, load_bundled
from cweil.poly import tuple_profile
from cweil.siegelphi import phi_op
from cweil import weightenum
from cweil.weightenum import _genus2_counts, cwe, cwe_binary_fast, cwe_generic
from tests.closures import row_genus2_counts
from tests.constructions import (direct_sum, e7, e8, golay24, i2, permute_code, table2_codes,
                                 tetracode)

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
    for C, g in [(e8(), 1), (e8(), 2)]:
        assert cwe_generic(C, g) == cwe_binary_fast(C, g)
    rows = []
    for j in range(8):
        r = [0] * 16
        r[2 * j] = r[2 * j + 1] = 1
        rows.append(r)
    i2_8 = code_from_rows(2, 16, rows)
    assert cwe_generic(i2_8, 1) == cwe_binary_fast(i2_8, 1)


def test_genus_3_definition_against_the_kernels_and_direct_sums():
    # genus 3 runs the definition only: Phi ties it to the genus-2 popcount
    # kernel, and the enumerator of a direct sum is the product of the parts'
    assert phi_op(cwe(e8(), 3)) == cwe(e8(), 2)
    assert cwe(direct_sum(i2(), e8()), 3) == cwe(i2(), 3) * cwe(e8(), 3)


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
    # 4096^3 = 2^36 codeword triples, 24 + 8 units each, exceed BUDGET = 2^26
    with pytest.raises(ValueError, match="exceed the budget"):
        cwe(golay24(), 3)


@pytest.mark.parametrize("name, g", [("F16", 3), ("e8", 6), ("e8", 2**31 - 1), ("e8", 10**12)])
def test_definition_refuses_past_its_budget_without_building_the_tuple_count(name, g):
    # F16 at genus 3 ran past a minute, and e8 at genus 2^31 - 1 built
    # 16^g before comparing it: a MemoryError under a 1 GB limit
    C = table2_codes()[name] if name == "F16" else e8()
    start = time.monotonic()
    with pytest.raises(ValueError, match="exceed the budget"):
        cwe(C, g)
    assert time.monotonic() - start < 1


def test_genus2_kernel_refuses_past_its_budget():
    # i2^15 holds 1, so the kernel keeps 2^14 words: 2^27 unordered pairs
    # exceed BUDGET = 2^26 (i2^14's 2^25 pairs take about 1.3 s)
    C = direct_sum(*[i2()] * 15)
    start = time.monotonic()
    with pytest.raises(ValueError, match="16384\\^2/2 word pairs exceed the budget"):
        cwe(C, 2)
    assert time.monotonic() - start < 1


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


@pytest.mark.parametrize("rec", [rec for name in ("codes_2ii_n8", "codes_2ii_n16")
                                 for rec in load_bundled(name).records],
                         ids=lambda rec: rec.name)
def test_genus2_kernel_matches_generic_on_bundled_2ii(rec):
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
        if data.draw(st.booleans()):  # 1 in C: the Klein branch
            words.append((1 << n) - 1)
    C = code_from_rows(2, n, [_bits(w, n) for w in words])
    assert cwe_binary_fast(C, 2) == cwe_generic(C, 2)
    assert cwe_binary_fast(C, 1) == cwe_generic(C, 1)


def _f16_without_ones() -> LinearCode:
    # the words of F16 with bit 15 clear: a subcode of index 2 missing 1
    return LinearCode(2, 16, [_bits(w, 16) for w in table2_codes()["F16"].words if not w >> 15])


_ONES64 = (1 << 64) - 1


def _code64(*words: int) -> LinearCode:
    return code_from_rows(2, 64, [_bits(w, 64) for w in words])


@pytest.mark.parametrize("make, has_ones", [
    (lambda: table2_codes()["F16"], True),
    (_f16_without_ones, False),
    (lambda: LinearCode(2, 16, []), False),
    (lambda: code_from_rows(2, 16, ["1" * 16]), True),
    (lambda: code_from_rows(2, 7, [r[:7] for r in e8().rows]), True),  # [7,4] Hamming
    (e7, False),
    (lambda: _code64(_ONES64, 0xFFFF, 1 << 63 | 0b1011), True),
    (lambda: _code64(0xFFFF, 1 << 63 | 0b1011), False),
], ids=["F16", "F16-without-1", "zero", "zero-and-1", "hamming7", "e7", "n64-with-1", "n64"])
def test_genus2_kernel_matches_generic_on_both_branches(make, has_ones):
    # with 1 in C the kernel counts a quarter of C x C and expands it under
    # the Klein four-group; without it, it counts all of C x C
    C = make()
    assert ((1 << C.n) - 1 in C.words) == has_ones
    assert cwe_binary_fast(C, 2) == cwe_generic(C, 2)


@pytest.mark.parametrize("rec", [rec for name in BUNDLED for rec in load_bundled(name).records
                                 if rec.p == 2], ids=lambda rec: rec.name)
def test_genus2_blocks_match_the_row_oracle_on_every_bundled_binary_code(rec):
    # the nine length-24 codes are past cwe_generic's budget, so the per-word
    # row builder is their oracle
    C = rec.code
    assert dict(_genus2_counts(C.words, C.n)) == dict(row_genus2_counts(C.words, C.n))


def _slot_code(n: int, has_ones: bool) -> LinearCode:
    # six random words and one of weight n - 1, all with bit 0 clear, so 1
    # lies in C only when it is added
    rng = random.Random(n)
    words = [rng.getrandbits(n) & ~1 for _ in range(6)] + [(1 << n) - 2]
    C = code_from_rows(2, n, [_bits(w, n) for w in words + [(1 << n) - 1] * has_ones])
    assert ((1 << n) - 1 in C.words) == has_ones
    return C


@pytest.mark.parametrize("has_ones", [False, True], ids=["no-1", "with-1"])
@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64])
def test_genus2_blocks_match_the_row_oracle_at_the_slot_widths(n, has_ones):
    # a slot is 1, 2, 4 or 8 bytes as n passes 8, 16 and 32; without 1 the
    # diagonal of the weight n - 1 word puts n - 1 (63 at n = 64) in a slot
    C = _slot_code(n, has_ones)
    assert dict(_genus2_counts(C.words, n)) == dict(row_genus2_counts(C.words, n))


@pytest.mark.parametrize("cap", [1, 16, 100])
def test_genus2_blocks_split_into_chunks_match_the_row_oracle(monkeypatch, cap):
    # at the default cap only the length-24 codes split a block; a small cap
    # splits the blocks of small codes into chunks of one c1 (cap 1) or of
    # several, with a shorter last chunk
    monkeypatch.setattr(weightenum, "BLOCK_BYTES", cap)
    for C in (e8(), table2_codes()["F16"], _slot_code(33, False), _slot_code(33, True)):
        assert dict(_genus2_counts(C.words, C.n)) == dict(row_genus2_counts(C.words, C.n))


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
    for g in (0, 3):
        with pytest.raises(ValueError, match="g = 1 or 2"):
            cwe_binary_fast(e8(), g)


@pytest.mark.parametrize("rec", [rec for name in BUNDLED for rec in load_bundled(name).records
                                 if rec.p == 2], ids=lambda rec: rec.name)
def test_genus1_histogram_matches_generic_on_every_bundled_binary_code(rec):
    assert cwe_binary_fast(rec.code, 1) == cwe_generic(rec.code, 1)
