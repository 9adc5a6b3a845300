import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cweil.codes import (
    LinearCode,
    check_type,
    code_from_rows,
    dual_code,
    enumerate_codewords,
    permute_code,
    weight_distribution,
)


def test_repetition_code():
    i2 = code_from_rows(2, 2, ["11"], tag="2I")
    assert i2.k == 1
    assert sorted(i2.words) == [0b00, 0b11]
    assert code_from_rows(2, 2, ["11", "11"]).k == 1
    assert dual_code(i2) == i2
    assert check_type(i2)
    assert not check_type(i2, "2II")


def test_tetracode_is_self_dual_not_q1():
    t = code_from_rows(3, 4, ["1012", "0111"], tag="Q")
    assert t.k == 2
    assert dual_code(t) == t
    assert check_type(t)
    assert not check_type(t, "Q1")
    assert len(list(enumerate_codewords(t))) == 9


def test_e8_hamming():
    e8 = code_from_rows(
        2, 8, ["11111111", "00001111", "00110011", "01010101"], tag="2II"
    )
    assert dual_code(e8) == e8
    assert check_type(e8)
    assert weight_distribution(e8) == (1, 0, 0, 0, 14, 0, 0, 0, 1)


def test_dual_of_full_space_is_zero():
    full = code_from_rows(2, 3, ["100", "010", "001"])
    z = dual_code(full)
    assert z.k == 0
    assert tuple(z.words) == (0,)
    assert dual_code(z) == full


def test_row_validation():
    with pytest.raises(ValueError):
        code_from_rows(2, 4, ["102"])
    with pytest.raises(ValueError):
        code_from_rows(2, 4, ["10"])
    with pytest.raises(ValueError, match="length 4"):
        LinearCode(2, 4, [[1, 1]])


@pytest.mark.parametrize("p", [4, 9, 1, 0, 17])
def test_field_must_be_a_small_prime(p):
    # pow(i, 1, p) is nonzero for every i < p, so the old check let 4 and 9 by
    with pytest.raises(ValueError, match=f"field size {p} is not a prime"):
        LinearCode(p, 2, [[1, 1]])


def test_type_tag_is_checked():
    with pytest.raises(ValueError, match="unknown type"):
        LinearCode(2, 2, [[1, 1]], "3I")
    with pytest.raises(ValueError, match="does not go with field 3"):
        LinearCode(3, 2, [[1, 1]], "2I")
    with pytest.raises(ValueError, match="does not go with field 2"):
        LinearCode(2, 2, [[1, 1]], "Q")
    with pytest.raises(ValueError, match="unknown type"):
        check_type(LinearCode(2, 2, [[1, 1]]))


def test_codeword_budget_raises():
    C = LinearCode(2, 27, [[int(i == j) for j in range(27)] for i in range(27)])
    with pytest.raises(ValueError, match="budget"):
        C.words


@settings(max_examples=50, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_dual_is_involution(p, n, data):
    nrows = data.draw(st.integers(min_value=0, max_value=n))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
            min_size=nrows,
            max_size=nrows,
        )
    )
    C = code_from_rows(p, n, rows)
    D = dual_code(C)
    assert C.k + D.k == n
    assert dual_code(D) == C
    # every pair of words from C and D is orthogonal
    for c in C.rows:
        for d in D.rows:
            assert sum(a * b for a, b in zip(c, d)) % p == 0


def test_permute_preserves_weights():
    e8 = code_from_rows(2, 8, ["11111111", "00001111", "00110011", "01010101"])
    sigma = [3, 1, 4, 0, 5, 2, 7, 6]
    assert weight_distribution(permute_code(e8, sigma)) == weight_distribution(e8)


def test_contains():
    t = code_from_rows(3, 4, ["1012", "0111"])
    assert t.contains((1, 0, 1, 2))
    assert t.contains((2, 1, 0, 2))  # 2*(1012) + (0111)
    assert not t.contains((1, 1, 1, 1))


def test_self_dual_dimension_halved():
    i2 = code_from_rows(2, 2, ["11"])
    assert i2.k * 2 == i2.n
