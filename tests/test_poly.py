from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cweil.cyclo import CycNum, sqrt_prime_power
from cweil.poly import (
    Poly,
    apply_operator,
    combine,
    conj_poly,
    index_vector,
    inner_product,
    parse_poly,
    serialize_poly,
    tuple_profile,
    var_index,
)
from tests.closures import cycnum_inner_product, fold_combine
from tests.test_cliffordweil import _run_python_O


def monomial_exponents(d: int, N: int):
    """All exponent tuples of length d summing to N, lexicographically."""
    if d == 1:
        yield (N,)
        return
    for first in range(N, -1, -1):
        for rest in monomial_exponents(d - 1, N - first):
            yield (first,) + rest


def P(terms, p=2, g=1, n=8):
    N = sum(next(iter(terms)))
    return Poly(p, g, N, n, terms)


def test_var_index_roundtrip():
    assert var_index((1, 0), 2) == 2
    assert var_index((0, 1), 2) == 1
    assert var_index((1, 2), 3) == 5
    for p, g in [(2, 2), (3, 2), (2, 3)]:
        for i in range(p**g):
            assert var_index(index_vector(i, p, g), p) == i


def test_inner_product_single_variable_powers():
    a = P({(2, 0): 1})
    assert inner_product(a, a) == CycNum.from_rat(8, 2)
    b = P({(1, 1): 1})
    assert inner_product(b, b) == CycNum.one(8)
    assert inner_product(a, b) == CycNum.zero(8)


def test_inner_product_f1():
    # f1 in tuple notation: (12,4) - 4*(10,6) + 6*(8,8), genus 1, N = 16
    f1 = P(
        {
            (12, 4): 1,
            (4, 12): 1,
            (10, 6): -4,
            (6, 10): -4,
            (8, 8): 6,
        }
    )
    want = (
        2 * factorial(12) * factorial(4)
        + 32 * factorial(10) * factorial(6)
        + 36 * factorial(8) ** 2
    )
    assert inner_product(f1, f1) == CycNum.from_rat(8, want)


def test_inner_product_hermitian_with_i():
    i = CycNum.zeta_pow(8, 2)
    a = P({(3, 0): i})
    b = P({(3, 0): 1})
    assert inner_product(a, b) == i * 6
    assert inner_product(b, a) == i.conj() * 6
    assert inner_product(a, a) == CycNum.from_rat(8, 6)


def test_apply_identity():
    a = P({(2, 1): 3, (0, 3): 1})
    assert apply_operator(a, [[1, 0], [0, 1]]) == a


def test_apply_swap():
    a = P({(2, 1): 1})
    swapped = apply_operator(a, [[0, 1], [1, 0]])
    assert swapped == P({(1, 2): 1})


def test_fourier_fixes_repetition_enumerator():
    # (1/sqrt2) [[1,1],[1,-1]] fixes x0^2 + x1^2
    s = sqrt_prime_power(2, 1, 8)
    h = [[s / 2, s / 2], [s / 2, -s / 2]]
    a = P({(2, 0): 1, (0, 2): 1})
    assert apply_operator(a, h) == a
    # ... but not x0^2 - x1^2 (goes to the cross term)
    b = P({(2, 0): 1, (0, 2): -1})
    assert apply_operator(b, h) == P({(1, 1): 2})


def test_conj_poly():
    i = CycNum.zeta_pow(8, 2)
    a = P({(4, 0): i})
    assert conj_poly(a) == P({(4, 0): -i})
    assert conj_poly(conj_poly(a)) == a
    r = P({(4, 0): Fraction(3, 7)})
    assert conj_poly(r) == r


def test_tuple_profile():
    a = P({(2, 0): 1, (0, 2): 1, (1, 1): 5})
    assert tuple_profile(a) == {(2,): CycNum.one(8), (1, 1): CycNum.from_rat(8, 5)}
    bad = P({(2, 0): 1, (0, 2): 2})
    with pytest.raises(ValueError):
        tuple_profile(bad)


def test_serialize_roundtrip():
    s = sqrt_prime_power(2, 1, 8)
    a = Poly(2, 2, 3, 8, {(1, 1, 1, 0): s / 2, (3, 0, 0, 0): Fraction(-7, 3)})
    assert parse_poly(serialize_poly(a)) == a


def test_monomial_exponents_count():
    # compositions of N into d parts: C(N+d-1, d-1)
    ms = list(monomial_exponents(4, 6))
    assert len(ms) == 84
    assert len(set(ms)) == 84
    assert all(sum(m) == 6 for m in ms)


def _rand_poly(draw, p=2, g=1, n=8, N=4):
    d = p**g
    ms = list(monomial_exponents(d, N))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5), min_size=len(ms), max_size=len(ms)
        )
    )
    return Poly(p, g, N, n, dict(zip(ms, coeffs)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inner_product_hermitian_property(data):
    a = _rand_poly(data.draw)
    b = _rand_poly(data.draw)
    assert inner_product(a, b) == inner_product(b, a).conj()
    c = _rand_poly(data.draw)
    assert inner_product(a + c, b) == inner_product(a, b) + inner_product(c, b)
    if a:
        assert inner_product(a, a).as_rational() > 0


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_apply_composition_is_matrix_product(data):
    # acting by M1 then M2 equals acting by the matrix product M1*M2
    a = _rand_poly(data.draw, N=3)
    ints = st.integers(min_value=-2, max_value=2)
    M1 = [[data.draw(ints) for _ in range(2)] for _ in range(2)]
    M2 = [[data.draw(ints) for _ in range(2)] for _ in range(2)]
    prod = [
        [sum(M1[i][k] * M2[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    lhs = apply_operator(apply_operator(a, M1), M2)
    assert lhs == apply_operator(a, prod)


@pytest.mark.parametrize("make", [
    lambda: var_index((0, 2), 2),
    lambda: Poly(2, 1, 1, 8, {(1, 0): CycNum.one(12)}),
    lambda: Poly(2, 1, 8, 8, {(8, 0, 0): 1}),
    lambda: P({(1, 0): 1}) * P({(1, 0, 0): 1}, p=3, n=12),
    lambda: P({(1, 0): 1}) + P({(2, 0): 1}),
    lambda: inner_product(P({(1, 0): 1}), P({(1, 0, 0, 0): 1}, g=2)),
    lambda: inner_product(P({(1, 0): 1}), P({(2, 0): 1})),
    lambda: apply_operator(P({(1, 0): 1}), [[1, 0], [0]]),
], ids=["coordinate", "conductor", "length", "like", "add-degree", "inner-like",
        "inner-degree", "apply-shape"])
def test_poly_inputs_raise(make):
    with pytest.raises(ValueError):
        make()


def test_poly_checks_survive_python_O():
    # under -O an assert would add a genus-1 and a genus-2 monomial into a
    # genus-1 Poly, and accept a degree-6 monomial in a degree-8 Poly
    code = (
        "from cweil.poly import Poly\n"
        "for call in [lambda: Poly.monomial(2, 1, 8, (8, 0))\n"
        "                     + Poly.monomial(2, 2, 8, (8, 0, 0, 0)),\n"
        "             lambda: Poly(2, 1, 8, 8, {(3, 3): 1})]:\n"
        "    try:\n"
        "        print('accepted', call())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "Poly(p=2, g=2, N=8, 1 terms) of conductor 8 does not match "
        "Poly(p=2, g=1, N=8, 1 terms) of conductor 8",
        "the term (3, 3): CycNum(8, 1) does not fit 2 variables, degree 8 and conductor 8",
    ]


# --- the integer-numerator kernels against their term-by-term oracles ----

# conductor -> field size: Q(zeta_8) and Q(zeta_12) both have degree 4
FIELDS = {8: 2, 12: 3}


def _cyc(draw, n, rational=False):
    nums = draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    if rational:
        nums[1:] = [0] * 3
    return CycNum(n, nums, draw(st.integers(1, 4)))


def _cyc_poly(draw, n, N=3, rational=st.just(False)):
    """A Poly of degree N; each coefficient is rational where `rational` draws True."""
    ms = list(monomial_exponents(FIELDS[n], N))
    picked = draw(st.lists(st.sampled_from(ms), max_size=len(ms), unique=True))
    return Poly(FIELDS[n], 1, N, n, {m: _cyc(draw, n, draw(rational)) for m in picked})


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(sorted(FIELDS)), data=st.data())
def test_inner_product_and_combine_match_their_oracles(n, data):
    # b is all rational half the time (inner_product's conj(b_m) = b_m
    # branch alone), and otherwise mixes rational and irrational terms
    a = _cyc_poly(data.draw, n)
    all_rational = data.draw(st.booleans())
    b = _cyc_poly(data.draw, n, rational=st.just(True) if all_rational else st.booleans())
    assert inner_product(a, b) == cycnum_inner_product(a, b)
    # integer counts, as cwe passes them, make the same Poly as their Fractions
    counts = {m: data.draw(st.integers(-5, 5)) for m in b.terms}
    as_ints = Poly(FIELDS[n], 1, 3, n, counts)
    assert as_ints == Poly(FIELDS[n], 1, 3, n, {m: Fraction(k) for m, k in counts.items()})
    assert {m: c.as_rational() for m, c in as_ints.terms.items()} == {
        m: k for m, k in counts.items() if k}
    rationals = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))
    pairs = []
    for _ in range(data.draw(st.integers(0, 4))):
        c = _cyc(data.draw, n) if data.draw(st.booleans()) else data.draw(rationals)
        pairs.append((c, _cyc_poly(data.draw, n)))
    if pairs and data.draw(st.booleans()):  # a pair and its negative cancel
        c, x = data.draw(st.sampled_from(pairs))
        pairs.append((-c, x))
    got = combine(pairs, a)
    assert got == fold_combine(pairs, a)
    assert all(got.terms.values())


def test_combine_drops_cancelled_terms_and_refuses_shape_mismatches():
    z = CycNum.zeta_pow(8, 1)
    a = P({(2, 0): z, (1, 1): 1})
    b = P({(2, 0): 1, (0, 2): z})
    got = combine([(1, a), (-z, b)], a)
    assert got == fold_combine([(1, a), (-z, b)], a)
    assert set(got.terms) == {(1, 1), (0, 2)}  # z * x0^2 cancelled
    assert not combine([(z, a), (-z, a)], a).terms
    assert combine([], a) == Poly.zero(2, 1, 2, 8)
    for bad in [(1, P({(3, 0): 1})), (1, P({(1, 0, 0, 1): 1}, g=2)),
                (1, P({(1, 1, 0): 1}, p=3, n=12)), (CycNum.one(12), a)]:
        with pytest.raises(ValueError):
            combine([(1, a), bad], a)
