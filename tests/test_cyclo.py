import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import cweil
from cweil.cyclo import CycNum, cyclotomic_poly, phi_degree, sqrt_prime_power
from tests.closures import conj_table, mul_table
from tests.test_cliffordweil import _run_python_O

CONDUCTORS = [1, 2, 3, 4, 8, 12, 20, 24]


def test_cyclotomic_poly_against_sympy():
    x = sympy.symbols("x")
    for n in CONDUCTORS + [5, 6, 7, 9, 15, 16]:
        ours = cyclotomic_poly(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], n


def test_zeta8_fourth_power_is_minus_one():
    z = CycNum.zeta_pow(8, 1)
    assert z * z * z * z == CycNum.from_rat(8, -1)
    assert CycNum.zeta_pow(8, 4) == -CycNum.one(8)


def test_cube_roots_sum_to_zero():
    assert sum(CycNum.zeta_pow(3, k) for k in range(3)) == CycNum.zero(3)
    # same statement at the run conductor for p=3
    z = CycNum.zeta_pow(12, 4)  # zeta_3 inside Q(zeta_12)
    assert CycNum.one(12) + z + z * z == CycNum.zero(12)


def test_sqrt2_squares_to_two():
    s = CycNum.zeta_pow(8, 1) + CycNum.zeta_pow(8, 7)
    assert s * s == CycNum.from_rat(8, 2)
    assert s == sqrt_prime_power(2, 1, 8)


def test_i_squared():
    i = CycNum.zeta_pow(8, 2)
    assert i * i == CycNum.from_rat(8, -1)
    assert i.conj() == -i


def test_conj_of_rational_is_identity():
    r = CycNum.from_rat(8, Fraction(-22, 7))
    assert r.conj() == r


def test_conj_zeta3():
    z = CycNum.zeta_pow(3, 1)
    assert z.conj() == z * z


def test_sqrt3_at_conductor_12():
    s = sqrt_prime_power(3, 1, 12)
    assert s * s == CycNum.from_rat(12, 3)
    # sqrt(3) = -i*(1 + 2*zeta_3): check that form explicitly
    i = CycNum.zeta_pow(12, 3)
    z3 = CycNum.zeta_pow(12, 4)
    assert s == -i * (CycNum.one(12) + 2 * z3)


def test_sqrt_prime_powers():
    for p, n in [(2, 8), (3, 12), (5, 20)]:
        for r in range(4):
            s = sqrt_prime_power(p, r, n)
            assert s * s == CycNum.from_rat(n, p**r), (p, r)


def test_sqrt_rejects_bad_conductor():
    import pytest

    with pytest.raises(ValueError):
        sqrt_prime_power(3, 1, 8)
    with pytest.raises(ValueError):
        sqrt_prime_power(2, 1, 12)


def test_zeta_n_relations():
    for n in CONDUCTORS:
        z = CycNum.zeta_pow(n, 1)
        acc = CycNum.one(n)
        total = CycNum.zero(n)
        for _ in range(n):
            total = total + acc
            acc = acc * z
        assert acc == CycNum.one(n), n  # zeta^n = 1
        if n > 1:
            assert total == CycNum.zero(n), n  # sum of all n-th roots


def _elems(n):
    phi = phi_degree(n)
    ints = st.integers(min_value=-9, max_value=9)
    return st.builds(
        lambda nums, den: CycNum(n, nums, den),
        st.tuples(*([ints] * phi)),
        st.integers(min_value=1, max_value=6),
    )


@settings(max_examples=60, deadline=None)
@given(a=_elems(12), b=_elems(12), c=_elems(12))
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(a=_elems(8), b=_elems(8))
def test_conj_is_ring_hom(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


@settings(max_examples=30, deadline=None)
@given(a=_elems(20))
def test_norm_is_nonnegative_rational(a):
    # a * conj(a) summed over the Galois orbit would be the norm; here we
    # just need that a*conj(a) is fixed by conjugation (it is |a|^2).
    m = a * a.conj()
    assert m.conj() == m


def test_mul_table_matches_scalar_path():
    for n in [8, 12]:
        phi = phi_degree(n)
        T = mul_table(n)
        for s in range(phi):
            for t in range(phi):
                prod = CycNum.zeta_pow(n, s) * CycNum.zeta_pow(n, t)
                want = CycNum(n, tuple(int(x) for x in T[s, t]), 1)
                assert prod == want


def test_conj_table_matches_scalar_path():
    for n in [8, 12]:
        C = conj_table(n)
        for k in range(phi_degree(n)):
            got = CycNum(n, tuple(int(x) for x in C[k]), 1)
            assert got == CycNum.zeta_pow(n, k).conj()


def test_numerators_and_rationals_must_be_exact():
    # int(0.5) truncated CycNum(8, (0.5, 0, 0, 0)) to 0, and from_rat took
    # the float 0.1 as 3602879701896397/2^55 and parsed the string "1/3"
    for nums in [(0.5, 0, 0, 0), (1.0, 0, 0, 0), (Fraction(1, 2), 0, 0, 0), ("1", 0, 0, 0)]:
        with pytest.raises(TypeError):
            CycNum(8, nums)
    for den in [2.0, Fraction(1, 2)]:
        with pytest.raises(TypeError):
            CycNum(8, (1, 0, 0, 0), den)
    for r in [0.1, 2.0, "1/3", "2"]:
        with pytest.raises(TypeError, match="from_rat needs an exact rational"):
            CycNum.from_rat(8, r)
    # numpy ints, as the test oracles pass them, are exact and still accepted
    assert CycNum(8, np.array([3, 0, 0, 1], dtype=np.int64), 2) == CycNum(8, (3, 0, 0, 1), 2)
    assert CycNum.from_rat(8, np.int64(-2)) == CycNum.from_rat(8, -2) == -2
    assert CycNum.from_rat(8, True) == CycNum.one(8)
    assert CycNum.from_rat(12, Fraction(-4, 6)).coeffs() == (Fraction(-2, 3), 0, 0, 0)


def test_bad_construction_raises_under_python_O():
    # under -O an assert would let CycNum.one(8) / 0 through with den 0
    code = (
        "from cweil.cyclo import CycNum\n"
        "for make, exc in [(lambda: CycNum.one(8) / 0, ZeroDivisionError),\n"
        "                  (lambda: CycNum(8, (1, 2, 3)), ValueError)]:\n"
        "    try:\n"
        "        make()\n"
        "    except exc as e:\n"
        "        print(type(e).__name__, e)\n"
    )
    src = os.path.dirname(os.path.dirname(cweil.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "ZeroDivisionError CycNum with denominator 0 over Q(zeta_8)",
        "ValueError 3 numerators for Q(zeta_8), whose degree is 4",
    ]


def test_input_checks_raise_under_python_O():
    # under -O an assert would let sqrt_prime_power(3, -1, 12) build a CycNum
    # from the float 3 ** -1, and cyclotomic_poly(0) return x - 1
    code = (
        "from cweil.cyclo import _exact_div, cyclotomic_poly, sqrt_prime_power\n"
        "for call in [lambda: sqrt_prime_power(3, -1, 12), lambda: cyclotomic_poly(0),\n"
        "             lambda: _exact_div([1, 0, 1], [1, 2]),\n"
        "             lambda: _exact_div([1, 0, 1], [1, 1])]:\n"
        "    try:\n"
        "        print('accepted', call())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "sqrt of p**r needs r >= 0, got r = -1",
        "Phi_n needs n >= 1, got n = 0",
        "divisor [1, 2] is not monic",
        "division by [1, 1] leaves remainder [2]",
    ]
