"""Phi-operators, lifts, and cusp-space computation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cweil.poly import Poly, combine, conj_poly, inner_product
from cweil.siegelphi import (
    CuspBasis,
    _rref,
    cusp_basis,
    lift_op_w,
    phi_op,
    phi_op_w,
)
from cweil.weightenum import cwe
from tests.closures import fraction_rref
from tests.constructions import d16_plus, e8, i2, table2_codes
from tests.test_cliffordweil import _run_python_O
from tests.test_poly import monomial_exponents


def in_span(f: Poly, basis) -> bool:
    """Is f a rational combination of the given polynomials?"""
    basis = list(basis)
    if not basis:
        return not f
    monos = sorted(set(f.terms).union(*[set(b.terms) for b in basis]))

    def coords(poly):
        return [
            poly.terms[m].as_rational() if m in poly.terms else Fraction(0)
            for m in monos
        ]

    rows = [coords(b) for b in basis]
    rank = len(_rref([row[:] for row in rows]))
    return len(_rref(rows + [coords(f)])) == rank


def _random_poly(p, g, N, rng, nterms=6):
    d = p**g
    monos = list(monomial_exponents(d, N))
    terms = {}
    for m in rng.sample(monos, min(nterms, len(monos))):
        terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Poly(p, g, N, 8 if p == 2 else 4 * p, terms)


def test_variable_rules():
    x0 = Poly(2, 1, 8, 8, {(8, 0): 1})
    x1 = Poly(2, 1, 8, 8, {(0, 8): 1})
    assert phi_op(x0).terms.keys() == {(8,)}
    assert not phi_op(x1)
    assert phi_op_w(x1, 1, (1,)).terms.keys() == {(8,)}
    with pytest.raises(ValueError):
        phi_op(x0, 2)


@pytest.mark.parametrize("code,g", [(i2(), 1), (e8(), 2), (d16_plus(), 2)])
def test_phi_sends_cwe_down_one_genus(code, g):
    assert phi_op(cwe(code, g)) == cwe(code, g - 1)


def test_phi_kills_the_genus1_cusp_form():
    codes = table2_codes()
    E, F = cwe(codes["E16"], 1), cwe(codes["F16"], 1)
    assert not phi_op(combine([(Fraction(1, 16), E), (Fraction(-1, 16), F)], E))


def test_w_zero_is_plain_phi():
    rng = random.Random(7)
    for _ in range(5):
        a = _random_poly(2, 2, 6, rng)
        assert phi_op_w(a, 1, (0,)) == phi_op(a, 1)
        assert phi_op_w(a, 2, (0, 0)) == phi_op(a, 2)


def test_lift_then_phi_is_identity():
    rng = random.Random(11)
    for w in [(0,), (1,)]:
        for _ in range(4):
            a = _random_poly(2, 1, 6, rng)
            assert phi_op_w(lift_op_w(a, 1, w), 1, w) == a
    a = _random_poly(3, 1, 4, rng)
    assert phi_op(lift_op_w(a, 1, (0,)), 1) == a


def test_phi_composes_coordinatewise():
    rng = random.Random(23)
    for _ in range(4):
        a = _random_poly(2, 2, 6, rng)
        assert phi_op(a, 2) == phi_op(phi_op(a, 1), 1)
        for w in [(0, 1), (1, 0), (1, 1)]:
            two_step = phi_op_w(phi_op_w(a, 1, (w[1],)), 1, (w[0],))
            assert phi_op_w(a, 2, w) == two_step


def test_adjointness():
    rng = random.Random(5)
    for _ in range(4):
        q = _random_poly(2, 1, 6, rng)
        a = _random_poly(2, 2, 6, rng)
        assert inner_product(lift_op_w(q, 1, (0,)), a) == inner_product(q, phi_op(a, 1))


def test_lift_phi_idempotent_and_self_adjoint():
    monos = [Poly(2, 1, 8, 8, {m: 1}) for m in monomial_exponents(2, 8)]
    E = lambda a: lift_op_w(phi_op(a, 1), 1, (0,))
    for a in monos:
        assert E(E(a)) == E(a)
        for b in monos:
            assert inner_product(E(a), b) == inner_product(a, E(b))


def test_orthogonal_decomposition():
    rng = random.Random(17)
    for _ in range(4):
        q = _random_poly(2, 1, 8, rng)
        head = lift_op_w(phi_op(q, 1), 1, (0,))
        tail = combine([(1, q), (-1, head)], q)
        assert not phi_op(tail, 1)
        assert not inner_product(head, tail)


def test_cusp_dimensions_and_membership():
    codes = table2_codes()
    cb1 = cusp_basis(codes, 1)
    assert cb1.dimension == 2
    E, F = cwe(codes["E16"], 1), cwe(codes["F16"], 1)
    I8 = cwe(codes["8i2"], 1)
    f1 = combine([(Fraction(1, 16), E), (Fraction(-1, 16), F)], E)
    f2 = combine([(Fraction(1, 8), E), (Fraction(-1, 8), I8)], E)
    assert in_span(f1, cb1.polys) and in_span(f2, cb1.polys)
    assert in_span(cb1.polys[0], [f1, f2]) and in_span(cb1.polys[1], [f1, f2])

    cb2 = cusp_basis(codes, 2)
    assert cb2.dimension == 1
    A = cwe(codes["A8+4i2"], 2)
    f = combine([(Fraction(1, 8), A), (Fraction(1, 8), cwe(codes["F16"], 2)),
                 (Fraction(-1, 4), cwe(codes["B12+2i2"], 2))], A)
    assert in_span(f, cb2.polys)


def test_single_code_has_no_cusp_forms():
    assert cusp_basis({"e8": e8()}, 1).dimension == 0


def test_cusp_basis_rejects_mixed_codes_and_duplicate_names():
    with pytest.raises(ValueError, match="one field, length and type"):
        cusp_basis({"e8": e8(), "d16+": d16_plus()}, 1)


def test_cusp_basis_order_invariant():
    codes = table2_codes()
    shuffled = dict(reversed(list(codes.items())))
    a = cusp_basis(codes, 1)
    b = cusp_basis(shuffled, 1)
    assert a.dimension == b.dimension
    for f in b.polys:
        assert in_span(f, a.polys)


def test_twisted_phi_annihilates_cusp_forms():
    codes = table2_codes()
    for g in (1, 2):
        for f in cusp_basis(codes, g).polys:
            for j in range(1, g + 1):
                for widx in range(2**j):
                    w = tuple((widx >> (j - 1 - i)) & 1 for i in range(j))
                    assert not phi_op_w(f, j, w)


def test_cusp_basis_combos_reproduce_polys():
    codes = table2_codes()
    cb = cusp_basis(codes, 1)
    for combo, f in zip(cb.combos, cb.polys):
        rebuilt = combine([(c, cwe(codes[n], 1)) for n, c in zip(cb.code_names, combo)], f)
        assert rebuilt == f
    text = cb.to_text()
    assert "dim=2" in text and text.count("\n") == 2


def test_tail_length_checks_survive_python_O():
    # under -O an assert would let phi_op_w drop a two-coordinate tail from
    # a genus-2 enumerator with j = 1, and lift_op_w append one
    code = (
        "from tests.constructions import e8\n"
        "from cweil.siegelphi import lift_op_w, phi_op_w\n"
        "from cweil.weightenum import cwe\n"
        "a = cwe(e8(), 2)\n"
        "for call in [lambda: phi_op_w(a, 1, (0, 1)), lambda: lift_op_w(a, 1, (0, 1))]:\n"
        "    try:\n"
        "        print('accepted', call())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["the tail (0, 1) does not have j = 1 coordinates"] * 2


RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def rational_matrices(draw):
    """Rows of rationals with zero rows, repeated rows and dependent columns mixed in."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(RATIONALS, min_size=ncols, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        extra = [Fraction(0)] * ncols if draw(st.booleans()) or not rows else \
            [x * draw(RATIONALS) for x in draw(st.sampled_from(rows))]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    if ncols > 2 and draw(st.booleans()):  # column 2 = a * column 0 + b * column 1
        a, b = draw(RATIONALS), draw(RATIONALS)
        for row in rows:
            row[2] = a * row[0] + b * row[1]
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_matches_the_fraction_elimination(rows):
    want = [row[:] for row in rows]
    want_pivots = fraction_rref(want)
    assert _rref(rows) == want_pivots
    assert rows == want
    assert all(type(x) is Fraction for row in rows for x in row)
