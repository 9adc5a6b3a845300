"""Doubling map, factorial pairing, averaged enumerators, scalar verification."""

from fractions import Fraction
from math import factorial, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cweil.cliffordweil import eisenstein_coset
from cweil.cyclo import CycNum
from cweil.database import CodeDatabase, CodeRecord, load_bundled
from cweil.doubling import (
    MR_EXACT,
    FactoringBudgetError,
    FormResult,
    _factored,
    basis_expansion,
    const_b,
    const_c,
    const_conj,
    dmap,
    doubling_pairing_sw,
    eisenstein_sw,
    predicted_scalar,
    product_bipartite,
    scalar_factorial_form,
    verify_doubling,
)
from cweil.poly import Poly, combine, conj_poly
from cweil.siegelphi import cusp_basis
from cweil.weightenum import cwe
from tests.closures import pair_y
from tests.constructions import e8, i2, tetracode
from tests.test_siegelphi import in_span


# --- the splitting map D ------------------------------------------------


def test_dmap_factorizes_code_enumerators():
    # the genus-2g enumerator of a linear code splits as a product of two
    # genus-g copies, because pairs of codewords range independently
    for C in (i2(), e8(), tetracode()):
        split = dmap(cwe(C, 2))
        assert split == product_bipartite(cwe(C, 1), cwe(C, 1))


def test_dmap_genus4_to_2():
    C = i2()
    assert dmap(cwe(C, 4)) == product_bipartite(cwe(C, 2), cwe(C, 2))


def test_dmap_rejects_odd_genus():
    with pytest.raises(ValueError):
        dmap(cwe(i2(), 1))
    with pytest.raises(ValueError):
        dmap(cwe(i2(), 3))


def test_dmap_splits_variable_indices():
    # genus 2, p = 2: index 2 = binary (1,0) splits into x-index 1, y-index 0
    f = Poly(2, 2, 3, 8, {(0, 0, 3, 0): 1})
    assert dmap(f) == {(3, 0): Poly(2, 1, 3, 8, {(0, 3): 1})}


# --- the factorial pairing in the y variables ---------------------------


def test_pair_y_monomial_weights():
    P = {(4, 0): Poly(2, 1, 4, 8, {(4, 0): 1})}
    f = Poly(2, 1, 4, 8, {(4, 0): 1})
    assert pair_y(P, f) == factorial(4) * f
    g = Poly(2, 1, 4, 8, {(2, 2): 1})
    P2 = {(2, 2): Poly(2, 1, 4, 8, {(4, 0): 1})}
    assert pair_y(P2, g) == 4 * Poly(2, 1, 4, 8, {(4, 0): 1})


def test_pair_y_conjugate_linear_in_second_argument():
    z = CycNum.zeta_pow(8, 1)
    P = {(4, 0): Poly(2, 1, 4, 8, {(4, 0): 1})}
    f = Poly(2, 1, 4, 8, {(4, 0): 1})
    assert pair_y(P, z * f) == z.conj() * pair_y(P, f)


def test_pair_y_shape_mismatch():
    P = {(4, 0): Poly(2, 1, 4, 8, {(4, 0): 1})}
    with pytest.raises(ValueError):
        pair_y(P, Poly(2, 2, 4, 8, {(4, 0, 0, 0): 1}))


# --- averaged enumerators: mass-weighted vs. coset average --------------


def test_averaged_enumerator_2ii_n8():
    db = load_bundled("codes_2ii_n8")
    E = eisenstein_sw("2II", 8, 1, db)
    assert E == Fraction(5, 12) * cwe(e8(), 1)
    assert E.terms[8, 0].as_rational() == Fraction(5, 12)
    assert E.terms[4, 4].as_rational() == Fraction(35, 6)


def test_averaged_equals_coset_average_genus1():
    db8 = load_bundled("codes_2ii_n8")
    assert eisenstein_coset("2II", 1, 8) == eisenstein_sw("2II", 8, 1, db8)
    db16 = load_bundled("codes_2i_n16")
    assert eisenstein_coset("2I", 1, 16) == eisenstein_sw("2I", 16, 1, db16)


def test_averaged_equals_coset_average_genus2():
    db8 = load_bundled("codes_2ii_n8")
    assert eisenstein_coset("2II", 2, 8) == eisenstein_sw("2II", 8, 2, db8)
    db16 = load_bundled("codes_2i_n16")
    assert eisenstein_coset("2I", 2, 16) == eisenstein_sw("2I", 16, 2, db16)


def test_averaged_enumerator_refuses_a_huge_genus_before_its_normalization():
    # b's factors p^g + p^i used to be built first: 2^(2^32 + 15) ran past
    # any time limit
    with pytest.raises(ValueError, match="exceed the budget"):
        eisenstein_sw("2II", 16, 2**32 + 15, load_bundled("codes_2ii_n16"))


def test_no_averaging_normalization_for_type_q():
    with pytest.raises(ValueError):
        const_b("Q", 4, 1, 3)


# --- the closed-form constants ------------------------------------------


def test_constant_c_values():
    assert const_c("2II", 8, 1) == Fraction(1, 10)
    assert const_c("2II", 16, 1) == Fraction(1, 160)
    assert const_c("2II", 16, 2) == Fraction(1, 13056)
    assert const_c("2II", 24, 1) == Fraction(1, 2560)
    assert const_c("2II", 24, 2) == Fraction(1, 51 * 2**16)
    assert const_c("Q", 4, 1, 3) == Fraction(1, 15)
    assert const_c("Q", 8, 1, 3) == Fraction(1, 135)
    assert const_c("Q", 4, 2, 3) == Fraction(2, 287)
    assert const_c("Q", 4, 1, 5) == Fraction(2, 65)
    assert const_c("Q1", 4, 1, 3) == Fraction(3, 5)


def test_constant_c_rejects_type_2i():
    with pytest.raises(ValueError):
        const_c("2I", 16, 1)


def test_constant_c_rejects_2ii_off_field_2():
    with pytest.raises(ValueError, match="field 2"):
        const_c("2II", 8, 1, 3)


def test_constant_conj_matches_orthogonal_group_combinatorics():
    # the denominator product counts maximal isotropic subspaces: the scalar
    # is N! * 2^(2g-Ng/2) * 2^(g^2-g) * (2^g-1) * iso(g)/iso(2g), where
    # iso(m) = |O+_{2m}(2)| / (2^binom(m,2) * |GL_m(2)|) is the number of
    # maximal isotropics of a plus-type quadratic space of dimension 2m
    def oplus(m):  # |O+_{2m}(2)|
        out = 2 ** (m * m - m + 1) * (2**m - 1)
        for i in range(1, m):
            out *= 4**i - 1
        return out

    def glm(m):  # |GL_m(2)|
        out = 2 ** (m * (m - 1) // 2)
        for i in range(1, m + 1):
            out *= 2**i - 1
        return out

    def iso(m):
        return Fraction(oplus(m), 2 ** (m * (m - 1) // 2) * glm(m))

    for m in (1, 2, 3, 4, 6):
        assert iso(m) == prod(2**i + 1 for i in range(m))

    for g in (1, 2, 3):
        for N in (8, 16, 24, 40):
            expect = (
                factorial(N)
                * Fraction(2) ** (2 * g - N * g // 2)
                * 2 ** (g * g - g)
                * (2**g - 1)
                * iso(g)
                / iso(2 * g)
            )
            assert const_conj(N, g) == expect


def test_constant_conj_values():
    assert const_conj(16, 1) == factorial(16) // (2**6 * 3)
    assert const_conj(16, 2) == factorial(16) // (2**10 * 3 * 5)


def test_constant_b_values():
    assert const_b("2II", 8, 1) == Fraction(1, 5 * 6 * 8)
    assert const_b("2I", 16, 1) == Fraction(1, 6 * 8 * 12 * 20 * 36 * 68 * 132)
    assert const_b("2II", 24, 1) == Fraction(
        1, 5 * 6 * 8 * 12 * 20 * 36 * 68 * 132 * 260 * 516 * 1028
    )


# --- end-to-end scalar verification -------------------------------------


def test_verify_16_genus1():
    rep = verify_doubling("2I", 16, 1, load_bundled("codes_2i_n16"))
    assert rep.basis.dimension == 2
    assert [f.scalar for f in rep.forms] == [108972864000, 108972864000]
    assert all(f.residual_zero for f in rep.forms)
    assert rep.theoretical == const_conj(16, 1) == 108972864000
    assert rep.conjectural
    assert rep.match


def test_verify_16_genus2():
    rep = verify_doubling("2I", 16, 2, load_bundled("codes_2i_n16"))
    assert rep.basis.dimension == 1
    assert rep.forms[0].scalar == 1362160800 == factorial(16) // (2**10 * 3 * 5)
    assert rep.forms[0].residual_zero
    assert rep.match


def test_verify_24_genus1():
    rep = verify_doubling("2II", 24, 1, load_bundled("codes_2ii_n24"))
    assert rep.basis.dimension == 1
    assert rep.forms[0].scalar == 242362656927046656000
    assert rep.forms[0].scalar == factorial(24) // 2560
    assert rep.theoretical == const_c("2II", 24, 1) * factorial(24)
    assert not rep.conjectural
    assert rep.match


def test_verify_report_text():
    rep = verify_doubling("2I", 16, 1, load_bundled("codes_2i_n16"))
    text = rep.to_text(factorial_form=True)
    assert "form 1: scalar 16!/(2^6*3), residual 0, match" in text
    assert "overall: MATCH" in text
    assert "scalar=108972864000" in text
    assert "match=yes" in text


def test_pairing_against_explicit_coset_average():
    # the same scalar through the other route: split the explicitly averaged
    # genus-2 polynomial and pair it with each cusp form directly
    db = load_bundled("codes_2i_n16")
    E2 = eisenstein_coset("2I", 2, 16)
    basis = cusp_basis({r.name: r.code for r in db.records}, 1)
    mu = const_conj(16, 1)
    for f in basis.polys:
        assert pair_y(dmap(E2), f) == mu * conj_poly(f)


def test_pairing_sw_agrees_with_full_pairing():
    db = load_bundled("codes_2i_n16")
    E2 = eisenstein_coset("2I", 2, 16)
    f = cusp_basis({r.name: r.code for r in db.records}, 1).polys[0]
    assert doubling_pairing_sw("2I", 16, 1, db, f) == pair_y(dmap(E2), f)


# --- expansion of cusp forms in class enumerators -----------------------


def test_basis_expansion_reconstructs():
    db = load_bundled("codes_2i_n16")
    basis = cusp_basis({r.name: r.code for r in db.records}, 1)
    for f in basis.polys:
        coefs = basis_expansion(f, "2I", 16, 1, db)
        assert len(coefs) == 7
        rebuilt = combine([(coef, cwe(db[name].code, 1)) for name, coef in coefs], f)
        assert rebuilt == f
        assert in_span(f, basis.polys)


def test_basis_expansion_genus2():
    db = load_bundled("codes_2i_n16")
    f = cusp_basis({r.name: r.code for r in db.records}, 2).polys[0]
    coefs = basis_expansion(f, "2I", 16, 2, db)
    rebuilt = combine([(coef, cwe(db[name].code, 2)) for name, coef in coefs], f)
    assert rebuilt == f


def test_basis_expansion_rejects_non_cusp_input():
    db = load_bundled("codes_2i_n16")
    with pytest.raises(ValueError):
        basis_expansion(cwe(db["E16"].code, 1), "2I", 16, 1, db)


def test_scalar_factorial_rendering():
    assert scalar_factorial_form(Fraction(108972864000), 16) == "16!/(2^6*3)"
    assert scalar_factorial_form(Fraction(1362160800), 16) == "16!/(2^10*3*5)"
    assert scalar_factorial_form(Fraction(242362656927046656000), 24) == "24!/(2^9*5)"
    assert scalar_factorial_form(Fraction(factorial(8)), 8) == "8!"
    assert scalar_factorial_form(Fraction(3 * factorial(4)), 4) == "3*4!"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**15))
def test_factored_is_the_prime_factorisation(n):
    assert _factored(n) == ("*".join(f"{q}^{k}" if k > 1 else str(q)
                                     for q, k in sorted(sympy.factorint(n).items())) or "1")


def test_factored_splits_past_trial_division_and_refuses_past_its_budget():
    # primes past 2^16 are split apart by rho, or by a known factor, and each
    # part below MR_EXACT is proved prime by Miller-Rabin
    p, q = sympy.nextprime(2**30), sympy.nextprime(2**31)
    assert _factored(3 * p * q * q) == f"3*{p}*{q}^2"
    r, s = sympy.nextprime(2**75), sympy.nextprime(2**76)
    assert _factored(r * s, known=[2**8 + 1, s]) == f"{r}*{s}"
    with pytest.raises(FactoringBudgetError, match="a factor of 152 bits"):
        _factored(r * s)  # two 76-bit primes take about 2^38 rho steps
    with pytest.raises(FactoringBudgetError, match="a factor of 91 bits"):
        _factored(sympy.nextprime(2**90))  # a prime past MR_EXACT is not proved
    assert MR_EXACT.bit_length() == 82


def test_predicted_scalar_is_taken_at_the_records_field():
    # c*N! for Q at N = 4, g = 1 over F_3 is 3^-1 * 2/10 * 4! = 8/5, as
    # `cweil constants --field 3` prints; at field 2 it would be 12/5.  The
    # order, 3 permutations of the tetracode, is not read: one class spans
    # no cusp form
    db = CodeDatabase([CodeRecord("tetracode", tetracode(), 3)], {("Q", 4): 1})
    rep = verify_doubling("Q", 4, 1, db)
    assert rep.theoretical == Fraction(8, 5)
    assert "predicted scalar (proven): 8/5" in rep.to_text()
    assert predicted_scalar("Q", 4, 1, db.records) == (Fraction(8, 5), True)


# --- the result and record classes: value equality, hashing, repr --------


def test_code_record_equality_hash_and_repr():
    rec = CodeRecord("e8", e8(), 1344)
    same = CodeRecord("e8", e8(), 1344, "")
    assert rec == same and hash(rec) == hash(same) and len({rec, same}) == 1
    assert rec != CodeRecord("e8", e8(), 1343) and rec != CodeRecord("e8x", e8(), 1344)
    assert CodeRecord("e8", e8()).aut is None and CodeRecord("e8", e8()).note == ""
    assert (rec.p, rec.n, rec.tag) == (2, 8, "2II")
    assert repr(rec) == ("CodeRecord(name='e8', code=LinearCode(p=2, [8,4], tag=2II), "
                         "aut=1344, note='')")
    with pytest.raises(AttributeError):
        rec.aut = 1


def test_results_compare_by_value():
    db = load_bundled("codes_2i_n16")
    a, b = verify_doubling("2I", 16, 1, db), verify_doubling("2I", 16, 1, db)
    assert a == b and a.basis == b.basis and a.forms == b.forms
    assert a.basis is not b.basis and a.basis.dimension == 2
    fr = a.forms[0]
    assert repr(fr) == (f"FormResult(scalar={fr.scalar!r}, residual_zero=True, "
                        f"theoretical={fr.theoretical!r})")
    assert hash(fr) == hash(FormResult(fr.scalar, fr.residual_zero, fr.theoretical))
    assert fr != FormResult(fr.scalar + 1, fr.residual_zero, fr.theoretical)
    with pytest.raises(TypeError):
        hash(a)  # it holds Polys, which are unhashable
    with pytest.raises(AttributeError):
        a.basis.N = 8
