"""Acceptance gate: eleven criteria, one verdict line each, exact comparisons.

Every numeric comparison is exact (integers, Fractions, cyclotomic numbers);
there are no tolerances anywhere.  Criteria with runtime targets are timed
from a cold start: this file sorts first in the test run, so nothing here
rides on caches warmed by other suites.  Each test prints its own
`criterion NN PASS/FAIL` line through the capture-disabled channel, so the
verdicts are visible in the live pytest output.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from cweil.autgroup import aut_order
from cweil.cli import main as cli_main
from cweil.cliffordweil import eisenstein_coset, group_closure, parabolic_closure
from cweil.cyclo import CycNum
from cweil.database import load_bundled
from cweil.doubling import const_c, const_conj, eisenstein_sw, verify_doubling
from cweil.poly import Poly, combine, tuple_profile
from cweil.siegelphi import cusp_basis
from cweil.weightenum import cwe
from tests.test_cliffordweil import delta_cover
from tests.test_siegelphi import in_span


@contextmanager
def criterion(capsys, num: int, desc: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num:02d} FAIL: {desc}", flush=True)
        raise
    dt = time.perf_counter() - t0
    ok = budget is None or dt <= budget
    if ok:
        timing = f" [{dt:.1f}s]" if budget is not None else ""
        line = f"criterion {num:02d} PASS: {desc}{timing}"
    else:
        line = (
            f"criterion {num:02d} FAIL: {desc} "
            f"(runtime {dt:.1f}s over budget {budget:.0f}s)"
        )
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


# reference data for the seven length-16 self-dual classes: genus-1 and
# genus-2 symmetrised tuple coefficients and automorphism orders
GENUS1_COLUMNS = ((16,), (14, 2), (12, 4), (10, 6), (8, 8))
GENUS1_TABLE = {
    "E16": (1, 0, 28, 0, 198),
    "F16": (1, 0, 12, 64, 102),
    "A8^2": (1, 0, 28, 0, 198),
    "D14+i2": (1, 1, 14, 63, 98),
    "B12+2i2": (1, 2, 16, 62, 94),
    "A8+4i2": (1, 4, 20, 60, 86),
    "8i2": (1, 8, 28, 56, 70),
}
GENUS2_COLUMNS = (
    (12, 2, 2), (10, 4, 2), (8, 6, 2), (8, 4, 4), (6, 6, 4),
    (8, 4, 2, 2), (10, 2, 2, 2), (6, 6, 2, 2), (6, 4, 4, 2), (4, 4, 4, 4),
)
GENUS2_TABLE = {
    "E16": (0, 0, 0, 420, 0, 0, 336, 4704, 0, 29400),
    "F16": (0, 0, 0, 84, 192, 576, 48, 1056, 3264, 8088),
    "A8^2": (0, 0, 0, 420, 0, 0, 336, 4704, 0, 29400),
    "D14+i2": (0, 14, 49, 98, 196, 672, 84, 1176, 3038, 7056),
    "B12+2i2": (2, 30, 94, 120, 212, 750, 120, 1264, 2820, 6120),
    "A8+4i2": (12, 68, 172, 188, 280, 852, 192, 1344, 2408, 4536),
    "8i2": (56, 168, 280, 420, 560, 840, 336, 1120, 1680, 2520),
}
AUT_TABLE = {
    "E16": 5160960,
    "F16": 73728,
    "A8^2": 3612672,
    "D14+i2": 112896,
    "B12+2i2": 184320,
    "A8+4i2": 516096,
    "8i2": 10321920,
}


def _records16():
    return load_bundled("codes_2i_n16").records


def _value(prof, key):
    got = prof.get(key, CycNum.zero(8))
    return int(got.as_rational())


def test_criterion_01_enumerator_tables(capsys):
    with criterion(
        capsys, 1,
        "genus-1 and genus-2 enumerators of all 7 length-16 classes", 10.0,
    ):
        for rec in _records16():
            p1 = tuple_profile(cwe(rec.code, 1))
            assert tuple(_value(p1, k) for k in GENUS1_COLUMNS) == GENUS1_TABLE[rec.name]
            p2 = tuple_profile(cwe(rec.code, 2))
            assert tuple(_value(p2, k) for k in GENUS2_COLUMNS) == GENUS2_TABLE[rec.name]
            # 2-part genus-2 tuples restate the genus-1 row
            assert tuple(_value(p2, k) for k in GENUS1_COLUMNS) == GENUS1_TABLE[rec.name]


def test_criterion_02_automorphism_orders(capsys):
    with criterion(
        capsys, 2, "automorphism orders of all 7 length-16 classes", 60.0
    ):
        for rec in _records16():
            assert aut_order(rec.code) == AUT_TABLE[rec.name] == rec.aut


def _sym_poly(profile: dict, nvars: int, N: int) -> Poly:
    from itertools import permutations

    terms = {}
    for key, coeff in profile.items():
        padded = tuple(key) + (0,) * (nvars - len(key))
        for m in set(permutations(padded)):
            terms[m] = Fraction(coeff)
    return Poly(2, 1 if nvars == 2 else 2, N, 8, terms)


def test_criterion_03_cusp_spaces(capsys):
    with criterion(
        capsys, 3,
        "cusp dimensions 2 (genus 1) and 1 (genus 2) with the published forms",
        30.0,
    ):
        codes = {r.name: r.code for r in _records16()}
        cb1 = cusp_basis(codes, 1)
        assert cb1.dimension == 2
        E16 = cwe(codes["E16"], 1)
        f1 = combine([(Fraction(1, 16), E16), (Fraction(-1, 16), cwe(codes["F16"], 1))], E16)
        # its symmetrised profile is (12,4) - 4*(10,6) + 6*(8,8)
        assert f1 == _sym_poly({(12, 4): 1, (10, 6): -4, (8, 8): 6}, 2, 16)
        f2 = combine([(Fraction(1, 8), E16), (Fraction(-1, 8), cwe(codes["8i2"], 1))], E16)
        assert in_span(f1, cb1.polys) and in_span(f2, cb1.polys)
        assert in_span(cb1.polys[0], [f1, f2]) and in_span(cb1.polys[1], [f1, f2])

        cb2 = cusp_basis(codes, 2)
        assert cb2.dimension == 1
        A = cwe(codes["A8+4i2"], 2)
        f = combine([(Fraction(1, 8), A), (Fraction(1, 8), cwe(codes["F16"], 2)),
                     (Fraction(-1, 4), cwe(codes["B12+2i2"], 2))], A)
        assert in_span(f, cb2.polys)


def test_criterion_04_doubling_scalars(capsys):
    with criterion(
        capsys, 4,
        "doubling pairing scalars 16!/(2^6*3) at genus 1 and "
        "16!/(2^10*3*5) at genus 2, zero residual",
        120.0,
    ):
        db = load_bundled("codes_2i_n16")
        rep1 = verify_doubling("2I", 16, 1, db)
        assert [f.scalar for f in rep1.forms] == [
            factorial(16) // (2**6 * 3),
            factorial(16) // (2**6 * 3),
        ]
        assert all(f.residual_zero for f in rep1.forms)
        rep2 = verify_doubling("2I", 16, 2, db)
        assert [f.scalar for f in rep2.forms] == [factorial(16) // (2**10 * 3 * 5)]
        assert rep2.forms[0].residual_zero
        test_criterion_04_doubling_scalars.reports = (rep1, rep2)


def test_criterion_05_conjecture_consistency(capsys):
    with criterion(
        capsys, 5, "closed-form conjectural constants equal the fitted scalars"
    ):
        rep1, rep2 = test_criterion_04_doubling_scalars.reports
        assert all(f.scalar == const_conj(16, 1) for f in rep1.forms)
        assert rep2.forms[0].scalar == const_conj(16, 2)
        assert rep1.match and rep2.match


def test_criterion_06_theorem_constants(capsys):
    with criterion(
        capsys, 6, "closed-form constants match re-derived values on 10 triples"
    ):
        expected = {
            ("2II", 8, 1, 2): Fraction(1, 10),
            ("2II", 16, 1, 2): Fraction(1, 160),
            ("2II", 16, 2, 2): Fraction(1, 13056),
            ("2II", 24, 1, 2): Fraction(1, 2560),
            ("2II", 24, 2, 2): Fraction(1, 51 * 2**16),
            ("Q", 4, 1, 3): Fraction(1, 15),
            ("Q", 8, 1, 3): Fraction(1, 135),
            ("Q", 4, 2, 3): Fraction(2, 287),
            ("Q", 4, 1, 5): Fraction(2, 65),
            ("Q1", 4, 1, 3): Fraction(3, 5),
        }
        for (tag, N, g, p), val in expected.items():
            assert const_c(tag, N, g, p) == val, (tag, N, g, p)


def test_criterion_07_group_closures(capsys):
    with criterion(
        capsys, 7, "group closure orders 16/2304/192/92160 and coset index 60"
    ):
        assert group_closure("2I", 1, 2).order == 16
        assert group_closure("2I", 2, 2).order == 2304
        assert group_closure("2II", 1, 2).order == 192
        G = group_closure("2II", 2, 2)
        assert G.order == 92160
        P = parabolic_closure("2II", 2, 2)
        assert G.order // P.order == 60 == 4 * 3 * 5


def test_criterion_08_double_coset_cover(capsys):
    with criterion(
        capsys, 8,
        "two doubled-subgroup cells tile all 60 parabolic cosets disjointly",
        600.0,
    ):
        G, reps, sub, orbits = delta_cover("2II")
        assert len(reps) == 60
        assert len(sub) == 4608  # the doubled image of C_1 x C_1
        for op in sub[:25]:
            assert op in G
        assert tuple(len(o) for o in orbits) == (36, 24)
        assert not (orbits[0] & orbits[1])
        assert len(orbits[0] | orbits[1]) == 60


def test_criterion_09_eisenstein_cross_oracle(capsys):
    with criterion(
        capsys, 9,
        "coset average equals mass-formula average, ratio exactly 1",
    ):
        for tag, N, db_name in (
            ("2II", 8, "codes_2ii_n8"),
            ("2I", 16, "codes_2i_n16"),
        ):
            Ec = eisenstein_coset(tag, 1, N)
            Es = eisenstein_sw(tag, N, 1, load_bundled(db_name))
            m = next(iter(sorted(Es.terms)))
            ratio = Ec.terms[m].as_rational() / Es.terms[m].as_rational()
            assert ratio == 1
            assert Ec == Es


def test_criterion_10_property_selftest(capsys):
    with criterion(capsys, 10, "structural property suite (selftest) all green"):
        assert cli_main(["selftest"]) == 0


def test_criterion_11_scale_boundary(capsys):
    with criterion(
        capsys, 11,
        "honest scale boundary: odd-characteristic and genus-3 end-to-end "
        "runs refuse cleanly; the optional length-24 run matches its constant",
    ):
        # no classified odd-characteristic database is bundled, so the
        # end-to-end run over F_3 refuses instead of guessing
        with pytest.raises(ValueError):
            verify_doubling("Q", 4, 1, load_bundled("codes_q3_n4"))
        # the genus-3 closure exceeds the configured element cap
        with pytest.raises(ValueError):
            group_closure("2II", 3, 2)
        # the length-24 dataset is present and certified, so the optional
        # verification runs and must hit const_c * 24! on the nose
        rep = verify_doubling("2II", 24, 1, load_bundled("codes_2ii_n24"))
        assert rep.match
        assert rep.forms[0].scalar == const_c("2II", 24, 1) * factorial(24)
        assert rep.forms[0].scalar == factorial(24) // 2560
