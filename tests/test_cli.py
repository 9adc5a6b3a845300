"""Command-line driver: outputs, exit codes, failure paths."""

import ast
import hashlib
import importlib
import os
import resource
import runpy
import subprocess
import sys
import time

from fractions import Fraction
from math import factorial, prod

import pytest
import sympy

import cweil
import cweil.cli
from cweil import autgroup, database
from cweil import cliffordweil as cw
from cweil.autgroup import aut_order
from cweil.cli import main
from cweil.cliffordweil import PREDICTED_ORDER, group_closure
from cweil.codes import code_from_rows
from cweil.database import CodeDatabase, load_bundled
from cweil.doubling import const_c, const_conj, verify_doubling
from cweil.poly import Poly, parse_poly
from cweil.weightenum import cwe
from tests import closures
from tests.constructions import e8
from tests.test_database import serialize_db


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_2ii(capsys):
    code, out, _ = run(capsys, "constants", "--type", "2II", "--length", "8",
                       "--genus", "1")
    assert code == 0
    assert "c = 1/10" in out
    assert "b = 1/240" in out


def test_constants_2i_factorial(capsys):
    code, out, _ = run(capsys, "constants", "--type", "2I", "--length", "16",
                       "--genus", "1", "--factorial")
    assert code == 0
    assert "conjecture c*N! = 16!/(2^6*3)" in out
    assert "unproven" in out


def test_constants_q3(capsys):
    code, out, _ = run(capsys, "constants", "--type", "Q", "--length", "4",
                       "--genus", "1", "--field", "3")
    assert code == 0
    assert "c = 1/15" in out
    assert "no mass-formula normalization" in out


def test_group_structure_check(capsys):
    code, out, _ = run(capsys, "group", "--type", "2II", "--genus", "1")
    assert code == 0
    assert "group order: 192" in out
    assert "predicted order: 192 (match)" in out
    assert "coset index: 6" in out


@pytest.mark.parametrize("argv, want_out, want_err", [
    (["group", "--type", "2I", "--genus", "1"], "",
     "error: closure has order 16, predicted 17\n"),
    (["eisenstein", "--type", "2I", "--length", "8", "--genus", "1", "--method", "coset"], "",
     "error: orbit of 4 rows does not divide the index 17/4\n"),
    (["selftest"], "ok   generator unitarity at genus <= 2\n",
     "error: closure has order 16, predicted 17\n"),
], ids=["group", "eisenstein", "selftest"])
def test_failed_order_certificate_exits_1(capsys, monkeypatch, argv, want_out, want_err):
    monkeypatch.setitem(PREDICTED_ORDER, ("2I", 1, 2), 17)
    caches = (group_closure, cw.seed_orbit)
    for f in caches:
        f.cache_clear()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        for f in caches:
            f.cache_clear()
    assert code == 1
    assert out == want_out
    assert err == want_err


def test_group_command_stores_no_group_but_h(capsys):
    # C_g and P_g are certified by their action on the lines of the x_v
    # orbit: the one group stored whole is H, 192 permutations, beside one
    # coset rep per line in the orbit of x_0 (NUMPY_FREE pins that the
    # command runs no numpy)
    caches = (cw._line_action, group_closure, cw.parabolic_closure)
    for f in caches:
        f.cache_clear()
    try:
        code, out, _ = run(capsys, "group", "--type", "2II", "--genus", "2")
        action = group_closure("2II", 2, 2).action
        built = cw._line_action.cache_info().currsize
    finally:
        for f in caches:
            f.cache_clear()
    assert code == 0
    assert "group order: 92160\n" in out and "coset index: 60\n" in out
    assert (built, len(action.hs), len(action.t), len(action.rows)) == (1, 192, 60, 60)


def test_group_exits_1_when_a_parabolic_rep_lies_outside_the_group(capsys, monkeypatch):
    # i = zeta_4 is not in the real group C_1 of type 2I (order 16).  With |Z|
    # taken as 4 (and the orders 32 and 8 it predicts), i is a coset rep of
    # P = <H, i> in H x mu_4, and it makes P no subgroup of G
    assert closures._phase_operator(2, 1, [(0, 0, 2), (1, 1, 2)]) not in group_closure("2I", 1, 2)
    monkeypatch.setitem(cw.CENTER_ORDER, "2I", 4)
    monkeypatch.setitem(PREDICTED_ORDER, ("2I", 1, 2), 32)
    monkeypatch.setitem(cw.PREDICTED_PARABOLIC, ("2I", 1, 2), 8)
    group_closure.cache_clear()
    try:
        code, out, err = run(capsys, "group", "--type", "2I", "--genus", "1")
    finally:
        group_closure.cache_clear()
    assert (code, out, err) == (1, "", "error: P is not a subgroup of G\n")


def test_group_q3(capsys):
    code, out, _ = run(capsys, "group", "--type", "Q", "--genus", "1",
                       "--field", "3", "--parabolic")
    assert code == 0
    assert "group order: 96" in out
    assert "parabolic order: 24" in out


def test_group_unsupported_size(capsys):
    code, _, err = run(capsys, "group", "--type", "2II", "--genus", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv,err", [
    (["--length", "8", "--genus", "3"], "error: no feasible closure for ('2II', 3, 2)\n"),
    (["--length", "4", "--genus", "3"], "error: N = 4 not divisible by |Z| = 8\n"),
    (["--length", "-8", "--genus", "3"], "error: N = -8 is negative\n"),
])
def test_coset_average_refusals(argv, err, capsys):
    # in this order: negative N, |Z| not dividing N, no predicted group order
    code, out, got = run(capsys, "eisenstein", "--type", "2II", *argv, "--method", "coset")
    assert (code, out, got) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ["cwe", "--code", "x", "--genus", "1"],
    ["certify"],
    ["verify-doubling", "--type", "2II", "--length", "8", "--genus", "1"],
], ids=["cwe", "certify", "verify-doubling"])
def test_db_file_that_is_not_utf8_is_an_input_error(argv, tmp_path, capsys):
    path = tmp_path / "latin.db"
    path.write_bytes(b"code x\n\xff")
    code, out, err = run(capsys, *argv, "--db", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read database {str(path)!r}: ")
    assert "can't decode byte 0xff" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--type", "2II", "--length", "2400"],
    ["--type", "2I", "--length", "2000", "--factorial"],
    ["--type", "2II", "--length", "344"],  # only b is past the limit
])
def test_constants_past_the_int_to_str_digit_limit_is_a_usage_error(argv, capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    code, out, err = run(capsys, "constants", *argv, "--genus", "1")
    assert (code, out) == (2, "")
    assert err == (f"error: --length {argv[3]} and --genus 1 give a scalar of more than "
                   f"{sys.get_int_max_str_digits()} digits, Python's limit for "
                   f"printing an integer\n")


def test_constants_refuses_a_long_b_before_computing_it():
    # b's denominator at 2I, length 20000 has over 7 * 10^6 digits: it is
    # refused from its bound, not built and then refused at printing
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    out = _python("-m", "cweil.cli", "constants", "--type", "2I", "--length", "20000",
                  "--genus", "1", timeout=10)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: --length 20000 and --genus 1 give a scalar of more than "
                          f"{sys.get_int_max_str_digits()} digits, Python's limit for "
                          f"printing an integer\n")


@pytest.mark.parametrize("tag, length", [("Q", 100_000_000), ("Q1", 120_000_000)])
def test_constants_refuses_a_long_c_before_computing_it(tag, length):
    # c = 3^e times factors prime to 3, with e = -5 * 10^7 for Q and e = 3 - 6 * 10^7
    # for Q1: refused from e, not built over tens of seconds and then refused at printing
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    out = _python("-m", "cweil.cli", "constants", "--type", tag, "--length", str(length),
                  "--genus", "1", "--field", "3", timeout=10)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: --length {length} and --genus 1 give a scalar of more than "
                          f"{sys.get_int_max_str_digits()} digits, Python's limit for "
                          f"printing an integer\n")


@pytest.mark.parametrize("tag, length, genus", [("2II", 200_008, 100_002), ("2II", 2008, 1002),
                                                ("2I", 2, 3000)])
def test_constants_refuses_a_long_genus_before_computing_it(tag, length, genus):
    # c's p-adic valuation is 0 at these 2II (length, genus), but its
    # denominator exceeds 2^(genus^2); 2I at length 2 has an empty b, and its
    # conjecture has 2-adic valuation genus^2 + 1.  Each is refused from its
    # bound, not built over seconds (or past memory) and then refused at printing
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    out = _python("-m", "cweil.cli", "constants", "--type", tag, "--length", str(length),
                  "--genus", str(genus), timeout=10)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: --length {length} and --genus {genus} give a scalar of "
                          f"more than {sys.get_int_max_str_digits()} digits, Python's limit "
                          f"for printing an integer\n")


def test_constants_refuses_a_long_2i_length_in_bounded_time():
    # b's bound summed the N/2 exponents of its factors one by one: 4.8 s at
    # N = 571683848, and hours at this length
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    out = _python("-m", "cweil.cli", "constants", "--type", "2I", "--length", str(10**12),
                  "--genus", "1", timeout=10)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(f"error: --length {10**12} and --genus 1 give a scalar")


@pytest.mark.parametrize("tag, length, genus", [("2II", 8, 30), ("2I", 16, 24)])
def test_constants_factorial_ends_in_bounded_time(tag, length, genus):
    # trial division to 10^6 leaves 647- and 346-bit cofactors of these
    # denominators; split along the known factors 2^m + 1, each ends within
    # the budget: printed as primes whose product is the denominator, or refused
    out = _python("-m", "cweil.cli", "constants", "--type", tag, "--length", str(length),
                  "--genus", str(genus), "--factorial", timeout=10)
    assert out.returncode in (0, 2) and "Traceback" not in out.stderr
    if out.returncode == 2:
        assert out.stdout == ""
        assert out.stderr.startswith(f"error: --genus {genus} gives a denominator with ")
        return
    scalar = const_conj(length, genus) if tag == "2I" else \
        const_c(tag, length, genus) * factorial(length)
    q = scalar / factorial(length)
    line = [x for x in out.stdout.splitlines() if "c*N! = " in x][-1]
    assert line.split(" = ")[1].startswith(f"{q.numerator}*{length}!/(")
    factors = [x.partition("^") for x in line.split("/(")[1].rstrip(")").split("*")]
    assert all(sympy.isprime(int(b)) for b, _, _ in factors)
    assert prod(int(b) ** int(e or 1) for b, _, e in factors) == q.denominator


def test_constants_below_the_digit_limit_prints_b(capsys):
    code, out, _ = run(capsys, "constants", "--type", "2II", "--length", "336",
                       "--genus", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("b = 1/2699227493560667385")


def test_aut_declared(capsys):
    code, out, _ = run(capsys, "aut", "--code", "E16")
    assert code == 0
    assert "aut E16 = 5160960" in out


def test_aut_recompute(capsys):
    code, out, _ = run(capsys, "aut", "--code", "e8", "--recompute")
    assert code == 0
    assert "aut e8 = 1344" in out


def test_cwe_tuple_profile(capsys):
    code, out, _ = run(capsys, "cwe", "--code", "e8", "--genus", "1", "--tuples")
    assert code == 0
    assert "(4, 4): 14" in out
    assert "(8,): 1" in out


def test_cwe_serialized_round_trip(capsys):
    code, out, _ = run(capsys, "cwe", "--code", "e8", "--genus", "2")
    assert code == 0
    assert parse_poly(out) == cwe(e8(), 2)


def test_cwe_unknown_code(capsys):
    code, _, err = run(capsys, "cwe", "--code", "nope", "--genus", "1")
    assert code == 2
    assert "error" in err


def test_cusp_dimensions(capsys):
    code, out, _ = run(capsys, "cusp", "--type", "2I", "--length", "16",
                       "--genus", "1")
    assert code == 0
    assert "dim=2" in out
    code, out, _ = run(capsys, "cusp", "--type", "2I", "--length", "16",
                       "--genus", "2")
    assert code == 0
    assert "dim=1" in out


def test_verify_doubling_match(capsys):
    code, out, _ = run(capsys, "verify-doubling", "--type", "2I", "--length",
                       "16", "--genus", "1", "--factorial")
    assert code == 0
    assert "form 1: scalar 16!/(2^6*3), residual 0, match" in out
    assert "form 2: scalar 16!/(2^6*3), residual 0, match" in out
    assert "overall: MATCH" in out


def test_verify_doubling_detects_corrupt_data(tmp_path, capsys):
    # a wrong aut order above the recheck cutoff breaks the complete block's
    # mass identity, so the file is rejected at load, like a bad order at N <= 16
    text = serialize_db(load_bundled("codes_2ii_n24"))
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("aut 244823040", "aut 122411520"))
    code, out, err = run(capsys, "verify-doubling", "--db", str(bad), "--type",
                         "2II", "--length", "24", "--genus", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: line 1: complete 2II 24: ")


def _db_with_wrong_golay_order() -> CodeDatabase:
    db = load_bundled("codes_2ii_n24")
    return CodeDatabase(
        [r._replace(aut=244823042) if r.name == "golay24" else r
         for r in db.records],
        dict(db.complete),
    )


def test_verify_doubling_mismatch_on_a_wrong_order(monkeypatch, capsys):
    # a wrong order that got past loading shifts the mass average, so the
    # fitted scalar cannot match the predicted constant
    assert not verify_doubling("2II", 24, 1, _db_with_wrong_golay_order()).match
    monkeypatch.setattr(cweil.cli, "_db_for",
                        lambda args, tag, n: _db_with_wrong_golay_order())
    code, out, _ = run(capsys, "verify-doubling", "--type", "2II", "--length",
                       "24", "--genus", "1")
    assert code == 1
    assert "MISMATCH" in out


def test_certify_bundled_file(capsys):
    code, out, _ = run(capsys, "certify", "--file", "codes_2ii_n8")
    assert code == 0
    assert out == ("ok   codes_2ii_n8: 1 records, 1 aut orders recomputed\n"
                   "certify: all checks passed\n")


def test_certify_reports_a_wrong_order(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(serialize_db(load_bundled("codes_2ii_n8")).replace(
        "aut 1344", "aut 672"))  # divides 8!, so only the search refuses it
    code, out, _ = run(capsys, "certify", "--db", str(bad))
    assert code == 1
    assert out.startswith(f"FAIL {bad}: line ")
    assert "claims aut 672, computed 1344" in out
    assert out.endswith("certify: 1 FAILED\n")


@pytest.mark.parametrize("aut", ["-5", "0", str(10**25), "244823041"])
def test_an_order_that_cannot_be_right_is_refused_at_load(tmp_path, capsys, aut):
    # a length-24 order outside a complete block is kept as declared, but
    # only once it is at least 1 and divides 24!
    bad = tmp_path / "bad.txt"
    text = database._bundled_text("codes_2ii_n24").replace("complete 2II 24 9\n", "")
    bad.write_text(text.replace("aut 244823040", f"aut {aut}"))
    why = f"line 8: record 'golay24' has aut {aut}, which does not divide 24!"
    assert run(capsys, "aut", "--db", str(bad), "--code", "golay24") == (
        2, "", f"error: {bad}: {why}\n")
    assert run(capsys, "certify", "--db", str(bad)) == (
        1, f"FAIL {bad}: {why}\ncertify: 1 FAILED\n", "")


def test_certify_rejects_an_order_on_a_ternary_record(tmp_path, capsys):
    # aut_order computes binary orders only, so nothing could check this one
    bad = tmp_path / "t4.txt"
    bad.write_text("code t4\nfield 3\ntype Q\nlength 4\naut 7\n"
                   "gen 1012\ngen 0111\nend\n")
    code, out, _ = run(capsys, "certify", "--db", str(bad))
    assert code == 1
    assert out.startswith(f"FAIL {bad}: line 1: record 't4' records aut 7")
    assert out.endswith("certify: 1 FAILED\n")


def test_eisenstein_compare(capsys):
    code, out, _ = run(capsys, "eisenstein", "--type", "2II", "--length", "8",
                       "--genus", "1", "--compare")
    assert code == 0
    assert "ratio: 1" in out


def test_eisenstein_coset_output(capsys):
    code, out, _ = run(capsys, "eisenstein", "--type", "Q", "--length", "4",
                       "--genus", "1", "--field", "3", "--method", "coset")
    assert code == 0
    E = parse_poly(out)
    from tests.constructions import tetracode
    from fractions import Fraction
    assert E == Fraction(1, 3) * cwe(tetracode(), 1)


def test_eisenstein_needs_method(capsys):
    code, _, err = run(capsys, "eisenstein", "--type", "2II", "--length", "8",
                       "--genus", "1")
    assert code == 2
    assert "method" in err


def test_eisenstein_bad_length(capsys):
    code, _, err = run(capsys, "eisenstein", "--type", "2II", "--length", "12",
                       "--genus", "1", "--method", "coset")
    assert code == 2
    assert "error" in err


def test_bad_db_path(capsys):
    code, _, err = run(capsys, "cwe", "--db", "/nonexistent/db.txt",
                       "--code", "e8", "--genus", "1")
    assert code == 2
    assert "cannot read" in err


def test_malformed_db(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("code x\nbogus 1\nend\n")
    code, _, err = run(capsys, "cwe", "--db", str(bad), "--code", "x",
                       "--genus", "1")
    assert code == 2
    assert "unknown key" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("ok  ") == 8
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_cwe_loads_only_the_file_with_the_code(monkeypatch, capsys):
    loaded = []
    real = cweil.cli.load_bundled

    def counting(name, *args, **kwargs):
        loaded.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(cweil.cli, "load_bundled", counting)
    code, out, _ = run(capsys, "cwe", "--code", "golay24", "--genus", "1",
                       "--tuples")
    assert code == 0
    assert "code=golay24" in out
    assert loaded == ["codes_2ii_n24"]


def test_cwe_takes_the_first_bundled_file_with_the_name(capsys):
    # E16 is in both codes_2i_n16 and codes_2ii_n16; BUNDLED order decides
    code, out, _ = run(capsys, "cwe", "--code", "E16", "--genus", "1", "--tuples")
    assert code == 0
    assert out.startswith("cwe type=2I code=E16 N=16 genus=1")


def test_aut_unknown_bundled_code(capsys):
    code, _, err = run(capsys, "aut", "--code", "nosuch")
    assert code == 2
    assert "no bundled code named 'nosuch'; use --db" in err


# the seed's stdout of `eisenstein --method coset`, as sha256
COSET_DIGESTS = [
    ("2I", "16", "2", "1a9feb15928ff792091774f053256588837eac9ceeb05a125025ad06604e64a0"),
    ("2II", "8", "2", "a2f8991d5d44918db24227a5f8acbefc7cb5fedfa0732e77fe3bcfddddbe9c31"),
    ("2II", "24", "1", "b6f17c105d8d6a0cf41660343caa52f5c6cbde43799a77475819ffb1749737ef"),
    ("2II", "24", "2", "2f6ebc0dd941dfbb3097b698042769f971226cc1b9cbbf8692f641a88f7b95a6"),
    ("2I", "24", "2", "beac23649207094b0d89600a42aae22b62e5f65340a7a3cf6c9a8643fa71b624"),
    ("Q1", "12", "1", "beb398bf3d9f71c8f1d06835c9a3902fddf8ddd37b5c582eb093beca2a452b95"),
]


@pytest.mark.parametrize("tag,length,genus,digest", COSET_DIGESTS)
def test_eisenstein_coset_golden_output(tag, length, genus, digest, capsys):
    field = "2" if tag in ("2I", "2II") else "3"
    code, out, _ = run(capsys, "eisenstein", "--type", tag, "--length", length,
                       "--genus", genus, "--field", field, "--method", "coset")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the seed's stdout of further commands on bundled data, as sha256
GOLDEN = [
    ("verify-doubling --type 2I --length 16 --genus 1 --factorial",
     "548629d92e548f409011f744db0d9b181011abffdb7f20a41dbc8cf9902594cb"),
    ("verify-doubling --type 2I --length 16 --genus 2 --factorial",
     "c3526dce26c5a0ea2cb9f2162de1ecca916344732908dcd86e3ea475a2bb9185"),
    ("verify-doubling --type 2II --length 24 --genus 1 --factorial",
     "62696ce0da6c55e5e0339c754b149e86533ab1b09191a5f0a006573428a5c981"),
    ("cusp --type 2I --length 16 --genus 2 --polys",
     "287e6d3bb256988140f2263a5130fa1a2244426513f0bc51735d4c9294ea972f"),
    ("cwe --code golay24 --genus 1 --tuples",
     "7b52f68b2f36e70b9db18540ddb64693ddd4e2cdcdb084ee9f8762345f055790"),
    ("aut --code golay24",
     "b1c65c25819551ddc7a42949d6d2d0588d883e962d2fecac8b0eebdee88b3e74"),
    ("eisenstein --type 2II --length 24 --genus 1 --method siegel-weil",
     "b6f17c105d8d6a0cf41660343caa52f5c6cbde43799a77475819ffb1749737ef"),
    ("constants --type 2II --length 24 --genus 1 --factorial",
     "8f9967428b8f35a6048efdb820150da9d059ade2693f379645d7404eca87e5ac"),
    ("group --type 2II --genus 2",
     "f0698828df75c9d1c28cb616b0dd50919d6f069901ff3a2c04fa8c338b99c4c7"),
    ("group --type Q1 --genus 1 --field 3 --parabolic",
     "f1bf7a8ae23e7e77803d0420458b9c06e349630ca6d1bac363657e8cdf1dcd06"),
    # the combos the cusp elimination prints, the generator-built closures,
    # and the structural property suite
    ("cusp --type 2I --length 16 --genus 1 --polys",
     "29e7357927f5e06e22639b5eaef3ff39b6bd8c819e23788feb89990d214c63e4"),
    ("cusp --type 2II --length 8 --genus 1 --polys",
     "8b364e8a977d7078aa0bc996986f9e4cb0a0ed3cf455655441f541f93112e215"),
    ("cusp --type 2II --length 8 --genus 2 --polys",
     "2fb823f25d1f1d8d7e03dec4bbdb32b5cc82feab2a8bf52a0e859b08e1c7ddd5"),
    ("cusp --type 2II --length 16 --genus 1 --polys",
     "755af6158b02a004f829a3d5336e5a3b4d487f3093c67b229955fe1c74f67743"),
    ("cusp --type 2II --length 16 --genus 2 --polys",
     "8729b28e3c470b0dafd7081b1729abaf9253d66220749b46daedbe056d7dbbb6"),
    ("cusp --type 2II --length 24 --genus 1 --polys",
     "a08615cdee41af28d7de70a5cc007d0ff2996315a2ac34fdfa7a1078e8d3f856"),
    ("cusp --type Q --length 4 --genus 1 --polys",
     "912cac440e1ecf3e2f18e15944eaa2ca391a72e8810e45244b9656a67162612e"),
    ("cusp --type Q --length 4 --genus 2 --polys",
     "ac841cfde94fd7a031a6daf409fea43a28a7472c0bd97e0813c57d74c155afd9"),
    ("cusp --type Q --length 4 --genus 3 --polys",
     "27687319087883c96f8a38ba7f4e9dec5a63ca303718f307d1b68e479abba2e7"),
    ("group --type 2I --genus 1",
     "ee32e55a25822e28f2628f8dc5c0c3f40f9f082f5aee7ba999b930f15815e311"),
    ("group --type 2I --genus 2",
     "f011385fb3154a8988c8caeafa42905e44ab8e28de6d2393a10053785f9b29d4"),
    ("group --type 2II --genus 1",
     "1c69867611c8e41241170622fec8ea3dca85dac8e65575463f8bbd4d7e01e803"),
    ("group --type Q --genus 1 --field 3",
     "33a748bdbc1b8f44d0bc26dafe04b0eb6ab48812e2e672590a0d50220ae6bd2f"),
    ("selftest",
     "ba0e74afc6aa97f0ae327996bb518770e02bacf049b69361594259464c9930b4"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_output(command, digest, capsys):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["group", "--type", "Q1", "--genus", "1", "--field", "3"],
    ["group", "--type", "2II", "--genus", "1"],
])
def test_group_parabolic_flag_changes_nothing(argv, capsys):
    assert run(capsys, *argv) == run(capsys, *argv, "--parabolic")


def _python(*args, timeout=120, **kwargs):
    """Run a fresh interpreter on this checkout's cweil."""
    src = os.path.dirname(os.path.dirname(cweil.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, **kwargs)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv,rc", [
    (["cwe", "--code", "big", "--genus", "1"], 2),
    (["certify"], 1),  # certify reports a record it refuses as a FAIL line
])
def test_oversized_length_record_is_refused_under_a_memory_limit(tmp_path, argv, rc):
    # a record with no gen line and length 99999999999 used to reach
    # codes.dual_code and end in a MemoryError traceback
    db = tmp_path / "big.txt"
    db.write_text("code big\nfield 2\ntype 2I\nlength 99999999999\nend\n")
    out = _python("-m", "cweil.cli", *argv, "--db", str(db), preexec_fn=_limit_address_space)
    assert out.returncode == rc, out.stderr
    assert "Traceback" not in out.stderr
    assert f"{db}: line 1: record 'big' has length 99999999999" in out.stdout + out.stderr


@pytest.mark.parametrize("argv", [
    ["cwe", "--code", "big", "--genus", "1"],
    ["aut", "--code", "big", "--recompute"],
    ["certify"],
])
def test_record_at_max_length_fits_a_memory_limit(tmp_path, argv):
    # i2^(N/2) at N = MAX_LENGTH with a wrong aut order: at the length 52
    # that MAX_LENGTH once allowed, certify ended in a MemoryError traceback
    n = database.MAX_LENGTH
    rows = "".join(f"gen {'0' * i}11{'0' * (n - i - 2)}\n" for i in range(0, n, 2))
    db = tmp_path / "big.txt"
    db.write_text(f"code big\nfield 2\ntype 2I\nlength {n}\naut 1\n{rows}end\n")
    start = time.monotonic()
    out = _python("-m", "cweil.cli", *argv, "--db", str(db), preexec_fn=_limit_address_space)
    assert time.monotonic() - start < 30
    assert out.returncode in (0, 1, 2), out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["--type", "2II", "--length", "200000", "--genus", "1"],
    ["--type", "2I", "--length", "120", "--genus", "2", "--compare"],
])
def test_coset_average_past_its_size_budget_is_refused_under_a_memory_limit(argv):
    # --length 200000 at genus 1 used to end in a MemoryError traceback here
    out = _python("-m", "cweil.cli", "eisenstein", *argv, "--method", "coset",
                  preexec_fn=_limit_address_space)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(f"error: --length {argv[3]} at --genus {argv[5]} is past")
    assert "Traceback" not in out.stderr


NUMPY_FREE = [
    "selftest",
    "constants --type 2II --length 24 --genus 1 --factorial",
    "group --type 2II --genus 2",
    "group --type Q1 --genus 1 --field 3 --parabolic",
    "group --type Q --genus 1 --field 3",
    "cwe --code golay24 --genus 1 --tuples",
    "aut --code golay24",
    "eisenstein --type 2II --length 24 --genus 1 --method siegel-weil",
    "verify-doubling --type 2II --length 24 --genus 1 --factorial",
    "verify-doubling --type 2I --length 16 --genus 1",
    "eisenstein --type 2I --length 16 --genus 2 --method coset",
    "eisenstein --type 2II --length 8 --genus 2 --method coset",
    "eisenstein --type 2II --length 24 --genus 1 --method coset",
    "eisenstein --type Q1 --length 12 --genus 1 --field 3 --method coset",
    "verify-doubling --type 2I --length 16 --genus 2 --factorial",
    "cusp --type 2I --length 16 --genus 2 --polys",
    "cwe --code e8 --genus 2",
]


def test_commands_without_array_work_never_run_numpy():
    # no `numpy` or `numpy.*` entry in sys.modules: only the aut search
    # imports it.  OpenSSL's `_hashlib` must not load either: it costs
    # ~3.6 MB of RSS
    code = (
        "import sys\n"
        "def ran():\n"
        "    return sorted(m for m in sys.modules if m == 'numpy'\n"
        "                  or m.startswith('numpy.') or m == '_hashlib')\n"
        "import cweil.cli\n"
        "print('import', ran())\n"
        f"for argv in {NUMPY_FREE!r}:\n"
        "    rc = cweil.cli.main(argv.split())\n"
        "    print('ran', argv, rc, ran(), file=sys.stderr)\n"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert "import []" in out.stdout
    lines = out.stderr.splitlines()
    assert lines == [f"ran {argv} 0 []" for argv in NUMPY_FREE]


def test_group_and_phi_modules_bind_no_numpy():
    # only the aut search binds numpy, deferred: the group elements are read
    # off their permutations and the cyclotomic arithmetic is pure Python
    code = (
        "import sys\n"
        "import cweil.cliffordweil, cweil.siegelphi\n"
        "print(sorted(m for m in ('numpy',) if m in sys.modules))\n"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


# a meta-path finder that refuses numpy and its submodules
BLOCK_NUMPY = (
    "import sys\n"
    "class NoNumpy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' or name.startswith('numpy.'):\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, NoNumpy())\n"
)


def test_commands_without_array_work_run_with_numpy_unimportable():
    # the import of the package and every command but the aut search must
    # not notice
    code = BLOCK_NUMPY + (
        "import cweil.cli\n"
        f"for argv in {NUMPY_FREE!r}:\n"
        "    print('ran', argv, cweil.cli.main(argv.split()), file=sys.stderr)\n"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines() == [f"ran {argv} 0" for argv in NUMPY_FREE]


@pytest.mark.parametrize("argv,code,stdout,stderr", [
    ("aut --code golay24 --recompute", 2, "", "error: {refusal}\n"),
    ("cwe --db {db} --code e8 --genus 1", 2, "", "error: {db}: {refusal}\n"),
    ("certify --file codes_2ii_n8", 1, "FAIL codes_2ii_n8: {refusal}\ncertify: 1 FAILED\n", ""),
], ids=["aut-recompute", "db-recheck", "certify"])
def test_the_aut_search_refuses_with_numpy_unimportable(argv, code, stdout, stderr):
    # the aut search is the one numpy user: with numpy absent it refuses
    # through the exit-code contract, never in a traceback
    names = {"db": os.path.join(os.path.dirname(cweil.__file__), "data", "codes_2ii_n8.txt"),
             "refusal": "the aut search needs numpy, which does not import: "
                        "No module named 'numpy'"}
    out = _python("-c", BLOCK_NUMPY + "import cweil.cli\nsys.exit(cweil.cli.main(sys.argv[1:]))",
                  *argv.format(**names).split())
    assert "Traceback" not in out.stderr
    assert (out.returncode, out.stdout, out.stderr) == \
        (code, stdout.format(**names), stderr.format(**names))


# the gated benchmark jobs (perfbench/workloads.py)
GATED = [
    "verify-doubling --type 2I --length 16 --genus 1 --factorial",
    "verify-doubling --type 2I --length 16 --genus 2 --factorial",
    "verify-doubling --type 2II --length 24 --genus 1 --factorial",
    "cusp --type 2I --length 16 --genus 2 --polys",
    "cwe --code golay24 --genus 1 --tuples",
    "aut --code golay24",
    "eisenstein --type 2II --length 24 --genus 1 --method siegel-weil",
    "constants --type 2II --length 24 --genus 1 --factorial",
    "group --type 2II --genus 2",
    "eisenstein --type 2I --length 16 --genus 2 --method coset",
    "eisenstein --type 2II --length 8 --genus 2 --method coset",
    "eisenstein --type 2II --length 24 --genus 1 --method coset",
    "group --type Q1 --genus 1 --field 3 --parabolic",
]


def test_gated_commands_never_import_dataclasses_or_inspect():
    # the two cost about 15 ms of every start; the records are namedtuples
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)\n"
        "import cweil.cli\n"
        "print('import', loaded())\n"
        f"for argv in {GATED!r}:\n"
        "    rc = cweil.cli.main(argv.split())\n"
        "    print('ran', argv, rc, loaded(), file=sys.stderr)\n"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert "import []" in out.stdout
    lines = out.stderr.splitlines()
    assert lines == [f"ran {argv} 0 []" for argv in GATED]


def test_package_has_no_asserts():
    # python -O strips asserts, so every check in the package must raise
    pkg = os.path.dirname(cweil.__file__)
    found = [
        f"{name}:{node.lineno}"
        for name in sorted(os.listdir(pkg)) if name.endswith(".py")
        for node in ast.walk(ast.parse(open(os.path.join(pkg, name)).read()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_selftest_passes_under_python_O():
    # -O strips asserts: every check selftest relies on must raise instead
    out = _python("-O", "-m", "cweil.cli", "selftest")
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.endswith("selftest: all checks passed\n")


@pytest.mark.parametrize("record,why", [
    ("field 17\ntype Q\nlength 2\ngen 14", "field size 17 is not a prime up to 13"),
    ("field 2\ntype 3I\nlength 2\ngen 11", "unknown type '3I'"),
])
def test_bad_db_record_is_rejected_under_python_O(tmp_path, record, why):
    # both records are self-dual codes, so only LinearCode's own checks,
    # once asserts that -O strips, stand between them and a 0 exit
    db = tmp_path / "bad.txt"
    db.write_text(f"code x\n{record}\nend\n")
    out = _python("-O", "-m", "cweil.cli", "cwe", "--db", str(db), "--code", "x",
                  "--genus", "1")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith(f"error: {db}: line 1: record 'x': {why}")


# the bundled ternary file, read as a user database
TERNARY_DB = os.path.join(os.path.dirname(cweil.__file__), "data", "codes_q3_n4.txt")

GENUS_OUT_OF_RANGE = [
    ["cwe", "--code", "e8", "--genus", "-2"],
    ["cusp", "--type", "2II", "--length", "24", "--genus", "0"],
    ["verify-doubling", "--type", "2I", "--length", "16", "--genus", "0"],
    ["eisenstein", "--type", "2II", "--length", "8", "--genus", "-1",
     "--method", "siegel-weil"],
    ["group", "--type", "2II", "--genus", "0"],
    ["constants", "--type", "2II", "--length", "8", "--genus", "-1"],
]


@pytest.mark.parametrize("argv", [
    ["cwe", "--code", "e8", "--genus", "-1"],
    ["cusp", "--type", "2I", "--length", "16", "--genus", "0"],
    ["cusp", "--type", "2I", "--length", "16", "--genus", "-1"],
    *GENUS_OUT_OF_RANGE,
    ["constants", "--type", "Q", "--length", "4", "--genus", "1", "--field", "2"],
    ["constants", "--type", "2II", "--length", "8", "--genus", "1", "--field", "3"],
    ["constants", "--type", "Q", "--length", "4", "--genus", "1", "--field", "9"],
    ["constants", "--type", "Q", "--length", "4", "--genus", "1", "--field", "1"],
    ["constants", "--type", "Q", "--length", "4", "--genus", "1", "--field", "-3"],
    ["constants", "--type", "Q", "--length", "4", "--genus", "1",
     "--field", str(2**61 - 1)],  # prime; trial division would take ~10^9 steps
    ["constants", "--type", "2II", "--length", "7", "--genus", "1"],
    ["constants", "--type", "2I", "--length", "-8", "--genus", "1"],
    ["constants", "--type", "Q1", "--length", "4", "--genus", "1", "--field", "3"],
    ["eisenstein", "--type", "2II", "--length", "8", "--genus", "1", "--field", "3",
     "--method", "siegel-weil"],
    ["eisenstein", "--type", "2II", "--length", "-8", "--genus", "1",
     "--method", "coset"],
    ["certify", "--file", "codes_nonexistent"],
    ["aut", "--code", "tetracode"],  # aut orders are computed for binary codes only
    ["aut", "--db", TERNARY_DB, "--code", "tetracode", "--recompute"],
])
def test_invalid_input_is_a_usage_error(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", GENUS_OUT_OF_RANGE)
def test_genus_out_of_range_names_the_option(argv, capsys):
    _, _, err = run(capsys, *argv)
    assert "--genus must be at least" in err


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py wraps these names from outside the package; one
    # that no longer resolves would drop its spans and counters from traces
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    tracer = runpy.run_path(path)  # compiles from source, writes nothing
    for mod, names in tracer["SPANNED"].items():
        module = importlib.import_module(f"cweil.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cweil.{mod}.{name}"
    for mod, cls, meth in tracer["COUNTED"]:
        owner = getattr(importlib.import_module(f"cweil.{mod}"), cls)
        assert callable(vars(owner).get(meth)), f"cweil.{mod}.{cls}.{meth}"


def _compare(capsys):
    return run(capsys, "eisenstein", "--type", "2II", "--length", "8", "--genus", "1",
               "--compare")


def test_eisenstein_compare_reports_a_coefficient_mismatch(monkeypatch, capsys):
    sw = cweil.cli.eisenstein_sw
    monkeypatch.setattr(cweil.cli, "eisenstein_sw", lambda *args: 2 * sw(*args))
    assert _compare(capsys) == (1, "MISMATCH: leading-coefficient ratio 1/2\n", "")


def test_eisenstein_compare_reports_a_support_mismatch(monkeypatch, capsys):
    # X0^2 X1^6 is not a monomial of the coset average, 1 + 14 X0^4 X1^4 + ...
    monkeypatch.setattr(cweil.cli, "eisenstein_sw",
                        lambda *args: Poly(2, 1, 8, 8, {(2, 6): Fraction(1)}))
    assert _compare(capsys) == (1, "MISMATCH: averages differ in support\n", "")


def test_coset_average_at_length_0_is_the_constant_1(capsys):
    code, out, err = run(capsys, "eisenstein", "--type", "2II", "--length", "0",
                         "--genus", "1", "--method", "coset")
    assert (code, err) == (0, "")
    assert parse_poly(out) == Poly(2, 1, 0, 8, {(0, 0): Fraction(1)})


def test_aut_search_past_node_limit_answers_unknown(monkeypatch, tmp_path, capsys):
    # i2 + i2 + i2 on the coordinate pairs {0, 3}, {1, 4}, {2, 5}: |Aut| = 48.
    # The uncached search keeps the answer "unknown" out of aut_order's cache.
    monkeypatch.setattr(autgroup, "NODE_LIMIT", 0)
    monkeypatch.setattr(cweil.database, "aut_order", aut_order.__wrapped__)
    rows = ["100100", "010010", "001001"]
    assert aut_order.__wrapped__(code_from_rows(2, 6, rows, tag="2I")) == "unknown"
    db = tmp_path / "hard.txt"
    db.write_text("code x\nfield 2\ntype 2I\nlength 6\naut 48\n"
                  + "".join(f"gen {r}\n" for r in rows) + "end\n")
    code, out, err = run(capsys, "aut", "--db", str(db), "--code", "x")
    assert (code, out) == (2, "")
    assert err == f"error: {db}: line 1: record 'x' claims aut 48, computed unknown\n"


def test_unknown_code_in_a_db_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "cwe", "--db", TERNARY_DB, "--code", "e8", "--genus", "1")
    assert (code, out, err) == (2, "", "error: no such code 'e8'\n")


def test_a_key_error_inside_a_command_escapes(monkeypatch):
    # a missing --code is the one KeyError that is a usage error; any other
    # is a defect and must not be reported as a missing code
    def broken(args):
        raise KeyError("e8")

    monkeypatch.setattr(cweil.cli, "cmd_cwe", broken)
    with pytest.raises(KeyError):
        main(["cwe", "--code", "e8", "--genus", "1"])


@pytest.mark.parametrize("argv", [
    ["eisenstein", "--method", "siegel-weil"],
    ["eisenstein", "--compare"],
    ["verify-doubling"],
])
def test_complete_set_with_no_classes_is_a_usage_error(tmp_path, argv, capsys):
    db = tmp_path / "empty.txt"
    db.write_text("complete 2II 8 0\n")
    code, out, err = run(capsys, *argv, "--type", "2II", "--length", "8", "--genus", "1",
                         "--db", str(db))
    assert (code, out, err) == (2, "", "error: database declares no 2II classes of length 8\n")


def test_aut_certifies_a_code_past_length_24(tmp_path, capsys):
    # i2^13 on the coordinate pairs (2i, 2i+1): |Aut| = 2^13 * 13!, and its
    # 2^13 x 26 word-column incidence is within the search's bound
    rows = "".join(f"gen {'0' * i}11{'0' * (24 - i)}\n" for i in range(0, 26, 2))
    db = tmp_path / "i2x13.txt"
    db.write_text(f"code i2x13\nfield 2\ntype 2I\nlength 26\naut 51011754393600\n{rows}end\n")
    code, out, _ = run(capsys, "certify", "--db", str(db))
    assert (code, out) == (0, f"ok   {db}: 1 records, 1 aut orders recomputed\n"
                              "certify: all checks passed\n")
    code, out, _ = run(capsys, "aut", "--recompute", "--db", str(db), "--code", "i2x13")
    assert (code, out) == (0, "aut i2x13 = 51011754393600\n")


def test_cwe_on_a_db_code_past_the_genus_2_budget_exits_2_at_once(tmp_path, capsys):
    # i2^16 at length 32: its 2^15 kept words make 2^29 pairs, which ran 47 s
    rows = "".join(f"gen {'0' * i}11{'0' * (30 - i)}\n" for i in range(0, 32, 2))
    db = tmp_path / "i2x16.txt"
    db.write_text(f"code i2x16\nfield 2\ntype 2I\nlength 32\n{rows}end\n")
    start = time.monotonic()
    code, out, err = run(capsys, "cwe", "--db", str(db), "--code", "i2x16", "--genus", "2")
    assert time.monotonic() - start < 1
    assert (code, out, err) == (2, "", "error: 32768^2/2 word pairs exceed the budget 67108864\n")
