"""Command-line driver: outputs, exit codes, failure paths."""

import hashlib

import pytest

import cweil.cli
from cweil.cli import main
from cweil.cliffordweil import PREDICTED_ORDER, group_closure
from cweil.constructions import e8
from cweil.database import load_bundled, serialize_db
from cweil.poly import parse_poly
from cweil.weightenum import cwe


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


def test_failed_order_certificate_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(PREDICTED_ORDER, ("2I", 1, 2), 17)
    group_closure.cache_clear()
    try:
        code, out, err = run(capsys, "group", "--type", "2I", "--genus", "1")
    finally:
        group_closure.cache_clear()
    assert code == 1
    assert out == ""
    assert err == "error: closure has order 16, predicted 17\n"


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
    # a wrong trusted aut order above the recheck cutoff shifts the mass
    # average, so the fitted scalar cannot match the predicted constant
    text = serialize_db(load_bundled("codes_2ii_n24"))
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("aut 244823040", "aut 244823042"))
    code, out, _ = run(capsys, "verify-doubling", "--db", str(bad), "--type",
                       "2II", "--length", "24", "--genus", "1")
    assert code == 1
    assert "MISMATCH" in out


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
    from cweil.constructions import tetracode
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
]


@pytest.mark.parametrize("tag,length,genus,digest", COSET_DIGESTS)
def test_eisenstein_coset_golden_output(tag, length, genus, digest, capsys):
    code, out, _ = run(capsys, "eisenstein", "--type", tag, "--length", length,
                       "--genus", genus, "--method", "coset")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
