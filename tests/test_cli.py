"""Command-line driver: outputs, exit codes, failure paths."""

import hashlib
import os
import subprocess
import sys

import pytest

import cweil
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


@pytest.mark.parametrize("argv,err", [
    (["--length", "8", "--genus", "3"], "error: no feasible closure for ('2II', 3, 2)\n"),
    (["--length", "4", "--genus", "3"], "error: N = 4 not divisible by |Z| = 8\n"),
    (["--length", "-8", "--genus", "3"], "error: N = -8 is negative\n"),
])
def test_coset_average_refusals(argv, err, capsys):
    # in this order: negative N, |Z| not dividing N, no predicted group order
    code, out, got = run(capsys, "eisenstein", "--type", "2II", *argv, "--method", "coset")
    assert (code, out, got) == (2, "", err)


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


def _python(*args, **kwargs):
    """Run a fresh interpreter on this checkout's cweil."""
    src = os.path.dirname(os.path.dirname(cweil.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


NUMPY_FREE = [
    "constants --type 2II --length 24 --genus 1 --factorial",
    "cwe --code golay24 --genus 1 --tuples",
    "aut --code golay24",
    "eisenstein --type 2II --length 24 --genus 1 --method siegel-weil",
    "verify-doubling --type 2II --length 24 --genus 1 --factorial",
]


def test_commands_without_array_work_never_run_numpy():
    # numpy's package body imports its submodules, so none of them in
    # sys.modules means it never ran; a deferred `numpy` entry may be there
    code = (
        "import sys\n"
        "def ran():\n"
        "    return sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
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
