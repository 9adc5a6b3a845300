"""Code database: bundled datasets, parsing, validation, mass certification."""

import hashlib
from importlib import resources
from math import factorial, prod

import pytest

from cweil import database
from cweil.codes import weight_distribution
from cweil.database import (
    BUNDLED,
    CERTIFIED,
    CodeDatabase,
    DbParseError,
    load_bundled,
    parse_db,
)
from tests.test_cliffordweil import _run_python_O


def serialize_db(db: CodeDatabase) -> str:
    """The text that parse_db reads back as db."""
    lines = []
    for (tag, n), count in sorted(db.complete.items()):
        lines.append(f"complete {tag} {n} {count}")
    for rec in db.records:
        lines.append("")
        lines.append(f"code {rec.name}")
        lines.append(f"field {rec.p}")
        lines.append(f"type {rec.tag}")
        lines.append(f"length {rec.n}")
        if rec.aut is not None:
            lines.append(f"aut {rec.aut}")
        if rec.note:
            lines.append(f"note {rec.note}")
        for row in rec.code.rows:
            lines.append("gen " + "".join(str(x) for x in row))
        lines.append("end")
    return "\n".join(lines) + "\n"

EXPECTED_SIZES = {
    "codes_2i_n16": 7,
    "codes_2ii_n8": 1,
    "codes_2ii_n16": 2,
    "codes_2ii_n24": 9,
    "codes_q3_n4": 1,
}


def test_bundled_datasets_load():
    for name in BUNDLED:
        db = load_bundled(name)
        assert len(db.records) == EXPECTED_SIZES[name], name
        for rec in db.records:
            assert rec.code.rows  # nonempty, already validated by the parser


def test_bundled_round_trip():
    for name in BUNDLED:
        db = load_bundled(name)
        back = parse_db(serialize_db(db))
        assert back.records == db.records
        assert back.complete == db.complete


def test_unknown_bundled_name():
    with pytest.raises(ValueError):
        load_bundled("codes_nonexistent")


# --- certification pinned to the bundled bytes --------------------------


def test_certified_digests_match_the_files():
    # tests/test_autgroup.py recomputes every order of these bytes, which is
    # what lets a load with a matching digest skip the search
    data = resources.files("cweil") / "data"
    assert CERTIFIED == {
        name: hashlib.sha256((data / f"{name}.txt").read_bytes()).hexdigest()
        for name in BUNDLED
    }


@pytest.mark.parametrize("name", BUNDLED)
def test_builtin_sha256_matches_hashlib(name):
    # load_bundled hashes with the interpreter's builtin module (_sha2 on
    # 3.12+, _sha256 before), not hashlib
    data = (resources.files("cweil") / "data" / f"{name}.txt").read_bytes()
    assert database.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def _counting_aut_order(monkeypatch, orders):
    calls = []

    def stub(code):
        calls.append(code)
        return orders[code]

    monkeypatch.setattr(database, "aut_order", stub)
    return calls


def test_certified_load_runs_no_aut_search(monkeypatch):
    calls = _counting_aut_order(monkeypatch, {})
    for name in BUNDLED:
        load_bundled(name)
    assert calls == []


def test_edited_bundled_bytes_are_rechecked_at_every_length(monkeypatch):
    # one byte of a note changed: nothing the parser reads differs, but these
    # bytes were never certified, so all nine length-24 orders are recomputed
    orders = {r.code: r.aut for r in load_bundled("codes_2ii_n24").records}
    text = database._bundled_text("codes_2ii_n24")
    edited = text.replace("note extended binary Golay code",
                          "note extended binary Golay codE")
    assert len(edited) == len(text) and edited != text
    monkeypatch.setattr(database, "_bundled_text", lambda name: edited)
    calls = _counting_aut_order(monkeypatch, orders)
    db = load_bundled("codes_2ii_n24")
    assert len(calls) == 9
    assert [r.aut for r in db.records] == list(orders.values())


def test_edited_bundled_aut_order_is_rejected(monkeypatch):
    text = database._bundled_text("codes_2i_n16")
    edited = text.replace("aut 5160960", "aut 5160961")
    monkeypatch.setattr(database, "_bundled_text", lambda name: edited)
    with pytest.raises(DbParseError, match="claims aut 5160961, computed 5160960"):
        load_bundled("codes_2i_n16")


# --- completeness and the mass certification ----------------------------


def test_mass_certification_n16():
    db = load_bundled("codes_2ii_n16")
    mass = sum(factorial(16) // rec.aut for rec in db.complete_records("2II", 16))
    assert mass == prod(2**i + 1 for i in range(7)) == 9845550


def test_mass_certification_n24():
    # the exact identity sum(24!/|Aut|) = prod_{i=0}^{10} (2^i + 1) over the
    # nine classes certifies the dataset in bulk: any wrong order, missing
    # class, or duplicate would break it
    db = load_bundled("codes_2ii_n24")
    recs = db.complete_records("2II", 24)
    assert len(recs) == 9
    assert all(factorial(24) % rec.aut == 0 for rec in recs)
    mass = sum(factorial(24) // rec.aut for rec in recs)
    assert mass == prod(2**i + 1 for i in range(11)) == 171634285407048750


def test_n24_weight_distributions():
    db = load_bundled("codes_2ii_n24")
    a4 = {rec.name: weight_distribution(rec.code)[4] for rec in db.records}
    assert a4 == {
        "golay24": 0,
        "d24_plus": 66,
        "d12sq": 30,
        "d10e7sq": 24,
        "d8cube": 18,
        "d6four": 12,
        "d4six": 6,
        "e8cube": 42,
        "d16e8": 42,
    }
    assert weight_distribution(db["golay24"].code)[8] == 759
    # the two decomposable classes share a weight distribution and are
    # separated by their aut orders
    assert weight_distribution(db["e8cube"].code) == weight_distribution(
        db["d16e8"].code
    )
    assert db["e8cube"].aut == 1344**3 * 6
    assert db["d16e8"].aut == 5160960 * 1344


def test_n24_aut_orders_divide_products():
    db = load_bundled("codes_2ii_n24")
    assert db["golay24"].aut == 244823040
    assert db["d24_plus"].aut == 2**11 * factorial(12)


def test_complete_records_requires_declaration():
    db = load_bundled("codes_q3_n4")  # one code, not declared complete
    with pytest.raises(ValueError):
        db.complete_records("Q", 4)


def test_complete_records_requires_aut():
    db = parse_db(
        "complete 2II 8 1\n"
        "code e8\nfield 2\ntype 2II\nlength 8\n"
        "gen 11110000\ngen 01010101\ngen 00110011\ngen 00001111\nend\n"
    )
    with pytest.raises(ValueError):
        db.complete_records("2II", 8)


def test_getitem():
    db = load_bundled("codes_2i_n16")
    assert db["E16"].aut == 5160960
    with pytest.raises(KeyError):
        db["no_such_code"]


# --- parser validation --------------------------------------------------

E8_BLOCK = (
    "code e8\nfield 2\ntype 2II\nlength 8\naut 1344\n"
    "gen 11110000\ngen 01010101\ngen 00110011\ngen 00001111\nend\n"
)


def test_parse_accepts_comments_and_blanks():
    db = parse_db("# header\n\n" + E8_BLOCK + "\n# trailing\n")
    assert len(db.records) == 1
    assert db.records[0].name == "e8"


def test_parse_duplicate_name():
    with pytest.raises(DbParseError):
        parse_db(E8_BLOCK + E8_BLOCK)


@pytest.mark.parametrize("line", ["field 2", "type 2II", "length 8", "aut 1344", "note again"])
def test_parse_repeated_key_names_its_line(line):
    # a repeat used to overwrite the first value silently, even an equal one
    text = E8_BLOCK.replace("gen 11110000", f"note first\n{line}\ngen 11110000")
    key = line.split()[0]
    with pytest.raises(DbParseError, match=f"^line 7: record 'e8' repeats {key}$") as exc:
        parse_db(text)
    assert exc.value.lineno == 7
    assert parse_db(text.replace(f"first\n{line}\n", "first\n")).records[0].note == "first"


def test_parse_wrong_aut_is_recomputed():
    bad = E8_BLOCK.replace("aut 1344", "aut 1343")
    with pytest.raises(DbParseError, match="claims aut 1343, computed 1344"):
        parse_db(bad)
    assert parse_db(bad, verify_aut=False).records[0].aut == 1343


def test_parse_large_lengths_trust_declared_aut():
    # above the recheck cutoff the declared order is not recomputed, so
    # parsing stays fast; in a complete block the mass identity rejects it
    text = serialize_db(load_bundled("codes_2ii_n24"))
    tampered = text.replace("aut 244823040", "aut 244823041")
    with pytest.raises(ValueError, match="complete 2II 24: "):
        parse_db(tampered)
    db = parse_db(tampered.replace("complete 2II 24 9\n", ""))
    assert db["golay24"].aut == 244823041  # no complete block: kept as declared


@pytest.mark.parametrize("old,new,why", [
    ("aut 244823040", "aut 244823041", "does not divide 24!"),
    ("aut 244823040", "aut 122411520", "mass identity fails"),
    ("aut 244823040", "aut 0", "does not divide 24!"),
], ids=["not-a-divisor", "wrong-divisor", "zero"])
def test_mass_identity_checked_at_load(old, new, why):
    text = serialize_db(load_bundled("codes_2ii_n24"))
    with pytest.raises(ValueError, match=why):
        parse_db(text.replace(old, new))


def test_mass_identity_failure_names_its_complete_line():
    text = database._bundled_text("codes_2ii_n24").replace("aut 244823040", "aut 122411520")
    with pytest.raises(DbParseError, match="line 7: complete 2II 24: mass identity fails"):
        parse_db(text)


def test_mass_identity_checked_for_type_2i():
    text = serialize_db(load_bundled("codes_2i_n16"))
    with pytest.raises(ValueError, match="complete 2I 16: mass identity fails"):
        parse_db(text.replace("aut 10321920", "aut 5160960"), verify_aut=False)


def test_wrong_order_in_complete_block_rejected_under_python_O():
    # the length-24 order is not recomputed at load; the mass identity must
    # still reject it when -O strips every assert
    code = (
        "from cweil.database import _bundled_text, parse_db\n"
        "text = _bundled_text('codes_2ii_n24')\n"
        "try:\n"
        "    parse_db(text.replace('aut 244823040', 'aut 122411520'))\n"
        "except ValueError as exc:\n"
        "    print('rejected', exc)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("rejected line 7: complete 2II 24: mass identity fails")


def test_parse_type_check_enforced():
    # the two-word code {00, 11} is self-dual but not doubly even
    bad = "code i2\nfield 2\ntype 2II\nlength 2\ngen 11\nend\n"
    with pytest.raises(DbParseError):
        parse_db(bad)


def test_parse_missing_field():
    with pytest.raises(DbParseError, match="missing"):
        parse_db("code x\ntype 2II\nlength 8\ngen 11110000\nend\n")


def test_parse_unterminated_record():
    with pytest.raises(DbParseError, match="never ended"):
        parse_db("code x\nfield 2\ntype 2II\nlength 8\n")


def test_parse_unknown_key():
    with pytest.raises(DbParseError, match="unknown key"):
        parse_db("code x\nbogus 1\nend\n")


def test_parse_stray_line_outside_record():
    with pytest.raises(DbParseError, match="outside a record"):
        parse_db("gen 11110000\n")


def test_parse_bad_complete_count():
    with pytest.raises(ValueError, match="declares 2 classes, found 1"):
        parse_db("complete 2II 8 2\n" + E8_BLOCK)


def test_parse_refuses_a_length_no_row_count_allows():
    # a self-dual code of length N has N/2 rows; refused before any O(N) work.
    # Lengths that would be cheap without the check: test_cli runs the
    # huge one under an address-space limit
    big = "code big\nfield 2\ntype 2I\nlength 100\nend\n"
    with pytest.raises(DbParseError, match="line 1: record 'big' has length 100, but a "
                                           "self-dual code with 0 gen rows has length 0 to 0"):
        parse_db(big)
    with pytest.raises(DbParseError, match="has length -8"):
        parse_db(big.replace("100", "-8"))
    rows = "".join(f"gen {'0' * i}1{'0' * (53 - i)}\n" for i in range(27))
    with pytest.raises(DbParseError, match=f"length 0 to {database.MAX_LENGTH}"):
        parse_db(big.replace("100", "54").replace("end", rows + "end"))


def test_parse_bad_complete_count_names_its_line():
    with pytest.raises(DbParseError, match="line 2: complete 2II 8 declares 2 classes"):
        parse_db("# header\ncomplete 2II 8 2\n" + E8_BLOCK)


def test_parse_bad_row():
    with pytest.raises(DbParseError):
        parse_db(E8_BLOCK.replace("gen 11110000", "gen 1111000x"))
    with pytest.raises(DbParseError):
        parse_db(E8_BLOCK.replace("gen 11110000", "gen 111100001"))


def test_serialize_skips_missing_aut():
    db = load_bundled("codes_q3_n4")
    text = serialize_db(db)
    assert "aut" not in text
    assert parse_db(text).records == db.records
