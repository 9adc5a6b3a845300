"""Plain-text code database: parsing, validation, bundled datasets.

Format, one record per block::

    # comment
    complete 2I 16 7

    code E16
    field 2
    type 2I
    length 16
    aut 5160960
    note glue extension of the d16 chain
    gen 1010101010101010
    ...
    end

`complete TYPE N COUNT` declares that every equivalence class for that
(type, length) is present.  Validation is strict: rows must give a code
passing its type check, names must be unique, a declared-complete set must
have the declared count, and a recorded aut order is recomputed and
compared.  Only binary codes may record one, as `aut_order` computes no
other.  When every record of a `complete 2I N` or `complete 2II N` block
carries an order, the block must satisfy the mass identity: each N!/|Aut|
is an integer and their sum is the number of self-dual codes of that type
and length.

How far the aut orders are recomputed depends on where the file comes from:

* a user file: at length <= `AUT_CHECK_MAX_LENGTH`; longer orders are kept
  as declared, and the mass identity is then their check at load;
* a bundled file whose bytes have the sha256 recorded in `CERTIFIED`: none.
  The test suite recomputes every order of every bundled file and checks
  the manifest against the files, so these bytes were certified already;
* any other bundled bytes: every order, at every length.

`cweil certify` reruns every check at every length, with no digest shortcut.

Bundled data is routed: `bundled_index` reads only the `code`, `type` and
`length` lines of the bundled files and maps each code name, and each
(type, N), to the first file in `BUNDLED` order that has it.  A command
then parses, with the checks above, just that one file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from types import MappingProxyType

# The interpreter's builtin sha256, as `random` takes `_sha512`: `hashlib`
# would load OpenSSL, about 3.6 MB of resident memory per process.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    from _sha256 import sha256  # 3.10-3.11

from .autgroup import aut_order
from .codes import WORD_BUDGET, LinearCode, check_type, code_from_rows, mass_range

# User files get their aut orders recomputed at load up to this length.
# Length-24 orders take about a second each, which would slow every command
# on such a file; the mass identity of a `complete` block still checks them,
# and `cweil certify` recomputes them.
AUT_CHECK_MAX_LENGTH = 16
# The longest length a record may give: a self-dual code of length N has
# dimension N/2, so at least 2^(N/2) codewords, which WORD_BUDGET caps.
MAX_LENGTH = 2 * (WORD_BUDGET.bit_length() - 1)


@dataclass(frozen=True)
class CodeRecord:
    name: str
    code: LinearCode
    aut: int | None = None
    note: str = ""

    @property
    def p(self) -> int:
        return self.code.p

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def tag(self) -> str:
        return self.code.tag


@dataclass
class CodeDatabase:
    records: list[CodeRecord] = field(default_factory=list)
    complete: dict[tuple[str, int], int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> CodeRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def matching(self, tag: str, n: int) -> list[CodeRecord]:
        return [r for r in self.records if r.tag == tag and r.n == n]

    def complete_records(self, tag: str, n: int) -> list[CodeRecord]:
        """All class representatives for (tag, n); error if not declared so."""
        if (tag, n) not in self.complete:
            raise ValueError(f"database not declared complete for {tag} N={n}")
        recs = self.matching(tag, n)
        for rec in recs:
            if rec.aut is None:
                raise ValueError(f"record {rec.name} lacks an aut order")
        return recs


class DbParseError(ValueError):
    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


def parse_db(text: str, verify_aut: float = AUT_CHECK_MAX_LENGTH) -> CodeDatabase:
    """The database in `text`, with every check of the module docstring.

    `verify_aut` is the longest length at which recorded aut orders are
    recomputed: 0 (or False) recomputes none, `math.inf` all of them.
    """
    db = CodeDatabase()
    cur: dict | None = None
    names, complete_line = set(), {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if cur is None:
            if key == "complete":
                try:
                    tag, n, count = rest.split()
                    db.complete[(tag, int(n))] = int(count)
                    complete_line[tag, int(n)] = lineno
                except ValueError:
                    raise DbParseError(lineno, f"bad complete directive {rest!r}")
            elif key == "code":
                if not rest:
                    raise DbParseError(lineno, "code needs a name")
                if rest in names:
                    raise DbParseError(lineno, f"duplicate name {rest!r}")
                names.add(rest)
                cur = {"name": rest, "rows": [], "line": lineno}
            else:
                raise DbParseError(lineno, f"unexpected {key!r} outside a record")
            continue
        if key in ("field", "type", "length", "aut", "note") and key in cur:
            raise DbParseError(lineno, f"record {cur['name']!r} repeats {key}")
        if key in ("field", "length", "aut"):
            try:
                cur[key] = int(rest)
            except ValueError:
                raise DbParseError(lineno, f"bad integer for {key}: {rest!r}")
        elif key in ("type", "note"):
            cur[key] = rest
        elif key == "gen":
            cur["rows"].append(rest)
        elif key == "end":
            db.records.append(_finish_record(cur, verify_aut))
            cur = None
        else:
            raise DbParseError(lineno, f"unknown key {key!r}")
    if cur is not None:
        raise DbParseError(cur["line"], f"record {cur['name']!r} never ended")
    for (tag, n), count in db.complete.items():
        recs = db.matching(tag, n)
        if len(recs) != count:
            raise DbParseError(complete_line[tag, n],
                               f"complete {tag} {n} declares {count} classes, found {len(recs)}")
        if tag in ("2I", "2II") and recs and all(r.aut is not None for r in recs):
            _check_mass(tag, n, recs, complete_line[tag, n])
    return db


def _check_mass(tag: str, n: int, recs: list[CodeRecord], lineno: int) -> None:
    """Σ n!/|Aut| over the classes must count every self-dual code of the type.

    On labelled coordinates there are ∏ (2^i + 1) self-dual codes of type
    2I or 2II and length n, over the i of `codes.mass_range`.
    """
    mass = 0
    for rec in recs:
        if rec.aut < 1 or math.factorial(n) % rec.aut:
            raise DbParseError(
                lineno, f"complete {tag} {n}: record {rec.name!r} has aut {rec.aut}, "
                f"which does not divide {n}!"
            )
        mass += math.factorial(n) // rec.aut
    expected = math.prod(2**i + 1 for i in mass_range(tag, n))
    if mass != expected:
        raise DbParseError(
            lineno, f"complete {tag} {n}: mass identity fails: the sum of {n}!/|Aut| "
            f"is {mass}, but there are {expected} self-dual codes"
        )


def _finish_record(cur: dict, verify_aut: float) -> CodeRecord:
    lineno, name = cur["line"], cur["name"]
    for key in ("field", "type", "length"):
        if key not in cur:
            raise DbParseError(lineno, f"record {name!r} is missing {key}")
    n, k = cur["length"], len(cur["rows"])
    if not 0 <= n <= min(2 * k, MAX_LENGTH):  # before any O(N) work
        raise DbParseError(lineno, f"record {name!r} has length {n}, but a self-dual code "
                                   f"with {k} gen rows has length 0 to {min(2 * k, MAX_LENGTH)}")
    try:
        code = code_from_rows(cur["field"], cur["length"], cur["rows"], cur["type"])
    except ValueError as exc:
        raise DbParseError(lineno, f"record {name!r}: {exc}")
    if not check_type(code):
        raise DbParseError(lineno, f"record {name!r} fails its {code.tag} type check")
    aut = cur.get("aut")
    if aut is not None and code.p != 2:
        raise DbParseError(
            lineno, f"record {name!r} records aut {aut}, but only binary orders can be checked"
        )
    if aut is not None and code.n <= verify_aut:
        computed = aut_order(code)
        if computed != aut:
            raise DbParseError(
                lineno, f"record {name!r} claims aut {aut}, computed {computed}"
            )
    return CodeRecord(name, code, aut, cur.get("note", ""))


# sha256 of the bytes of each bundled file whose every check the test suite
# reran at every length (tests/test_autgroup.py recomputes the aut orders,
# tests/test_database.py compares this table with the files).  Editing a
# file without updating its entry makes each load recheck it in full.
CERTIFIED = MappingProxyType({
    "codes_2i_n16": "6e4fb519e425f4c7532bc7a59b5580b2f02313b68d60cf238db62b0820c6d440",
    "codes_2ii_n8": "3609b29a28da4f9143e0c90601b5b14b011d848a95db4347c23d58a17048a3d3",
    "codes_2ii_n16": "c0a24a3f4a45b627792b3033632fe2dc17624cc8d10dee6436f04d235c798944",
    "codes_2ii_n24": "a2da10857b1cc8654c47dc88139fc24d26d960d7056e2c5c5394a0158c6df608",
    "codes_q3_n4": "ce08bf3d95ce5cbbec2eb25d04d9f11f57653e9c51f93df7448b46098a6ee8cd",
})
BUNDLED = tuple(CERTIFIED)


def _bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise ValueError(f"no bundled dataset {name!r}; have {BUNDLED}")
    return (resources.files("cweil") / "data" / f"{name}.txt").read_text()


def load_bundled(name: str) -> CodeDatabase:
    """Bundled dataset `name`, its aut orders recomputed unless certified."""
    text = _bundled_text(name)
    certified = sha256(text.encode()).hexdigest() == CERTIFIED[name]
    return parse_db(text, verify_aut=0 if certified else math.inf)


@cache
def bundled_index() -> tuple[MappingProxyType, MappingProxyType]:
    """(code name -> file, (type, N) -> file) over the bundled datasets.

    Each key maps to the first file in `BUNDLED` order that has it, which is
    the file a scan of `BUNDLED` in order would stop at: `E16` and `A8^2`
    are in both `codes_2i_n16` and `codes_2ii_n16`.  Only the `code`,
    `type` and `length` lines are read; nothing is validated here.
    """
    by_name: dict[str, str] = {}
    by_kind: dict[tuple[str, int], str] = {}
    for fname in BUNDLED:
        rec: dict = {}
        for rawline in _bundled_text(fname).splitlines():
            key, _, rest = rawline.split("#", 1)[0].strip().partition(" ")
            if key in ("code", "type", "length"):
                rec[key] = rest.strip()
            elif key == "end":
                by_name.setdefault(rec["code"], fname)
                by_kind.setdefault((rec["type"], int(rec["length"])), fname)
                rec = {}
    return MappingProxyType(by_name), MappingProxyType(by_kind)
