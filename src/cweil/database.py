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
have the declared count, and any recorded aut order at length <= 16 is
recomputed and compared.  Longer codes keep their recorded order at load;
the test suite recomputes every length-24 order, and the N = 24 dataset is
also certified in bulk by its mass-formula test.

Bundled data is routed: `bundled_index` reads only the `code`, `type` and
`length` lines of the bundled files and maps each code name, and each
(type, N), to the first file in `BUNDLED` order that has it.  A command
then parses, with every check above, just that one file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from types import MappingProxyType

from .autgroup import aut_order
from .codes import LinearCode, check_type, code_from_rows

# Length-24 orders take about a second each to recompute, so checking them at
# load would slow every 2II-24 command; the test suite recomputes them.
AUT_CHECK_MAX_LENGTH = 16


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


def parse_db(text: str, verify_aut: bool = True) -> CodeDatabase:
    db = CodeDatabase()
    cur: dict | None = None
    names = set()
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
        if key in ("field", "length", "aut"):
            try:
                cur[key] = int(rest)
            except ValueError:
                raise DbParseError(lineno, f"bad integer for {key}: {rest!r}")
        elif key == "type":
            cur["type"] = rest
        elif key == "note":
            cur["note"] = rest
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
        have = len(db.matching(tag, n))
        if have != count:
            raise ValueError(
                f"complete {tag} {n} declares {count} classes, found {have}"
            )
    return db


def _finish_record(cur: dict, verify_aut: bool) -> CodeRecord:
    lineno, name = cur["line"], cur["name"]
    for key in ("field", "type", "length"):
        if key not in cur:
            raise DbParseError(lineno, f"record {name!r} is missing {key}")
    try:
        code = code_from_rows(cur["field"], cur["length"], cur["rows"], cur["type"])
    except ValueError as exc:
        raise DbParseError(lineno, f"record {name!r}: {exc}")
    if not check_type(code):
        raise DbParseError(lineno, f"record {name!r} fails its {code.tag} type check")
    aut = cur.get("aut")
    if (
        verify_aut
        and aut is not None
        and code.p == 2
        and code.n <= AUT_CHECK_MAX_LENGTH
    ):
        computed = aut_order(code)
        if computed != aut:
            raise DbParseError(
                lineno, f"record {name!r} claims aut {aut}, computed {computed}"
            )
    return CodeRecord(name, code, aut, cur.get("note", ""))


def serialize_db(db: CodeDatabase) -> str:
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


BUNDLED = (
    "codes_2i_n16",
    "codes_2ii_n8",
    "codes_2ii_n16",
    "codes_2ii_n24",  # aut orders above the load-time recheck cutoff
    "codes_q3_n4",
)


def _bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise ValueError(f"no bundled dataset {name!r}; have {BUNDLED}")
    return (resources.files("cweil") / "data" / f"{name}.txt").read_text()


def load_bundled(name: str, verify_aut: bool = True) -> CodeDatabase:
    return parse_db(_bundled_text(name), verify_aut=verify_aut)


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
