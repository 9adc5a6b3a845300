"""Fuzz the command-line boundary: mutated database files, and argv.

Two properties of the exit-code contract.  parse_db either returns a
CodeDatabase or raises DbParseError, whatever the text.  Each subcommand
that reads a database, run with --db on a mutated file, exits 0, 1 or 2
and never ends in a traceback.  The mutations are line deletions,
duplications and swaps, token swaps and character edits; a third property
edits the file's bytes, with arbitrary bytes and truncated multi-byte UTF-8
sequences, and writes them in binary.  A fourth runs every subcommand on
argv drawn from wide integer ranges and from each choice flag's choices
plus junk, with no --db.  A fifth runs each subcommand that reads a
database on the same drawn flags with a drawn --db file, which may set
one record's aut order to any integer, often one that cannot be an order,
and may drop the file's `complete` line.

Every example runs in one worker process under a 1 GB address-space limit,
so that a regression that allocates without bound fails the test instead
of exhausting the machine, and under a time limit of TIME_LIMIT_S, so that
one that runs without bound fails too.  The worker runs `cweil.cli.main`
in-process: a traceback at the command line is exactly an exception
escaping `main`.
"""

import json
import os
import select
import subprocess
import sys
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cweil
from cweil.codes import TYPES
from cweil.database import BUNDLED, _bundled_text, bundled_index
from tests.test_cli import _limit_address_space

# A CLI example still running after this long is a finding: the worker
# reports it as "time limit" (SIGALRM), and one that does not reply within
# a further 10 s is killed.
TIME_LIMIT_S = 20

WORKER = r"""
import contextlib, io, json, signal, sys, traceback
from cweil.cli import main
from cweil.database import DbParseError, CodeDatabase, parse_db


class TimeLimit(BaseException):  # not an Exception: nothing in main catches it
    pass


def alarm(signum, frame):
    raise TimeLimit


signal.signal(signal.SIGALRM, alarm)
path, limit = sys.argv[1], float(sys.argv[2])
for line in sys.stdin:
    argv, text, binary = json.loads(line)
    try:
        if argv is None:
            res = "db" if isinstance(parse_db(text), CodeDatabase) else "other"
        else:
            if text is not None:  # else argv runs as it is, with no database file
                with open(path, "wb" if binary else "w") as fh:
                    fh.write(bytes.fromhex(text) if binary else text)
                argv = argv + ["--db", path]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    res = main(argv)
                except SystemExit as exc:
                    res = exc.code
                except TimeLimit:
                    res = "time limit"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    except DbParseError:
        res = "refused"
    except Exception:
        res = traceback.format_exc()
    print(json.dumps(res), flush=True)
"""

# The files the CLI property mutates, with the (type, length, field) that the
# commands ask for.  The length-24 file is left to the parse property:
# `certify` recomputes its nine orders, 0.04 to 0.7 s each.
CLI_FILES = {
    "codes_2ii_n8": ("2II", 8, 2),
    "codes_2i_n16": ("2I", 16, 2),
    "codes_q3_n4": ("Q", 4, 3),
}
# --code takes one of these; two of them name no code of the file
CODE_NAMES = ["e8", "F16", "tetracode"]


def _commands(name: str, tag: str, n: int, p: int) -> list[list[str]]:
    kind = ["--type", tag, "--length", str(n), "--genus", "1"]
    return [
        ["cwe", "--code", name, "--genus", "1"],
        ["aut", "--code", name],
        ["cusp", *kind],
        ["verify-doubling", *kind],
        ["eisenstein", *kind, "--field", str(p), "--method", "siegel-weil"],
        ["certify"],
    ]


@pytest.fixture(scope="module")
def worker(tmp_path_factory):
    """Send (argv, text) to the worker; argv None means parse_db(text), text
    None runs argv with no --db, and bytes for text are written to the file
    as they are."""
    path = tmp_path_factory.mktemp("fuzz") / "db.txt"
    src = os.path.dirname(os.path.dirname(cweil.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    with subprocess.Popen([sys.executable, "-c", WORKER, str(path), str(TIME_LIMIT_S)],
                          env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          preexec_fn=_limit_address_space) as proc:

        def ask(argv, text):
            binary = isinstance(text, bytes)
            proc.stdin.write(json.dumps([argv, text.hex() if binary else text, binary]) + "\n")
            proc.stdin.flush()
            if not select.select([proc.stdout], [], [], TIME_LIMIT_S + 10)[0]:
                proc.kill()
                raise AssertionError(f"the worker hung on {argv} with\n{text}")
            reply = proc.stdout.readline()
            assert reply, f"the worker died on {argv} with\n{text}"
            return json.loads(reply)

        yield ask


@st.composite
def mutated(draw, files):
    """A bundled file after one to three random edits, and the file's name."""
    fname = draw(st.sampled_from(sorted(files)))
    lines = _bundled_text(fname).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        # half the picks avoid the gen lines, which are most of a file
        keys = [k for k, line in enumerate(lines) if not line.startswith("gen")] or [0]
        pick = st.sampled_from(keys) | st.sampled_from(range(len(lines)))
        i, j = draw(pick), draw(pick)
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "tokens", "byte"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "tokens":
            a = lines[i].split()
            b = a if i == j else lines[j].split()
            if a and b:
                x = draw(st.integers(0, len(a) - 1))
                y = draw(st.integers(0, len(b) - 1))
                a[x], b[y] = b[y], a[x]
                lines[i], lines[j] = " ".join(a), " ".join(b)
        else:
            pos = draw(st.integers(0, len(lines[i])))
            ch = draw(st.sampled_from("0123456789 -#xQI\t") | st.characters())
            cut = draw(st.integers(0, 1))
            lines[i] = lines[i][:pos] + ch + lines[i][pos + cut:]
    return fname, "\n".join(lines) + "\n"


@st.composite
def byte_mutated(draw, files):
    """A bundled file's bytes after one to three byte edits, and its name: an
    arbitrary byte string, or the first bytes of a character's UTF-8
    encoding, inserted or overwriting at any point, the end included."""
    fname = draw(st.sampled_from(sorted(files)))
    data = _bundled_text(fname).encode()
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            chunk = draw(st.binary(min_size=1, max_size=4))
        else:
            full = draw(st.characters(min_codepoint=0x80)).encode("utf-8", "surrogatepass")
            chunk = full[:draw(st.integers(1, len(full) - 1))]
        cut = draw(st.integers(0, len(chunk)))
        data = data[:pos] + chunk + data[pos + cut:]
    return fname, data


FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(case=mutated(BUNDLED))
def test_parse_db_returns_a_database_or_raises_db_parse_error(worker, case):
    fname, text = case
    assert worker(None, text) in ("db", "refused"), text


@FUZZ
@given(case=mutated(CLI_FILES), which=st.integers(0, 5), name=st.sampled_from(CODE_NAMES))
def test_cli_on_a_mutated_db_keeps_the_exit_code_contract(worker, case, which, name):
    fname, text = case
    argv = _commands(name, *CLI_FILES[fname])[which]
    assert worker(argv, text) in (0, 1, 2), (argv, text)


@settings(FUZZ, max_examples=30)
@given(case=byte_mutated(CLI_FILES), which=st.integers(0, 5), name=st.sampled_from(CODE_NAMES))
def test_cli_on_a_byte_mutated_db_keeps_the_exit_code_contract(worker, case, which, name):
    fname, data = case
    argv = _commands(name, *CLI_FILES[fname])[which]
    assert worker(argv, data) in (0, 1, 2), (argv, data)


# The argv property: per subcommand, its flags.  Integers come from wide
# ranges, with the bundled lengths, multiples of 4 and small genera and
# fields mixed in, so that many runs get past the checks; a choice flag
# takes one of its choices nine times in ten and junk otherwise, --type
# with --length is often the kind of a bundled dataset, and --field is most
# often the field of the drawn --type.
WIDE = st.integers(-(10**12), 10**12) | st.sampled_from([2**31 - 1, 2**32 + 15, 10**40])
LENGTH = st.integers(-2, 1500).map(lambda k: 4 * k) | st.integers(-8, 6000) | WIDE
GENUS = st.integers(-1, 6) | st.integers(-1, 6) | st.integers(-100, 10**4) | WIDE
FIELD = st.sampled_from([2, 3]) | st.integers(-4, 1000) | WIDE
JUNK = st.text(alphabet="abcdeIQ2-_ ", max_size=5)


def choice(options) -> st.SearchStrategy:
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(sorted(options)) if i else JUNK)


def flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return values.map(lambda v: [name, str(v)])


def switch(name: str) -> st.SearchStrategy:
    return st.sampled_from([[], [name]])


def with_field(kind: st.SearchStrategy) -> st.SearchStrategy:
    """kind's flags, --type first, then --field: the type's own field (2 for
    a junk type) unless a draw from 0..3 is 3, else one from FIELD."""
    own = {"2I": 2, "2II": 2, "Q": 3, "Q1": 3}
    return st.tuples(kind, st.integers(0, 3), FIELD).map(
        lambda t: t[0] + ["--field", str(own.get(t[0][1], 2) if t[1] < 3 else t[2])])


CODE = flag("--code", choice(bundled_index()[0]))
KIND = (st.sampled_from(sorted(bundled_index()[1])) | st.tuples(choice(TYPES), LENGTH)).map(
    lambda kind: ["--type", kind[0], "--length", str(kind[1])])
ARGV = {
    "cwe": [CODE, flag("--genus", GENUS), switch("--tuples")],
    "cusp": [KIND, flag("--genus", GENUS), switch("--polys")],
    "verify-doubling": [KIND, flag("--genus", GENUS), switch("--factorial")],
    "eisenstein": [with_field(KIND), flag("--genus", GENUS),
                   flag("--method", choice(["coset", "siegel-weil"])), switch("--compare")],
    "constants": [with_field(KIND), flag("--genus", GENUS), switch("--factorial")],
    "group": [with_field(flag("--type", choice(TYPES))), flag("--genus", GENUS),
              switch("--parabolic")],
    "aut": [CODE, switch("--recompute")],
    "certify": [st.just([]) | flag("--file", choice(BUNDLED))],
    "selftest": [],
}


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_cli_on_drawn_argv_keeps_the_exit_code_contract(worker, command, data):
    argv = [command] + [x for part in ARGV[command] for x in data.draw(part)]
    assert worker(argv, None) in (0, 1, 2), argv


# The drawn --db files: a bundled file with recorded orders, one of whose
# `aut` lines may take any integer, and whose `complete` line may be gone,
# so that a length-24 order is kept as declared.  An order below 1, or one
# that does not divide N!, cannot be right, and every command that loads the
# file refuses it.  --code names one of the file's codes nine times in ten.
# `certify` leaves out the length-24 file, whose nine orders it would
# recompute.
AUT_FILES = {"codes_2ii_n8": 8, "codes_2i_n16": 16, "codes_2ii_n24": 24}


@st.composite
def drawn_db(draw, command):
    """(the text of a drawn database file, its code names, whether it holds an
    impossible order)."""
    fname = draw(st.sampled_from([f for f, n in AUT_FILES.items()
                                  if command != "certify" or n <= 16]))
    n, lines, impossible = AUT_FILES[fname], _bundled_text(fname).splitlines(), False
    if draw(st.booleans()):
        i = draw(st.sampled_from([k for k, line in enumerate(lines) if line.startswith("aut ")]))
        order = int(lines[i].split()[1])
        aut = draw(st.sampled_from([-5, 0, 10**25]) | st.integers(1, 4).map(order.__floordiv__)
                   | st.integers(-(10**30), 10**30))
        lines[i], impossible = f"aut {aut}", aut < 1 or factorial(n) % aut != 0
    if draw(st.booleans()):
        lines = [line for line in lines if not line.startswith("complete ")]
    names = [line.split()[1] for line in lines if line.startswith("code ")]
    return "\n".join(lines) + "\n", names, impossible


@pytest.mark.parametrize("command", ["aut", "certify", "cusp", "cwe", "eisenstein",
                                     "verify-doubling"])
@settings(FUZZ, max_examples=20)
@given(data=st.data())
def test_cli_on_a_drawn_db_with_drawn_flags_keeps_the_exit_code_contract(worker, command, data):
    text, names, impossible = data.draw(drawn_db(command))
    flags = [] if command == "certify" else ARGV[command]  # --file excludes --db
    flags = [flag("--code", choice(names)) if part is CODE else part for part in flags]
    argv = [command] + [x for part in flags for x in data.draw(part)]
    code = worker(argv, text)
    assert code in (0, 1, 2), (argv, text)
    if impossible and command != "eisenstein":  # `--method coset` reads no file
        assert code == (1 if command == "certify" else 2), (argv, text)
