"""Fuzz the database boundary with mutated bundled files.

Two properties of the exit-code contract.  parse_db either returns a
CodeDatabase or raises DbParseError, whatever the text.  Each subcommand
that reads a database, run with --db on a mutated file, exits 0, 1 or 2
and never ends in a traceback.  The mutations are line deletions,
duplications and swaps, token swaps and character edits; a third property
edits the file's bytes, with arbitrary bytes and truncated multi-byte UTF-8
sequences, and writes them in binary.

Every example runs in one worker process under a 1 GB address-space limit,
so that a regression that allocates without bound fails the test instead
of exhausting the machine.  The worker runs `cweil.cli.main` in-process: a
traceback at the command line is exactly an exception escaping `main`.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cweil
from cweil.database import BUNDLED, _bundled_text
from tests.test_cli import _limit_address_space

WORKER = r"""
import contextlib, io, json, sys, traceback
from cweil.cli import main
from cweil.database import DbParseError, CodeDatabase, parse_db

path = sys.argv[1]
for line in sys.stdin:
    argv, text, binary = json.loads(line)
    try:
        if argv is None:
            res = "db" if isinstance(parse_db(text), CodeDatabase) else "other"
        else:
            if binary:
                with open(path, "wb") as fh:
                    fh.write(bytes.fromhex(text))
            else:
                with open(path, "w") as fh:
                    fh.write(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    res = main(argv + ["--db", path])
                except SystemExit as exc:
                    res = exc.code
    except DbParseError:
        res = "refused"
    except Exception:
        res = traceback.format_exc()
    print(json.dumps(res), flush=True)
"""

# The files the CLI property mutates, with the (type, length, field) that the
# commands ask for.  The length-24 file is left to the parse property:
# `certify` recomputes its nine orders, about 1 s each.
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
    """Send (argv, text) to the worker; argv None means parse_db(text), and
    bytes for text are written to the file as they are."""
    path = tmp_path_factory.mktemp("fuzz") / "db.txt"
    src = os.path.dirname(os.path.dirname(cweil.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    with subprocess.Popen([sys.executable, "-c", WORKER, str(path)], env=env, text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          preexec_fn=_limit_address_space) as proc:

        def ask(argv, text):
            binary = isinstance(text, bytes)
            proc.stdin.write(json.dumps([argv, text.hex() if binary else text, binary]) + "\n")
            proc.stdin.flush()
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
