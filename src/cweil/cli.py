"""Command-line driver: enumerators, groups, cusp bases, verification.

Exit codes: 0 success (and verification match), 1 verification mismatch or
failed structure check, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction
from math import factorial

from .autgroup import aut_order
from .cliffordweil import (
    ClosureError,
    center_order,
    eisenstein_coset,
    generators,
    group_closure,
    parabolic_closure,
    predicted_orders,
)
from .codes import TYPES, field_fits, is_prime
from .database import (
    BUNDLED,
    CodeDatabase,
    DbParseError,
    _bundled_text,
    bundled_index,
    load_bundled,
    parse_db,
)
from .doubling import (
    basis_expansion,
    const_b,
    const_c,
    const_conj,
    dmap,
    eisenstein_sw,
    product_bipartite,
    scalar_factorial_form,
    verify_doubling,
)
from .poly import Poly, inner_product, serialize_poly, tuple_profile
from .siegelphi import cusp_basis, lift_op_w, phi_op, phi_op_w
from .weightenum import cwe, run_conductor


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read database {path!r}: {exc}")


def _read_db(path: str) -> CodeDatabase:
    text = _read_text(path)
    try:
        return parse_db(text)
    except (DbParseError, ValueError) as exc:
        raise CliError(f"{path}: {exc}")


def _db_for(args, tag: str, n: int) -> CodeDatabase:
    """The --db file if given, else the bundled dataset covering (tag, n)."""
    if getattr(args, "db", None):
        return _read_db(args.db)
    fname = bundled_index()[1].get((tag, n))
    if fname is None:
        raise CliError(f"no bundled dataset covers type {tag} length {n}; use --db")
    return load_bundled(fname)


def _find_code(args):
    if args.db:
        return _read_db(args.db)[args.code]
    fname = bundled_index()[0].get(args.code)
    if fname is None:
        raise CliError(f"no bundled code named {args.code!r}; use --db")
    return load_bundled(fname)[args.code]


def _check_genus(g: int, least: int) -> None:
    if g < least:
        raise CliError(f"--genus must be at least {least}, got {g}")


def _check_field(tag: str, p: int) -> None:
    if not field_fits(tag, p):
        raise CliError(f"type {tag} does not go with --field {p}")
    # bounded, so that trial division stays under 2^16 steps
    if p >= 2**32 or not is_prime(p):
        raise CliError(f"--field must be a prime below 2^32, got {p}")


# --- subcommands --------------------------------------------------------


def cmd_cwe(args) -> int:
    _check_genus(args.genus, 0)
    rec = _find_code(args)
    try:
        f = cwe(rec.code, args.genus)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.tuples:
        print(f"cwe type={rec.tag} code={rec.name} N={rec.n} genus={args.genus}")
        for m, c in sorted(tuple_profile(f).items()):
            print(f"  {m}: {c.as_rational()}")
    else:
        sys.stdout.write(serialize_poly(f))
    return 0


def cmd_cusp(args) -> int:
    _check_genus(args.genus, 1)
    db = _db_for(args, args.type, args.length)
    recs = db.matching(args.type, args.length)
    if not recs:
        raise CliError(f"no codes of type {args.type} length {args.length}")
    try:
        basis = cusp_basis({r.name: r.code for r in recs}, args.genus)
    except ValueError as exc:
        raise CliError(str(exc))
    print(basis.to_text(include_polys=args.polys))
    return 0


def cmd_verify_doubling(args) -> int:
    _check_genus(args.genus, 1)
    db = _db_for(args, args.type, args.length)
    try:
        rep = verify_doubling(args.type, args.length, args.genus, db)
    except ValueError as exc:
        raise CliError(str(exc))
    print(rep.to_text(factorial_form=args.factorial))
    return 0 if rep.match else 1


def cmd_eisenstein(args) -> int:
    tag, N, g, p = args.type, args.length, args.genus, args.field
    if not args.compare and args.method is None:
        raise CliError("choose --method coset|siegel-weil (or --compare)")
    _check_genus(g, 0)
    _check_field(tag, p)

    def by_coset():
        return eisenstein_coset(tag, g, N, p)

    def by_sw():
        db = _db_for(args, tag, N)
        return eisenstein_sw(tag, N, g, db, p)

    try:
        if not args.compare:
            E = by_coset() if args.method == "coset" else by_sw()
            sys.stdout.write(serialize_poly(E))
            return 0
        Ec, Es = by_coset(), by_sw()
    except ValueError as exc:
        raise CliError(str(exc))
    if Ec == Es:
        print(f"type={tag} N={N} genus={g}: coset and mass-formula averages agree")
        print("ratio: 1")
        return 0
    m = next(iter(sorted(Es.terms)), None)
    if m is not None and m in Ec.terms:
        ratio = Ec.terms[m].as_rational() / Es.terms[m].as_rational()
        print(f"MISMATCH: leading-coefficient ratio {ratio}")
    else:
        print("MISMATCH: averages differ in support")
    return 1


def cmd_constants(args) -> int:
    tag, N, g, p = args.type, args.length, args.genus, args.field
    _check_genus(g, 0)
    _check_field(tag, p)
    if N < 0 or N % center_order(tag, p):
        raise CliError(f"--length {N} is not a nonnegative multiple of "
                       f"|Z| = {center_order(tag, p)} for type {tag}")

    def render(x: Fraction) -> str:
        return scalar_factorial_form(x, N) if args.factorial else str(x)

    print(f"type={tag} N={N} genus={g} field={p}")
    if tag == "2I":
        print("c: unproven for this type; conjectural value below")
    else:
        c = const_c(tag, N, g, p)
        print(f"c = {c}")
        print(f"c*N! = {render(c * factorial(N))}")
    try:
        print(f"b = {const_b(tag, N, g, p)}")
    except ValueError:
        print("b: no mass-formula normalization for this type")
    if tag == "2I" and p == 2:
        print(f"conjecture c*N! = {render(const_conj(N, g))}")
    return 0


def cmd_group(args) -> int:
    tag, g, p = args.type, args.genus, args.field
    _check_genus(g, 1)
    try:
        G = group_closure(tag, g, p)
        P = parabolic_closure(tag, g, p)
    except ClosureError as exc:  # a failed structure check, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise CliError(str(exc))
    # both closures are certified against their predicted orders
    order, parabolic = predicted_orders(tag, g, p)
    print(f"type={tag} genus={g} field={p}")
    print(f"group order: {G.order}")
    print(f"center order: {center_order(tag, p)}")
    print(f"predicted order: {order} (match)")
    print(f"parabolic order: {P.order}")
    print(f"coset index: {G.order // P.order}")
    print(f"predicted parabolic: {parabolic} (match)")
    return 0


def cmd_aut(args) -> int:
    rec = _find_code(args)
    order = rec.aut
    if order is None or args.recompute:
        try:
            order = aut_order(rec.code)
        except ValueError as exc:
            raise CliError(str(exc))
    print(f"aut {rec.name} = {order}")
    return 0


def cmd_certify(args) -> int:
    if args.db:
        sources = [(args.db, _read_text(args.db))]
    else:
        names = [args.file] if args.file else BUNDLED
        try:
            sources = [(name, _bundled_text(name)) for name in names]
        except ValueError as exc:
            raise CliError(str(exc))
    failures = 0
    for label, text in sources:
        # every check at every length: no digest shortcut, no length cutoff
        try:
            db = parse_db(text, verify_aut=math.inf)
        except ValueError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
            continue
        orders = sum(r.aut is not None for r in db.records)
        print(f"ok   {label}: {len(db.records)} records, "
              f"{orders} aut orders recomputed")
    print(f"certify: {'all checks passed' if not failures else f'{failures} FAILED'}")
    return 0 if failures == 0 else 1


# --- the selftest property suite ---------------------------------------


def _random_poly(rng, p, g, N, n):
    d = p**g
    terms = {}
    for _ in range(4):
        exps = [0] * d
        for _ in range(N):
            exps[rng.randrange(d)] += 1
        terms[tuple(exps)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Poly(p, g, N, n, terms)


def _selftest_checks():
    rng = random.Random(20240816)
    n2, n3 = run_conductor(2), run_conductor(3)

    def check_unitarity():
        for tag, g, p in [("2I", 1, 2), ("2I", 2, 2), ("2II", 1, 2),
                          ("2II", 2, 2), ("Q", 1, 3), ("Q1", 1, 3)]:
            if not all(op.is_unitary() for op in generators(tag, g, p, reduced=False)):
                return False
        return True

    def check_invariance():
        for tag, g, p, n in [("2I", 1, 2, n2), ("2II", 1, 2, n2), ("Q", 1, 3, n3)]:
            G = group_closure(tag, g, p)
            sample = [G[rng.randrange(G.order)] for _ in range(4)]
            for op in sample:
                a = _random_poly(rng, p, g, 6, n)
                b = _random_poly(rng, p, g, 6, n)
                if inner_product(op.apply(a), op.apply(b)) != inner_product(a, b):
                    return False
        return True

    def check_section():
        for p, n in ((2, n2), (3, n3)):
            for w in range(p):
                f = _random_poly(rng, p, 1, 5, n)
                if phi_op_w(lift_op_w(f, 1, (w,)), 1, (w,)) != f:
                    return False
        return True

    def check_adjoint():
        for p, n in ((2, n2), (3, n3)):
            for w in range(p):
                a = _random_poly(rng, p, 2, 5, n)
                q = _random_poly(rng, p, 1, 5, n)
                lhs = inner_product(lift_op_w(q, 1, (w,)), a)
                rhs = inner_product(q, phi_op_w(a, 1, (w,)))
                if lhs != rhs:
                    return False
        return True

    def _small_codes():
        out = []
        for name in BUNDLED:
            for rec in load_bundled(name).records:
                if rec.n <= 16:
                    out.append(rec)
        return out

    def check_phi_cwe():
        for rec in _small_codes():
            if phi_op(cwe(rec.code, 2), 1) != cwe(rec.code, 1):
                return False
            if phi_op(cwe(rec.code, 1), 1) != cwe(rec.code, 0):
                return False
        return True

    def _cusp_bases():
        db = load_bundled("codes_2i_n16")
        codes = {r.name: r.code for r in db.records}
        return db, [cusp_basis(codes, 1), cusp_basis(codes, 2)]

    def check_phi_kills_cusp():
        _, bases = _cusp_bases()
        for basis in bases:
            for f in basis.polys:
                for j in range(1, basis.g + 1):
                    for widx in range(2**j):
                        w = tuple((widx >> k) & 1 for k in range(j))
                        if phi_op_w(f, j, w):
                            return False
        return True

    def check_split_factorizes():
        for rec in _small_codes():
            if dmap(cwe(rec.code, 2)) != product_bipartite(
                cwe(rec.code, 1), cwe(rec.code, 1)
            ):
                return False
        return True

    def check_expansion():
        db, bases = _cusp_bases()
        for basis in bases:
            for f in basis.polys:
                if not basis_expansion(f, "2I", 16, basis.g, db):
                    return False
        db24 = load_bundled("codes_2ii_n24")
        f24 = cusp_basis({r.name: r.code for r in db24.records}, 1).polys[0]
        return bool(basis_expansion(f24, "2II", 24, 1, db24))

    return [
        ("generator unitarity at genus <= 2", check_unitarity),
        ("inner-product invariance under group elements", check_invariance),
        ("phi after lift is the identity", check_section),
        ("lift is adjoint to phi", check_adjoint),
        ("phi maps cwe_g to cwe_(g-1)", check_phi_cwe),
        ("every phi component annihilates bundled cusp forms", check_phi_kills_cusp),
        ("splitting map factorizes code enumerators", check_split_factorizes),
        ("basis expansion reconstructs bundled cusp forms", check_expansion),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for label, check in _selftest_checks():
        ok = check()
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    print(f"selftest: {'all checks passed' if not failures else f'{failures} FAILED'}")
    return 0 if failures == 0 else 1


# --- argument parsing ---------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cweil",
        description="exact weight-enumerator computations for self-dual codes",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    def type_length_genus(sp):
        sp.add_argument("--type", required=True, choices=TYPES)
        sp.add_argument("--length", type=int, required=True)
        sp.add_argument("--genus", type=int, required=True)

    sp = add("cwe", cmd_cwe, help="complete weight enumerator of a code")
    sp.add_argument("--db", help="database file (default: bundled datasets)")
    sp.add_argument("--code", required=True, help="code name")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--tuples", action="store_true", help="print the tuple profile")

    sp = add("cusp", cmd_cusp, help="basis of the cusp space spanned by enumerators")
    sp.add_argument("--db")
    type_length_genus(sp)
    sp.add_argument("--polys", action="store_true", help="include full polynomials")

    sp = add("verify-doubling", cmd_verify_doubling,
             help="pair the doubled average against each cusp form")
    sp.add_argument("--db")
    type_length_genus(sp)
    sp.add_argument("--factorial", action="store_true",
                    help="render scalars as factorial products")

    sp = add("eisenstein", cmd_eisenstein,
             help="averaged invariant polynomial, by coset sum or mass formula")
    sp.add_argument("--db")
    type_length_genus(sp)
    sp.add_argument("--field", type=int, default=2)
    sp.add_argument("--method", choices=["coset", "siegel-weil"])
    sp.add_argument("--compare", action="store_true",
                    help="run both methods and report the ratio")

    sp = add("constants", cmd_constants, help="closed-form scalars as exact fractions")
    type_length_genus(sp)
    sp.add_argument("--field", type=int, default=2)
    sp.add_argument("--factorial", action="store_true")

    sp = add("group", cmd_group, help="group closure order and structure check")
    sp.add_argument("--type", required=True, choices=TYPES)
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--field", type=int, default=2)
    sp.add_argument("--parabolic", action="store_true",
                    help="no effect: the parabolic subgroup is always closed; "
                         "kept for compatibility")

    sp = add("aut", cmd_aut, help="automorphism group order of a code")
    sp.add_argument("--db")
    sp.add_argument("--code", required=True)
    sp.add_argument("--recompute", action="store_true",
                    help="ignore any recorded order and recompute")

    sp = add("certify", cmd_certify,
             help="recheck a database at every length: aut orders, mass "
                  "identity, type checks")
    src = sp.add_mutually_exclusive_group()
    src.add_argument("--file",
                     help="one bundled dataset (default: all of them)")
    src.add_argument("--db", help="a database file instead of the bundled data")

    add("selftest", cmd_selftest, help="run the structural property suite")
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: no such code {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
