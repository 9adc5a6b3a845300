"""Siegel Phi-operators on enumerator polynomials, and cusp spaces.

Phi_{g,j} kills every variable whose last j index coordinates are nonzero
and truncates the rest; its twisted sibling Phi^(w) keeps the variables
whose tail equals a chosen vector w.  Both are ring homomorphisms, so on a
monomial they either kill it or strip the tails off its variables.  The
lifts go the other way, appending a fixed tail.

Cusp forms at genus g are the combinations of complete weight enumerators
annihilated by Phi_{g,1}.  cusp_basis finds them with one exact rational
elimination, the reduced row echelon form _rref.  The kernel of the
Phi-image matrix is read off its RREF, and so are the combinations that are
already zero as polynomials (enumerators of distinct codes need not be
independent — two of the length-16 classes share their genus-2 enumerator).
Each kernel vector is then reduced against the RREF of the zero combinations
and of the residuals kept so far.  A vector reduced modulo a span until it
vanishes at the span's pivot columns is unique, so the residuals do not
depend on how the span was echeloned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .poly import Poly, combine, serialize_poly, var_index
from .weightenum import cwe


def phi_op(a: Poly, j: int = 1) -> Poly:
    """Phi_{g,j}: drop the last j coordinates, killing nonzero tails."""
    return phi_op_w(a, j, (0,) * j)


def phi_op_w(a: Poly, j: int, w) -> Poly:
    """The w-twisted truncation: keep variables whose tail is exactly w."""
    if not 1 <= j <= a.g:
        raise ValueError(f"j = {j} out of range for genus {a.g}")
    w = tuple(int(x) % a.p for x in w)
    if len(w) != j:
        raise ValueError(f"the tail {w} does not have j = {j} coordinates")
    pj = a.p**j
    widx = var_index(w, a.p)
    d_new = a.p ** (a.g - j)
    out: dict = {}
    for exps, c in a.terms.items():
        new = [0] * d_new
        for idx, e in enumerate(exps):
            if not e:
                continue
            if idx % pj != widx:
                break
            new[idx // pj] += e
        else:  # idx -> idx // pj is one-to-one on idx = widx mod pj: no key repeats
            out[tuple(new)] = c
    return Poly(a.p, a.g - j, a.N, a.conductor, out)


def lift_op_w(a: Poly, j: int, w) -> Poly:
    """Re-embed by appending the tail w to every variable: w = 0 gives
    phi_{g,j}, the right inverse of Phi_{g,j}."""
    w = tuple(int(x) % a.p for x in w)
    if len(w) != j:
        raise ValueError(f"the tail {w} does not have j = {j} coordinates")
    pj = a.p**j
    widx = var_index(w, a.p)
    d_new = a.p ** (a.g + j)
    out = {}
    for exps, c in a.terms.items():
        new = [0] * d_new
        for idx, e in enumerate(exps):
            if e:
                new[idx * pj + widx] = e
        out[tuple(new)] = c
    return Poly(a.p, a.g + j, a.N, a.conductor, out)


# --- exact rational linear algebra --------------------------------------


def _rref(rows: list[list]) -> list[int]:
    """In-place reduced row echelon form of rational rows; returns the pivot column list.

    Fraction-free Gauss-Jordan on rows cleared to integers, each divided by
    its gcd after every update; the pivot rows become Fractions at the end.
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top, a = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r and row[c]:
                f = row[c]
                new = [a * x - f * y for x, y in zip(row, top)]
                d = gcd(*new)
                m[i] = [x // d for x in new] if d > 1 else new
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    rows[:] = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return pivots


def _reduce(vec, rows, pivots) -> list[Fraction]:
    """vec minus the combination of RREF rows that zeroes it at their pivots."""
    v = list(vec)
    for row, pc in zip(rows, pivots):
        if v[pc]:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column, read off the RREF."""
    pivots = _rref(rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(c == fc) for c in range(ncols)]
            for row, pc in zip(rows, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    return basis


def _primitive(vec) -> tuple[Fraction, ...]:
    """Scale to coprime integers with positive leading entry."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


# --- cusp spaces --------------------------------------------------------


class CuspBasis(NamedTuple):
    tag: str
    N: int
    g: int
    code_names: tuple[str, ...]
    combos: tuple[tuple[Fraction, ...], ...]
    polys: tuple[Poly, ...]

    @property
    def dimension(self) -> int:
        return len(self.polys)

    def to_text(self, include_polys: bool = False) -> str:
        lines = [
            f"cusp-basis type={self.tag} N={self.N} genus={self.g} "
            f"dim={self.dimension}"
        ]
        for combo in self.combos:
            parts = [
                f"{c}*[{name}]" for name, c in zip(self.code_names, combo) if c
            ]
            lines.append("  " + " + ".join(parts).replace("+ -", "- "))
        if include_polys:
            for poly in self.polys:
                lines.append(serialize_poly(poly))
        return "\n".join(lines)


def _coeff_rows(polys: list[Poly], monomials) -> list[list[int]]:
    """Matrix with one row per monomial, one column per polynomial, each row
    scaled to integers by the lcm of its denominators."""
    rows = []
    for m in monomials:
        cs = [poly.terms.get(m) for poly in polys]
        if any(c is not None and not c.is_rational() for c in cs):
            raise ValueError(f"a coefficient of the monomial {m} is not rational")
        den = lcm(*(c.den for c in cs if c is not None))
        rows.append([c.nums[0] * (den // c.den) if c is not None else 0 for c in cs])
    return rows


def cusp_basis(codes, g: int) -> CuspBasis:
    """Basis of {f in span(cwe_g(C_i)) : Phi_{g,1}(f) = 0, f != 0}.

    `codes` maps each code's name to the code.  The returned combos are
    primitive integer vectors, in the mapping's order.
    """
    names, codes = list(codes), list(codes.values())
    if len({(C.p, C.n, C.tag) for C in codes}) != 1:
        raise ValueError("cusp_basis needs codes of one field, length and type")
    N = codes[0].n

    enums = [cwe(C, g) for C in codes]
    images = [phi_op(e, 1) for e in enums]
    img_monos = sorted(set().union(*[set(e.terms) for e in images]))
    kernel = _nullspace(_coeff_rows(images, img_monos), len(codes))

    # the combinations that are already zero as polynomials span the start
    full_monos = sorted(set().union(*[set(e.terms) for e in enums]))
    span = _nullspace(_coeff_rows(enums, full_monos), len(codes))
    pivots = _rref(span)
    combos = []
    for v in kernel:
        resid = _reduce(v, span, pivots)
        if any(resid):
            combos.append(_primitive(resid))
            span.append(resid)
            pivots = _rref(span)

    polys = []
    for combo in combos:
        f = combine(zip(combo, enums), enums[0])
        if not f or phi_op(f, 1):
            raise ValueError(f"combo {combo} is not a nonzero cusp form")
        polys.append(f)
    return CuspBasis(
        codes[0].tag or "", N, g, tuple(names), tuple(combos), tuple(polys)
    )
