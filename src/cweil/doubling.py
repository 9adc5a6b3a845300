"""The doubling map, Siegel-Weil Eisenstein sums, and scalar verification.

The doubling map splits each genus-2g variable X_(v1,v2) into a product
x_{v1} y_{v2}; on a complete weight enumerator it factors the genus-2g
enumerator as cwe_g(C, x) * cwe_g(C, y).  Pairing the y-side against a
cusp form f then collapses the doubled Eisenstein series to a scalar
multiple of f-bar, and the scalar has a closed form: that identity is what
verify_doubling checks, coefficient by coefficient, with zero residual.

Eisenstein series here are computed the Siegel-Weil way — normalized sums
of enumerators over a complete set of code classes weighted by 1/|Aut| —
because at the lengths of interest the genus-2g closures are far out of
reach while the class lists are tiny.  eisenstein_coset, the orbit average
of the seed over P_g\\C_g, stays available as a cross-oracle where the
Clifford-Weil group order is tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .database import CodeDatabase
from .poly import Poly, conj_poly, inner_product
from .siegelphi import CuspBasis, cusp_basis, phi_op
from .weightenum import cwe


class BipartitePoly:
    """Polynomial in paired variable sets x_v, y_w, both of genus g."""

    __slots__ = ("p", "g", "N", "conductor", "terms")

    def __init__(self, p: int, g: int, N: int, conductor: int, terms: dict):
        self.p, self.g, self.N, self.conductor = p, g, N, conductor
        clean = {}
        for (mx, my), c in terms.items():
            if not c:
                continue
            assert sum(mx) == N and sum(my) == N
            clean[(mx, my)] = c
        self.terms = clean

    def __eq__(self, other):
        if not isinstance(other, BipartitePoly):
            return NotImplemented
        return (self.p, self.g, self.conductor) == (
            other.p,
            other.g,
            other.conductor,
        ) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"BipartitePoly(p={self.p}, g={self.g}, terms={len(self.terms)})"


def dmap(a: Poly) -> BipartitePoly:
    """Split genus-2g variables: X_(v1,v2) -> x_{v1} y_{v2}."""
    if a.g % 2 or a.g < 2:
        raise ValueError("dmap needs an even genus >= 2")
    g = a.g // 2
    d = a.p**g
    out: dict = {}
    for exps, c in a.terms.items():
        mx = [0] * d
        my = [0] * d
        for idx, e in enumerate(exps):
            if e:
                mx[idx // d] += e
                my[idx % d] += e
        key = (tuple(mx), tuple(my))
        s = out.get(key)
        s = c if s is None else s + c
        if s:
            out[key] = s
        else:
            del out[key]
    return BipartitePoly(a.p, g, a.N, a.conductor, out)


def product_bipartite(a: Poly, b: Poly) -> BipartitePoly:
    """a(x) * b(y) as a BipartitePoly — the comparison oracle for dmap."""
    assert (a.p, a.g, a.N, a.conductor) == (b.p, b.g, b.N, b.conductor)
    terms = {}
    for mx, cx in a.terms.items():
        for my, cy in b.terms.items():
            terms[(mx, my)] = cx * cy
    return BipartitePoly(a.p, a.g, a.N, a.conductor, terms)


def _mono_factorial(m) -> int:
    out = 1
    for e in m:
        out *= factorial(e)
    return out


def pair_y(P: BipartitePoly, f: Poly) -> Poly:
    """Inner product in the y variables; conjugate-linear in f."""
    if (f.p, f.g, f.N, f.conductor) != (P.p, P.g, P.N, P.conductor):
        raise ValueError("pair_y shape mismatch")
    out: dict = {}
    fbar = {m: c.conj() for m, c in f.terms.items()}
    for (mx, my), c in P.terms.items():
        fc = fbar.get(my)
        if fc is None:
            continue
        contrib = c * fc * _mono_factorial(my)
        s = out.get(mx)
        s = contrib if s is None else s + contrib
        if s:
            out[mx] = s
        else:
            del out[mx]
    return Poly(P.p, P.g, P.N, P.conductor, out)


# --- Siegel-Weil normalizations and the closed-form constants -----------


def _sw_norm(tag: str, N: int, gexp: int, p: int = 2) -> Fraction:
    """The product normalization b with q^gexp in every factor."""
    if tag == "2I":
        lo, hi = 1, N // 2 - 1
    elif tag in ("2II", "Q1"):
        lo, hi = 0, N // 2 - 2
    else:
        raise ValueError(f"no Siegel-Weil normalization for type {tag}")
    b = Fraction(1)
    for i in range(lo, hi + 1):
        b /= p**gexp + p**i
    return b


def const_b(tag: str, N: int, g: int, p: int = 2) -> Fraction:
    """The basis-problem normalization: the genus-2g Siegel-Weil b."""
    return _sw_norm(tag, N, 2 * g, p)


def const_c(tag: str, N: int, g: int, p: int = 2) -> Fraction:
    """The closed-form scalar c with <D(E_2g), f>_g = c * N! * f-bar.

    A formal closed form: it takes any N, including lengths at which no
    self-dual code of the type exists (|Z| does not divide N).  Checking
    the length is the caller's job; `cweil constants` refuses such lengths.
    """
    if tag == "2I":
        raise ValueError("type 2I has no proven constant; use const_conj")
    if tag == "2II":
        if p != 2:
            raise ValueError(f"type 2II needs field 2, got {p}")
        c = Fraction(2) ** (g * g + 2 * g - N * g // 2)
    elif tag == "Q":
        c = Fraction(p) ** (g * g - N * g // 2)
    elif tag == "Q1":
        c = Fraction(p) ** (g * g + 2 * g - N * g // 2)
    else:
        raise ValueError(tag)
    for i in range(1, g + 1):
        c *= Fraction(p**i - 1, p ** (g + i) + 1)
    return c


def const_conj(N: int, g: int) -> Fraction:
    """The conjectural full scalar c*N! for type 2I (N! included)."""
    c = Fraction(2) ** (2 * g - N * g // 2) * 2 ** (g * g - g) * (2**g - 1)
    for i in range(g, 2 * g):
        c /= 2**i + 1
    return factorial(N) * c


def eisenstein_sw(tag: str, N: int, g: int, db: CodeDatabase, p: int = 2) -> Poly:
    """E_g as b_g * sum over classes of (N!/|Aut|) * cwe_g."""
    recs = db.complete_records(tag, N)
    b = _sw_norm(tag, N, g, p)
    total = None
    for rec in recs:
        coef = b * Fraction(factorial(N), rec.aut)
        term = coef * cwe(rec.code, g)
        total = term if total is None else total + term
    return total


def doubling_pairing_sw(tag: str, N: int, g: int, db: CodeDatabase, f: Poly) -> Poly:
    """<D(E_2g), f>_g computed the Siegel-Weil way over classified codes."""
    if f.N != N or f.g != g:
        raise ValueError("f has the wrong length or genus")
    recs = db.complete_records(tag, N)
    b2 = const_b(tag, N, g, f.p)
    total = Poly.zero(f.p, g, N, f.conductor)
    for rec in recs:
        w = cwe(rec.code, g)
        pairing = inner_product(w, f)
        if pairing:
            total = total + (factorial(N) * b2 * Fraction(1, rec.aut) * pairing) * w
    return total


# --- verification reports ----------------------------------------------


def _factored(n: int) -> str:
    parts = []
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            parts.append(f"{d}^{k}" if k > 1 else str(d))
        d += 1
    if n > 1:
        parts.append(str(n))
    return "*".join(parts) or "1"


def scalar_factorial_form(mu: Fraction, N: int) -> str:
    """Render mu as a multiple of N! with factored cofactor, e.g. 16!/(2^6*3)."""
    q = mu / factorial(N)
    num, den = q.numerator, q.denominator
    head = f"{N}!" if num == 1 else f"{num}*{N}!"
    if den == 1:
        return head
    return f"{head}/({_factored(den)})"


@dataclass(frozen=True)
class FormResult:
    scalar: Fraction
    residual_zero: bool
    theoretical: Fraction

    @property
    def match(self) -> bool:
        return self.residual_zero and self.scalar == self.theoretical


@dataclass(frozen=True)
class VerificationReport:
    tag: str
    N: int
    g: int
    basis: CuspBasis
    forms: tuple[FormResult, ...]
    theoretical: Fraction
    conjectural: bool

    @property
    def match(self) -> bool:
        return all(fr.match for fr in self.forms)

    def to_text(self, factorial_form: bool = False) -> str:
        def render(x: Fraction) -> str:
            return scalar_factorial_form(x, self.N) if factorial_form else str(x)

        status = "conjectural" if self.conjectural else "proven"
        lines = [
            f"doubling verification: type={self.tag} N={self.N} genus={self.g}",
            f"cusp dimension: {self.basis.dimension}",
            f"predicted scalar ({status}): {render(self.theoretical)}",
        ]
        for i, fr in enumerate(self.forms, start=1):
            lines.append(
                f"form {i}: scalar {render(fr.scalar)}, "
                f"residual {'0' if fr.residual_zero else 'NONZERO'}, "
                f"{'match' if fr.match else 'MISMATCH'}"
            )
        lines.append(f"overall: {'MATCH' if self.match else 'MISMATCH'}")
        lines.append("[result]")
        lines.append(f"type={self.tag}")
        lines.append(f"N={self.N}")
        lines.append(f"genus={self.g}")
        lines.append(f"dim={self.basis.dimension}")
        lines.append(f"scalar={self.forms[0].scalar if self.forms else ''}")
        lines.append(
            "scalar-factorial="
            + (scalar_factorial_form(self.forms[0].scalar, self.N) if self.forms else "")
        )
        lines.append(f"match={'yes' if self.match else 'no'}")
        return "\n".join(lines)


def _fit_scalar(pairing: Poly, target: Poly):
    """pairing = mu * target exactly; (mu, residual-is-zero)."""
    if not target:
        raise ValueError("cannot fit against the zero polynomial")
    m = next(iter(sorted(target.terms)))
    num = pairing.terms.get(m)
    mu = num.as_rational() / target.terms[m].as_rational() if num else Fraction(0)
    return mu, not (pairing - mu * target)


def verify_doubling(tag: str, N: int, g: int, db: CodeDatabase) -> VerificationReport:
    recs = db.complete_records(tag, N)
    basis = cusp_basis({r.name: r.code for r in recs}, g)
    if tag == "2I":
        theoretical, conjectural = const_conj(N, g), True
    else:
        theoretical, conjectural = const_c(tag, N, g) * factorial(N), False
    forms = []
    for f in basis.polys:
        pairing = doubling_pairing_sw(tag, N, g, db, f)
        mu, clean = _fit_scalar(pairing, conj_poly(f))
        forms.append(FormResult(mu, clean, theoretical))
    return VerificationReport(tag, N, g, basis, tuple(forms), theoretical, conjectural)


def basis_expansion(f: Poly, tag: str, N: int, g: int, db: CodeDatabase):
    """Cusp form as an explicit combination of class enumerators.

    Returns [(name, coefficient)] with coefficient
    (b/(cN!)) * (N!/|Aut|) * (f, cwe_g)_g, and checks reconstruction.
    """
    if phi_op(f, 1):
        raise ValueError("input is not a cusp form (nonzero Phi image)")
    recs = db.complete_records(tag, N)
    b = const_b(tag, N, g, f.p)
    cfull = const_conj(N, g) if tag == "2I" else const_c(tag, N, g) * factorial(N)
    out = []
    rebuilt = Poly.zero(f.p, g, N, f.conductor)
    for rec in recs:
        w = cwe(rec.code, g)
        coef = (b / cfull) * Fraction(factorial(N), rec.aut) * inner_product(
            f, w
        ).as_rational()
        out.append((rec.name, coef))
        if coef:
            rebuilt = rebuilt + coef * w
    if rebuilt != f:
        raise ValueError("basis expansion failed to reconstruct the input")
    return out
