"""The doubling map, Siegel-Weil Eisenstein sums, and scalar verification.

The doubling map splits each genus-2g variable X_(v1,v2) into a product
x_{v1} y_{v2}; on a complete weight enumerator it factors the genus-2g
enumerator as cwe_g(C, x) * cwe_g(C, y).  Its image, a polynomial in y
with genus-g polynomials in x as coefficients, is held as a dict from
y-monomials to Polys.  Pairing the y-side against a cusp form f then
collapses the doubled Eisenstein series to a scalar multiple of f-bar, and
the scalar has a closed form: that identity is what verify_doubling
checks, coefficient by coefficient, with zero residual.

Eisenstein series here are computed the Siegel-Weil way — normalized sums
of enumerators over a complete set of code classes weighted by 1/|Aut| —
because at the lengths of interest the genus-2g closures are far out of
reach while the class lists are tiny.  eisenstein_coset, the orbit average
of the seed over P_g\\C_g, stays available as a cross-oracle where the
Clifford-Weil group order is tabulated.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import NamedTuple

from .codes import mass_range
from .database import CodeDatabase
from .poly import Poly, combine, conj_poly, inner_product
from .siegelphi import CuspBasis, cusp_basis, phi_op
from .weightenum import cwe


def dmap(a: Poly) -> dict:
    """Split genus-2g variables X_(v1,v2) -> x_{v1} y_{v2}.

    The image lies in C[x] (x) C[y]: it is returned as {y-monomial: the
    genus-g Poly in x that multiplies it}.
    """
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
        terms = out.setdefault(tuple(my), {})
        s = terms.get(tuple(mx))
        terms[tuple(mx)] = c if s is None else s + c
    split = {my: Poly(a.p, g, a.N, a.conductor, terms) for my, terms in out.items()}
    return {my: px for my, px in split.items() if px}


def product_bipartite(a: Poly, b: Poly) -> dict:
    """a(x) * b(y) in the form dmap returns: the comparison oracle for dmap."""
    if (a.p, a.g, a.N, a.conductor) != (b.p, b.g, b.N, b.conductor):
        raise ValueError("product_bipartite needs two polynomials of one shape")
    return {my: cy * a for my, cy in b.terms.items()}


# --- Siegel-Weil normalizations and the closed-form constants -----------


def _sw_norm(tag: str, N: int, gexp: int, p: int = 2) -> Fraction:
    """The product normalization b with q^gexp in every factor."""
    b = Fraction(1)
    for i in mass_range(tag, N):
        b /= p**gexp + p**i
    return b


def const_b(tag: str, N: int, g: int, p: int = 2) -> Fraction:
    """The basis-problem normalization: the genus-2g Siegel-Weil b."""
    return _sw_norm(tag, N, 2 * g, p)


def c_valuation(tag: str, N: int, g: int) -> int:
    """The exponent of p in const_c: c's p-adic valuation, as its other factors are prime to p."""
    return g * g + (0 if tag == "Q" else 2 * g) - N * g // 2


def const_c(tag: str, N: int, g: int, p: int = 2) -> Fraction:
    """The closed-form scalar c with <D(E_2g), f>_g = c * N! * f-bar.

    A formal closed form: it takes any N, including lengths at which no
    self-dual code of the type exists (|Z| does not divide N).  Checking
    the length is the caller's job; `cweil constants` refuses such lengths.
    """
    if tag == "2I":
        raise ValueError("type 2I has no proven constant; use const_conj")
    if tag not in ("2II", "Q", "Q1"):
        raise ValueError(tag)
    if tag == "2II" and p != 2:
        raise ValueError(f"type 2II needs field 2, got {p}")
    c = Fraction(p) ** c_valuation(tag, N, g)
    for i in range(1, g + 1):
        c *= Fraction(p**i - 1, p ** (g + i) + 1)
    return c


def den_factors(tag: str, g: int, p: int = 2) -> list:
    """Numbers of which the denominator of c (of const_conj / N! for 2I)
    divides a product: p and the p^(g+i) + 1, i = 1..g (2 and the 2^i + 1,
    i = g..2g-1, for 2I)."""
    ms = range(g, 2 * g) if tag == "2I" else range(g + 1, 2 * g + 1)
    return [p] + [p**m + 1 for m in ms]


def const_conj(N: int, g: int) -> Fraction:
    """The conjectural full scalar c*N! for type 2I (N! included)."""
    c = Fraction(2) ** (2 * g - N * g // 2) * 2 ** (g * g - g) * (2**g - 1)
    for i in range(g, 2 * g):
        c /= 2**i + 1
    return factorial(N) * c


def predicted_scalar(tag: str, N: int, g: int, recs) -> tuple[Fraction, bool]:
    """The predicted c*N! at the records' field, and whether it is proven.

    Type 2I has no proven constant; its value is the conjectural const_conj.
    """
    if tag == "2I":
        return const_conj(N, g), False
    return const_c(tag, N, g, recs[0].p) * factorial(N), True


def _classes(tag: str, N: int, g: int, db: CodeDatabase) -> list:
    """(name, N!/|Aut C|, cwe_g(C)) for each class C in db.complete_records(tag, N)."""
    return [(rec.name, Fraction(factorial(N), rec.aut), cwe(rec.code, g))
            for rec in db.complete_records(tag, N)]


def eisenstein_sw(tag: str, N: int, g: int, db: CodeDatabase) -> Poly:
    """E_g as b_g * sum over classes of (N!/|Aut|) * cwe_g, at the classes' field."""
    classes = _classes(tag, N, g, db)  # refuses a huge g before b builds p^g
    b = _sw_norm(tag, N, g, classes[0][2].p)
    return combine([(b * m, w) for _, m, w in classes], classes[0][2])


def doubling_pairing_sw(tag: str, N: int, g: int, db: CodeDatabase, f: Poly) -> Poly:
    """<D(E_2g), f>_g computed the Siegel-Weil way over classified codes."""
    if f.N != N or f.g != g:
        raise ValueError("f has the wrong length or genus")
    b2 = const_b(tag, N, g, f.p)
    return combine([(b2 * m * pairing, w) for _, m, w in _classes(tag, N, g, db)
                    if (pairing := inner_product(w, f))], f)


# --- verification reports ----------------------------------------------


# Past trial division below TRIAL_LIMIT, a cofactor is cut by its gcds with
# the known factors and split by Pollard's rho, in RHO_STEPS steps in all.
# Miller-Rabin on MR_BASES proves a part prime below MR_EXACT (Sorenson and
# Webster, Math. Comp. 86, 2017), and a "composite" is always a proof.
TRIAL_LIMIT = 2**16
RHO_STEPS = 2**18
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT = 3_317_044_064_679_887_385_961_981


class FactoringBudgetError(ValueError):
    """A factor that the factoring budget leaves unsplit and unproved."""


def _probable_prime(n: int) -> bool:
    """Miller-Rabin on MR_BASES, for odd n > 41: False means composite."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, steps: int) -> tuple:
    """(a proper factor of the composite n or None, the steps left) by
    Pollard's rho, in at most steps steps."""
    c = 1
    while steps > 0:
        x = y = 2
        f = 1
        while f == 1 and steps > 0:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            f, steps = gcd(x - y, n), steps - 1
        if 1 < f < n:
            return f, steps
        c += 1
    return None, 0


def _factored(n: int, known=()) -> str:
    """n's prime factorisation, as 2^6*3: trial division below TRIAL_LIMIT,
    then the cofactor cut by gcds with the known factors and split by rho.
    Raises FactoringBudgetError on a part that this leaves unresolved."""
    primes: dict = {}
    d = 2
    while d * d <= n and d < TRIAL_LIMIT:
        while n % d == 0:
            n //= d
            primes[d] = primes.get(d, 0) + 1
        d += 1
    parts, steps = [n] if n > 1 else [], RHO_STEPS
    for h in known:
        parts = [y for x in parts for f in [gcd(x, h)] for y in (f, x // f) if y > 1]
    while parts:
        x, f = parts.pop(), None
        maybe = x < d * d or _probable_prime(x)  # no prime below d divides x
        if maybe and x < MR_EXACT:
            primes[x] = primes.get(x, 0) + 1
            continue
        if not maybe:
            f, steps = _rho(x, steps)
        if f:
            parts += [f, x // f]
        else:
            raise FactoringBudgetError(f"a factor of {x.bit_length()} bits that is not "
                                       f"split within the factoring budget")
    return "*".join(f"{q}^{k}" if k > 1 else str(q) for q, k in sorted(primes.items())) or "1"


def scalar_factorial_form(mu: Fraction, N: int, known=()) -> str:
    """Render mu as a multiple of N! with factored cofactor, e.g. 16!/(2^6*3);
    known as for _factored."""
    q = mu / factorial(N)
    num, den = q.numerator, q.denominator
    head = f"{N}!" if num == 1 else f"{num}*{N}!"
    if den == 1:
        return head
    return f"{head}/({_factored(den, known)})"


class FormResult(NamedTuple):
    scalar: Fraction
    residual_zero: bool
    theoretical: Fraction

    @property
    def match(self) -> bool:
        return self.residual_zero and self.scalar == self.theoretical


class VerificationReport(NamedTuple):
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
    return mu, not combine([(1, pairing), (-mu, target)], target)


def verify_doubling(tag: str, N: int, g: int, db: CodeDatabase) -> VerificationReport:
    recs = db.complete_records(tag, N)
    basis = cusp_basis({r.name: r.code for r in recs}, g)
    theoretical, proven = predicted_scalar(tag, N, g, recs)
    forms = []
    for f in basis.polys:
        pairing = doubling_pairing_sw(tag, N, g, db, f)
        mu, clean = _fit_scalar(pairing, conj_poly(f))
        forms.append(FormResult(mu, clean, theoretical))
    return VerificationReport(tag, N, g, basis, tuple(forms), theoretical, not proven)


def basis_expansion(f: Poly, tag: str, N: int, g: int, db: CodeDatabase):
    """Cusp form as an explicit combination of class enumerators.

    Returns [(name, coefficient)] with coefficient
    (b/(cN!)) * (N!/|Aut|) * (f, cwe_g)_g, and checks reconstruction.
    """
    if phi_op(f, 1):
        raise ValueError("input is not a cusp form (nonzero Phi image)")
    classes = _classes(tag, N, g, db)
    scale = const_b(tag, N, g, f.p) / predicted_scalar(tag, N, g, db.complete_records(tag, N))[0]
    out = [(name, scale * m * inner_product(f, w).as_rational(), w) for name, m, w in classes]
    if combine([(coef, w) for _, coef, w in out], f) != f:
        raise ValueError("basis expansion failed to reconstruct the input")
    return [(name, coef) for name, coef, _ in out]
