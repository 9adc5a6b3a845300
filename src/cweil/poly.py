"""Sparse homogeneous polynomials in variables indexed by F_p^g.

A variable x_v, v in F_p^g, is addressed by the base-p encoding of v with
the most significant digit first: v |-> sum_i v_i p^(g-i).  There are p^g
variables; genus 0 is the single-variable ring (the image of the full
Phi-operator).  A monomial is the dense tuple of its p^g exponents, a Poly
maps monomials to nonzero CycNum coefficients, all of one conductor, all of
one total degree.

The hermitian inner product of two such polynomials is
    (a, b) = sum_m coeff_a(m) * conj(coeff_b(m)) * prod_v (m_v)!
and a matrix M acts by substitution x_v <- sum_w M[v][w] x_w.  Acting by
M1 and then by M2 equals acting once by the matrix product M1*M2 (the
associativity test below pins this convention).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod

from .cyclo import CycNum, conj_nums, mul_nums, phi_degree


def var_index(v, p: int) -> int:
    """Encode v in F_p^g as an integer, most significant coordinate first."""
    idx = 0
    for x in v:
        if not 0 <= x < p:
            raise ValueError(f"coordinate {x} of {tuple(v)} is not in 0..{p - 1}")
        idx = idx * p + x
    return idx


def index_vector(idx: int, p: int, g: int) -> tuple[int, ...]:
    v = []
    for _ in range(g):
        v.append(idx % p)
        idx //= p
    return tuple(reversed(v))


class Poly:
    """Homogeneous polynomial of degree N in the p^g variables x_v."""

    __slots__ = ("p", "g", "N", "conductor", "terms")

    def __init__(self, p: int, g: int, N: int, conductor: int, terms: dict):
        self.p = p
        self.g = g
        self.N = N
        self.conductor = conductor
        d = p**g
        clean = {}
        for m, c in terms.items():
            if not isinstance(c, CycNum):
                c = CycNum.from_rat(conductor, c)
            if c.n != conductor or len(m) != d or sum(m) != N:
                raise ValueError(f"the term {m}: {c!r} does not fit {d} variables, "
                                 f"degree {N} and conductor {conductor}")
            if c:
                clean[m] = c
        self.terms = clean

    # --- constructors --------------------------------------------------

    @staticmethod
    def zero(p: int, g: int, N: int, conductor: int) -> "Poly":
        return Poly(p, g, N, conductor, {})

    # --- ring structure ------------------------------------------------

    def _like(self, other: "Poly", degree: bool = False):
        """Refuse other unless p, g, conductor (and N, with degree, if both are nonzero) match."""
        if (self.p, self.g, self.conductor) != (other.p, other.g, other.conductor) or (
                degree and self.N != other.N and self.terms and other.terms):
            raise ValueError(f"{other!r} of conductor {other.conductor} does not match "
                             f"{self!r} of conductor {self.conductor}")

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._like(other)
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    c = c1 * c2
                    s = out.get(m)
                    out[m] = c if s is None else s + c
            return Poly(self.p, self.g, self.N + other.N, self.conductor, out)
        return Poly(
            self.p, self.g, self.N, self.conductor,
            {m: c * other for m, c in self.terms.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.p, self.g, self.conductor) == (other.p, other.g, other.conductor) \
            and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly(p={self.p}, g={self.g}, N={self.N}, {len(self.terms)} terms)"


def mono_factorial(m) -> int:
    """prod_v (m_v)!, the weight of the monomial m in the inner product."""
    return prod(map(factorial, m))


def inner_product(a: Poly, b: Poly) -> CycNum:
    """(a, b) = sum_m a_m * conj(b_m) * prod_v (n_v!), in numerators over one denominator."""
    a._like(b, degree=True)
    n = a.conductor
    small = a.terms if len(a.terms) <= len(b.terms) else b.terms
    den, total = 1, [0] * phi_degree(n)
    for m in small:
        ca = a.terms.get(m)
        cb = b.terms.get(m)
        if ca is None or cb is None:
            continue
        d = ca.den * cb.den
        top = lcm(den, d)
        if top != den:
            total = [x * (top // den) for x in total]
            den = top
        k = top // d * mono_factorial(m)
        if cb.is_rational():  # conj(b_m) = b_m
            k *= cb.nums[0]
            nums = ca.nums
        else:
            nums = mul_nums(n, ca.nums, conj_nums(n, cb.nums))
        for u, x in enumerate(nums):
            total[u] += k * x
    return CycNum(n, total, den)


def combine(pairs, like: Poly) -> Poly:
    """sum_i c_i * a_i over the (c_i, a_i) in pairs, each a_i shaped like `like`.

    The c_i are CycNums or exact rationals.  Each monomial's sum is kept in
    integer numerators over one denominator, and becomes one CycNum at the end.
    """
    n, shape = like.conductor, (like.p, like.g, like.N, like.conductor)
    acc: dict = {}
    for c, a in pairs:
        c = _as_cyc(c, n)
        if (a.p, a.g, a.N, a.conductor, c.n) != shape + (n,):
            raise ValueError(f"{c!r} * {a!r} of conductor {a.conductor} does not match "
                             f"{like!r} of conductor {n}")
        scalar = c.nums[0] if c.is_rational() else None
        for m, t in a.terms.items():
            nums = mul_nums(n, c.nums, t.nums) if scalar is None else [scalar * x for x in t.nums]
            den = c.den * t.den
            old = acc.get(m)
            if old is not None:
                top = lcm(old[0], den)
                nums = [x * (top // old[0]) + y * (top // den) for x, y in zip(old[1], nums)]
                den = top
            acc[m] = den, nums
    return Poly(*shape, {m: CycNum(n, nums, den) for m, (den, nums) in acc.items()})


def apply_operator(a: Poly, mat) -> Poly:
    """Substitute x_v <- sum_w mat[v][w] * x_w and expand exactly.

    `mat` is any p^g x p^g nested sequence of CycNum (or exact rationals).
    Image powers are memoised per variable, so repeated exponents are free.
    """
    d = a.p**a.g
    rows = [[_as_cyc(x, a.conductor) for x in row] for row in mat]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError(f"the substituted matrix is not {d} x {d}")
    images = []
    for v in range(d):
        images.append(
            Poly(a.p, a.g, 1, a.conductor,
                 {tuple(1 if i == w else 0 for i in range(d)): rows[v][w]
                  for w in range(d) if rows[v][w]})
        )
    pow_cache: list[dict[int, Poly]] = [dict() for _ in range(d)]

    def img_pow(v: int, e: int) -> Poly:
        got = pow_cache[v].get(e)
        if got is None:
            got = images[v] if e == 1 else img_pow(v, e - 1) * images[v]
            pow_cache[v][e] = got
        return got

    def image(m) -> Poly:
        piece = None
        for v, e in enumerate(m):
            if e:
                piece = img_pow(v, e) if piece is None else piece * img_pow(v, e)
        if piece is None:  # constant monomial (N = 0)
            piece = Poly(a.p, a.g, 0, a.conductor, {(0,) * d: 1})
        return piece

    pieces = ((c, image(m)) for m, c in a.terms.items())
    return combine(pieces, Poly.zero(a.p, a.g, a.N, a.conductor))


def _as_cyc(x, conductor: int) -> CycNum:
    return x if isinstance(x, CycNum) else CycNum.from_rat(conductor, x)


def conj_poly(a: Poly) -> Poly:
    return Poly(a.p, a.g, a.N, a.conductor, {m: c.conj() for m, c in a.terms.items()})


def tuple_profile(a: Poly) -> dict[tuple, CycNum]:
    """Coefficients keyed by the sorted nonzero exponent tuple.

    The symmetrised table notation: every monomial whose exponent multiset is
    a permutation of the tuple must carry the same coefficient (checked).
    """
    out: dict[tuple, CycNum] = {}
    for m, c in a.terms.items():
        key = tuple(sorted((e for e in m if e), reverse=True))
        prev = out.get(key)
        if prev is None:
            out[key] = c
        elif prev != c:
            raise ValueError(f"coefficients differ on the orbit of {key}")
    return out


def serialize_poly(a: Poly) -> str:
    lines = [f"poly p={a.p} g={a.g} N={a.N} conductor={a.conductor}"]
    for m in sorted(a.terms):
        coeff = " ".join(str(x) for x in a.terms[m].coeffs())
        lines.append(f"{' '.join(map(str, m))} | {coeff}")
    return "\n".join(lines) + "\n"


def parse_poly(text: str) -> Poly:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = dict(kv.split("=") for kv in lines[0].split()[1:])
    p, g, N, n = (int(head[k]) for k in ("p", "g", "N", "conductor"))
    terms = {}
    for ln in lines[1:]:
        left, right = ln.split("|")
        m = tuple(int(x) for x in left.split())
        fracs = [Fraction(x) for x in right.split()]
        den = lcm(*(f.denominator for f in fracs))
        nums = tuple(int(f * den) for f in fracs)
        terms[m] = CycNum(n, nums, den)
    return Poly(p, g, N, n, terms)
