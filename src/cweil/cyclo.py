"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element of Q(zeta_n) is written over the power basis 1, z, ..., z^(phi(n)-1)
of Q[x]/(Phi_n(x)), where z = exp(2*pi*i/n) and Phi_n is the n-th cyclotomic
polynomial.  We store a common positive denominator and a tuple of integer
numerators, always normalised (gcd of denominator and all numerators is 1),
so equality is tuple equality and hashing is free.

All arithmetic is exact.  No floating point appears anywhere in this module
or in anything built on top of it.

The conductor is chosen per run: n = 8 for binary codes (this covers +-1,
+-i and sqrt(2), everything the diagonal and Fourier generators need), and
n = 4p for codes over an odd prime field F_p (covers zeta_p, i, and hence
sqrt(p) via Gauss sums).  Keeping one fixed conductor turns equality into a
vector comparison and avoids any field-embedding logic.

Phi_n itself is computed by iterated exact division of x^n - 1 by Phi_d over
all proper divisors d of n; the recursion bottoms out at Phi_1 = x - 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Rational
from operator import index


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first, as exact integers."""
    if n < 1:
        raise ValueError(f"Phi_n needs n >= 1, got n = {n}")
    # x^n - 1, then strip off Phi_d for every proper divisor d | n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Divide num by monic den in Z[x]; the division must be exact."""
    if den[-1] != 1:
        raise ValueError(f"divisor {den} is not monic")
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ValueError(f"division by {den} leaves remainder {num[: len(den) - 1]}")
    return q


@lru_cache(maxsize=None)
def phi_degree(n: int) -> int:
    """Degree of Phi_n, i.e. Euler's totient of n."""
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k: coordinates of z^k over the power basis, for 0 <= k <= 2*(phi-1).

    Covers every exponent that a product of two reduced elements can produce;
    rows up to n-1 also give the reduction of raw exponent vectors.
    """
    phi = phi_degree(n)
    top = max(2 * phi - 1, n)  # rows 0 .. top-1
    c = cyclotomic_poly(n)  # z^phi = -(c[0] + c[1] z + ... + c[phi-1] z^(phi-1))
    rows: list[tuple[int, ...]] = []
    for k in range(phi):
        rows.append(tuple(1 if j == k else 0 for j in range(phi)))
    for k in range(phi, top):
        prev = rows[k - 1]
        # multiply by z: shift up, then fold the overflow back with Phi_n
        lead = prev[phi - 1]
        shifted = [0] + list(prev[: phi - 1])
        if lead:
            for j in range(phi):
                shifted[j] -= lead * c[j]
        rows.append(tuple(shifted))
    return tuple(rows)


def mul_nums(n: int, a, b) -> list[int]:
    """Power-basis numerators of a*b, for numerator sequences a, b of Q(zeta_n).

    The one cyclotomic multiply: a convolution, then the overflow exponents
    phi .. 2*phi-2 folded back with the power table.  No gcd normalisation.
    """
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for s, x in enumerate(a):
        if x:
            for t, y in enumerate(b):
                if y:
                    conv[s + t] += x * y
    rows = _power_table(n)
    out = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            row = rows[k]
            for u in range(phi):
                out[u] += c * row[u]
    return out


def conj_nums(n: int, a) -> list[int]:
    """Power-basis numerators of conj(a), zeta |-> zeta^(n-1), for numerators a."""
    terms = [(x, _power_table(n)[(n - k) % n]) for k, x in enumerate(a) if x]
    return [sum(x * row[u] for x, row in terms) for u in range(len(a))]


def _gcd_all(den: int, nums: tuple[int, ...]) -> int:
    g = den
    for a in nums:
        g = gcd(g, a)
        if g == 1:
            return 1
    return g


class CycNum:
    """An exact element of Q(zeta_n), canonically reduced.

    Stored as nums/den over the power basis with den > 0 and
    gcd(den, nums) = 1.  Immutable; combine only at equal conductors.
    """

    __slots__ = ("n", "den", "nums")

    def __init__(self, n: int, nums, den: int = 1):
        den = index(den)  # ints only: a float, Fraction or str raises TypeError
        if den == 0:
            raise ZeroDivisionError(f"CycNum with denominator 0 over Q(zeta_{n})")
        phi = phi_degree(n)
        nums = tuple(map(index, nums))
        if len(nums) != phi:
            raise ValueError(f"{len(nums)} numerators for Q(zeta_{n}), whose degree is {phi}")
        if den < 0:
            den, nums = -den, tuple(-a for a in nums)
        g = _gcd_all(den, nums)
        if g > 1:
            den //= g
            nums = tuple(a // g for a in nums)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycNum is immutable")

    # --- constructors -------------------------------------------------

    @staticmethod
    def from_rat(n: int, r) -> "CycNum":
        """The exact rational r (an int, a Fraction, any numbers.Rational) in Q(zeta_n)."""
        if not isinstance(r, Rational):
            raise TypeError(f"CycNum.from_rat needs an exact rational, "
                            f"got {type(r).__name__} {r!r}")
        return CycNum(n, (r.numerator,) + (0,) * (phi_degree(n) - 1), r.denominator)

    @staticmethod
    def zero(n: int) -> "CycNum":
        return CycNum(n, (0,) * phi_degree(n), 1)

    @staticmethod
    def one(n: int) -> "CycNum":
        return CycNum.from_rat(n, 1)

    @staticmethod
    def zeta_pow(n: int, k: int) -> "CycNum":
        """z^k, reduced."""
        return CycNum(n, _power_table(n)[k % n], 1)

    # --- ring structure -----------------------------------------------

    def _check(self, other: "CycNum"):
        if self.n != other.n:
            raise ValueError(f"conductor mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rat(self.n, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        self._check(other)
        da, db = self.den, other.den
        g = gcd(da, db)
        la, lb = db // g, da // g
        return CycNum(
            self.n,
            tuple(a * la + b * lb for a, b in zip(self.nums, other.nums)),
            da * la,
        )

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.n, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycNum(self.n, tuple(a * other for a in self.nums), self.den)
        if isinstance(other, Fraction):
            return CycNum(
                self.n,
                tuple(a * other.numerator for a in self.nums),
                self.den * other.denominator,
            )
        if not isinstance(other, CycNum):
            return NotImplemented
        self._check(other)
        return CycNum(self.n, mul_nums(self.n, self.nums, other.nums),
                      self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return CycNum(self.n, self.nums, self.den * other)
        if isinstance(other, Fraction):
            return self * Fraction(other.denominator, other.numerator)
        raise TypeError("division only by exact rationals; use inv() explicitly")

    def conj(self) -> "CycNum":
        """Complex conjugation zeta |-> zeta^(n-1)."""
        return CycNum(self.n, conj_nums(self.n, self.nums), self.den)

    # --- predicates and views -----------------------------------------

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rat(self.n, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.n, self.den, self.nums))

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        """This element as a Fraction; raises if it is not rational."""
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self!r}")
        return Fraction(self.nums[0], self.den)

    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __repr__(self):
        if self.is_rational():
            return f"CycNum({self.n}, {Fraction(self.nums[0], self.den)})"
        return f"CycNum({self.n}, {self.nums}/{self.den})"


def sqrt_prime_power(p: int, r: int, n: int) -> CycNum:
    """The positive real square root of p**r as an element of Q(zeta_n).

    For p = 2 (needs 8 | n):   sqrt(2) = zeta_8 + zeta_8^(-1).
    For odd p (needs 4p | n):  from the quadratic Gauss sum
    G = sum_t zeta_p^(t^2); G = sqrt(p) if p = 1 mod 4 and i*sqrt(p) if
    p = 3 mod 4, so sqrt(p) = G or -i*G respectively.
    """
    if r < 0:
        raise ValueError(f"sqrt of p**r needs r >= 0, got r = {r}")
    whole = CycNum.from_rat(n, p ** (r // 2))
    if r % 2 == 0:
        return whole
    if p == 2:
        if n % 8:
            raise ValueError(f"conductor {n} lacks zeta_8")
        e = n // 8
        root = CycNum.zeta_pow(n, e) + CycNum.zeta_pow(n, n - e)
    else:
        if n % (4 * p):
            raise ValueError(f"conductor {n} lacks zeta_{4 * p}")
        e = n // p
        g = CycNum.zero(n)
        for t in range(p):
            g = g + CycNum.zeta_pow(n, (t * t % p) * e)
        if p % 4 == 1:
            root = g
        else:
            minus_i = CycNum.zeta_pow(n, 3 * n // 4)
            root = minus_i * g
    return whole * root
