"""Linear codes over prime fields F_p.

A code C <= F_p^N is held by a canonical basis: the reduced row echelon
form of its generator matrix, zero rows dropped.  Equality of codes is
equality of these matrices.  Self-dual means C = C^perp for the standard
pairing sum_i x_i y_i; the four supported type tags are

    2I   binary self-dual                     (p = 2)
    2II  binary doubly-even self-dual         (p = 2, weights = 0 mod 4)
    Q    self-dual over F_p, p odd
    Q1   as Q, with the all-ones word in C

For p = 2 codewords are bit-packed machine integers (bit i = coordinate i)
so the enumeration kernels downstream run on popcounts.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt

TYPES = ("2I", "2II", "Q", "Q1")
WORD_BUDGET = 1 << 26


def is_prime(p: int) -> bool:
    """Trial division; callers bound p so that it stays cheap."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def rref(p: int, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_p; zero rows removed."""
    m = [list(r) for r in rows]
    if not m:
        return ()
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p) if p > 2 else 1
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r] if any(row))


class LinearCode:
    """A linear code with its canonical RREF basis and optional type tag."""

    def __init__(self, p: int, n: int, rows, tag: str | None = None):
        if not (p <= 13 and is_prime(p)):
            raise ValueError(f"field size {p} is not a prime up to 13")
        if tag is not None:
            if tag not in TYPES:
                raise ValueError(f"unknown type {tag!r}; have {TYPES}")
            if (p == 2) != (tag in ("2I", "2II")):
                raise ValueError(f"type {tag} does not go with field {p}")
        self.p = p
        self.n = n
        self.rows = rref(p, rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError(f"a generator row does not have length {n}")
        self.tag = tag

    @property
    def k(self) -> int:
        return len(self.rows)

    @cached_property
    def words(self) -> tuple:
        """All p^k codewords: packed ints for p=2, tuples otherwise."""
        if self.p**self.k > WORD_BUDGET:
            raise ValueError(f"{self.p}^{self.k} codewords exceed the budget {WORD_BUDGET}")
        if self.p == 2:
            packed = [sum(b << i for i, b in enumerate(row)) for row in self.rows]
            words = [0]
            for g in packed:
                words += [w ^ g for w in words]
            return tuple(words)
        words = [(0,) * self.n]
        for row in self.rows:
            new = []
            for a in range(1, self.p):
                scaled = tuple(a * x % self.p for x in row)
                new += [tuple((u + v) % self.p for u, v in zip(w, scaled)) for w in words]
            words += new
        return tuple(words)

    def contains(self, vec) -> bool:
        v = [x % self.p for x in vec]
        for row in self.rows:
            c = next(i for i, x in enumerate(row) if x)
            if v[c]:
                f = v[c]
                v = [(x - f * y) % self.p for x, y in zip(v, row)]
        return not any(v)

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.p, self.n, self.rows) == (other.p, other.n, other.rows)

    def __hash__(self):
        return hash((self.p, self.n, self.rows))

    def __repr__(self):
        return f"LinearCode(p={self.p}, [{self.n},{self.k}], tag={self.tag})"


def row_from_string(s: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in s)


def code_from_rows(p: int, n: int, rows, tag: str | None = None) -> LinearCode:
    """Span of the given rows (digit strings or int sequences), canonicalised."""
    parsed = []
    for r in rows:
        row = row_from_string(r) if isinstance(r, str) else tuple(int(x) for x in r)
        if len(row) != n:
            raise ValueError(f"row length {len(row)} != {n}")
        if any(x < 0 or x >= p for x in row):
            raise ValueError(f"entry out of range for F_{p}: {row}")
        parsed.append(row)
    return LinearCode(p, n, parsed, tag)


def dual_code(C: LinearCode) -> LinearCode:
    """C^perp under sum_i x_i y_i, via the standard parity-check construction."""
    pivots = [next(i for i, x in enumerate(row) if x) for row in C.rows]
    free = [j for j in range(C.n) if j not in pivots]
    rows = []
    for j in free:
        v = [0] * C.n
        v[j] = 1
        for row, c in zip(C.rows, pivots):
            v[c] = (-row[j]) % C.p
        rows.append(tuple(v))
    return LinearCode(C.p, C.n, rows, C.tag)


def weight(word, p: int) -> int:
    if p == 2:
        return word.bit_count()
    return sum(1 for x in word if x)


def check_type(C: LinearCode, tag: str | None = None) -> bool:
    """Self-duality plus the extra condition of the (given or stored) tag."""
    tag = tag or C.tag
    if tag not in TYPES:
        raise ValueError(f"unknown type {tag!r}; have {TYPES}")
    if tag in ("2I", "2II") and C.p != 2:
        return False
    if tag in ("Q", "Q1") and C.p == 2:
        return False
    if dual_code(C).rows != C.rows:
        return False
    if tag == "2II":
        return all(w.bit_count() % 4 == 0 for w in C.words)
    if tag == "Q1":
        return C.contains((1,) * C.n)
    return True


def enumerate_codewords(C: LinearCode):
    """Yield all p^k codewords exactly once."""
    yield from C.words


def weight_distribution(C: LinearCode) -> tuple[int, ...]:
    dist = [0] * (C.n + 1)
    for w in C.words:
        dist[weight(w, C.p)] += 1
    return tuple(dist)


def permute_code(C: LinearCode, sigma) -> LinearCode:
    """The code sigma(C): coordinate i of each word moves to sigma[i]."""
    assert sorted(sigma) == list(range(C.n))
    rows = []
    for row in C.rows:
        new = [0] * C.n
        for i, x in enumerate(row):
            new[sigma[i]] = x
        rows.append(tuple(new))
    return LinearCode(C.p, C.n, rows, C.tag)
