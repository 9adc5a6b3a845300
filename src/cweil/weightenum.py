"""Genus-g complete weight enumerators.

cwe_g(C) = sum over g-tuples (c_1..c_g) of codewords of prod_v x_v^(a_v),
where a_v counts the coordinates i with (c_1[i], ..., c_g[i]) = v.  The
result is homogeneous of degree N in p^g variables with nonnegative integer
coefficients summing to |C|^g.

Binary codes with N <= 64 go to a popcount kernel at genus 1 and 2: at
genus 1 the exponents are (N - wt c, wt c), and at genus 2 every count
follows from wt c_1, wt c_2 and |c_1 AND c_2|, so that kernel is one numpy
histogram over those triples.  Everything else, genus 0 and genus >= 3
included, runs the definition, which is also the kernels' oracle.  Genus 0
is the degenerate case: one empty tuple, cwe_0 = x^N in the single
variable.  Both paths refuse more than DEFAULT_BUDGET tuples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ._lazy import lazy_import
from .codes import LinearCode
from .poly import Poly, var_index

np = lazy_import("numpy")

DEFAULT_BUDGET = 1 << 32
# pairs per block of the genus-2 kernel: 256 KB per int64 temporary
PAIR_CHUNK = 1 << 15


def run_conductor(p: int) -> int:
    """The cyclotomic conductor used for everything at characteristic p."""
    return 8 if p == 2 else 4 * p


@lru_cache(maxsize=256)
def cwe(C: LinearCode, g: int) -> Poly:
    """The genus-g complete weight enumerator of C."""
    if C.p == 2 and C.n <= 64 and g in (1, 2):
        return cwe_binary_fast(C, g)
    return cwe_generic(C, g)


def cwe_generic(C: LinearCode, g: int) -> Poly:
    """Definition-level path: loop over tuples, count vector occurrences."""
    if len(C.words) ** g > DEFAULT_BUDGET:
        raise ValueError(f"{len(C.words)}^{g} tuples exceed the budget {DEFAULT_BUDGET}")
    p, n, d = C.p, C.n, C.p**g
    # each codeword as its tuple of coordinates (unpacked once for p = 2)
    vecs = [tuple((w >> i) & 1 for i in range(n)) if p == 2 else w for w in C.words]
    counts: dict[tuple, int] = {}
    for tup in product(vecs, repeat=g):
        exps = [0] * d
        for col in zip(*tup) if g else [()] * n:  # g = 0: n empty columns
            exps[var_index(col, p)] += 1
        key = tuple(exps)
        counts[key] = counts.get(key, 0) + 1
    return Poly(p, g, n, run_conductor(p), counts)


def cwe_binary_fast(C: LinearCode, g: int) -> Poly:
    """Popcount kernel for p = 2, N <= 64, g = 1 or 2; output identical to cwe_generic."""
    if C.p != 2 or C.n > 64 or g not in (1, 2):
        raise ValueError(f"the popcount kernel needs p = 2, N <= 64 and g = 1 or 2, "
                         f"got p = {C.p}, N = {C.n}, g = {g}")
    if len(C.words) ** g > DEFAULT_BUDGET:
        raise ValueError(f"{len(C.words)}^{g} tuples exceed the budget {DEFAULT_BUDGET}")
    n = C.n
    counts: dict[tuple, int] = {}
    if g == 1:
        for w in C.words:
            k = w.bit_count()
            key = (n - k, k)
            counts[key] = counts.get(key, 0) + 1
    else:
        counts = _genus2_counts(C.words, n)
    return Poly(2, g, n, run_conductor(2), counts)


def _genus2_counts(words, n: int) -> dict:
    """The genus-2 exponent tuples and their counts, from one histogram.

    Each ordered pair (c1, c2) falls into the bin (wt c1, wt c2, n11) of
    (n+1)^3, where n11 = |c1 AND c2|; a bin gives the exponents
    (n - wt c1 - wt c2 + n11, wt c2 - n11, wt c1 - n11, n11).  Popcounts go
    through a byte table (numpy's bitwise_count needs numpy 2), and the bins
    are filled by bincount a block of rows at a time, so that the
    temporaries stay near PAIR_CHUNK entries at any |C|.
    """
    pop8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
    w = np.array(words, dtype=np.min_scalar_type((1 << n) - 1))

    def popcount(a):  # uint8 holds any count up to 64
        return pop8[a.view(np.uint8)].reshape(a.shape + (-1,)).sum(-1, dtype=np.uint8)

    wt = popcount(w).astype(np.int64)
    m, b = len(words), n + 1
    left, right = wt * (b * b), wt * b
    hist = np.zeros(b**3, dtype=np.int64)
    step = max(1, PAIR_CHUNK // m)
    for i in range(0, m, step):
        bins = left[i:i + step, None] + right
        bins += popcount(w[i:i + step, None] & w)
        hist += np.bincount(bins.ravel(), minlength=b**3)
    counts = {}
    nonzero = np.flatnonzero(hist)
    for k, count in zip(nonzero.tolist(), hist[nonzero].tolist()):
        w1, rest = divmod(k, b * b)
        w2, n11 = divmod(rest, b)
        counts[(n - w1 - w2 + n11, w2 - n11, w1 - n11, n11)] = count
    return counts
