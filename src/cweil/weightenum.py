"""Genus-g complete weight enumerators.

cwe_g(C) = sum over g-tuples (c_1..c_g) of codewords of prod_v x_v^(a_v),
where a_v counts the coordinates i with (c_1[i], ..., c_g[i]) = v.  The
result is homogeneous of degree N in p^g variables with nonnegative integer
coefficients summing to |C|^g.

Binary codes with N <= 64 go to a popcount kernel at genus 1 and 2: at
genus 1 the exponents are (N - wt c, wt c), and at genus 2 every count
follows from wt c_1, wt c_2 and |c_1 AND c_2|.  The genus-2 kernel counts
a little over one pair in eight, with two exact symmetries of C x C:
swapping c_1 and c_2 swaps x_01 and x_10, and when C holds the all-ones
word, as every self-dual binary code does, adding it to c_1 or c_2
permutes the variables.  It counts in blocks, one per pair of weight classes, in Python ints and
bytes: each class is one int with a slot of 1, 2, 4 or 8 bytes per word
(N up to 8, 16, 32, 64), so one AND pairs a word with a whole class, and
one bytes.count per value of |c_1 AND c_2| reads a whole buffer of pairs.
A buffer holds at most BLOCK_BYTES, or one row of a class, so memory
stays O(|C|).
Everything else, genus 0 and genus >= 3 included, runs the definition,
which is also the kernels' oracle.  Genus 0 is the degenerate case: one
empty tuple, cwe_0 = x^N in the single variable.  Both paths refuse more
than BUDGET units of work: N + p^g per tuple for the definition, one per
unordered pair of the words it keeps for the genus-2 kernel.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

from .codes import LinearCode
from .poly import Poly, var_index

# Timed on a 2-core x86-64 VM.  The definition builds, for each of the |C|^g
# tuples, the N columns and the p^g exponents of its monomial, about 1e7
# units a second: e8 at genus 5 (2^20 tuples, 8 + 32 units each) takes
# 4.2 s, and F16 at genus 3 (2^24 tuples) ran past a minute.  The genus-2
# kernel counts one unit per unordered word pair it keeps, about 2.5e7 a
# second: i2^14 (2^25 pairs) takes 1.3 s, and i2^15 (2^27) is refused.
BUDGET = 1 << 26

# The most bytes one buffer of the genus-2 kernel holds, one per word pair.
# Over the nine length-24 codes the kernel takes the same time at 2^16 as at
# 2^18, and `verify-doubling` at (2II, 24, 2) peaks at 17.2 MB, not 18.7 MB.
BLOCK_BYTES = 1 << 16

_POPCOUNT = bytes(i.bit_count() for i in range(256))


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
    # 2^g <= p^g bounds g before p^g or |C|^g is built
    if g >= BUDGET.bit_length() or len(C.words) ** g * (C.n + C.p**g) > BUDGET:
        raise ValueError(f"{len(C.words)}^{g} tuples of length {C.n} in {C.p}^{g} variables "
                         f"exceed the budget {BUDGET}")
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
    n = C.n
    if g == 1:
        counts = {(n - w, w): k for w, k in Counter(map(int.bit_count, C.words)).items()}
    else:
        counts = _genus2_counts(C.words, n)
    return Poly(2, g, n, run_conductor(2), counts)


def _genus2_counts(words, n: int) -> dict:
    """The genus-2 exponent tuples and their counts, from about one pair in eight.

    The pair (c1, c2) has the exponents (n - w1 - w2 + n11, w2 - n11,
    w1 - n11, n11), where w = wt c and n11 = |c1 AND c2|.  The swap
    (c1, c2) -> (c2, c1) is a bijection of C x C that swaps the middle two,
    so a block of two weight classes w1 < w2 is counted in one order and
    adds both, and a block of one class counts every ordered pair of it,
    its diagonal (n - w, 0, 0, w) included.  If C holds the all-ones word 1,
    then C + 1 = C and one word of each {c, c + 1} has bit n-1 clear: C x C
    is the disjoint union of the translates of R x R by (e1 1, e2 1), R the
    words with bit n-1 clear, and the translate by e maps x_v to x_(v+e).

    Each block reads its n11 counts with bytes.count off buffers of one
    byte per word pair: ``big & c1 * rep`` ANDs c1 with every word of the
    second class at once, ``big`` holding the class in slots of sb bytes
    (sb = 1, 2, 4, 8 for n up to 8, 16, 32, 64) and ``rep`` a 1 in each
    slot.  A popcount table turns each byte into its weight, shift-adds
    gather a slot's bytes into its byte 0, and ``[::sb]`` reads those.  A
    slot sums at most n <= 64 popcounts of at most 8 each, so no carry
    leaves a byte.  A buffer holds the rows of a chunk of c1 of the first
    class, at most BLOCK_BYTES or one row, so memory stays O(|C|).
    """
    top = 1 << (n - 1)
    klein = 2 * top - 1 in words
    kept = len(words) >> klein  # |R|, or |C|
    if kept * kept // 2 > BUDGET:
        raise ValueError(f"{kept}^2/2 word pairs exceed the budget {BUDGET}")
    classes: dict[int, list] = {}
    for w in words:
        if not (klein and w & top):
            classes.setdefault(w.bit_count(), []).append(w)
    sb = 1 << ((n - 1) // 8).bit_length()
    shifts = [4 * sb >> k for k in range(sb.bit_length() - 1)]  # half a slot, ..., one byte
    slot = (1).to_bytes(sb, "little")
    packed = [(w, cls, int.from_bytes(b"".join(c.to_bytes(sb, "little") for c in cls), "little"),
               int.from_bytes(slot * len(cls), "little")) for w, cls in sorted(classes.items())]
    bins: Counter = Counter()
    for i, (w1, cls1, _, _) in enumerate(packed):
        for w2, cls2, big, rep in packed[i:]:
            size = len(cls2) * sb
            step = max(1, BLOCK_BYTES // size)
            a = n - w1 - w2
            for s in range(0, len(cls1), step):
                buf = b"".join([(big & c1 * rep).to_bytes(size, "little")
                                for c1 in cls1[s:s + step]]).translate(_POPCOUNT)
                if shifts:
                    x = int.from_bytes(buf, "little")
                    for sh in shifts:
                        x += x >> sh
                    buf = x.to_bytes(len(buf), "little")[::sb]
                for n11 in range(max(0, -a), w1 + 1):
                    if k := buf.count(n11):
                        bins[a + n11, w2 - n11, w1 - n11, n11] += k
                        if w2 != w1:
                            bins[a + n11, w1 - n11, w2 - n11, n11] += k
    if not klein:
        return bins
    counts: Counter = Counter()
    for (a, b, c, d), k in bins.items():
        for key in ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)):
            counts[key] += k
    return counts
