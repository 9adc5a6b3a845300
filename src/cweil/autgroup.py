"""Automorphism groups of binary codes: Aut(C) = {sigma in S_N : sigma(C) = C}.

Exact order computation by orbit-stabilizer counting over the chain of
pointwise column stabilizers, walked from the last level to the first so
that every automorphism already found helps grow the orbits above it (the
reuse of found automorphisms in McKay and Piperno, "Practical graph
isomorphism, II", 2014).  Each orbit question "is there sigma in Aut(C)
fixing 0..l-1 with sigma(l) = t" that those orbits do not already answer
goes to a backtracking search over column bijections, pruned by
simultaneous partition refinement of columns and codewords on both sides of
the would-be bijection (Leon, "Computing automorphism groups of
error-correcting codes", IEEE Trans. IT 28, 1982; the individualization-
refinement scheme on the column/codeword incidence).

Colours are canonicalised each round by ranking the rows (old colour,
colour histogram) of both sides jointly, so the domain and codomain
partitions stay comparable; any histogram mismatch prunes the branch.  At a
discrete partition the candidate permutation is read off and verified
against the code itself.

The incidence is built from the lightest whole weight classes of C that
span C together with the all-ones word: an Aut-invariant set, so refining
on it is sound, and on every bundled code it prunes exactly as all 2^k
words do (42 to 759 words at length 24, 3,533 for d24_plus).

Intended scale: p = 2 and a 2^k x N word-column incidence of at most 2^18
entries, which every code of length 24 and i2^13 at length 26 meet.  A
length-16 code takes 10 to 30 ms, a length-24 doubly-even code 0.04 to
0.2 s, and d24_plus, whose weight-12 class is needed to span it, about
0.6 s.  Other fields raise ValueError, and so does a search with numpy
absent; a larger code, or a search past NODE_LIMIT nodes, answers "unknown".
"""

from __future__ import annotations

import math
from functools import lru_cache

from .codes import LinearCode

np = None  # numpy, bound by aut_order: no other command needs it

# search nodes one aut_order call may visit before it answers "unknown"
NODE_LIMIT = 2_000_000


class _TooHard(Exception):
    pass


class _AutSearch:
    def __init__(self, C: LinearCode):
        self.n = C.n
        self.nodes = 0
        self.members = frozenset(C.words)
        # whole weight classes, lightest first, until they span C with 1:
        # 1 is fixed by every column permutation, so it is left out of the
        # incidence but counted in the span
        ones = (1 << C.n) - 1
        classes: dict = {}
        for w in C.words:
            if w and w != ones:
                classes.setdefault(w.bit_count(), []).append(w)
        basis = [ones] if ones in self.members else []  # reduced: distinct leading bits
        words = []
        for weight in sorted(classes):
            if len(basis) == C.k:
                break
            words += classes[weight]
            for w in classes[weight]:
                for b in basis:
                    w = min(w, w ^ b)
                if w:
                    basis.append(w)
        # the (word, column) incidence list, shared by both sides: bit j of
        # word i, unpacked from the words' little-endian bytes
        size = (C.n + 7) // 8
        packed = np.frombuffer(b"".join(w.to_bytes(size, "little") for w in words), np.uint8)
        self.rows, self.cols = np.nonzero(np.unpackbits(
            packed.reshape(len(words), size), axis=1, count=C.n, bitorder="little"))
        self.winit = np.array([w.bit_count() for w in words], dtype=np.int64)
        self.gen_masks = [sum(b << i for i, b in enumerate(r)) for r in C.rows]

    # --- refinement ----------------------------------------------------

    @staticmethod
    def _recolour(old_d, old_c, keys_d, keys_c, size):
        """Canonical ids for both sides from the rows (old colour, histogram).

        `keys_*` index the flattened (element, colour) histogram of each side;
        one bincount builds both tables.  Each histogram row is packed, in the
        narrowest unsigned type, into big-endian 64-bit words, so lexsort
        runs over a few keys instead of one per colour; the packing is
        one-to-one, so equal rows stay equal.  Rows are ranked jointly, so
        equal signatures get equal ids on the two sides.  Returns the new ids
        and their number of colours, or None if the two sides' colour
        histograms differ.
        """
        m = len(old_d)
        hist = np.bincount(
            np.concatenate((keys_d, keys_c + m * size)), minlength=2 * m * size
        ).reshape(2 * m, size)
        dt = np.min_scalar_type(int(hist.max(initial=0))).newbyteorder(">")
        per_word = 8 // dt.itemsize
        packed = np.zeros((2 * m, -(-size // per_word) * per_word), dtype=dt)
        packed[:, :size] = hist
        table = np.column_stack(
            (np.concatenate((old_d, old_c)).astype(np.uint64), packed.view(">u8"))
        )
        order = np.lexsort(table.T[::-1])
        ranked = table[order]
        ids = np.empty(2 * m, dtype=np.int64)
        ids[order] = np.concatenate(
            ([0], np.cumsum(np.any(ranked[1:] != ranked[:-1], axis=1)))
        )
        new_d, new_c = ids[:m], ids[m:]
        nc = int(ids.max(initial=-1)) + 1
        if not np.array_equal(np.bincount(new_d, minlength=nc), np.bincount(new_c, minlength=nc)):
            return None
        return new_d, new_c, nc

    def refine(self, state):
        """Run column/word recolouring to a fixed point; None if sides differ.

        Each recolouring refines its side (the old colour is part of the
        signature).  Once both sides have been recoloured, a step that adds
        no colour leaves both sides equitable, because the other side was
        last recoloured against this same partition.
        """
        ccol_d, ccol_c, wcol_d, wcol_c = state
        rows, cols = self.rows, self.cols
        ncw = int(max(wcol_d.max(initial=0), wcol_c.max(initial=0))) + 1
        ncc = nwords = 0  # colours after each side's last step; 0 before its first
        while True:
            got = self._recolour(
                ccol_d, ccol_c, cols * ncw + wcol_d[rows], cols * ncw + wcol_c[rows], ncw
            )
            if got is None:
                return None
            ccol_d, ccol_c, nc = got
            if nc == ncc:
                break
            ncc = nc
            got = self._recolour(
                wcol_d, wcol_c, rows * ncc + ccol_d[cols], rows * ncc + ccol_c[cols], ncc
            )
            if got is None:
                return None
            wcol_d, wcol_c, ncw = got
            if ncw == nwords:
                break
            nwords = ncw
        return ccol_d, ccol_c, wcol_d, wcol_c

    # --- backtracking ---------------------------------------------------

    def _perm_from_discrete(self, ccol_d, ccol_c):
        pos_c = {int(c): j for j, c in enumerate(ccol_c)}
        return [pos_c[int(c)] for c in ccol_d]

    def _verify(self, perm) -> bool:
        for mask in self.gen_masks:
            img = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                img |= 1 << perm[i]
                m &= m - 1
            if img not in self.members:
                return False
        return True

    def search(self, state):
        """Find any column bijection consistent with `state`; returns perm or None."""
        self.nodes += 1
        if self.nodes > NODE_LIMIT:
            raise _TooHard
        state = self.refine(state)
        if state is None:
            return None
        ccol_d, ccol_c, wcol_d, wcol_c = state
        nc = int(ccol_d.max(initial=0)) + 1
        counts = np.bincount(ccol_d, minlength=nc)
        big = [c for c in range(nc) if counts[c] > 1]
        if not big:
            perm = self._perm_from_discrete(ccol_d, ccol_c)
            return perm if self._verify(perm) else None
        cell = min(big, key=lambda c: (counts[c], c))
        j0 = int(np.nonzero(ccol_d == cell)[0][0])
        fresh = int(max(ccol_d.max(), ccol_c.max())) + 1
        for t in np.nonzero(ccol_c == cell)[0]:
            nd, ncc = ccol_d.copy(), ccol_c.copy()
            nd[j0] = fresh
            ncc[int(t)] = fresh
            got = self.search((nd, ncc, wcol_d.copy(), wcol_c.copy()))
            if got is not None:
                return got
        return None

    def _start(self, pairs):
        """The search state that colours b and t alike for each (b, t) in pairs."""
        ccol_d = np.zeros(self.n, dtype=np.int64)
        ccol_c = np.zeros(self.n, dtype=np.int64)
        for i, (b, t) in enumerate(pairs):
            ccol_d[b] = i + 1
            ccol_c[t] = i + 1
        return ccol_d, ccol_c, self.winit.copy(), self.winit.copy()

    def find(self, pairs):
        """An automorphism with sigma(b) = t for each (b, t) in pairs, or None."""
        return self.search(self._start(pairs))

    def candidate_cell(self, pairs, point):
        """Columns that refinement allows as images of `point` given `pairs`."""
        state = self.refine(self._start(pairs))
        if state is None:
            return []
        ccol_d, ccol_c = state[0], state[1]
        return [int(j) for j in np.nonzero(ccol_c == ccol_d[point])[0]]


def _orbit(points, gens: list) -> set:
    """Closure of `points` under the permutations `gens`."""
    orbit = set(points)
    frontier = list(orbit)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


@lru_cache(maxsize=64)
def aut_order(C: LinearCode):
    """|Aut(C)| of a binary code as an exact integer, or "unknown" past its scale.

    Orbit-stabilizer product over the chain of stabilizers of columns
    0, 1, 2, ..., walked from the last level to the first.  An automorphism
    found at a deeper level fixes columns 0..level, so it lies in this
    level's stabilizer too: orbits are grown under all automorphisms found
    so far, and each candidate image not reached that way costs one
    backtracking search.
    """
    if C.p != 2:
        raise ValueError(f"aut_order handles binary codes only, got field {C.p}")
    if C.k == 0 or C.k == C.n:
        return math.factorial(C.n)
    if C.n << C.k > 1 << 18:  # the 2^k x N incidence, refused before any word is built
        return "unknown"
    global np
    try:
        import numpy as np
    except ImportError as exc:
        raise ValueError(f"the aut search needs numpy, which does not import: {exc}") from None
    S = _AutSearch(C)
    gens: list = []
    order = 1
    try:
        for level in reversed(range(C.n)):
            prefix = [(i, i) for i in range(level)]
            orbit = _orbit({level}, gens)
            for t in S.candidate_cell(prefix, level):
                if t in orbit:
                    continue
                perm = S.find(prefix + [(level, t)])
                if perm is not None:
                    gens.append(perm)
                    orbit = _orbit(orbit, gens)
            order *= len(orbit)
    except _TooHard:
        return "unknown"
    return order
