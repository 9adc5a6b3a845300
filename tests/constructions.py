"""Standard self-dual code constructions and glue assembly.

Component codes (the repetition code i2, the d-chains, the Hamming-derived
e7/e8, the extended quadratic-residue code of length 24) plus the generic
"glue" search: extend a self-orthogonal base code by coset representatives
of base^perp / base until it becomes self-dual of a requested type.

These constructions are the independent witness of the bundled data: the
tests tie each bundled record to its construction here by weight
distribution and automorphism order, so no record is trusted by name.
Nothing in the cweil package imports this module.
"""

from __future__ import annotations

from cweil.codes import LinearCode, check_type, code_from_rows, dual_code
from tests.closures import weight_distribution


def i2() -> LinearCode:
    return code_from_rows(2, 2, ["11"], tag="2I")


def e8() -> LinearCode:
    """The extended Hamming [8,4] code (first-order Reed-Muller RM(1,3))."""
    return code_from_rows(
        2, 8, ["11111111", "00001111", "00110011", "01010101"], tag="2II"
    )


def e7() -> LinearCode:
    """The even-weight subcode of the [7,4] Hamming code: [7,3], weights 0 and 4."""
    c = e8()
    rows = [w & 0x7F for w in c.words if not (w >> 7) & 1]
    return LinearCode(2, 7, [[(w >> i) & 1 for i in range(7)] for w in rows])


def d_chain(n: int) -> LinearCode:
    """d_n = [n, n/2 - 1]: spans of 1111 blocks at even offsets; weights = 0 mod 4."""
    if n % 2 or n < 4:
        raise ValueError(f"d_n needs an even n >= 4, got n = {n}")
    rows = []
    for i in range(n // 2 - 1):
        r = [0] * n
        r[2 * i : 2 * i + 4] = [1, 1, 1, 1]
        rows.append(r)
    return LinearCode(2, n, rows)


def direct_sum(*parts: LinearCode) -> LinearCode:
    p = parts[0].p
    if any(c.p != p for c in parts):
        raise ValueError("direct_sum needs codes over one field")
    n = sum(c.n for c in parts)
    rows = []
    off = 0
    for c in parts:
        for row in c.rows:
            rows.append((0,) * off + tuple(row) + (0,) * (n - off - c.n))
        off += c.n
    return LinearCode(p, n, rows)


def repeat_sum(C: LinearCode, m: int) -> LinearCode:
    return direct_sum(*([C] * m))


def golay24() -> LinearCode:
    """The extended quadratic-residue construction at length 24."""
    q = 23
    residues = {pow(t, 2, q) for t in range(1, q)}
    base = [1 if j == 0 or j in residues else 0 for j in range(q)]
    rows = [[1] * 24]  # shifts alone span only the expurgated [23,11] code
    for s in range(q):
        row = [base[(j - s) % q] for j in range(q)]
        row.append(sum(row) % 2)
        rows.append(row)
    return LinearCode(2, 24, rows, tag="2II")


def tetracode() -> LinearCode:
    return code_from_rows(3, 4, ["1012", "0111"], tag="Q")


# --- glue assembly ------------------------------------------------------


def _reduce_mod(mask: int, packed_rows) -> int:
    for row, piv in packed_rows:
        if (mask >> piv) & 1:
            mask ^= row
    return mask


def glue_extensions(base: LinearCode, tag: str, min_glue_weight: int = 0):
    """All self-dual codes of the given type between `base` and its dual.

    Depth-first over subgroups of base^perp / base, coset representatives in
    increasing mask order (each new glue vector exceeds all previous ones, and
    completed codes are deduplicated by canonical basis).  A positive
    `min_glue_weight` keeps only glue cosets whose minimal weight reaches it —
    the lever that excludes gluings merging the intended components.
    """
    if base.p != 2:
        raise ValueError(f"glue_extensions handles binary codes only, got field {base.p}")
    need = base.n // 2 - base.k
    packed = []
    for row in base.rows:
        m = sum(b << i for i, b in enumerate(row))
        packed.append((m, (m & -m).bit_length() - 1))
    dual = dual_code(base)
    reps = sorted({_reduce_mod(w, packed) for w in dual.words})
    base_words = list(base.words)
    ok = []
    for r in reps:
        if r == 0:
            continue
        wts = [(r ^ b).bit_count() for b in base_words]
        coset_min = min(wts)
        if coset_min < min_glue_weight:
            continue
        if tag == "2II" and any(w % 4 for w in wts):
            continue
        if any(w % 2 for w in wts):
            continue
        ok.append(r)
    seen = set()

    def dfs(chosen, span):
        if len(chosen) == need:
            rows = [[(m >> i) & 1 for i in range(base.n)] for m in chosen]
            C = LinearCode(2, base.n, list(base.rows) + rows, tag=tag)
            if C.rows in seen:
                return
            seen.add(C.rows)
            if check_type(C):
                yield C
            return
        start = ok.index(chosen[-1]) + 1 if chosen else 0
        for idx in range(start, len(ok)):
            g = ok[idx]
            if g in span:
                continue
            if any((g & s).bit_count() % 2 for s in chosen):
                continue
            new_span = span | {x ^ g for x in span}
            yield from dfs(chosen + [g], new_span)

    yield from dfs([], {0})


def _find_by_distribution(base, tag, keep, min_glue_weight=0) -> LinearCode:
    """The first gluing of `base` whose weight distribution passes `keep`."""
    for C in glue_extensions(base, tag, min_glue_weight):
        if keep(weight_distribution(C)):
            return C
    raise LookupError("no gluing with the requested weight distribution")


def d16_plus() -> LinearCode:
    """E16: the d16 chain glued by 1010101010101010 (doubly even, [16,8])."""
    rows = [list(r) for r in d_chain(16).rows]
    rows.append([1, 0] * 8)
    C = LinearCode(2, 16, rows, tag="2I")
    if not check_type(C, "2II"):
        raise ValueError("d16+ is not doubly even")
    return C


def f16() -> LinearCode:
    """F16: the indecomposable singly-even [16,8] gluing of d8 + d8.

    Identified among all gluings by its weight distribution
    (1, 0, 12, 64, 102, 64, 12, 0, 1) on even weights 0..16.
    """
    wd = [0] * 17
    wd[0] = wd[16] = 1
    wd[4] = wd[12] = 12
    wd[6] = wd[10] = 64
    wd[8] = 102
    C = _find_by_distribution(
        direct_sum(d_chain(8), d_chain(8)), "2I", lambda got: got == tuple(wd), min_glue_weight=4
    )
    return LinearCode(2, 16, C.rows, tag="2I")


def b12() -> LinearCode:
    """B12: the indecomposable [12,6] code [I | J - I]; weights (1,0,15,32,15,0,1)."""
    rows = []
    for i in range(6):
        r = [0] * 12
        r[i] = 1
        for j in range(6):
            if j != i:
                r[6 + j] = 1
        rows.append(r)
    return LinearCode(2, 12, rows, tag="2I")


def d14() -> LinearCode:
    """D14: the indecomposable [14,7] gluing of e7 + e7 (min weight 4)."""
    wd = [0] * 15
    wd[0] = wd[14] = 1
    wd[4] = wd[10] = 14
    wd[6] = wd[8] = 49
    C = _find_by_distribution(
        direct_sum(e7(), e7()), "2I", lambda got: got == tuple(wd), min_glue_weight=4
    )
    return LinearCode(2, 14, C.rows, tag="2I")


def table2_codes() -> dict[str, LinearCode]:
    """The seven binary self-dual classes of length 16, by classification name."""
    out = {
        "E16": d16_plus(),
        "F16": f16(),
        "A8^2": retag(repeat_sum(e8(), 2), "2I"),
        "D14+i2": retag(direct_sum(d14(), i2()), "2I"),
        "B12+2i2": retag(direct_sum(b12(), i2(), i2()), "2I"),
        "A8+4i2": retag(direct_sum(e8(), *[i2()] * 4), "2I"),
        "8i2": retag(repeat_sum(i2(), 8), "2I"),
    }
    for name, c in out.items():
        if not check_type(c):
            raise ValueError(f"{name} is not self-dual of type 2I")
    return out


def retag(C: LinearCode, tag: str) -> LinearCode:
    return LinearCode(C.p, C.n, C.rows, tag=tag)


# --- the doubly-even self-dual codes of length 24 ------------------------


def d24_plus() -> LinearCode:
    """The d24 chain glued by 10 01 01 ... 01 (weight 12).

    A swap inside the first coordinate pair takes this glue to 1010...10,
    the analogue of d16_plus's.
    """
    rows = [list(r) for r in d_chain(24).rows]
    rows.append([1, 0] + [0, 1] * 11)
    return LinearCode(2, 24, rows, tag="2II")


def tetrad_gluing(*parts: LinearCode) -> LinearCode:
    """The doubly-even self-dual gluing of `parts` that adds no weight-4 word.

    At length 24 the weight-4 words (the tetrads) of a doubly-even
    self-dual code fix it up to equivalence, so its components name it.
    """
    base = direct_sum(*parts)
    tetrads = weight_distribution(base)[4]
    return _find_by_distribution(base, "2II", lambda wd: wd[4] == tetrads, min_glue_weight=8)


# F4 = {0, 1, w, w^2} as 0, 1, 2, 3, so that addition is XOR
TIMES_W = (0, 2, 3, 1)
HEXACODE = [(1, 0, 0, 1, 3, 2), (0, 1, 0, 1, 2, 3), (0, 0, 1, 1, 1, 1)]


def d4six() -> LinearCode:
    """Six d4 blocks glued by the hexacode, through an additive F4 -> d4^perp / d4."""
    rows = [list(r) for r in repeat_sum(d_chain(4), 6).rows]
    for word in HEXACODE + [tuple(TIMES_W[x] for x in h) for h in HEXACODE]:
        row = []
        for x in word:
            row += [(x & 1) ^ (x >> 1), x & 1, x >> 1, 0]  # x = 1 -> 1100, x = 2 -> 1010
        rows.append(row)
    return LinearCode(2, 24, rows, tag="2II")


def bundled_witnesses() -> dict:
    """A construction for each code name in the bundled data."""
    length16 = table2_codes()
    return {
        **length16,
        "e8": e8(),
        "tetracode": tetracode(),
        "golay24": golay24(),
        "d24_plus": d24_plus(),
        "d12sq": tetrad_gluing(d_chain(12), d_chain(12)),
        "d10e7sq": tetrad_gluing(d_chain(10), e7(), e7()),
        "d8cube": tetrad_gluing(*[d_chain(8)] * 3),
        "d6four": tetrad_gluing(*[d_chain(6)] * 4),
        "d4six": d4six(),
        "e8cube": repeat_sum(e8(), 3),
        "d16e8": direct_sum(length16["E16"], e8()),
    }


def permute_code(C: LinearCode, sigma) -> LinearCode:
    """The code sigma(C): coordinate i of each word moves to sigma[i]."""
    if sorted(sigma) != list(range(C.n)):
        raise ValueError(f"{sigma} is not a permutation of {C.n} coordinates")
    rows = []
    for row in C.rows:
        new = [0] * C.n
        for i, x in enumerate(row):
            new[sigma[i]] = x
        rows.append(tuple(new))
    return LinearCode(C.p, C.n, rows, C.tag)
