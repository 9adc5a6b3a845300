"""Test-side oracles of the Clifford-Weil groups: matrix closures, the
doubling representatives tau_r and the embedding Delta.

The library holds a group element as its permutation of the lines of the
x_v orbit, in Python ints, and reads its matrix off that permutation as
CycNum rows.  This module keeps the int64 matrix route that it replaced, as
the independent oracle of that read-off and of the certificate.  `Operator`
stores a matrix as int64 power-basis numerators over one common
denominator, and each product is one integer matmul with the cyclotomic
structure constants `mul_table` folded in (`_fold`, `_batch_mul`); a
product that could pass int64 raises Int64OverflowError rather than wrap.
`generators` builds C_g's generators from the library's `generator_cells`,
or the textbook generating set, every m_u and every d_phi
(`textbook_cells`, over `gl_matrices` and `all_quadforms`), whose phases
`form_value` checks against the rational definition of a form, and
`word_operator` multiplies out element i of a certified group from the
words of its factors in them: the oracle of the read-off
`CertifiedGroup[i]`, which `as_int64` converts for comparison.
`close_group` closes a group of int64 operators breadth first, and
`orbit_closure` certifies a group as the monomial subgroup H plus one coset
rep per vector in the orbit of x_0, by Schreier's lemma over batched
operator products.  `full_closure` stores every element of C_g, by a
breadth-first coset closure over H with no orbit and no Schreier step, and
`stored_parabolic` every element of P_g, by the plain closure of its
generators.  `power_sum` is the full multinomial expansion of a power sum
of linear forms, over every monomial: the oracle of the coset average,
which expands only the monomials that every d_phi fixes.  The last three
are the term-by-term forms of the exact linear algebra, the oracles of the
integer-numerator kernels that replaced them: `fraction_rref` of the
fraction-free `siegelphi._rref`, `cycnum_inner_product` of
`poly.inner_product`, and `fold_combine` of `poly.combine`.
`weight_distribution` counts a code's words by Hamming weight, and
`pair_y` pairs a `doubling.dmap` image with a form in its y variables: the
test-side builders of the doubling checks, which no command needs.
`row_genus2_counts` builds the genus-2 counts one byte row per word and
weight class, the oracle of the packed-int blocks of
`weightenum._genus2_counts` where `cwe_generic` is past its budget.  Nothing
in the cweil package imports this module.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from fractions import Fraction
from itertools import product as iproduct
from math import comb, gcd, lcm

import numpy as np

from cweil.cliffordweil import (
    FORM_RULE,
    PREDICTED_ORDER,
    PREDICTED_PARABOLIC,
    ClosureError,
    QuadraticForm,
    _check_same,
    _d_cells,
    _form_labels,
    _fourier_cells,
    _h_cells,
    _m_cells,
    center_order,
    generator_cells,
    predicted_orders,
)
from cweil.codes import LinearCode, rref
from cweil.cyclo import CycNum, _power_table, mul_nums, phi_degree
from cweil.poly import Poly, apply_operator, combine, mono_factorial
from cweil.weightenum import run_conductor

CLOSURE_CAP = 200_000


# --- the int64 matrix kernel ----------------------------------------------


@lru_cache(maxsize=None)
def mul_table(n: int) -> np.ndarray:
    """Structure constants T[s,t,u] with z^s * z^t = sum_u T[s,t,u] z^u.

    int64 ndarray of shape (phi, phi, phi); shared by the fast operator
    kernel (einsum over this tensor multiplies whole matrices at once).
    """
    phi = phi_degree(n)
    rows = _power_table(n)
    T = np.zeros((phi, phi, phi), dtype=np.int64)
    for s in range(phi):
        for t in range(phi):
            T[s, t, :] = rows[s + t]
    return T


@lru_cache(maxsize=None)
def conj_table(n: int) -> np.ndarray:
    """Matrix C with conj(z^k) = z^(-k) = sum_u C[k,u] z^u  (int64, phi x phi)."""
    phi = phi_degree(n)
    rows = _power_table(n)
    C = np.zeros((phi, phi), dtype=np.int64)
    for k in range(phi):
        C[k, :] = rows[(n - k) % n]
    return C


class Int64OverflowError(ValueError):
    """An int64 operator product could exceed 2^63 - 1 and wrap silently."""


def _absmax(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def _check_int64(bound: int, what: str) -> None:
    """Raise unless the Python-int bound on every partial sum fits in int64."""
    if bound >= 2**63:
        raise Int64OverflowError(f"{what} could overflow int64 (bound {bound})")


class Operator:
    """A p^g x p^g matrix over Q(zeta_n), gcd-normalised int64 numerators."""

    __slots__ = ("p", "g", "n", "den", "arr")

    def __init__(self, p: int, g: int, n: int, arr: np.ndarray, den: int):
        arr = np.asarray(arr, dtype=np.int64)
        d = p**g
        if den <= 0 or arr.shape != (d, d, phi_degree(n)):
            raise ValueError(f"an operator needs den > 0 and shape {(d, d, phi_degree(n))}, "
                             f"got den = {den} and shape {arr.shape}")
        g_all = int(np.gcd.reduce(np.abs(arr), axis=None))
        g_all = gcd(g_all, den)
        if g_all > 1:
            arr = arr // g_all
            den //= g_all
        arr.setflags(write=False)
        self.p, self.g, self.n, self.den, self.arr = p, g, n, den, arr

    @staticmethod
    def identity(p: int, g: int, n: int) -> "Operator":
        d = p**g
        arr = np.zeros((d, d, phi_degree(n)), dtype=np.int64)
        arr[range(d), range(d), 0] = 1
        return Operator(p, g, n, arr, 1)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same(self, (other.p, other.g, other.n))
        raw, den = _batch_mul(self.arr[None], np.array([self.den]),
                              _fold(other.arr, mul_table(self.n)), other.den)
        return Operator(self.p, self.g, self.n, raw[0], int(den[0]))

    def conj_t(self) -> "Operator":
        C = conj_table(self.n)
        arr = np.einsum("jis,su->iju", self.arr, C)
        return Operator(self.p, self.g, self.n, arr, self.den)

    def fingerprint(self) -> bytes:
        return _keys(self.arr[None], np.array([self.den], dtype=np.int64))[0]

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return (
            (self.p, self.g, self.n, self.den) == (other.p, other.g, other.n, other.den)
            and np.array_equal(self.arr, other.arr)
        )

    def entry(self, i: int, j: int) -> CycNum:
        return CycNum(self.n, tuple(int(x) for x in self.arr[i, j]), self.den)

    def entries(self):
        d = self.p**self.g
        return [[self.entry(i, j) for j in range(d)] for i in range(d)]

    def apply(self, a: Poly) -> Poly:
        _check_same(self, (a.p, a.g, a.conductor))
        return apply_operator(a, self.entries())

    def is_unitary(self) -> bool:
        return self @ self.conj_t() == Operator.identity(self.p, self.g, self.n)

    def __repr__(self):
        return f"Operator(p={self.p}, g={self.g}, den={self.den})"


def as_int64(op) -> Operator:
    """The int64 Operator of any exact matrix with `entries()` (a library
    Operator read off its permutation), over the lcm of its denominators."""
    rows = op.entries()
    den = lcm(*(c.den for row in rows for c in row))
    return Operator(op.p, op.g, op.n, [[[x * (den // c.den) for x in c.nums] for c in row]
                                       for row in rows], den)


def _phase_operator(p: int, g: int, cells, scale: CycNum | None = None) -> Operator:
    """The matrix with entry scale * zeta_n^k at each cell (i, j, k), else 0 (None for 1)."""
    d, n = p**g, run_conductor(p)
    table = _power_table(n)[:n]
    if scale is not None:
        table = [mul_nums(n, t, scale.nums) for t in table]
    arr = np.zeros((d, d, phi_degree(n)), dtype=np.int64)
    for i, j, k in cells:
        arr[i, j] = table[k]
    return Operator(p, g, n, arr, 1 if scale is None else scale.den)


def generators(tag: str, g: int, p: int, reduced: bool = True) -> list:
    """Generators of C_g: the m_u and d_phi, then h_1 .. h_g; the library's
    generating set, or the textbook one."""
    cells = generator_cells(tag, g, p) if reduced else textbook_cells(tag, g, p)
    return [_phase_operator(p, g, *c) for c in cells]


# --- the textbook generating set ------------------------------------------


def gl_matrices(p: int, g: int):
    """All of GL_g(F_p) (g <= 2 scale)."""
    out = []
    for flat in iproduct(range(p), repeat=g * g):
        u = [list(flat[i * g : (i + 1) * g]) for i in range(g)]
        if len(rref(p, u)) == g:
            out.append(u)
    return out


def all_quadforms(tag: str, g: int, p: int):
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    for diag in iproduct(_form_labels(tag, p), repeat=g):
        for ms in iproduct(range(p), repeat=len(pairs)):
            off = {pos: m for pos, m in zip(pairs, ms) if m}
            yield QuadraticForm(tag, g, p, diag, off)


def form_value(phi: QuadraticForm, v) -> Fraction:
    """phi(v) by its definition, a rational mod 1: sum_i (a_i v_i^2 + b_i v_i) / den
    + sum_{i<j} v_i m_ij v_j / p by FORM_RULE, on integer lifts 0..p-1."""
    p, den = phi.p, FORM_RULE[phi.tag][0] or phi.p
    total = Fraction(0)
    for (a, b), x in zip(phi.diag, v):
        total += Fraction(a * (x % p) ** 2 + b * (x % p), den)
    for (i, j), m in phi.offdiag.items():
        total += Fraction((v[i] * m * v[j]) % p, p)
    return total % 1


@lru_cache(maxsize=None)
def textbook_cells(tag: str, g: int, p: int) -> tuple:
    """Every m_u and every d_phi, then h_1 .. h_g (Nebe-Rains-Sloane, ch. 5),
    as (cells, scale) in the library's cell format."""
    return tuple((tuple(cells), scale) for cells, scale in
                 [_m_cells(u, p, g) for u in gl_matrices(p, g)]
                 + [_d_cells(phi) for phi in all_quadforms(tag, g, p)]
                 + [_h_cells(r, g, p) for r in range(1, g + 1)])


@lru_cache(maxsize=None)
def _table_bound(table: bytes) -> int:
    """max |T[s,t,u]| of an int64 structure-constant table, taken once per table."""
    return _absmax(np.frombuffer(table, dtype=np.int64))


def _fold(x: np.ndarray, T: np.ndarray) -> np.ndarray:
    """X with the structure constants folded in, as a (d*phi) x (d*phi) matrix.

    Xt[(k,s),(j,u)] = sum_t X[k,j,t] T[s,t,u], so that A @ X is the integer
    matmul A[(i),(k,s)] @ Xt of A's numerators.  A stack of X folds to a
    stack of Xt.
    """
    d, _, phi = x.shape[-3:]
    _check_int64(_absmax(x) * _table_bound(T.tobytes()) * phi, "folding an operator")
    return np.einsum("...kjt,stu->...ksju", x, T).reshape(x.shape[:-3] + (d * phi, d * phi))


def _batch_mul(arrs: np.ndarray, dens: np.ndarray, xt: np.ndarray, xden):
    """Normalised products (arrs[f]/dens[f]) @ (X/xden) for a whole stack.

    xt is X folded by _fold; the stack is widened to int64 here, before any
    bound, and the products are one int64 matmul.  Given a stack of folded
    X and their dens, the product f takes the f-th.  Operator.__matmul__ is
    the stack of one.
    """
    m, d, _, phi = arrs.shape
    arrs, dens = np.asarray(arrs, np.int64), np.asarray(dens, np.int64)
    _check_int64(max(_absmax(arrs) * _absmax(xt) * d * phi, int(dens.max()) * int(np.max(xden))),
                 "a batched operator product")
    raw = np.matmul(arrs.reshape(m, d, d * phi), xt).reshape(arrs.shape)
    out = dens * xden
    common = np.gcd(np.gcd.reduce(np.abs(raw).reshape(m, -1), axis=1), out)
    raw //= common[:, None, None, None]
    out //= common
    return raw, out


def _keys(arrs: np.ndarray, dens: np.ndarray) -> list:
    """Fingerprints of normalised elements: the bytes of (den, numerators).

    An element whose entries all fit in int8 is written in int8, any other
    in int64; the two lengths differ, so equal keys still mean equal
    elements.
    """
    flat = np.concatenate([dens[:, None], arrs.reshape(dens.size, -1)], axis=1)
    small = (flat.min(axis=1) >= -128) & (flat.max(axis=1) < 128)
    b8, s = flat.astype(np.int8).tobytes(), flat.shape[1]
    return [b8[i * s:(i + 1) * s] if small[i] else flat[i].tobytes()
            for i in range(dens.size)]


@lru_cache(maxsize=None)
def _word(action, tree: str, j: int) -> Operator:
    """Element j of the certified action's H ("hparent") or t ("tparent"),
    multiplied out."""
    parent = getattr(action, tree)[j]
    if parent is None:
        return Operator.identity(action.p, action.g, action.n)
    i, s = parent
    return _word(action, tree, i) @ _phase_operator(action.p, action.g, *action.cells[s])


def word_operator(action, i: int) -> Operator:
    """Element i = H[i % |H|] zeta_z^k t[i // |P_g|], k = i // |H| % z, of a
    certified group's action, as the product of its factors' words."""
    h, d = len(action.hs), action.p**action.g
    zeta = _phase_operator(action.p, action.g, [(v, v, i // h % action.z * action.n // action.z)
                                                for v in range(d)])
    return _word(action, "hparent", i % h) @ zeta @ _word(action, "tparent", i // action.parabolic)



def center_generator(tag: str, p: int, g: int) -> Operator:
    """zeta_|Z| times the identity (|Z| divides the conductor of every type)."""
    k = run_conductor(p) // center_order(tag, p)
    return _phase_operator(p, g, [(i, i, k) for i in range(p**g)])


class GroupClosure:
    """A finite matrix group with every element stored.

    Element i is arr[i] / den[i], gcd-normalised as in an Operator;
    element 0 is the identity.  index maps each fingerprint to its position.
    Indexing builds int64 Operators on demand.
    """

    def __init__(self, gens: list, arr: np.ndarray, den: np.ndarray, index: dict):
        self.gens, self.arr, self.den, self.index = gens, arr, den, index

    @property
    def order(self) -> int:
        return self.den.size

    def __len__(self) -> int:
        return self.order

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.order))]
        x = self.gens[0]
        return Operator(x.p, x.g, x.n, self.arr[i], int(self.den[i]))

    def __contains__(self, op: Operator) -> bool:
        return op.fingerprint() in self.index


def _row_keys(rows: np.ndarray, dens: np.ndarray) -> list:
    """Keys of the rows rows[f] / dens[f], (d, phi) each: _keys of the
    gcd-normalised (den, numerators)."""
    common = np.gcd(np.gcd.reduce(np.abs(rows).reshape(dens.size, -1), axis=1), dens)
    return _keys(rows // common[:, None, None], dens // common)


def _walk(gens: list, key, limit: int, refusal: str):
    """Breadth first from the identity: each level multiplies the elements
    kept at the last level by every generator, one batched product each,
    and keeps those with a new key(arrs, dens); keeping more than limit
    raises ClosureError(refusal).  Returns key -> position, arr and den."""
    one = Operator.identity(gens[0].p, gens[0].g, gens[0].n)
    folded = [(_fold(x.arr, mul_table(one.n)), x.den) for x in gens]
    index, arrs, dens, frontier = {key(one.arr[None], np.ones(1, np.int64))[0]: 0}, [one.arr], [1], [0]
    while frontier:
        level = np.stack([arrs[l] for l in frontier]), np.array([dens[l] for l in frontier])
        frontier = []
        for xt, xden in folded:
            raw, out = _batch_mul(*level, xt, xden)
            for k, y, yden in zip(key(raw, out), raw, out):
                if k not in index:
                    if len(index) >= limit:
                        raise ClosureError(refusal)
                    frontier.append(len(index))
                    index[k] = len(index)
                    arrs.append(y)
                    dens.append(int(yden))
    arr, den = np.stack(arrs), np.array(dens, dtype=np.int64)
    arr.setflags(write=False)
    den.setflags(write=False)
    return index, arr, den


def close_group(gens: list, expect: int | None = None) -> GroupClosure:
    """<gens> with every element stored: the _walk over whole elements, up to
    CLOSURE_CAP, which is read at each call.  With expect, any other order
    raises ClosureError."""
    cap = CLOSURE_CAP
    index, arr, den = _walk(gens, _keys, cap, f"closure exceeded the cap {cap}")
    if expect is not None and len(index) != expect:
        raise ClosureError(f"closure has order {len(index)}, predicted {expect}")
    return GroupClosure(gens, arr, den, index)


@lru_cache(maxsize=None)
def _monomial_subgroup(tag: str, g: int, p: int) -> GroupClosure:
    """H = <m_u, d_phi>, closed plainly: the cosets of C_g and P_g are H-cosets."""
    return close_group(generators(tag, g, p)[:-g])


class OrbitClosure:
    """A finite matrix group G, the disjoint union of the cosets H*t_l.

    H = sub fixes the row x_0 = (1, 0, .., 0), and t_l = t_arr[l] / t_den[l]
    maps it to the l-th row of its orbit O; `rows` maps each row's key
    (`_row_keys`) to l.  Element i is H[i % h] @ t_(i // h), but only H and
    the |O| reps are stored.
    """

    def __init__(self, gens: list, sub: GroupClosure, rows: dict, t_arr, t_den):
        self.gens, self.sub, self.rows, self.t_arr, self.t_den = gens, sub, rows, t_arr, t_den
        self.h = sub.order

    @property
    def order(self) -> int:
        return self.h * self.t_den.size

    def rep(self, l: int) -> Operator:
        """t_l, the first element of the l-th coset (H[0] is the identity)."""
        x = self.gens[0]
        return Operator(x.p, x.g, x.n, self.t_arr[l], int(self.t_den[l]))

    def __getitem__(self, i: int) -> Operator:
        return self.sub[i % self.h] @ self.rep(i // self.h)

    def __contains__(self, op: Operator) -> bool:
        """op is in H*t_l for the l with x_0 op = x_0 t_l when op t_l* is in H."""
        l = self.rows.get(_row_keys(op.arr[None, 0], np.array([op.den]))[0])
        return l is not None and (op @ self.rep(l).conj_t()).fingerprint() in self.sub.index


def orbit_closure(gens: list, sub: GroupClosure, expect: int) -> OrbitClosure:
    """<gens> as the union of the cosets sub*t_l, by orbit-stabiliser.

    sub must be generated by some of gens, and each of its generators must
    fix the row x_0.  A breadth-first search over the orbit O of x_0, the
    _walk keyed by the row x_0 t, finds a transversal: x_0 t_l is the l-th
    row of O.  By Schreier's lemma (Holt, Eick and O'Brien, Handbook
    of Computational Group Theory, 2005, sections 4.1 and 4.4) the
    stabiliser of x_0 is generated by the t_l s t_(ls)^-1 over l in O and s
    in gens, and t^-1 = t* for unitary generators.  Each t_l s t_(ls)* is
    tested for membership in sub, two batched products per generator s over
    all the t_l, the tree edges t_(ls) = t_l s included:
    sub is unitary, so those certify t* = t^-1 instead of assuming it.  Then
    the stabiliser is sub, and |<gens>| = |O| |sub|.  A generator of sub
    that moves x_0, an orbit past expect / |sub|, a Schreier generator
    outside sub, and any order but expect each raise ClosureError.
    """
    n, h, T = gens[0].n, sub.order, mul_table(gens[0].n)

    def row_keys(arrs, dens) -> list:  # the keys of the rows x_0 x
        return _row_keys(arrs[:, 0], dens)

    _walk(sub.gens, row_keys, 1, "a generator of the subgroup moves x_0")  # sub fixes x_0
    rows, t_arr, t_den = _walk(gens, row_keys, expect // h,
                               f"closure order exceeds the predicted {expect}")
    inverses = _fold(np.einsum("ljis,su->liju", t_arr, conj_table(n)), T)  # the t_l*
    for x in gens:
        raw, out = _batch_mul(t_arr, t_den, _fold(x.arr, T), x.den)  # every t_l s
        ls = [rows[key] for key in row_keys(raw, out)]
        schreier = _keys(*_batch_mul(raw, out, inverses[ls], t_den[ls]))
        if any(key not in sub.index for key in schreier):
            raise ClosureError("a Schreier generator lies outside the subgroup")
    if len(rows) * h != expect:
        raise ClosureError(f"closure has order {len(rows) * h}, predicted {expect}")
    return OrbitClosure(gens, sub, rows, t_arr, t_den)


@lru_cache(maxsize=None)
def orbit_group(tag: str, g: int, p: int = 2) -> OrbitClosure:
    """C_g at desk scale, as the cosets of H."""
    expect = predicted_orders(tag, g, p)[0]
    return orbit_closure(generators(tag, g, p), _monomial_subgroup(tag, g, p), expect)


@lru_cache(maxsize=None)
def orbit_parabolic(tag: str, g: int, p: int = 2) -> OrbitClosure:
    """<m_u, d_phi, center>: the coset denominator of the Eisenstein average,
    as the cosets of H, one per row of mu_z x_0."""
    expect = predicted_orders(tag, g, p)[1]
    return orbit_closure(generators(tag, g, p)[:-g] + [center_generator(tag, p, g)],
                         _monomial_subgroup(tag, g, p), expect)


def matrix_coset_labels(G: OrbitClosure, P: OrbitClosure):
    """reps plus the map element-index -> coset number, for orbit chasing.

    G and P must be laid out over one subgroup H, and each of P's coset
    reps s must lie in G, else P is no subgroup of G.  Then P*t is the union
    of the H-cosets H*s*t, and the H-coset of s*t is read off its row
    x_0 s t, so each P-coset is one batched product.  Cosets are numbered in
    the order of their first element in G.
    """
    if P.sub is not G.sub:
        raise ValueError("G and P are not laid out over one subgroup")
    h = G.h
    if not all(P.rep(k) in G for k in range(P.t_den.size)):
        raise ClosureError("P is not a subgroup of G")
    s_arr, s_den, T = P.t_arr, P.t_den, mul_table(G.gens[0].n)
    hlabel = [-1] * (G.order // h)
    reps = []
    for j in range(len(hlabel)):
        if hlabel[j] >= 0:
            continue
        x = G.rep(j)
        raw, dens = _batch_mul(s_arr, s_den, _fold(x.arr, T), x.den)
        for key in _row_keys(raw[:, 0], dens):
            k = G.rows[key]
            if hlabel[k] >= 0:
                raise ClosureError("P-cosets overlap")
            hlabel[k] = len(reps)
        reps.append(x)
    if len(reps) * P.order != G.order:
        raise ClosureError(f"{len(reps)} cosets of |P| = {P.order} do not make |G| = {G.order}")
    return reps, np.repeat(hlabel, h).tolist()


@lru_cache(maxsize=None)
def full_closure(tag: str, g: int, p: int = 2) -> GroupClosure:
    """Every element of C_g as a union of right cosets H*y, breadth first:
    a product of a coset rep by a generator outside the cosets found so far
    opens its coset, one batched product.  Certified against the predicted
    order, with no two cosets overlapping.  Every element fits in int8, so
    it is stored as its fingerprint, the int8 bytes of (den, numerators)."""
    gens, H = generators(tag, g, p), _monomial_subgroup(tag, g, p)
    T = mul_table(gens[0].n)
    folded = [(_fold(x.arr, T), x.den) for x in gens]
    index, reps, cosets = dict(H.index), [(H.arr[0], H.den[0])], 1
    while reps:
        rep_arr, rep_den = np.stack([a for a, _ in reps]), np.array([d for _, d in reps])
        reps = []
        for xt, xden in folded:
            raw, out = _batch_mul(rep_arr, rep_den, xt, xden)
            for key, y, yden in zip(_keys(raw, out), raw, out):
                if key not in index:
                    keys = _keys(*_batch_mul(H.arr, H.den, _fold(y, T), int(yden)))
                    index.update(zip(keys, range(len(index), len(index) + len(keys))))
                    reps.append((y, yden))
                    cosets += 1
    width = 1 + H.arr[0].size
    assert len(index) == cosets * H.order == PREDICTED_ORDER[tag, g, p]
    assert {len(key) for key in index} == {width}
    flat = np.frombuffer(b"".join(index), dtype=np.int8).reshape(-1, width)
    return GroupClosure(gens, flat[:, 1:].reshape((-1,) + H.arr.shape[1:]), flat[:, 0], index)


@lru_cache(maxsize=None)
def stored_parabolic(tag: str, g: int, p: int = 2) -> GroupClosure:
    """Every element of P_g: the plain closure of its generators."""
    gens = generators(tag, g, p)[:-g] + [center_generator(tag, p, g)]
    return close_group(gens, expect=PREDICTED_PARABOLIC[tag, g, p])


def factored_keys(G: OrbitClosure) -> list:
    """The fingerprints of G[0], G[1], .., one batched product per H-coset."""
    H, T = G.sub, mul_table(G.gens[0].n)
    keys = []
    for l in range(G.order // G.h):
        t = G.rep(l)
        keys += _keys(*_batch_mul(H.arr, H.den, _fold(t.arr, T), t.den))
    return keys


def generic_coset_labels(G: GroupClosure, P: GroupClosure):
    """(reps, label) of the right P-cosets of a full closure G: walk G in
    order and label all of P*x, one einsum per coset."""
    T = mul_table(G.gens[0].n)
    label = [-1] * G.order
    reps = []
    for i in range(G.order):
        if label[i] >= 0:
            continue
        x = G[i]
        raw = np.einsum("fiks,kjt,stu->fiju", P.arr, x.arr, T, optimize=True)
        dens = P.den * x.den
        common = np.gcd(np.gcd.reduce(np.abs(raw).reshape(len(raw), -1), axis=1), dens)
        raw //= common[:, None, None, None]
        for key in _keys(raw, dens // common):
            label[G.index[key]] = len(reps)
        reps.append(x)
    return reps, label


def power_sum(p: int, g: int, N: int, forms, scale: int) -> Poly:
    """(1/scale) * sum of mult * l^N over forms (den, numerator rows, mult).

    A form is l = sum_w (row[w] / den) x_w, row[w] being the power-basis
    numerators of a coefficient in Q(zeta_n), n = run_conductor(p).  Each
    l^N is expanded once by the multinomial theorem over the support of l,
    from the powers row[w]^e, e = 0..N, with every form over the lcm D of
    the denominators; the CycNum coefficients are built at the end over
    D^N * scale.
    """
    forms, n = list(forms), run_conductor(p)
    D = lcm(*(den for den, _, _ in forms))
    phi = phi_degree(n)
    one = [1] + [0] * (phi - 1)
    d = p**g
    acc: dict = {}
    exps = [0] * d

    def add(coef: int, num: list) -> None:
        got = acc.get(tuple(exps))
        if got is None:
            acc[tuple(exps)] = [coef * x for x in num]
        else:
            for u in range(phi):
                got[u] += coef * num[u]

    def walk(i: int, left: int, coef: int, num: list) -> None:
        # coef * num = mult * N! / prod m_w! * prod a_w^m_w over w < support[i]
        w = support[i]
        if i == len(support) - 1:  # the last variable takes what is left
            exps[w] = left
            add(coef, mul_nums(n, num, powers[i][left]))
        else:
            for e in range(left + 1):
                exps[w] = e
                walk(i + 1, left - e, coef * comb(left, e),
                     mul_nums(n, num, powers[i][e]))
        exps[w] = 0

    for den, row, mult in forms:
        lift = D // den
        support = [w for w in range(d) if any(row[w])]
        powers = []
        for w in support:
            a = [x * lift for x in row[w]]
            pw = [one]
            for _ in range(N):
                pw.append(mul_nums(n, pw[-1], a))
            powers.append(pw)
        if support:
            walk(0, N, mult, one)
        elif N == 0:  # 0^0 = 1, as in apply_operator
            add(mult, one)
    den = D**N * scale
    return Poly(p, g, N, n, {m: CycNum(n, nums, den) for m, nums in acc.items()})


def tau_operator(tag: str, g: int, r: int, p: int = 2) -> Operator:
    """pi(tau_r) on the genus-2g variables; r = 0 is the identity.

    The product d_phi * h' * d_phi: the off-diagonal pairing phase
    phi(v) = sum_{i<=r} v_i v_{g+i} / p on both ends, and in the middle the
    Fourier operator with the 2r kernel pairs (i, g+i) and (g+i, i), i <= r:
    kernel exp(2 pi i sum_{i<=r} (w_i v_{g+i} + w_{g+i} v_i)/p), scale p^(-r).
    """
    if not 0 <= r <= g:
        raise ValueError(f"tau_r needs 0 <= r <= g, got r = {r}, g = {g}")
    n, gg = run_conductor(p), 2 * g
    if r == 0:
        return Operator.identity(p, gg, n)
    pairing = QuadraticForm(tag, gg, p, [(0, 0)] * gg, {(i, g + i): 1 for i in range(r)})
    d_pair = _phase_operator(p, gg, *_d_cells(pairing))
    pairs = [(i, g + i) for i in range(r)] + [(g + i, i) for i in range(r)]
    return d_pair @ _phase_operator(p, gg, *_fourier_cells(pairs, gg, p)) @ d_pair


def delta_embed(g1: Operator, g2: Operator) -> Operator:
    """Delta(gamma_1, gamma_2) = (gamma_1 x 1) @ (1 x gamma_2) on X_(v1,v2)."""
    _check_same(g1, (g2.p, g2.g, g2.n))
    p, g, n = g1.p, g1.g, g1.n
    eye = np.eye(p**g, dtype=np.int64)[:, :, None]
    left = Operator(p, 2 * g, n, np.kron(g1.arr, eye), g1.den)
    return left @ Operator(p, 2 * g, n, np.kron(eye, g2.arr), g2.den)


# --- the exact linear algebra, one Fraction or CycNum per step ------------


def fraction_rref(rows: list[list[Fraction]]):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


def cycnum_inner_product(a: Poly, b: Poly) -> CycNum:
    """(a, b) = sum_m a_m * conj(b_m) * prod_v (n_v!), one CycNum per term."""
    a._like(b, degree=True)
    small = a.terms if len(a.terms) <= len(b.terms) else b.terms
    total = CycNum.zero(a.conductor)
    for m in small:
        ca = a.terms.get(m)
        cb = b.terms.get(m)
        if ca is None or cb is None:
            continue
        total = total + ca * cb.conj() * mono_factorial(m)
    return total


def fold_combine(pairs, like: Poly) -> Poly:
    """sum_i c_i * a_i as a fold of CycNum `+` per monomial, into a Poly shaped like `like`."""
    total: dict = {}
    for c, a in pairs:
        for m, t in (c * a).terms.items():
            total[m] = total[m] + t if m in total else t
    return Poly(like.p, like.g, like.N, like.conductor, total)


def weight_distribution(C: LinearCode) -> tuple[int, ...]:
    """The number of codewords of C of each Hamming weight 0..n."""
    dist = [0] * (C.n + 1)
    for w in C.words:
        dist[w.bit_count() if C.p == 2 else sum(1 for x in w if x)] += 1
    return tuple(dist)


def pair_y(P: dict, f: Poly) -> Poly:
    """Inner product in the y variables of a dmap image; conjugate-linear in f."""
    zero = CycNum.zero(f.conductor)
    return combine([(f.terms.get(my, zero).conj() * mono_factorial(my), px)
                    for my, px in P.items()], f)


def row_genus2_counts(words, n: int) -> Counter:
    """The genus-2 counts of weightenum._genus2_counts, one byte row per word.

    For each kept c1 and each weight class at or after its own, the row holds
    |c1 AND c2| for every later c2, one popcount call per pair; each
    unordered pair of distinct words adds both orders, and each word adds
    its diagonal.  The all-ones expansion is the kernel's, with no budget.
    """
    top = 1 << (n - 1)
    klein = 2 * top - 1 in words
    classes: dict[int, list] = {}
    for w in words:
        if not (klein and w & top):
            classes.setdefault(w.bit_count(), []).append(w)
    order = sorted(classes.items())
    bins: Counter = Counter()
    for i, (w1, cls1) in enumerate(order):
        bins[n - w1, 0, 0, w1] = len(cls1)
        for j, c1 in enumerate(cls1):
            for w2, cls2 in order[i:]:
                row = bytes(map(int.bit_count, map(c1.__and__, cls2[j + 1:] if w2 == w1 else cls2)))
                for n11 in range(max(0, w1 + w2 - n), w1 + 1):
                    if k := row.count(n11):
                        a = n - w1 - w2 + n11
                        for key in ((a, w2 - n11, w1 - n11, n11), (a, w1 - n11, w2 - n11, n11)):
                            bins[key] += k
    if not klein:
        return bins
    counts: Counter = Counter()
    for (a, b, c, d), k in bins.items():
        for key in ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)):
            counts[key] += k
    return counts
