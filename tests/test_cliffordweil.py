"""Group closures, cosets, Eisenstein averages, and the doubling operators."""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cweil
import cweil.cliffordweil as cw
from cweil.cliffordweil import (
    PREDICTED_ORDER,
    ClosureError,
    QuadraticForm,
    center_order,
    coset_labels,
    eisenstein_coset,
    gl_generators,
    group_closure,
    parabolic_closure,
    seed_orbit,
    seed_poly,
    _d_cells,
    _h_cells,
    _m_cells,
)
from cweil.cyclo import CycNum, phi_degree
from cweil.poly import Poly, apply_operator, combine, index_vector, serialize_poly
from cweil.weightenum import cwe, run_conductor
from tests import closures
from tests.closures import (
    CLOSURE_CAP,
    Int64OverflowError,
    Operator,
    _batch_mul,
    _fold,
    _keys,
    _phase_operator,
    all_quadforms,
    as_int64,
    center_generator,
    close_group,
    delta_embed,
    factored_keys,
    form_value,
    full_closure,
    generators,
    generic_coset_labels,
    gl_matrices,
    matrix_coset_labels,
    mul_table,
    orbit_group,
    orbit_parabolic,
    power_sum,
    stored_parabolic,
    tau_operator,
    textbook_cells,
)
from tests.constructions import e8, tetracode

def gen_m(u, p: int, g: int) -> Operator:
    return _phase_operator(p, g, *_m_cells(u, p, g))


def gen_h(r: int, g: int, p: int) -> Operator:
    return _phase_operator(p, g, *_h_cells(r, g, p))


def gen_d(phi: QuadraticForm) -> Operator:
    return _phase_operator(phi.p, phi.g, *_d_cells(phi))


# (tag, g, p) -> (|C_g|, |P_g| with scalars, # parabolic cosets)
GROUP_TABLE = {
    ("2I", 1, 2): (16, 4, 4),
    ("2I", 2, 2): (2304, 96, 24),
    ("2II", 1, 2): (192, 32, 6),
    ("2II", 2, 2): (92160, 1536, 60),
    ("Q", 1, 3): (96, 24, 4),
    ("Q1", 1, 3): (2592, 216, 12),
}


@pytest.mark.parametrize("key", sorted(GROUP_TABLE))
def test_closure_and_coset_orders(key):
    tag, g, p = key
    order, parab, ncosets = GROUP_TABLE[key]
    G = group_closure(tag, g, p)
    P = parabolic_closure(tag, g, p)
    assert G.order == order
    assert P.order == parab
    reps, label = coset_labels(G, P)
    assert len(reps) == ncosets
    # a slice reads each element it picks
    assert [op.entries() for op in G[0:2]] == [G[0].entries(), G[1].entries()]
    assert [op.entries() for op in reps[-2:]] == [reps[-2].entries(), reps[-1].entries()]
    assert label[parab - 1:parab + 1] == [0, 1]


@pytest.mark.parametrize("key", [("2I", 1, 2), ("2II", 1, 2), ("Q", 1, 3), ("2II", 2, 2)])
def test_every_textbook_generator_lands_in_closure(key):
    tag, g, p = key
    G = group_closure(tag, g, p)
    for op in generators(tag, g, p, reduced=False):
        assert op in G


@pytest.mark.parametrize("key", sorted(GROUP_TABLE))
def test_generators_unitary(key):
    tag, g, p = key
    for op in generators(tag, g, p):
        assert op.is_unitary()


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_cycnum_operator_unitarity(key):
    # every generator built from its cells is the oracle's matrix, and
    # unitary; h_1 without its scalar p^(-1/2), 2 * identity, and x_v -> x_0
    # (unit rows that are not orthogonal), are not
    tag, g, p = key
    for cells in textbook_cells(tag, g, p):
        op = cw.Operator.from_cells(p, g, *cells)
        assert as_int64(op) == _phase_operator(p, g, *cells)
        assert op.is_unitary()
    assert not cw.Operator.from_cells(p, g, _h_cells(1, g, p)[0]).is_unitary()
    one = cw.Operator.from_cells(p, g, [(v, v, 0) for v in range(p**g)])
    assert one.is_unitary()
    assert not cw.Operator(p, g, one.n, [[2 * x for x in row] for row in one.rows]).is_unitary()
    assert not cw.Operator(p, g, one.n, [one.rows[0]] * p**g).is_unitary()


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_elements_read_off_their_permutation_match_their_words(key):
    # oracle: element i multiplied out, in int64, from the words of
    # H[i % |H|], zeta_z^k and t_(i // |P|) in the generators
    G, P = group_closure(*key), parabolic_closure(*key)
    rng = random.Random(23)
    picks = [0, P.order - 1, P.order, G.order - 1] + [rng.randrange(G.order) for _ in range(25)]
    for i in picks:
        op = G[i]
        assert op in G
        assert G.action.locate(op) == i // P.order
        assert as_int64(op) == closures.word_operator(G.action, i)
    # the rep of a nontrivial coset lies outside P
    rep = G[P.order]
    assert rep not in P
    # a row is read over the lcm of its entries' denominators: with one
    # entry of x_0's row scaled by its denominator, the row's norm is no
    # longer 1, and the matrix is in no unitary group
    rows = rep.entries()
    w = next(w for w, x in enumerate(rows[0]) if x.den > 1)
    rows[0][w] = rows[0][w] * rows[0][w].den
    assert cw.Operator(rep.p, rep.g, rep.n, rows) not in G


@pytest.mark.parametrize(
    "tag,p,z", [("2I", 2, 2), ("2II", 2, 8), ("Q", 3, 4), ("Q1", 3, 12)]
)
def test_center_scalar_order(tag, p, z):
    zgen = center_generator(tag, p, 1)
    assert len(close_group([zgen])) == z
    assert zgen in group_closure(tag, 1, p)


def test_quadform_eval():
    phi = QuadraticForm("2II", 2, 2, (1, 2), {(0, 1): 1})
    assert phi((1, 1)) == 2  # 1/4 + 2/4 + 1/2 mod 1 = 2/8
    assert phi((0, 1)) == 4
    assert QuadraticForm("2I", 1, 2, (1,))((1,)) == 4
    assert QuadraticForm("Q", 1, 3, (2,))((2,)) == 8  # 2/3 = 8/12
    assert QuadraticForm("Q1", 1, 3, ((1, 2),))((2,)) == 8


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_integer_phases_match_the_rational_definition(key):
    # phi(v) = k means exp(2 pi i phi(v)) = zeta_n^k: k / n is the form's
    # value mod 1, for every form and every v; so is each Fourier cell's k,
    # against sum w_a v_b / p, on h_r's kernel pairs and on crossed ones
    tag, g, p = key
    n = run_conductor(p)
    for phi in all_quadforms(tag, g, p):
        for v in iproduct(range(p), repeat=g):
            k = phi(v)
            assert k in range(n) and Fraction(k, n) == form_value(phi, v)
    kernels = [[(i, i) for i in range(r)] for r in range(1, g + 1)]
    if g == 2:
        kernels.append([(0, 1), (1, 0)])
    for pairs in kernels:
        for i, j, k in cw._fourier_cells(pairs, g, p)[0]:
            v, w = index_vector(i, p, g), index_vector(j, p, g)
            assert Fraction(k, n) == Fraction(sum(w[a] * v[b] for a, b in pairs), p) % 1


def test_quadform_counts():
    assert len(list(all_quadforms("2I", 2, 2))) == 8
    assert len(list(all_quadforms("2II", 2, 2))) == 32
    assert len(list(all_quadforms("Q", 1, 3))) == 3
    assert len(list(all_quadforms("Q1", 1, 3))) == 9


def test_substitution_composition_order():
    # acting by m_{u1} then m_{u2} is the matrix product, i.e. m_{u2 u1}
    for u1 in gl_matrices(2, 2):
        for u2 in gl_matrices(2, 2):
            u21 = [
                [sum(u2[i][k] * u1[k][j] for k in range(2)) % 2 for j in range(2)]
                for i in range(2)
            ]
            assert gen_m(u1, 2, 2) @ gen_m(u2, 2, 2) == gen_m(u21, 2, 2)


def test_diagonal_phases_add():
    p1 = QuadraticForm("2II", 2, 2, (1, 3), {(0, 1): 1})
    p2 = QuadraticForm("2II", 2, 2, (3, 2), {(0, 1): 1})
    psum = QuadraticForm("2II", 2, 2, (0, 1))  # labels mod 4, offdiag mod 2
    assert gen_d(p1) @ gen_d(p2) == gen_d(psum)


def test_fourier_squares():
    assert gen_h(1, 1, 2) @ gen_h(1, 1, 2) == Operator.identity(2, 1, 8)
    # for odd p the full transform squares to the sign flip x_v -> x_{-v}
    assert gen_h(1, 1, 3) @ gen_h(1, 1, 3) == gen_m([[-1]], 3, 1)


def _matmul_bfs(gens) -> set:
    """The closure the slow way: one Operator.__matmul__ per element and generator."""
    one = Operator.identity(gens[0].p, gens[0].g, gens[0].n)
    seen = {(one.den, one.arr.tobytes())}
    frontier = [one]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = x @ s
                if (y.den, y.arr.tobytes()) not in seen:
                    seen.add((y.den, y.arr.tobytes()))
                    new.append(y)
        frontier = new
    return seen


@pytest.mark.parametrize("key", [("2I", 1, 2), ("2I", 2, 2), ("2II", 1, 2),
                                 ("Q", 1, 3), ("Q1", 1, 3)])
def test_coset_closure_matches_plain_matmul_bfs(key):
    G = group_closure(*key)
    assert {(op.den, op.arr.tobytes()) for op in map(as_int64, G)} == \
        _matmul_bfs(generators(*key))


@pytest.mark.parametrize("key", [("2II", 2, 2), ("Q1", 1, 3)])
def test_batched_kernel_matches_matmul(key):
    # oracle: the entries of each product as sums of CycNum products, since
    # Operator.__matmul__ is itself a batched product of one
    rng = random.Random(7)
    gens = generators(*key)

    def word():
        x = rng.choice(gens)
        for _ in range(rng.randrange(6)):
            x = x @ rng.choice(gens)
        return x

    left = [word() for _ in range(5)]
    for _ in range(5):
        right = word()
        raw, dens = _batch_mul(np.stack([a.arr for a in left]),
                               np.array([a.den for a in left], dtype=np.int64),
                               _fold(right.arr, mul_table(right.n)), right.den)
        d, zero = right.p**right.g, CycNum.zero(right.n)
        for a, arr, den in zip(left, raw, dens):
            expect = [[sum((a.entry(i, k) * right.entry(k, j) for k in range(d)), zero)
                       for j in range(d)] for i in range(d)]
            assert Operator(a.p, a.g, a.n, arr, int(den)).entries() == expect
            assert den == lcm(*(c.den for row in expect for c in row))  # gcd-normalised


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_factored_closure_holds_the_oracle_elements(key):
    G, oracle = orbit_group(*key), full_closure(*key)
    keys = factored_keys(G)
    assert len(keys) == G.order == oracle.order
    assert set(keys) == set(oracle.index)
    assert [G[i].fingerprint() for i in (0, 1, G.h, G.order - 1)] == \
        [keys[i] for i in (0, 1, G.h, G.order - 1)]


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_membership_agrees_with_the_oracle(key):
    tag, g, p = key
    G, oracle = group_closure(*key), full_closure(*key)
    n, d = run_conductor(p), p**g
    one = Operator.identity(p, g, n)
    big = one.arr.copy()
    big[d - 1, d - 1, 0] = 128  # x_0 is fixed, and the entry has an int64 fingerprint
    zeta = _phase_operator(p, g, [(i, i, int(i == d - 1)) for i in range(d)])
    inside = generators(tag, g, p, reduced=False) + [center_generator(tag, p, g)]
    if g == 2:
        inside.append(tau_operator(tag, 1, 1, p))
    outside = [Operator(p, g, n, big, 1), Operator(p, g, n, one.arr * 128, 1),
               zeta, zeta @ generators(tag, g, p)[-1]]
    assert [op in oracle for op in inside + outside] == [True] * len(inside) + [False] * 4
    assert [op in G for op in inside + outside] == [True] * len(inside) + [False] * 4


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_parabolic_by_orbit_holds_the_plain_closure(key):
    # P_g's orbit of x_0 is mu_z x_0, and its cosets of H hold exactly the
    # elements of the plain closure of P_g's generators
    tag, g, p = key
    P, oracle = orbit_parabolic(*key), stored_parabolic(*key)
    assert P.t_den.size == center_order(tag, p)
    keys = factored_keys(P)
    assert len(keys) == P.order == oracle.order
    assert set(keys) == set(oracle.index)
    # the certified P_g = H x mu_z builds the same elements from its words
    certified = parabolic_closure(*key)
    assert {as_int64(op).fingerprint() for op in certified} == set(oracle.index)


@pytest.mark.parametrize("tag", ["2I", "2II"])
def test_coset_labels_match_generic_labelling(tag):
    G, P = orbit_group(tag, 2, 2), orbit_parabolic(tag, 2, 2)
    reps, label = matrix_coset_labels(G, P)
    assert Counter(label) == dict.fromkeys(range(len(reps)), P.order)
    keys = factored_keys(G)
    # each rep is the first element of its coset in G
    assert [r.fingerprint() for r in reps] == [keys[label.index(c)] for c in range(len(reps))]
    # the cosets of the full closure, labelled generically, are the same sets
    oracle = full_closure(tag, 2, 2)
    _, expect = generic_coset_labels(oracle, stored_parabolic(tag, 2, 2))
    oracle_keys = _keys(oracle.arr, oracle.den)

    def cosets(labels, fingerprints) -> set:
        out: dict = {}
        for c, key in zip(labels, fingerprints):
            out.setdefault(c, set()).add(key)
        return {frozenset(keys) for keys in out.values()}

    assert cosets(label, keys) == cosets(expect, oracle_keys)
    # the certified reps lie one in each coset of the oracle, and element i
    # of the certified group lies in the coset of rep i // |P|
    G, P = group_closure(tag, 2, 2), parabolic_closure(tag, 2, 2)
    reps, label = coset_labels(G, P)

    def oracle_coset(op) -> int:
        return expect[oracle.index[as_int64(op).fingerprint()]]

    assert sorted(map(oracle_coset, reps)) == list(range(len(reps)))
    for i in random.Random(5).sample(range(G.order), 40):
        assert label[i] == i // P.order
        assert oracle_coset(G[i]) == oracle_coset(reps[label[i]])


def test_int64_overflow_raises_instead_of_wrapping():
    T = mul_table(8)
    one = Operator.identity(2, 1, 8)
    ok = Operator(2, 1, 8, one.arr * 2**20, 1)
    assert (ok @ ok).arr[0, 0, 0] == 2**40
    big = Operator(2, 1, 8, one.arr * (2**40 + 1), 1)  # its square is about 2^80
    with pytest.raises(Int64OverflowError):
        big @ big
    with pytest.raises(Int64OverflowError):
        _batch_mul(big.arr[None], np.array([1]), _fold(big.arr, T), 1)
    with pytest.raises(Int64OverflowError):
        _fold(one.arr * 2**62, T)
    with pytest.raises(Int64OverflowError):
        delta_embed(big, big)


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_certified_orders_match_the_matrix_oracle(key):
    G, P = group_closure(*key), parabolic_closure(*key)
    oracle_G, oracle_P = orbit_group(*key), orbit_parabolic(*key)
    assert (G.order, P.order, len(coset_labels(G, P)[0])) == GROUP_TABLE[key]
    assert (oracle_G.order, oracle_P.order,
            len(matrix_coset_labels(oracle_G, oracle_P)[0])) == GROUP_TABLE[key]


def _sub_from_its_first_generator(tree):
    # close H from its first generator alone, and leave the transversal
    # (keyed by the line of x_0, 0 for the identity)
    def patched(one, gens, key, limit, refusal):
        return tree(one, gens if key(one) == 0 else gens[:1], key, limit, refusal)
    return patched


def _phaseless(canon):
    def patched(self, den, nums):
        return 0, canon(self, den, nums)[1]
    return patched


def _h1_first(cells):
    # h_1 put in front of the generators, so that H = <h_1, m_u, d_phi>
    return lambda tag, g, p: cells(tag, g, p)[-g:][:1] + cells(tag, g, p)


def _unscaled(cells):
    # without h_1's scalar 2^(-1/2) the lines reached from the x_v never end
    return lambda *a: [(c, None) for c, _ in cells(*a)]


# one fault per check of the line-action certificate: (tag, g, p), the
# patch, and the ClosureError it raises
CERTIFICATE_FAULTS = [
    # every line's phase read as 1, so zeta_z * I acts as the identity
    (("2II", 1, 2), lambda mp: mp.setattr(cw._Rows, "canon", _phaseless(cw._Rows.canon)),
     "the center generator is not the scalar zeta_z"),
    (("2II", 1, 2), lambda mp: mp.setattr(cw, "generator_cells", _h1_first(cw.generator_cells)),
     "a generator of the subgroup moves x_0"),
    (("2II", 1, 2), lambda mp: mp.setitem(cw.PREDICTED_PARABOLIC, ("2II", 1, 2), 64),
     "closure has order 32, predicted 64"),
    (("2II", 1, 2), lambda mp: mp.setitem(cw.PREDICTED_ORDER, ("2II", 1, 2), 100),
     "closure order exceeds the predicted 100"),
    (("2II", 1, 2), lambda mp: mp.setattr(cw, "generator_cells", _unscaled(cw.generator_cells)),
     "the orbits of the x_v pass 48 lines, too many for the predicted 192"),
    # H = {1} with |P| = 8 and |G| = 48: the Schreier generator d_phi is outside
    (("2II", 1, 2), lambda mp: (mp.setattr(cw, "_tree", _sub_from_its_first_generator(cw._tree)),
                                mp.setitem(cw.PREDICTED_PARABOLIC, ("2II", 1, 2), 8),
                                mp.setitem(cw.PREDICTED_ORDER, ("2II", 1, 2), 48)),
     "a Schreier generator lies outside the subgroup"),
    # i = zeta_4 is no scalar of the real group C_1 of type 2I: with |Z|
    # taken as 4, every Schreier phase is +-1 and <H, i> is not in C_1
    (("2I", 1, 2), lambda mp: (mp.setitem(cw.CENTER_ORDER, "2I", 4),
                               mp.setitem(cw.PREDICTED_PARABOLIC, ("2I", 1, 2), 8),
                               mp.setitem(cw.PREDICTED_ORDER, ("2I", 1, 2), 32)),
     "P is not a subgroup of G"),
    (("2I", 1, 2), lambda mp: mp.setitem(cw.PREDICTED_ORDER, ("2I", 1, 2), 17),
     "closure has order 16, predicted 17"),
]


def _clear_closures():
    for f in (cw._line_action, group_closure, parabolic_closure):
        f.cache_clear()


@pytest.mark.parametrize("key,patch,message", CERTIFICATE_FAULTS,
                         ids=["center", "subgroup-moves-x0", "parabolic-order", "orbit-past-order",
                              "lines-past-order", "schreier", "p-not-subgroup", "group-order"])
def test_line_action_certificate_raises(monkeypatch, key, patch, message):
    _clear_closures()
    patch(monkeypatch)
    try:
        for closure in (group_closure, parabolic_closure):
            with pytest.raises(ClosureError) as err:
                closure(*key)
            assert str(err.value) == message
    finally:
        monkeypatch.undo()
        _clear_closures()


def test_line_action_certificate_survives_python_O():
    # under -O an assert would let each fault through
    code = (
        "import pytest\n"
        "from cweil import cliffordweil as cw\n"
        "from tests.test_cliffordweil import CERTIFICATE_FAULTS\n"
        "for key, patch, message in CERTIFICATE_FAULTS:\n"
        "    with pytest.MonkeyPatch.context() as mp:\n"
        "        patch(mp)\n"
        "        cw._line_action.cache_clear()\n"
        "        try:\n"
        "            cw.group_closure(*key)\n"
        "            print('accepted')\n"
        "        except cw.ClosureError as exc:\n"
        "            print(exc)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [message for _, _, message in CERTIFICATE_FAULTS]


def test_closure_certificates_raise(monkeypatch):
    gens = generators("2II", 1, 2)
    with pytest.raises(ClosureError, match="predicted"):
        close_group(gens, expect=191)
    with pytest.raises(ClosureError, match="predicted"):
        close_group(gens, expect=193)
    # the cap is read at call time
    monkeypatch.setattr(closures, "CLOSURE_CAP", 100)
    with pytest.raises(ClosureError, match="cap"):
        close_group(gens)


def test_closure_refuses_an_int64_overflow():
    # the powers of 2 * identity never close: the closure raises once a
    # product could pass int64, long before the cap, and no power wraps
    one = Operator.identity(2, 1, 8)
    with pytest.raises(Int64OverflowError, match="a batched operator product could overflow"):
        close_group([Operator(2, 1, 8, one.arr * 2, 1)])


def test_int64_refusal_survives_python_O():
    code = (
        "import sys\n"
        "from tests import closures\n"
        "one = closures.Operator.identity(2, 1, 8)\n"
        "try:\n"
        "    closures.close_group([closures.Operator(2, 1, 8, one.arr * 2, 1)])\n"
        "except closures.Int64OverflowError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(3)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 3, out.stderr
    assert "a batched operator product could overflow int64" in out.stdout


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_closures_store_int8(key):
    # every element of the groups has entries in int8, so its fingerprint
    # is the int8 bytes of (den, numerators); the stored H keeps them int64
    tag, g, p = key
    n = run_conductor(p)
    size = (p**g) ** 2 * phi_degree(n)
    G, H = full_closure(*key), closures._monomial_subgroup(*key)
    assert {len(k) for k in G.index} == {len(k) for k in H.index} == {1 + size}
    assert H.arr.dtype == H.den.dtype == np.int64
    # an operator outside int8 still has a fingerprint, and is not in G
    big = Operator(p, g, n, Operator.identity(p, g, n).arr * 128, 1)
    assert big not in G and big not in group_closure(*key)
    assert len(big.fingerprint()) == 8 * (1 + size)


def test_order_certificate_survives_python_O():
    # under -O an assert would accept 17 for the order-16 group
    code = (
        "import sys\n"
        "from cweil import cliffordweil as cw\n"
        "cw.PREDICTED_ORDER[('2I', 1, 2)] = 17\n"
        "try:\n"
        "    cw.group_closure('2I', 1, 2)\n"
        "except cw.ClosureError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(3)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 3, out.stderr
    assert "closure has order 16, predicted 17" in out.stdout


def test_orbit_closure_certificates_raise(monkeypatch):
    # a subgroup generator that moves x_0 (h_1), an orbit past the predicted
    # order, and a subgroup too small to hold the stabiliser of x_0 ({1}:
    # the Schreier generator d_phi, which fixes x_0, lies outside it)
    gens = generators("2II", 1, 2)
    H = closures._monomial_subgroup("2II", 1, 2)
    with pytest.raises(ClosureError, match="a generator of the subgroup moves x_0"):
        closures.orbit_closure(gens, close_group(gens[-1:]), 192)
    with pytest.raises(ClosureError, match="closure order exceeds the predicted 100"):
        closures.orbit_closure(gens, H, 100)
    with pytest.raises(ClosureError, match="a Schreier generator lies outside the subgroup"):
        closures.orbit_closure(gens, close_group(gens[:1]), 192)
    monkeypatch.setattr(closures, "_monomial_subgroup", lambda tag, g, p: close_group(gens[:1]))
    orbit_group.cache_clear()
    try:
        with pytest.raises(ClosureError, match="a Schreier generator lies outside the subgroup"):
            orbit_group("2II", 1, 2)
    finally:
        orbit_group.cache_clear()


def test_schreier_certificate_survives_python_O():
    # under -O an assert would accept |O| |{1}| = 48 as the order
    code = (
        "import sys\n"
        "from cweil import cliffordweil as cw\n"
        "from tests import closures\n"
        "closures._monomial_subgroup = lambda tag, g, p: closures.close_group(closures.generators(tag, g, p)[:1])\n"
        "cw.PREDICTED_ORDER[('2II', 1, 2)] = 48\n"
        "try:\n"
        "    closures.orbit_group('2II', 1, 2)\n"
        "except cw.ClosureError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(3)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 3, out.stderr
    assert "a Schreier generator lies outside the subgroup" in out.stdout


def test_cusp_and_generator_checks_survive_python_O():
    # under -O an assert would label a mixed e8 + d16+ basis N = 8, and let
    # h_0 through
    code = (
        "from cweil.cliffordweil import _h_cells\n"
        "from tests.constructions import d16_plus, e8\n"
        "from cweil.siegelphi import cusp_basis\n"
        "for call in [lambda: cusp_basis({'e8': e8(), 'd16+': d16_plus()}, 1),\n"
        "             lambda: _h_cells(0, 1, 2)]:\n"
        "    try:\n"
        "        call()\n"
        "        print('accepted')\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "cusp_basis needs codes of one field, length and type",
        "h_r needs 1 <= r <= g, got r = 0, g = 1",
    ]


@pytest.mark.parametrize("make", [
    lambda: QuadraticForm("2II", 2, 2, (1,)),
    lambda: QuadraticForm("2II", 2, 2, (1, 0), {(1, 0): 1}),
    lambda: QuadraticForm("Q", 2, 3, (1, 0), {(0, 1): 3}),
    lambda: tau_operator("2I", 1, 2),
], ids=["diag-length", "offdiag-order", "offdiag-range", "tau-r"])
def test_generator_inputs_raise(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make", [
    lambda: Operator(2, 1, 8, np.zeros((2, 2, 4)), 0),
    lambda: Operator(2, 1, 8, np.zeros((2, 2, 3)), 1),
    lambda: Operator.identity(2, 1, 8) @ Operator.identity(3, 1, 12),
    lambda: Operator.identity(2, 1, 8).apply(Poly(2, 2, 1, 8, {(1, 0, 0, 0): 1})),
    lambda: delta_embed(Operator.identity(2, 1, 8), Operator.identity(2, 2, 8)),
    lambda: gl_generators(2, 3),
    lambda: cw.Operator(2, 1, 8, [[CycNum.zero(8)] * 2]),
    lambda: cw.Operator.from_cells(2, 1, [(0, 0, 0), (1, 1, 0)]).apply(
        Poly(2, 2, 1, 8, {(1, 0, 0, 0): 1})),
], ids=["den", "shape", "matmul", "apply", "delta", "gl-genus", "rows", "cycnum-apply"])
def test_operator_inputs_raise(make):
    with pytest.raises(ValueError):
        make()


def _small_operator(data, p: int) -> Operator:
    n = run_conductor(p)
    size = p * p * phi_degree(n)
    nums = data.draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    arr = np.array(nums, dtype=np.int64).reshape(p, p, phi_degree(n))
    return Operator(p, 1, n, arr, data.draw(st.integers(1, 6)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_operator_arithmetic_matches_cycnum(p, data):
    # the int64 numerator stacks against CycNum's own multiply and conjugate
    A, B = _small_operator(data, p), _small_operator(data, p)
    AB, At = A @ B, A.conj_t()
    zero = CycNum.zero(A.n)
    for i in range(p):
        for j in range(p):
            assert AB.entry(i, j) == sum((A.entry(i, k) * B.entry(k, j) for k in range(p)), zero)
            assert At.entry(i, j) == A.entry(j, i).conj()


def _run_python_O(code: str) -> subprocess.CompletedProcess:
    """Run code under python -O, which strips every assert, with cweil and
    the tests package (for tests.constructions) importable."""
    src = os.path.dirname(os.path.dirname(cweil.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, root] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_closure_refuses_unknown_or_oversized():
    with pytest.raises(ValueError):
        group_closure("2II", 3, 2)
    with pytest.raises(ValueError):
        group_closure("Q", 1, 5)
    # group_closure takes only predicted triples, and each fits under the cap
    assert all(order <= CLOSURE_CAP for order in PREDICTED_ORDER.values())


def test_eisenstein_genus1_e8():
    E = eisenstein_coset("2II", 1, 8)
    assert E == Fraction(5, 12) * cwe(e8(), 1)


def test_eisenstein_genus1_tetracode():
    E = eisenstein_coset("Q", 1, 4, p=3)
    assert E == Fraction(1, 3) * cwe(tetracode(), 1)


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        eisenstein_coset("2II", 1, 4)


@pytest.mark.parametrize("tag,g,p", sorted(PREDICTED_ORDER))
def test_eisenstein_refuses_the_least_length_past_the_size_budget(monkeypatch, tag, g, p):
    # refused from the inputs alone, before any monomial or power table
    monkeypatch.setattr(cw, "invariant_monomials", None)
    z, d = center_order(tag, p), p**g
    N = z
    while N * comb(N + d - 1, d - 1) <= cw.COSET_BUDGET:
        N += z
    assert N > 48
    with pytest.raises(ValueError, match=f"--length {N} at --genus {g}"):
        eisenstein_coset(tag, g, N, p)


@pytest.mark.parametrize("tag,g,N,p", [
    ("2II", 1, 8, 2), ("2I", 1, 8, 2), ("2I", 2, 8, 2),
    ("Q", 1, 4, 3), ("Q1", 1, 12, 3),
])
def test_power_sum_kernel_matches_generic_substitution(tag, g, N, p):
    # oracle: substitute every coset rep into the seed, then average
    reps = coset_labels(group_closure(tag, g, p), parabolic_closure(tag, g, p))[0]
    seed = seed_poly(tag, g, N, p)
    average = combine([(Fraction(1, len(reps)), rep.apply(seed)) for rep in reps], seed)
    assert eisenstein_coset(tag, g, N, p) == average
    # and so does the full expansion of the power sum over the orbit rows
    rows, size = seed_orbit(tag, g, p), len(cw.seed_vars(tag, g, p))
    assert power_sum(p, g, N, [(den, nums, size) for den, nums in rows], len(rows)) == average


# one weight per desk-scale (tag, g, p), and |O| / |S| for each: E_g is the
# sum of l^N over the orbit O of x_0 divided by it, and |O| is the index
ORBIT_CASES = [("2I", 1, 8, 2, 2), ("2II", 1, 8, 2, 3), ("2I", 2, 8, 2, 6),
               ("2II", 2, 8, 2, 15), ("Q", 1, 4, 3, 4), ("Q1", 1, 12, 3, 12)]


@pytest.mark.parametrize("tag,g,N,p,orbit", ORBIT_CASES)
def test_orbit_average_matches_coset_rep_power_sum(tag, g, N, p, orbit):
    # oracle: the power sum over the seed's rows of every coset rep of P\G
    reps = coset_labels(group_closure(tag, g, p), parabolic_closure(tag, g, p))[0]
    used = range(p**g) if tag in ("2I", "2II") else range(1)
    forms: dict = {}
    for rep in map(as_int64, reps):
        for v in used:
            form = forms.setdefault((rep.den, rep.arr[v].tobytes()),
                                    [rep.den, rep.arr[v].tolist(), 0])
            form[2] += 1
    expect = power_sum(p, g, N, forms.values(), len(reps))
    assert eisenstein_coset(tag, g, N, p) == expect
    assert len(seed_orbit(tag, g, p)) == orbit * len(used) == len(reps)


@pytest.mark.parametrize("tag,g,N,p,orbit", ORBIT_CASES)
@pytest.mark.parametrize("times", [1, 2])
def test_invariant_monomials_are_the_support_of_the_full_expansion(tag, g, N, p, orbit, times):
    # the monomials that no d_phi moves are exactly those the full power sum
    # over the orbit keeps, and the average is the full expansion
    N *= times
    rows, size = seed_orbit(tag, g, p), len(cw.seed_vars(tag, g, p))
    full = power_sum(p, g, N, [(den, nums, size) for den, nums in rows], len(rows))
    monomials = cw.invariant_monomials(tag, g, N, p)
    assert len(set(monomials)) == len(monomials)
    assert set(monomials) == set(full.terms)
    assert eisenstein_coset(tag, g, N, p) == full


@pytest.mark.parametrize("tag,g,N,p,orbit", ORBIT_CASES)
def test_orbit_rows_are_the_coset_rep_rows_mod_center(tag, g, N, p, orbit):
    # oracle for the Python-int row arithmetic: taken as CycNums, the orbit's
    # rows are one per class modulo mu_z, and their classes are exactly those
    # of the used rows of the coset reps, computed by Operator products
    n, z, d = run_conductor(p), center_order(tag, p), p**g
    zetas = [CycNum.zeta_pow(n, k * n // z) for k in range(z)]

    def cls(row) -> frozenset:
        return frozenset(tuple(c * u for c in row) for u in zetas)

    rows = [cls([CycNum(n, a, den) for a in nums]) for den, nums in seed_orbit(tag, g, p)]
    reps = list(map(as_int64, coset_labels(group_closure(tag, g, p),
                                           parabolic_closure(tag, g, p))[0]))
    used = range(d) if tag in ("2I", "2II") else range(1)
    assert len(set(rows)) == len(rows)
    assert set(rows) == {cls([rep.entry(v, w) for w in range(d)]) for rep in reps for v in used}
    # the certificate's orbit of [x_0] is seed_orbit's, row for row
    action = group_closure(tag, g, p).action
    assert {action.rows[c] for c in action.pos} == set(seed_orbit(tag, g, p))


def test_orbit_average_closes_no_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit average closed a group")

    for name in ("group_closure", "parabolic_closure", "_line_action"):
        monkeypatch.setattr(cw, name, refuse)
    seed_orbit.cache_clear()
    E = eisenstein_coset("2II", 2, 8)
    # the golden stdout digest of `eisenstein --type 2II --length 8 --genus 2`
    assert hashlib.sha256(serialize_poly(E).encode()).hexdigest().startswith("a2f8991d")


def test_orbit_search_stops_past_the_index(monkeypatch):
    # without h_1's scalar 2^(-1/2) the rows grow without end; the search
    # stops once the rows outnumber the index 192/32 = 6
    cells = cw.generator_cells
    monkeypatch.setattr(cw, "generator_cells", lambda *a: [(c, None) for c, _ in cells(*a)])
    seed_orbit.cache_clear()
    with pytest.raises(ClosureError, match="does not divide the index 192/32"):
        seed_orbit("2II", 1, 2)


def test_orbit_certifies_that_it_holds_every_seed_variable(monkeypatch):
    # without the h_r, x_0 is fixed: an orbit of 1 row divides the index
    # 192/32, but x_1 is not in it, so the seed's average is not read off it
    cells = cw.generator_cells
    monkeypatch.setattr(cw, "generator_cells", lambda tag, g, p: cells(tag, g, p)[:-g])
    seed_orbit.cache_clear()
    with pytest.raises(ClosureError, match="x_1 of the seed is not in the orbit of x_0"):
        eisenstein_coset("2II", 1, 8)
    seed_orbit.cache_clear()
    assert len(seed_orbit("Q", 1, 3)) == 1  # S = {0}: x_0 alone is enough
    seed_orbit.cache_clear()


@pytest.mark.parametrize("key", [("2II", 3, 2), ("Q", 2, 3), ("2I", 1, 3)])
def test_unpredicted_triples_are_refused_before_any_closure(monkeypatch, key):
    def refuse(*args, **kwargs):
        raise AssertionError("a closure was attempted")

    monkeypatch.setattr(cw, "_line_action", refuse)
    for f in (group_closure, parabolic_closure, seed_orbit):
        with pytest.raises(ValueError, match=r"no feasible closure for \("):
            f(*key)


def test_orbit_certificate_survives_python_O():
    # the search stops at 5 rows, past the index 192/48 = 4 (|O| is 6)
    code = (
        "import sys\n"
        "from cweil import cliffordweil as cw\n"
        "cw.PREDICTED_PARABOLIC[('2II', 1, 2)] = 48\n"
        "try:\n"
        "    cw.eisenstein_coset('2II', 1, 8)\n"
        "except cw.ClosureError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(3)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 3, out.stderr
    assert "orbit of 5 rows does not divide the index 192/48" in out.stdout


@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_power_sum_of_one_form_with_a_zero_entry(N):
    # l = (1+z)/2 x_0 + 0 x_1 - z^2 x_2 + (3+z^3)/2 x_3 over Q(zeta_8)
    row = [CycNum(8, (1, 1, 0, 0), 2), CycNum.zero(8),
           CycNum(8, (0, 0, -1, 0)), CycNum(8, (3, 0, 0, 1), 2)]
    nums = [[int(x) for x in (c * 2).nums] for c in row]
    zero_row = [CycNum.zero(8)] * 4
    seed = Poly(2, 2, N, 8, {(N, 0, 0, 0): 1})
    expect = apply_operator(seed, [row] + [zero_row] * 3)
    assert power_sum(2, 2, N, [(2, nums, 1)], 1) == expect
    assert power_sum(2, 2, N, [(2, nums, 3)], 3) == expect
    # the zero form: 0^N, which is 1 at N = 0
    assert power_sum(2, 2, N, [(1, [[0] * 4] * 4, 1)], 1) == \
        apply_operator(seed, [zero_row] * 4)


@pytest.mark.parametrize("tag,N", [("2I", 16), ("2II", 8)])
def test_eisenstein_invariant_under_whole_group(tag, N):
    E = eisenstein_coset(tag, 1, N)
    for op in generators(tag, 1, 2, reduced=False):
        assert op.apply(E) == E


def test_seed_fixed_by_parabolic():
    seed = seed_poly("2II", 1, 8, 2)
    for op in parabolic_closure("2II", 1, 2):
        assert op.apply(seed) == seed


# sha256 over the fingerprints below, taken before the form rule, the Fourier
# cells and the product kernel each had one construction: every operator
# they build keeps its bytes
OPERATOR_DIGEST = "63a744e6aa6aadbd5d769e07672da47227435efb041facdce687bc0548a285db"


def test_operator_bytes_are_pinned():
    h = hashlib.sha256()
    for tag, g, p in sorted(set(PREDICTED_ORDER) | {("Q", 2, 3)}):
        for reduced in (True, False):
            for op in generators(tag, g, p, reduced):
                h.update(op.fingerprint())
        h.update(center_generator(tag, p, g).fingerprint())
    for tag, g, p in [("2I", 1, 2), ("2I", 2, 2), ("2II", 1, 2), ("2II", 2, 2),
                      ("Q", 1, 3), ("Q1", 1, 3)]:
        for r in range(g + 1):
            h.update(tau_operator(tag, g, r, p).fingerprint())
    assert h.hexdigest() == OPERATOR_DIGEST


@pytest.mark.parametrize("tag", ["2I", "2II"])
def test_tau_operators(tag):
    assert tau_operator(tag, 1, 0) == Operator.identity(2, 2, 8)
    t1 = tau_operator(tag, 1, 1)
    G = group_closure(tag, 2, 2)
    assert t1 in G
    assert t1.is_unitary()


def test_delta_is_a_homomorphism():
    gens1 = generators("2II", 1, 2)
    a, b, c, d = gens1[0], gens1[1], gens1[-1], gens1[2]
    assert delta_embed(a, b) @ delta_embed(c, d) == delta_embed(a @ c, b @ d)
    ident = Operator.identity(2, 1, 8)
    assert delta_embed(ident, ident) == Operator.identity(2, 2, 8)


# Delta(C_1 x C_1) sits inside C_2 with the centers glued: order |C_1|^2 / |Z|
DELTA_ORDERS = {"2I": 128, "2II": 4608}
# orbits of Delta on the parabolic cosets, seeded from tau_0 and tau_1
COVER_ORBITS = {"2I": (16, 8), "2II": (36, 24)}


def delta_cover(tag: str):
    """(G, reps, Delta, orbits) at genus 2 over F_2: the full closure C_2 (the
    oracle), its parabolic coset reps, the closure of Delta(C_1 x C_1), and
    the orbits of Delta's generators on the parabolic cosets seeded from
    tau_0 and tau_1."""
    G = full_closure(tag, 2, 2)
    reps, label = generic_coset_labels(G, stored_parabolic(tag, 2, 2))
    ident = Operator.identity(2, 1, 8)
    dgens = [delta_embed(a, ident) for a in generators(tag, 1, 2)]
    dgens += [delta_embed(ident, a) for a in generators(tag, 1, 2)]

    def coset_of(op):
        return label[G.index[op.fingerprint()]]

    orbits = []
    for r in (0, 1):
        orb = {coset_of(tau_operator(tag, 1, r))}
        frontier = list(orb)
        while frontier:
            nxt = []
            for cid in frontier:
                for dgen in dgens:
                    c2 = coset_of(reps[cid] @ dgen)
                    if c2 not in orb:
                        orb.add(c2)
                        nxt.append(c2)
            frontier = nxt
        orbits.append(orb)
    return G, reps, close_group(dgens), orbits


@pytest.mark.parametrize("tag", ["2I", "2II"])
def test_delta_subgroup_and_coset_cover(tag):
    G, reps, sub, orbits = delta_cover(tag)
    assert len(sub) == DELTA_ORDERS[tag]
    for op in sub[:50]:
        assert op in G
    assert tuple(len(o) for o in orbits) == COVER_ORBITS[tag]
    assert not (orbits[0] & orbits[1])
    assert len(orbits[0] | orbits[1]) == len(reps)
