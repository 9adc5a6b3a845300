"""Group closures, cosets, Eisenstein averages, and the doubling operators."""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cweil
import cweil.cliffordweil as cw
from cweil.cliffordweil import (
    CLOSURE_CAP,
    PREDICTED_ORDER,
    ClosureError,
    GroupClosure,
    Int64OverflowError,
    Operator,
    QuadraticForm,
    all_quadforms,
    center_generator,
    center_order,
    close_group,
    coset_labels,
    delta_embed,
    eisenstein_coset,
    generators,
    gl_generators,
    gl_matrices,
    group_closure,
    parabolic_closure,
    power_sum,
    seed_orbit,
    seed_poly,
    tau_operator,
    _batch_mul,
    _d_cells,
    _fold,
    _h_cells,
    _keys,
    _m_cells,
    _phase_operator,
)
from cweil.cyclo import CycNum, mul_table, phi_degree
from cweil.poly import Poly, apply_operator, serialize_poly
from cweil.weightenum import cwe, run_conductor
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
    assert len(coset_labels(G, P)[0]) == ncosets


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


@pytest.mark.parametrize(
    "tag,p,z", [("2I", 2, 2), ("2II", 2, 8), ("Q", 3, 4), ("Q1", 3, 12)]
)
def test_center_scalar_order(tag, p, z):
    zgen = center_generator(tag, p, 1)
    assert len(close_group([zgen])) == z
    assert zgen in group_closure(tag, 1, p)


def test_quadform_eval():
    phi = QuadraticForm("2II", 2, 2, (1, 2), {(0, 1): 1})
    assert phi((1, 1)) == Fraction(1, 4)  # 1/4 + 2/4 + 1/2 mod 1
    assert phi((0, 1)) == Fraction(1, 2)
    assert QuadraticForm("2I", 1, 2, (1,))((1,)) == Fraction(1, 2)
    assert QuadraticForm("Q", 1, 3, (2,))((2,)) == Fraction(2, 3)
    assert QuadraticForm("Q1", 1, 3, ((1, 2),))((2,)) == Fraction(2, 3)


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
    assert {(op.den, op.arr.tobytes()) for op in G} == _matmul_bfs(generators(*key))


@pytest.mark.parametrize("key", [("2II", 2, 2), ("Q1", 1, 3)])
def test_batched_kernel_matches_matmul(key):
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
        for a, arr, den in zip(left, raw, dens):
            assert Operator(a.p, a.g, a.n, arr, int(den)) == a @ right
            assert den == (a @ right).den


@pytest.mark.parametrize("tag", ["2I", "2II"])
def test_coset_labels_match_generic_labelling(tag):
    G, P = group_closure(tag, 2, 2), parabolic_closure(tag, 2, 2)
    reps, label = coset_labels(G, P)
    assert Counter(label) == dict.fromkeys(range(len(reps)), P.order)
    # generic: walk G in order and label all of P*x, one einsum per coset
    T = mul_table(8)
    # keys through _keys, the fingerprint of Operator.fingerprint and G.index
    where = dict(zip(_keys(G.arr, G.den), range(G.order)))
    expect = [-1] * G.order
    firsts = []
    for i in range(G.order):
        if expect[i] >= 0:
            continue
        x = G[i]
        raw = np.einsum("fiks,kjt,stu->fiju", P.arr, x.arr, T, optimize=True)
        dens = P.den * x.den
        common = np.gcd(np.gcd.reduce(np.abs(raw).reshape(len(raw), -1), axis=1), dens)
        raw //= common[:, None, None, None]
        for key in _keys(raw, dens // common):
            expect[where[key]] = len(firsts)
        firsts.append(x)
    assert label == expect
    assert reps == firsts


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


def test_closure_certificates_raise(monkeypatch):
    gens = generators("2II", 1, 2)
    with pytest.raises(ClosureError, match="predicted"):
        close_group(gens, expect=191)
    with pytest.raises(ClosureError, match="predicted"):
        close_group(gens, expect=193)
    # {1, d} with d of order 4 is no group: the coset {1, d} * d^3 meets it
    d = gen_d(QuadraticForm("2II", 1, 2, (1,)))
    group = close_group([d])
    fake = GroupClosure([d], None, group.arr[:2], group.den[:2],
                        dict(list(group.index.items())[:2]))
    with pytest.raises(ClosureError, match="overlap"):
        close_group([d @ d @ d], sub=fake)
    # the cap is read at call time
    monkeypatch.setattr(cw, "CLOSURE_CAP", 100)
    with pytest.raises(ClosureError, match="cap"):
        close_group(gens)


def test_closure_refuses_an_entry_outside_int8():
    # the powers of 2 * identity: 1 .. 64 fit in int8, the eighth element
    # 128 * identity does not, and raises long before the cap
    one = Operator.identity(2, 1, 8)
    with pytest.raises(ClosureError, match=r"entries in \[0, 128\] do not fit the int8 store"):
        close_group([Operator(2, 1, 8, one.arr * 2, 1)])


def test_int8_refusal_survives_python_O():
    code = (
        "import sys\n"
        "from cweil import cliffordweil as cw\n"
        "one = cw.Operator.identity(2, 1, 8)\n"
        "try:\n"
        "    cw.close_group([cw.Operator(2, 1, 8, one.arr * 2, 1)])\n"
        "except cw.ClosureError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(3)\n"
    )
    out = _run_python_O(code)
    assert out.returncode == 3, out.stderr
    assert "entries in [0, 128] do not fit the int8 store" in out.stdout


@pytest.mark.parametrize("key", sorted(PREDICTED_ORDER))
def test_closures_store_int8(key):
    tag, g, p = key
    n = run_conductor(p)
    size = (p**g) ** 2 * phi_degree(n)
    G, P = group_closure(*key), parabolic_closure(*key)
    for X in (G, P):
        assert X.arr.dtype == X.den.dtype == np.int8
        assert X.arr.nbytes == X.order * size
    assert G[G.order - 1].arr.dtype == np.int64
    # an operator outside int8 still has a fingerprint, and is not in G
    big = Operator(p, g, n, Operator.identity(p, g, n).arr * 128, 1)
    assert big not in G
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
    lambda: cw._phase(8, Fraction(1, 3)),
], ids=["diag-length", "offdiag-order", "offdiag-range", "tau-r", "phase"])
def test_generator_inputs_raise(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make", [
    lambda: Operator(2, 1, 8, np.zeros((2, 2, 4)), 0),
    lambda: Operator(2, 1, 8, np.zeros((2, 2, 3)), 1),
    lambda: Operator.identity(2, 1, 8) @ Operator.identity(3, 1, 12),
    lambda: Operator.identity(2, 1, 8).apply(Poly.monomial(2, 2, 8, (1, 0, 0, 0))),
    lambda: delta_embed(Operator.identity(2, 1, 8), Operator.identity(2, 2, 8)),
    lambda: gl_generators(2, 3),
], ids=["den", "shape", "matmul", "apply", "delta", "gl-genus"])
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
    # group_closure closes only predicted triples, and each fits under the cap
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


@pytest.mark.parametrize("tag,g,N,p", [
    ("2II", 1, 8, 2), ("2I", 1, 8, 2), ("2I", 2, 8, 2),
    ("Q", 1, 4, 3), ("Q1", 1, 12, 3),
])
def test_power_sum_kernel_matches_generic_substitution(tag, g, N, p):
    # oracle: substitute every coset rep into the seed, then average
    reps = coset_labels(group_closure(tag, g, p), parabolic_closure(tag, g, p))[0]
    seed = seed_poly(tag, g, N, p)
    total = Poly.zero(p, g, N, seed.conductor)
    for rep in reps:
        total = total + rep.apply(seed)
    assert eisenstein_coset(tag, g, N, p) == total / len(reps)


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
    for rep in reps:
        for v in used:
            form = forms.setdefault((rep.den, rep.arr[v].tobytes()),
                                    [rep.den, rep.arr[v].tolist(), 0])
            form[2] += 1
    expect = power_sum(p, g, N, forms.values(), len(reps))
    assert eisenstein_coset(tag, g, N, p) == expect
    assert len(seed_orbit(tag, g, p)) == orbit * len(used) == len(reps)


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
    reps = coset_labels(group_closure(tag, g, p), parabolic_closure(tag, g, p))[0]
    used = range(d) if tag in ("2I", "2II") else range(1)
    assert len(set(rows)) == len(rows)
    assert set(rows) == {cls([rep.entry(v, w) for w in range(d)]) for rep in reps for v in used}


def test_orbit_average_closes_no_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit average closed a group")

    for name in ("group_closure", "parabolic_closure", "close_group"):
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

    monkeypatch.setattr(cw, "close_group", refuse)
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
    seed = Poly.monomial(2, 2, 8, (N, 0, 0, 0))
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


@pytest.mark.parametrize("tag", ["2I", "2II"])
def test_delta_subgroup_and_coset_cover(tag):
    G = group_closure(tag, 2, 2)
    P = parabolic_closure(tag, 2, 2)
    reps, label = coset_labels(G, P)
    ident = Operator.identity(2, 1, 8)
    dgens = [delta_embed(a, ident) for a in generators(tag, 1, 2)]
    dgens += [delta_embed(ident, a) for a in generators(tag, 1, 2)]
    sub = close_group(dgens)
    assert len(sub) == DELTA_ORDERS[tag]
    for op in sub[:50]:
        assert op in G

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
    assert tuple(len(o) for o in orbits) == COVER_ORBITS[tag]
    assert not (orbits[0] & orbits[1])
    assert len(orbits[0] | orbits[1]) == len(reps)
