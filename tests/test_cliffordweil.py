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

import cweil
import cweil.cliffordweil as cw
from cweil.cliffordweil import (
    ClosureError,
    GroupClosure,
    Int64OverflowError,
    Operator,
    QuadraticForm,
    all_quadforms,
    center_generator,
    close_group,
    coset_labels,
    coset_reps,
    delta_embed,
    eisenstein_coset,
    gen_d,
    gen_h,
    gen_m,
    generators,
    gl_matrices,
    group_closure,
    parabolic_closure,
    power_sum,
    quadform_eval,
    seed_orbit,
    seed_poly,
    tau_operator,
    _batch_mul,
    _fold,
)
from cweil.constructions import e8, tetracode
from cweil.cyclo import CycNum, mul_table
from cweil.poly import Poly, apply_operator, serialize_poly
from cweil.weightenum import cwe

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
    assert len(coset_reps(G, P)) == ncosets


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
    assert len(close_group([zgen], 100)) == z
    assert zgen in group_closure(tag, 1, p)


def test_quadform_eval():
    phi = QuadraticForm("2II", 2, 2, (1, 2), {(0, 1): 1})
    assert quadform_eval(phi, (1, 1)) == Fraction(1, 4)  # 1/4 + 2/4 + 1/2 mod 1
    assert quadform_eval(phi, (0, 1)) == Fraction(1, 2)
    assert quadform_eval(QuadraticForm("2I", 1, 2, (1,)), (1,)) == Fraction(1, 2)
    assert quadform_eval(QuadraticForm("Q", 1, 3, (2,)), (2,)) == Fraction(2, 3)
    assert quadform_eval(QuadraticForm("Q1", 1, 3, ((1, 2),)), (2,)) == Fraction(2, 3)


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
    where = {(int(den), arr.tobytes()): i for i, (arr, den) in enumerate(zip(G.arr, G.den))}
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
        for arr, den in zip(raw, dens // common):
            expect[where[(int(den), arr.tobytes())]] = len(firsts)
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


def test_closure_certificates_raise():
    gens = generators("2II", 1, 2)
    with pytest.raises(ClosureError, match="cap"):
        close_group(gens, cap=100)
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


def _run_python_O(code: str) -> subprocess.CompletedProcess:
    """Run code under python -O, which strips every assert, with cweil importable."""
    src = os.path.dirname(os.path.dirname(cweil.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_closure_refuses_unknown_or_oversized():
    with pytest.raises(ValueError):
        group_closure("2II", 3, 2)
    with pytest.raises(ValueError):
        group_closure("Q", 1, 5)
    with pytest.raises(ValueError):
        group_closure("2II", 2, 2, cap=100)


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
    reps = coset_reps(group_closure(tag, g, p), parabolic_closure(tag, g, p))
    seed = seed_poly(tag, g, N, p)
    total = Poly.zero(p, g, N, seed.conductor)
    for rep in reps:
        total = total + rep.apply(seed)
    assert eisenstein_coset(tag, g, N, p) == total / len(reps)


# one weight per desk-scale (tag, g, p), and |O| for each
ORBIT_CASES = [("2I", 1, 8, 2, 2), ("2II", 1, 8, 2, 3), ("2I", 2, 8, 2, 6),
               ("2II", 2, 8, 2, 15), ("Q", 1, 4, 3, 4), ("Q1", 1, 12, 3, 12)]


@pytest.mark.parametrize("tag,g,N,p,orbit", ORBIT_CASES)
def test_orbit_average_matches_coset_rep_power_sum(tag, g, N, p, orbit):
    # oracle: the power sum over the seed's rows of every coset rep of P\G
    reps = coset_reps(group_closure(tag, g, p), parabolic_closure(tag, g, p))
    used = range(p**g) if tag in ("2I", "2II") else range(1)
    forms: dict = {}
    for rep in reps:
        for v in used:
            form = forms.setdefault((rep.den, rep.arr[v].tobytes()),
                                    [rep.den, rep.arr[v].tolist(), 0])
            form[2] += 1
    expect = power_sum(p, g, N, reps[0].n, forms.values(), len(reps))
    assert eisenstein_coset(tag, g, N, p) == expect
    assert len(seed_orbit(tag, g, p)[1]) == orbit
    assert len(reps) % orbit == 0


def test_orbit_average_closes_no_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit average closed a group")

    for name in ("group_closure", "parabolic_closure", "close_group"):
        monkeypatch.setattr(cw, name, refuse)
    seed_orbit.cache_clear()
    E = eisenstein_coset("2II", 2, 8)
    # the golden stdout digest of `eisenstein --type 2II --length 8 --genus 2`
    assert hashlib.sha256(serialize_poly(E).encode()).hexdigest().startswith("a2f8991d")


def test_orbit_certificate_survives_python_O():
    # index 192/48 = 4 is not a multiple of |O| = 3
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
    assert "orbit of 3 keys does not divide the index 192/48" in out.stdout


@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_power_sum_of_one_form_with_a_zero_entry(N):
    # l = (1+z)/2 x_0 + 0 x_1 - z^2 x_2 + (3+z^3)/2 x_3 over Q(zeta_8)
    row = [CycNum(8, (1, 1, 0, 0), 2), CycNum.zero(8),
           CycNum(8, (0, 0, -1, 0)), CycNum(8, (3, 0, 0, 1), 2)]
    nums = [[int(x) for x in (c * 2).nums] for c in row]
    zero_row = [CycNum.zero(8)] * 4
    seed = Poly.monomial(2, 2, 8, (N, 0, 0, 0))
    expect = apply_operator(seed, [row] + [zero_row] * 3)
    assert power_sum(2, 2, N, 8, [(2, nums, 1)], 1) == expect
    assert power_sum(2, 2, N, 8, [(2, nums, 3)], 3) == expect
    # the zero form: 0^N, which is 1 at N = 0
    assert power_sum(2, 2, N, 8, [(1, [[0] * 4] * 4, 1)], 1) == \
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
    sub = close_group(dgens, 10**5)
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
