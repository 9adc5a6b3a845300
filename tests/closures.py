"""Test-side oracles of the Clifford-Weil groups: closures that store every
element, the doubling representatives tau_r and the embedding Delta.

The library certifies |C_g| and |P_g| by orbit-stabiliser over the monomial
subgroup H and stores only H and one coset rep per H-coset.  `full_closure`
stores every element of C_g, by a breadth-first coset closure over H with
no orbit and no Schreier step, and `stored_parabolic` every element of P_g,
by the plain closure of its generators: the independent oracles of those
certificates and of the tests that look elements up by fingerprint.
Nothing in the cweil package imports this module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from cweil.cliffordweil import (
    PREDICTED_ORDER,
    PREDICTED_PARABOLIC,
    GroupClosure,
    Operator,
    OrbitClosure,
    QuadraticForm,
    _batch_mul,
    _check_same,
    _d_cells,
    _fold,
    _fourier_cells,
    _keys,
    _monomial_subgroup,
    _phase_operator,
    center_generator,
    close_group,
    generators,
)
from cweil.cyclo import mul_table
from cweil.weightenum import run_conductor


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
