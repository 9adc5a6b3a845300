"""Clifford-Weil groups: generators, finite closures, cosets, Eisenstein series.

The group C_g attached to a self-dual code type is generated by

    m_u : x_v -> x_{uv}                       (u in GL_g(F_p))
    d_phi : x_v -> exp(2 pi i phi(v)) x_v     (phi a quadratic form of the type)
    h_r : x_v -> p^(-k/2) sum_w exp(2 pi i sum_(a,b) w_a v_b / p) x_w over the
          w agreeing with v off the coordinates a, for the k = r kernel pairs
          (a, b) = (i, i), i <= r: the partial Fourier transform.

Each kind is built one way, as phase cells (i, j, k): the entry zeta_n^k at
(i, j), n = 8 or 4p.  A form's diagonal terms are (a x^2 + b x) / den by the
per-type table FORM_RULE, den and p dividing n, and h_r's Fourier operator
(`_fourier_cells`) takes any list of kernel pairs.  `generator_cells` gives
one generating set; the tests build the textbook one as its oracle.
With our substitution convention, "act by A, then act by B" is the matrix
product A*B.

The orders, the coset index and membership need no matrix product.  C_g
acts on Omega, the lines of the rows reached from the x_v under the
generators, each taken modulo the central phases mu_z, z = |Z|, in Python
ints (`_Rows`: per phase cell, one product with a power of zeta in the one
cyclotomic multiply `cyclo.mul_nums`).  Omega holds every x_v, so only the
identity fixes its vectors, and C_g is this permutation group.  An element
is its permutation of Omega; its matrix, an Operator of CycNum rows, is read
off that permutation when it is asked for: when the point of x_v goes to
the line of row c with the phase zeta_z^a, row v is zeta_z^a row c.
`_LineAction` stores the monomial subgroup H = <m_u, d_phi>
(Nebe-Rains-Sloane, Self-Dual Codes and Invariant Theory, ch. 5), which
fixes x_0, and certifies by orbit-stabiliser that the stabiliser of the
line [x_0] is P_g = H x mu_z, so [C_g : P_g] is the orbit's size.
Predicted orders come from the tabulated group data |Z| * |ker lambda|^2 *
|G_g|; we keep the six desk-scale values, certify each group against its
value with a raised ClosureError, and refuse every other triple.  The tests
compare all of it with matrix closures.

The parabolic subgroup here is the saturation <m_u, d_phi, zeta*id> by the
center: with scalars included, parabolic cosets are exactly what the
Eisenstein average and the index counts |ker lambda| * prod (p^i + 1) refer
to.  (The bare <m_u, d_phi> monoid contains no nontrivial scalar, so its
cosets would overcount by |Z| / |Z ∩ <m,d>|; the averaged series itself is
identical either way, the seed being scalar-invariant.)

The Eisenstein average needs no closure either: it is a power sum over the
orbit of the row x_0 modulo the central phases, found by the same row
product, and it is expanded only on the monomials that every d_phi fixes
(see the comment above `seed_orbit`).  Each d_phi lies in P_g, and the
average is C_g-invariant, so every other coefficient is exactly 0.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial, gcd, lcm, prod
from operator import itemgetter

from .codes import rref
from .cyclo import CycNum, _power_table, mul_nums, phi_degree, sqrt_prime_power
from .poly import Poly, apply_operator, index_vector, var_index
from .weightenum import run_conductor

# |Z|, and the predicted closure orders |Z| * |ker lambda|^2 * |G_g| at desk
# scale; everything larger goes through the mass-formula route instead.
CENTER_ORDER = {"2I": 2, "2II": 8, "Q": 4, "Q1": None}  # Q1: 4p, set per p
PREDICTED_ORDER = {
    ("2I", 1, 2): 16,
    ("2I", 2, 2): 2304,
    ("2II", 1, 2): 192,
    ("2II", 2, 2): 92160,
    ("Q", 1, 3): 96,
    ("Q1", 1, 3): 2592,
}
PREDICTED_PARABOLIC = {
    ("2I", 1, 2): 4,
    ("2I", 2, 2): 96,
    ("2II", 1, 2): 32,
    ("2II", 2, 2): 1536,
    ("Q", 1, 3): 24,
    ("Q1", 1, 3): 216,
}

# eisenstein_coset refuses a degree N with N * C(N + d - 1, d - 1) past this
# budget, d = p^g: the digits of N-digit coefficients on every monomial of
# degree N, which also bounds the power tables (N powers of up to N digits
# per distinct entry) and invariant_monomials' reach tables.  At the largest
# N it admits, the six triples take 0.7 to 4.6 s and at most 49 MB of RSS on
# a 2-core x86-64 VM (2I at g = 1, N = 5792, is the slowest); 2II at g = 1
# and N = 200000 used to exhaust a 1 GB address space.
COSET_BUDGET = 1 << 25


class ClosureError(ValueError):
    """A closure or coset layout failed one of its certifying checks."""


def center_order(tag: str, p: int) -> int:
    z = CENTER_ORDER[tag]
    return 4 * p if z is None else z


class Operator:
    """A p^g x p^g matrix over Q(zeta_n), held as its rows of CycNums."""

    __slots__ = ("p", "g", "n", "rows")

    def __init__(self, p: int, g: int, n: int, rows):
        d, rows = p**g, tuple(tuple(row) for row in rows)
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ValueError(f"an operator needs {d} x {d} entries")
        self.p, self.g, self.n, self.rows = p, g, n, rows

    @staticmethod
    def from_cells(p: int, g: int, cells, scale: CycNum | None = None) -> "Operator":
        """The matrix with entry scale * zeta_n^k at each cell (i, j, k), else 0
        (None for 1), as `generator_cells` gives each generator."""
        n, d = run_conductor(p), p**g
        rows = [[CycNum.zero(n)] * d for _ in range(d)]
        for i, j, k in cells:
            x = CycNum.zeta_pow(n, k)
            rows[i][j] = x if scale is None else scale * x
        return Operator(p, g, n, rows)

    def entries(self) -> list:
        return [list(row) for row in self.rows]

    def apply(self, a: Poly) -> Poly:
        _check_same(self, (a.p, a.g, a.conductor))
        return apply_operator(a, self.rows)

    def is_unitary(self) -> bool:
        """A A* = 1, A* the conjugate transpose, entry by entry."""
        zero, conj = CycNum.zero(self.n), [[x.conj() for x in row] for row in self.rows]
        return all(sum((a * b for a, b in zip(row, other)), zero) == int(i == j)
                   for i, row in enumerate(self.rows) for j, other in enumerate(conj))

    def __repr__(self):
        return f"Operator(p={self.p}, g={self.g}, n={self.n})"


def _check_same(op: Operator, pgn: tuple) -> None:
    if (op.p, op.g, op.n) != pgn:
        raise ValueError(f"(p, g, n) = {pgn} does not match the operator's "
                         f"{(op.p, op.g, op.n)}")


# --- quadratic forms ----------------------------------------------------


# Per type, den and the number of values of b in each diagonal term
# (a x^2 + b x) / den of a form, 0 standing for p.  A label is (a, b).
FORM_RULE = {"2I": (2, 1), "2II": (4, 1), "Q": (0, 1), "Q1": (0, 0)}


def _form_labels(tag: str, p: int) -> list:
    """The diagonal labels (a, b) of the type, (0, 0) first."""
    den, bs = (x or p for x in FORM_RULE[tag])
    return list(iproduct(range(den), range(bs)))


class QuadraticForm:
    """diagonal labels (a, b), a lone a standing for (a, 0), plus a strictly
    upper-triangular F_p part.

    The form's value sum_i (a_i v_i^2 + b_i v_i) / den + sum_{i<j} v_i m_ij v_j / p
    mod 1 by FORM_RULE, on integer lifts 0..p-1, is k / n: phi(v) returns the
    k in range(n), n the conductor, with exp(2 pi i phi(v)) = zeta_n^k.
    """

    __slots__ = ("tag", "g", "p", "diag", "offdiag")

    def __init__(self, tag: str, g: int, p: int, diag, offdiag=None):
        self.tag, self.g, self.p = tag, g, p
        self.diag = tuple(lab if isinstance(lab, tuple) else (lab, 0) for lab in diag)
        if len(self.diag) != g:
            raise ValueError(f"{len(self.diag)} diagonal labels for genus {g}")
        off = {} if offdiag is None else dict(offdiag)
        for (i, j), m in off.items():
            if not (0 <= i < j < g and 0 < m < p):
                raise ValueError(f"off-diagonal entry {m} at {(i, j)} for genus {g}, field {p}")
        self.offdiag = off

    def __call__(self, v) -> int:
        p, n = self.p, run_conductor(self.p)
        step = n // (FORM_RULE[self.tag][0] or p)  # den divides n
        total = sum(a * (x % p) ** 2 + b * (x % p) for (a, b), x in zip(self.diag, v)) * step
        total += sum(v[i] * m * v[j] for (i, j), m in self.offdiag.items()) * (n // p)
        return total % n


def basis_quadforms(tag: str, g: int, p: int):
    """Forms with a single active slot; they generate all d_phi under products."""
    labels = _form_labels(tag, p)
    units = [lab for lab in [(1, 0), (0, 1)] if lab in labels]
    zero = [(0, 0)] * g
    out = [QuadraticForm(tag, g, p, zero[:i] + [lab] + zero[i + 1:])
           for i in range(g) for lab in units]
    return out + [QuadraticForm(tag, g, p, zero, {(i, j): 1})
                  for i in range(g) for j in range(i + 1, g)]


# --- generators ---------------------------------------------------------


def _m_cells(u, p: int, g: int):
    """(cells, scale) of m_u, the variable permutation x_v -> x_{uv}."""
    u = [list(map(int, row)) for row in u]
    if len(rref(p, u)) != g:
        raise ValueError("u is singular")
    cells = []
    for idx in range(p**g):
        v = index_vector(idx, p, g)
        uv = tuple(sum(u[i][j] * v[j] for j in range(g)) % p for i in range(g))
        cells.append((idx, var_index(uv, p), 0))
    return cells, None


def _d_cells(phi: QuadraticForm):
    """(cells, scale) of d_phi, the diagonal phase x_v -> exp(2 pi i phi(v)) x_v."""
    return [(i, i, phi(index_vector(i, phi.p, phi.g))) for i in range(phi.p**phi.g)], None


def _fourier_cells(pairs: list, g: int, p: int):
    """(cells, scale) of the Fourier operator on the kernel pairs (a, b):
    x_v -> p^(-k/2) sum_w exp(2 pi i sum w_a v_b / p) x_w, w = v off the a's."""
    n, free = run_conductor(p), [a for a, _ in pairs]
    cells = []
    for idx in range(p**g):
        v = index_vector(idx, p, g)
        for vals in iproduct(range(p), repeat=len(free)):
            w = list(v)
            for a, x in zip(free, vals):
                w[a] = x
            k = n // p * sum(w[a] * v[b] for a, b in pairs) % n
            cells.append((idx, var_index(w, p), k))
    return cells, sqrt_prime_power(p, len(pairs), n) / p ** len(pairs)  # p^(-k/2), exactly


def _h_cells(r: int, g: int, p: int):
    """(cells, scale) of h_r, the partial Fourier transform on the first r coordinates."""
    if not 1 <= r <= g:
        raise ValueError(f"h_r needs 1 <= r <= g, got r = {r}, g = {g}")
    return _fourier_cells([(i, i) for i in range(r)], g, p)


def gl_generators(p: int, g: int):
    if g == 1:
        if p == 2:
            return [[[1]]]
        return [[[_primitive_root(p)]]]
    if g != 2:
        raise ValueError(f"GL_g generators are listed for g <= 2, got g = {g}")
    gens = [[[0, 1], [1, 0]], [[1, 1], [0, 1]]]
    if p > 2:
        gens.append([[_primitive_root(p), 0], [0, 1]])
    return gens


def _primitive_root(p: int) -> int:
    for a in range(2, p):
        if len({pow(a, k, p) for k in range(1, p)}) == p - 1:
            return a
    raise ValueError(p)


@lru_cache(maxsize=None)
def generator_cells(tag: str, g: int, p: int) -> tuple:
    """C_g's generators as (cells, scale) for Operator.from_cells: the m_u of
    gl_generators, the d_phi of basis_quadforms, then h_1 .. h_g; memoised, as tuples."""
    return tuple((tuple(cells), scale) for cells, scale in
                 [_m_cells(u, p, g) for u in gl_generators(p, g)]
                 + [_d_cells(phi) for phi in basis_quadforms(tag, g, p)]
                 + [_h_cells(r, g, p) for r in range(1, g + 1)])


def predicted_orders(tag: str, g: int, p: int) -> tuple[int, int]:
    """(|C_g|, |P_g|) as tabulated; refuses every triple without a predicted order."""
    if (tag, g, p) not in PREDICTED_ORDER:
        raise ValueError(f"no feasible closure for {(tag, g, p)}")
    return PREDICTED_ORDER[tag, g, p], PREDICTED_PARABOLIC[tag, g, p]


# --- C_g acting on the lines of the x_v orbit ----------------------------


class _Rows:
    """The one row product of the orbit searches, in Python ints.

    A row (den, numerators) is the form sum_w (numerators[w] / den) x_w.
    `canon` gives one as (a, least): the row is zeta_z^a * least, least the
    gcd-normalised least of its multiples by mu_z (None for the zero row).
    Distinct phases move the first nonzero entry apart, so it alone picks
    the least multiple.  `image` is a row times the (cells, scale) of a
    generator (`generator_cells`), the same way.
    """

    def __init__(self, p: int, g: int, z: int):
        self.n, self.d, self.z = run_conductor(p), p**g, z
        self.table, self.zero = _power_table(self.n), (0,) * phi_degree(self.n)
        self.phases = [self.table[k] for k in range(0, self.n, self.n // z)]
        self.least: dict = {}  # a first nonzero entry -> the j making zeta_z^j * it least

    def canon(self, den: int, nums: list):
        lead = next((tuple(a) for a in nums if any(a)), None)
        if lead is None:
            return None
        n, phases = self.n, self.phases
        j = self.least.get(lead)
        if j is None:
            j = self.least[lead] = min(range(self.z), key=lambda j: mul_nums(n, lead, phases[j]))
        common = gcd(den, *(x for a in nums for x in a))
        if j:
            nums = [mul_nums(n, a, phases[j]) for a in nums]
        return -j % self.z, (den // common, tuple(tuple(x // common for x in a) for a in nums))

    def unit(self, v: int) -> tuple:
        return self.canon(1, [self.table[0] if w == v else self.zero for w in range(self.d)])

    def image(self, row: tuple, cells, scale: CycNum | None) -> tuple:
        (den, nums), n, zero = row, self.n, self.zero
        out = [zero] * self.d
        for i, w, k in cells:
            if any(nums[i]):
                b = mul_nums(n, nums[i], self.table[k]) if k else nums[i]
                out[w] = b if out[w] is zero else [x + y for x, y in zip(out[w], b)]
        if scale is None:
            return self.canon(den, out)
        return self.canon(den * scale.den, [mul_nums(n, a, scale.nums) for a in out])


def _row_walk(rows: list, kernel: _Rows, gens: list, limit: int):
    """Extend rows breadth first by the generators (cells, scale) until no new
    row turns up or rows pass limit.  Returns where, row -> position c, and
    edges, edges[c][s] = (c', a) when rows[c] s = zeta_z^a rows[c']."""
    where = {row: c for c, row in enumerate(rows)}
    edges = []
    for row in rows:  # rows grows as it is walked: breadth first
        if len(rows) > limit:
            break
        edges.append([])
        for cells, scale in gens:
            a, image = kernel.image(row, cells, scale)
            c = where.setdefault(image, len(rows))
            if c == len(rows):
                rows.append(image)
            edges[-1].append((c, a))
    return where, edges


def _tree(one: tuple, gens: list, key, limit: int, refusal: str):
    """Breadth first from one, some points' images under the identity: keep
    each product x*s with a new key and its parent (position of x, s), raising
    ClosureError(refusal) past limit.  Returns key -> position, images, parents."""
    index, elems, parents = {key(one): 0}, [one], [None]
    for i, x in enumerate(elems):  # elems grows as it is walked
        for s, y in enumerate(gens):
            xy = itemgetter(*x)(y)  # x, then y
            k = key(xy)
            if k not in index:
                if len(elems) >= limit:
                    raise ClosureError(refusal)
                index[k] = len(elems)
                elems.append(xy)
                parents.append((i, s))
    return index, elems, parents


class _LineAction:
    """C_g as permutations of the vectors of the x_v orbit, certified
    against |C_g| = order, |P_g| = parabolic and |Z| = z.

    rows holds Omega, x_v's line first at position v; point c z + a is
    zeta_z^a rows[c], units[v] is x_v's, and an element is the tuple of its
    point images, fixed by those of the units.  H, keyed by them, and a
    transversal t of the orbit of [x_0] (t[c] maps x_0 to its c-th line) are
    stored with their breadth-first parents, so their words in the
    generators.  The checks, each raising ClosureError (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, 4.1 and 4.4):
    1. the center generator is zeta_z on every point;
    2. every generator of H fixes the point x_0;
    3. H, closed breadth first, has order |P_g| / z;
    4. the orbit of [x_0] stops once |orbit| |P_g| passes the order;
    5. each Schreier generator u = t_c s t_(cs)^-1, which fixes [x_0] with
       a phase zeta_z^k_u, has u zeta_z^-k_u in H;
    6. gcd(z, all k_u) = 1.  By Schreier's lemma the u generate
       Stab([x_0]), so Stab([x_0]) lies in H x mu_z and maps onto mu_z: it
       holds zeta_z, and Stab([x_0]) = H x mu_z = P_g, a subgroup of C_g;
    7. |C_g| = |orbit| |P_g| is the order.
    """

    def __init__(self, tag: str, g: int, p: int, order: int, parabolic: int, z: int):
        self.p, self.g, self.n, self.z, self.parabolic = p, g, run_conductor(p), z, parabolic
        self.cells, d = generator_cells(tag, g, p), p**g
        self.kernel = _Rows(p, g, z)
        units = [self.kernel.unit(v) for v in range(d)]
        self.rows = [row for _, row in units]
        self.units = tuple(v * z + a for v, (a, _) in enumerate(units))
        limit = d * order // z  # d orbits of at most |C_g| / z lines each
        zeta = [(v, v, self.n // z) for v in range(d)], None  # the center generator
        self.where, edges = _row_walk(self.rows, self.kernel, [*self.cells, zeta], limit)
        if len(self.rows) > limit:
            raise ClosureError(f"the orbits of the x_v pass {limit} lines, "
                               f"too many for the predicted {order}")
        self.shift = [tuple(c * z + (a + k) % z for c in range(len(self.rows)) for a in range(z))
                      for k in range(z)]  # zeta_z^k
        *gens, center = [tuple(c * z + (a + k) % z for out in edges for c, k in [out[s]]
                               for a in range(z)) for s in range(len(self.cells) + 1)]
        if center != self.shift[1]:
            raise ClosureError("the center generator is not the scalar zeta_z")
        if any(x[0] for x in gens[:-g]):
            raise ClosureError("a generator of the subgroup moves x_0")
        # no zeta_z^k but 1 fixes x_0, so <H, zeta_z> = H x mu_z
        self.H, self.hs, self.hparent = _tree(self.units, gens[:-g], lambda x: x, parabolic // z,
                                              f"closure order exceeds the predicted {parabolic}")
        if len(self.hs) * z != parabolic:
            raise ClosureError(f"closure has order {len(self.hs) * z}, predicted {parabolic}")
        self.pos, self.t, self.tparent = _tree(self.shift[0], gens, lambda x: x[0] // z,
                                               order // parabolic,
                                               f"closure order exceeds the predicted {order}")
        self.tinv = [tuple(sorted(range(len(x)), key=x.__getitem__)) for x in self.t]
        found = [self._sift(itemgetter(*itemgetter(*self.units)(x))(y))
                 for x in self.t for y in gens]  # the x_v images of t_c s
        if None in found:
            raise ClosureError("a Schreier generator lies outside the subgroup")
        if gcd(z, *(k for _, k in found)) != 1:
            raise ClosureError("P is not a subgroup of G")
        if len(self.t) * parabolic != order:
            raise ClosureError(f"closure has order {len(self.t) * parabolic}, predicted {order}")

    def _sift(self, images: tuple):
        """(c, k) when the x_v go to the points images under h zeta_z^k t_c,
        h in H, else None."""
        z, c = self.z, self.pos.get(images[0] // self.z)
        if c is None:
            return None
        u = itemgetter(*images)(self.tinv[c])
        k = (u[0] - self.units[0]) % z  # x_0 u = zeta_z^k x_0
        return (c, k) if itemgetter(*u)(self.shift[-k % z]) in self.H else None

    def locate(self, op) -> int | None:
        """The c with op in P_g t_c, or None when op is not in C_g.  op is any
        exact matrix with `entries()`, each row taken over the lcm of its
        entries' denominators."""
        _check_same(op, (self.p, self.g, self.n))
        lines = [self.kernel.canon(den, [[x * (den // c.den) for x in c.nums] for c in row])
                 for row in op.entries() for den in [lcm(*(c.den for c in row))]]
        if any(line is None or line[1] not in self.where for line in lines):
            return None
        found = self._sift(tuple(self.where[row] * self.z + a for a, row in lines))
        return found and found[0]

    def element(self, i: int) -> Operator:
        """Element i = H[i % |H|] zeta_z^k t[i // |P_g|], k = i // |H| % z, read
        off its permutation: when x_v's point goes to c z + a, row v is
        zeta_z^a rows[c]."""
        h, z, n, phases = len(self.hs), self.z, self.n, self.kernel.phases
        images = itemgetter(*itemgetter(*self.hs[i % h])(self.shift[i // h % z]))(
            self.t[i // self.parabolic])
        return Operator(self.p, self.g, n, [
            [CycNum(n, mul_nums(n, b, phases[a]) if a else b, den) for b in nums]
            for a, (den, nums) in ((x % z, self.rows[x // z]) for x in images)])


# cached on every datum it checks, so a changed prediction is certified afresh
_line_action = lru_cache(maxsize=None)(_LineAction)


class _OnDemand:
    """f(0), .., f(size - 1), each computed when it is read."""

    def __init__(self, size: int, f):
        self.size, self.f = size, f

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        picked = range(self.size)[i]
        return list(map(self.f, picked)) if isinstance(i, slice) else self.f(picked)


class CertifiedGroup(_OnDemand):
    """C_g, the cosets P_g t_c over the orbit of [x_0], or P_g alone: element
    i lies in P_g t_(i // |P_g|).  Indexing reads an element's Operator off
    its permutation of the lines, and membership reads any exact matrix's
    action on them."""

    def __init__(self, tag: str, g: int, p: int, whole: bool):
        action = _line_action(tag, g, p, *predicted_orders(tag, g, p), center_order(tag, p))
        self.action, self.cosets = action, len(action.t) if whole else 1
        super().__init__(action.parabolic * self.cosets, action.element)
        self.order = self.size

    def __contains__(self, op) -> bool:
        c = self.action.locate(op)
        return c is not None and c < self.cosets


@lru_cache(maxsize=None)
def group_closure(tag: str, g: int, p: int = 2) -> CertifiedGroup:
    """C_g at desk scale, one coset of P_g per line in the orbit of x_0."""
    return CertifiedGroup(tag, g, p, whole=True)


@lru_cache(maxsize=None)
def parabolic_closure(tag: str, g: int, p: int = 2) -> CertifiedGroup:
    """<m_u, d_phi, center> = H x mu_z: the coset denominator of the
    Eisenstein average."""
    return CertifiedGroup(tag, g, p, whole=False)


def coset_labels(G: CertifiedGroup, P: CertifiedGroup):
    """(reps, label): the coset reps t_c of P in G, and the coset i // |P| of
    element i, each computed when read.  P lies in G by the certificate."""
    if P.action is not G.action or P.cosets != 1:
        raise ValueError("G and P are not laid out over one subgroup")
    return _OnDemand(G.cosets, lambda c: G[c * P.order]), _OnDemand(G.order, lambda i: i // P.order)


# --- Eisenstein series by orbit averaging --------------------------------
#
# The seed is f = sum_{v in S} x_v^N, with S every v for 2I/2II and S = {0}
# for Q/Q1, so f^x = sum_{v in S} l^N over the rows l = x_v x of x.  C_g acts
# on the rows modulo the central phases mu_z, and l^N depends only on the
# class, z = |Z| dividing N.  If every x_v (v in S) lies in the orbit O of
# x_0, then x -> x_v x maps C_g onto O with fibres of size |C_g| / |O|, so
# E_g = |C_g|^-1 sum_x f^x = (|S| / |O|) sum_{l in O} l^N.  P's generators
# are monomial with phases in mu_z and fix x_0, so |O| divides [C_g : P_g].
# The breadth-first `_row_walk` finds O without closing any group (60 rows
# for 2II at g = 2); the tests check it against the coset reps' rows.
#
# Expanding each l^N over all C(N+d-1, d-1) monomials is wasted work, as
# almost all of them cancel in the sum (the invariant theory of
# Nebe-Rains-Sloane, ch. 5).  E_g is C_g-invariant, and d_phi, which lies
# in P_g <= C_g, multiplies x^m by zeta_n^(sum_v m_v k_v), k_v the phases of
# its cells.  So the coefficient of x^m is 0 unless sum_v m_v k_v = 0 mod n
# for every d_phi, and the d_phi of basis_quadforms suffice, as d_phi d_psi =
# d_(phi+psi).  `invariant_monomials` walks only those m (119 of 2,925 for
# 2II at g = 2, N = 24), and `eisenstein_coset` sums each of their
# coefficients over the rows of O.


def seed_vars(tag: str, g: int, p: int) -> range:
    """S, the v whose x_v^N the seed sums."""
    return range(p**g) if tag in ("2I", "2II") else range(1)


def seed_poly(tag: str, g: int, N: int, p: int) -> Poly:
    d = p**g
    terms = {tuple(N if i == v else 0 for i in range(d)): 1 for v in seed_vars(tag, g, p)}
    return Poly(p, g, N, run_conductor(p), terms)


@lru_cache(maxsize=None)
def seed_orbit(tag: str, g: int, p: int = 2) -> tuple:
    """The orbit O of x_0 modulo mu_z under C_g, as rows; rows[0] is x_0.

    A row (den, numerators) is the form sum_w (numerators[w] / den) x_w, the
    least of its phase multiples by mu_z (`_Rows`).  Refuses the triples
    without a predicted order, and raises ClosureError unless |O| divides
    the predicted index |C_g| / |P_g| and every x_v of the seed lies in O.
    """
    order, parabolic = predicted_orders(tag, g, p)
    kernel = _Rows(p, g, center_order(tag, p))
    rows = [kernel.unit(0)[1]]
    # a larger orbit divides nothing
    seen, _ = _row_walk(rows, kernel, generator_cells(tag, g, p), order // parabolic)
    if order % parabolic or (order // parabolic) % len(rows):
        raise ClosureError(f"orbit of {len(rows)} rows does not divide the index "
                           f"{order}/{parabolic}")
    missing = next((v for v in seed_vars(tag, g, p) if kernel.unit(v)[1] not in seen), None)
    if missing is not None:
        raise ClosureError(f"x_{missing} of the seed is not in the orbit of x_0")
    return tuple(rows)


def invariant_monomials(tag: str, g: int, N: int, p: int = 2) -> list:
    """The exponent tuples m of degree N with sum_v m_v phi(v) = 0 mod n for
    every phi of basis_quadforms: the only monomials that a C_g-invariant
    form of degree N can hold.

    Depth first over the variables, carrying the residues that the variables
    still to come must add; reach[v][left] holds those that the variables
    from v on can add at degree left, so every branch taken ends in a
    monomial.
    """
    n, d = run_conductor(p), p**g
    forms = basis_quadforms(tag, g, p)
    phases = [tuple(phi(index_vector(v, p, g)) for phi in forms) for v in range(d)]

    def add(r: tuple, v: int, e: int) -> tuple:
        return tuple((a + e * k) % n for a, k in zip(r, phases[v]))

    zero = (0,) * len(phases[0])
    reach = [None] * d
    reach[-1] = [{add(zero, d - 1, e)} for e in range(N + 1)]
    for v in range(d - 2, 0, -1):
        reach[v] = [{add(r, v, e) for e in range(left + 1) for r in reach[v + 1][left - e]}
                    for left in range(N + 1)]
    out, exps = [], [0] * d

    def walk(v: int, left: int, need: tuple) -> None:
        if v == d - 1:  # the last variable takes what is left
            exps[v] = left
            out.append(tuple(exps))
            return
        for e in range(left + 1):
            rest = add(need, v, -e)
            if rest in reach[v + 1][left - e]:
                exps[v] = e
                walk(v + 1, left - e, rest)
        exps[v] = 0

    walk(0, N, zero)
    return out


def eisenstein_coset(tag: str, g: int, N: int, p: int = 2) -> Poly:
    """E_g as the average of the seed over P_g \\ C_g: (|S| / |O|) sum_{l in O} l^N,
    expanded on the invariant monomials only.

    A row l = sum_w (nums[w] / den) x_w of the orbit O is taken over the lcm
    D of the denominators, and the coefficient of x^m is the multinomial
    N! / prod m_w! times the sum over the rows of prod_w (D l_w)^(m_w), from
    one power table per distinct entry, over D^N |O|.
    """
    if N < 0:
        raise ValueError(f"N = {N} is negative")
    if N % center_order(tag, p):
        raise ValueError(f"N = {N} not divisible by |Z| = {center_order(tag, p)}")
    rows = seed_orbit(tag, g, p)  # refuses a triple with no predicted order: p^g is small
    d = p**g
    if N * comb(N + d - 1, d - 1) > COSET_BUDGET:
        raise ValueError(f"--length {N} at --genus {g} is past the coset average's size "
                         f"budget: N * C(N + {d - 1}, {d - 1}) > {COSET_BUDGET}")
    if N == 0:  # the seed is the constant 1 (seed_poly), and so is its average
        return seed_poly(tag, g, 0, p)
    n, D = run_conductor(p), lcm(*(den for den, _ in rows))
    tables: dict = {}  # D * an entry a -> [None, a, a^2, .., a^N]

    def powers(a: tuple) -> list:
        if a not in tables:
            pw = tables[a] = [None, list(a)]
            for _ in range(N - 1):
                pw.append(mul_nums(n, pw[-1], a))
        return tables[a]

    terms = [(sum(1 << w for w, a in enumerate(nums) if any(a)),
              [powers(tuple(x * (D // den) for x in a)) if any(a) else None for a in nums])
             for den, nums in rows]
    scale, top, out = len(seed_vars(tag, g, p)) * factorial(N), D**N * len(rows), {}
    for m in invariant_monomials(tag, g, N, p):
        used = [(w, e) for w, e in enumerate(m) if e]
        mask = sum(1 << w for w, _ in used)
        total = [0] * phi_degree(n)
        for support, pws in terms:
            if mask & ~support:  # a variable of m that l does not hold
                continue
            (w, e), *rest = used
            x = pws[w][e]
            for w, e in rest:
                x = mul_nums(n, x, pws[w][e])
            total = [a + b for a, b in zip(total, x)]
        coef = scale // prod(factorial(e) for _, e in used)
        out[m] = CycNum(n, [coef * a for a in total], top)
    return Poly(p, g, N, n, out)
