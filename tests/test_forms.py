import functools
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import f2, reference_symplectic_reduce

from unilc2 import forms

from unilc2.forms import (
    FIRST_SLOT_BITS,
    ArfClass,
    QuadraticForm,
    SingularFormError,
    SymplecticBasis,
    _checked_rows,
    _gram_slot_bits,
    _packed_gram,
    arf,
    arf_normalize,
    direct_sum,
    from_pairing_and_vector,
    hyperbolic,
    make_P,
    negate,
    standard_symplectic,
    symplectic_reduce,
    witt_equal,
)
from unilc2.rings import (
    Mat,
    PolyF2,
    PolyInt,
    PrecondError,
    RingTagError,
    clmul,
    f2_bit_length,
    f2_divmod,
    f2_pack,
    parse_matrix,
)


def rand_unimodular(rng, n):
    rows = [
        [PolyF2.one() if i == j else PolyF2.zero() for j in range(n)]
        for i in range(n)
    ]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        fpoly = PolyF2(rng.getrandbits(3))
        for r in range(n):
            rows[r][j] = rows[r][j] + fpoly * rows[r][i]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        for r in range(n):
            rows[r][i], rows[r][j] = rows[r][j], rows[r][i]
    return Mat(rows, PolyF2)


# -- normal forms; oracle first


def quotient_oracle(max_deg):
    """Row space of all f^2 - f over F2 as pivot rows, for reducing any
    polynomial of degree <= max_deg to its canonical coset representative."""
    pivots = {}
    for fbits in range(2, 1 << (max_deg // 2 + 1)):
        fp = PolyF2(fbits)
        v = (fp * fp + fp).bits
        while v:
            lead = v.bit_length() - 1
            if lead in pivots:
                v ^= pivots[lead]
            else:
                pivots[lead] = v
                v = 0
    return pivots


def oracle_reduce(bits, pivots):
    changed = True
    while changed:
        changed = False
        v = bits
        while v:
            lead = v.bit_length() - 1
            if lead in pivots:
                bits ^= pivots[lead]
                changed = True
                break
            v ^= 1 << lead
    return bits


def test_normalize_against_oracle_through_degree_12():
    pivots = quotient_oracle(12)
    for bits in range(1 << 13):
        assert arf_normalize(PolyF2(bits)).to_poly().bits == oracle_reduce(bits, pivots)


def test_normalize_fixtures():
    # frozen from the oracle: x^4 -> x^2 -> x; x^3 + x^6 -> x^3 + x^3 = 0
    assert arf_normalize(f2("x^4")) == arf_normalize(f2("x"))
    assert arf_normalize(f2("x^4")).to_poly() == f2("x")
    assert arf_normalize(f2("x^3+x^6")) == ArfClass.zero()
    assert arf_normalize(f2("x")).to_poly() == f2("x")


def test_normalize_idempotent():
    rng = random.Random(41)
    for _ in range(200):
        q = PolyF2(rng.getrandbits(12))
        once = arf_normalize(q)
        assert arf_normalize(once.to_poly()) == once


def test_arf_class_group():
    a = arf_normalize(f2("x+1"))
    assert not a.is_reduced()
    assert a + a == ArfClass.zero()
    assert (a + arf_normalize(f2("x^3"))).to_poly() == f2("1+x+x^3")


# -- the rank-2 family and hyperbolic forms


def test_quadratic_form_is_a_frozen_record_equal_by_its_fields():
    q = QuadraticForm(parse_matrix("[x,1;0,1]", PolyF2), 1)
    for name in ("psi", "epsilon"):
        with pytest.raises(AttributeError):
            setattr(q, name, getattr(q, name))
    assert q.rank == 2
    twin = QuadraticForm(parse_matrix("[x,1;0,1]", PolyF2), 1)
    assert q == twin and hash(q) == hash(twin)
    assert q != QuadraticForm(q.psi, -1)
    assert q != QuadraticForm(parse_matrix("[x,1;0,x]", PolyF2), 1)


def test_make_P_shape():
    p = make_P(f2("x"), f2("1"))
    assert p.psi == parse_matrix("[x,1;0,1]", PolyF2)
    assert p.symmetrization() == parse_matrix("[0,1;1,0]", PolyF2)
    assert p.is_nonsingular() and p.is_even()


def test_make_P_zero_is_hyperbolic_plane():
    p = make_P(f2("0"), f2("0"))
    assert witt_equal(p, hyperbolic(1))
    assert arf(p) == ArfClass.zero()


def test_hyperbolic_matrix():
    assert hyperbolic(1).psi == parse_matrix("[0,1;0,0]", PolyF2)
    for r in range(1, 7):
        assert arf(hyperbolic(r)) == ArfClass.zero()


def test_direct_sum_and_negate():
    a, b = make_P(f2("x"), f2("1")), hyperbolic(2)
    s = direct_sum(a, b)
    assert s.rank == a.rank + b.rank
    assert negate(a).psi == -a.psi


# -- arf values


def test_arf_inverts_the_family():
    rng = random.Random(43)
    for _ in range(60):
        q = PolyF2(rng.getrandbits(11))
        assert arf(make_P(q, f2("1"))) == arf_normalize(q)


def test_arf_of_x_squared_family():
    assert arf(make_P(f2("x"), f2("1"))).to_poly() == f2("x")
    assert arf(make_P(f2("x^2"), f2("1"))).to_poly() == f2("x")


def test_arf_additive():
    rng = random.Random(47)
    for _ in range(50):
        a = make_P(PolyF2(rng.getrandbits(6)), f2("1"))
        b = make_P(PolyF2(rng.getrandbits(6)), PolyF2(rng.getrandbits(4) | 1))
        assert arf(direct_sum(a, b)) == arf(a) + arf(b)


def test_arf_basis_invariance():
    rng = random.Random(53)
    base = direct_sum(make_P(f2("x+x^3"), f2("1")), hyperbolic(2))
    want = arf(base)
    for _ in range(100):
        u = rand_unimodular(rng, base.rank)
        assert arf(base.transport(u)) == want


def test_witt_equal():
    p = make_P(f2("x"), f2("1"))
    assert witt_equal(direct_sum(p, hyperbolic(3)), p)
    assert witt_equal(make_P(f2("x"), f2("1")), make_P(f2("x^2"), f2("1")))
    assert not witt_equal(p, hyperbolic(1))


# -- symplectic reduction


def test_reduce_standard_input_is_identity_change():
    lam = standard_symplectic(4)
    form = from_pairing_and_vector(lam, [PolyF2.zero()] * 4)
    basis = symplectic_reduce(form)
    assert basis.u == Mat.identity(4, PolyF2)


def test_reduce_family_is_identity_change():
    basis = symplectic_reduce(make_P(f2("x"), f2("1")))
    assert basis.u == Mat.identity(2, PolyF2)


def test_reduce_transports_to_standard():
    rng = random.Random(59)
    for _ in range(30):
        base = direct_sum(make_P(PolyF2(rng.getrandbits(5)), f2("1")), hyperbolic(2))
        moved = base.transport(rand_unimodular(rng, base.rank))
        basis = symplectic_reduce(moved)
        assert basis.u.det().is_unit()
        got = basis.u.conj_t() * moved.symmetrization() * basis.u
        assert got == standard_symplectic(moved.rank)


def test_reduce_rejects_singular():
    form = QuadraticForm(parse_matrix("[0,x;0,0]", PolyF2), 1)
    with pytest.raises(SingularFormError):
        symplectic_reduce(form)


def block_class_bits(blocks):
    """Oracle by bit arithmetic: the Arf class of a sum of make_P(q, g)
    blocks is the class of the XOR of the carry-less products q*g, with
    every exponent 2^a * e (e odd) folded onto e."""
    total = 0
    for q, g in blocks:
        for i in range(q.bit_length()):
            if q >> i & 1:
                total ^= g << i
    folded = total & 1
    for k in range(1, total.bit_length()):
        if total >> k & 1:
            folded ^= 1 << (k // (k & -k))
    return folded


@st.composite
def transported_block_sums(draw):
    """(blocks, form): a sum of 1-6 make_P blocks (rank 2-12) moved by a
    unimodular matrix built from elementary column operations and a
    permutation."""
    blocks = draw(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), min_size=1, max_size=6))
    form = make_P(PolyF2(blocks[0][0]), PolyF2(blocks[0][1]))
    for q, g in blocks[1:]:
        form = direct_sum(form, make_P(PolyF2(q), PolyF2(g)))
    n = form.rank
    cols = [list(c) for c in zip(*Mat.identity(n, PolyF2).entries)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 7))
    for i, j, fbits in draw(st.lists(ops, max_size=3 * n)):
        if i != j:
            cols[j] = [a + PolyF2(fbits) * b for a, b in zip(cols[j], cols[i])]
    cols = [cols[k] for k in draw(st.permutations(range(n)))]
    u = Mat(list(zip(*cols)), PolyF2)
    return blocks, form.transport(u)


@settings(max_examples=150, deadline=None)
@given(transported_block_sums())
def test_reduce_property_on_transported_block_sums(case):
    blocks, moved = case
    assert arf(moved).to_poly().bits == block_class_bits(blocks)
    basis = symplectic_reduce(moved)
    assert basis.u.det().is_unit()
    got = basis.u.conj_t() * moved.symmetrization() * basis.u
    assert got == standard_symplectic(moved.rank)
    transported = moved.transport(basis.u).psi
    assert basis.mu == tuple(transported[i, i] for i in range(moved.rank))


@settings(max_examples=100, deadline=None)
@given(transported_block_sums())
def test_reduce_ops_replay_to_the_basis(case):
    _, moved = case
    basis = symplectic_reduce(moved)
    cols = [list(c) for c in zip(*Mat.identity(moved.rank, PolyF2).entries)]
    for op in basis.ops:
        if op[0] == "swap":
            _, i, j = op
            cols[i], cols[j] = cols[j], cols[i]
        else:
            _, tgt, src, f = op
            assert f
            cols[tgt] = [a + PolyF2(f) * b for a, b in zip(cols[tgt], cols[src])]
    assert Mat(list(zip(*cols)), PolyF2) == basis.u
    assert sum(op[0] == "swap" for op in basis.ops) <= moved.rank // 2


def polyf2_symplectic_reduce(form):
    """Oracle: symplectic_reduce on PolyF2 objects, the congruences written
    entry by entry (the version the bitmask reduction replaced)."""
    if form.ring is not PolyF2:
        raise RingTagError("symplectic reduction works over F2[x]")
    if form.epsilon != 1:
        raise PrecondError("symplectic reduction expects a (+1)-form")
    lam = form.symmetrization()
    n = form.rank
    if any(lam[i, i] for i in range(n)):
        raise PrecondError("pairing must be alternating (zero diagonal)")
    g = [list(r) for r in lam.entries]
    u = [list(r) for r in Mat.identity(n, PolyF2).entries]
    q = [form.psi[j, j] for j in range(n)]
    ops = []

    def add_col(tgt, src, f):
        # column op on u and the matching congruence update on g and q
        if not f:
            return
        ops.append(("add", tgt, src, f.bits))
        if q[src]:
            q[tgt] = q[tgt] + f * f * q[src]
        if g[tgt][src]:
            q[tgt] = q[tgt] + f * g[tgt][src]
        for rows in (u, g):
            for r in rows:
                if r[src]:
                    r[tgt] = r[tgt] + f * r[src]
        gt, gs = g[tgt], g[src]
        for j in range(n):
            if gs[j]:
                gt[j] = gt[j] + f * gs[j]

    def swap(i, j):
        ops.append(("swap", i, j))
        q[i], q[j] = q[j], q[i]
        for r in u:
            r[i], r[j] = r[j], r[i]
        g[i], g[j] = g[j], g[i]
        for r in g:
            r[i], r[j] = r[j], r[i]

    for t in range(0, n, 2):
        # Euclid on row t: afterwards <e_t, e_piv> is the row's gcd and
        # every other pairing of e_t vanishes
        while True:
            nz = [j for j in range(t + 1, n) if g[t][j]]
            if not nz:
                raise SingularFormError("pairing is not unimodular")
            piv = min(nz, key=lambda j: (g[t][j].degree(), j))
            if len(nz) == 1:
                break
            for j in nz:
                if j != piv:
                    add_col(j, piv, f2_divmod(g[t][j], g[t][piv])[0])
        if not g[t][piv].is_unit():
            raise SingularFormError("pairing is not unimodular")
        if piv != t + 1:
            swap(t + 1, piv)
        # decouple the rest from the new pair (t, t+1); <e_t, e_j> is
        # already 0 for j > t+1, so only <e_{t+1}, e_j> needs clearing
        for j in range(t + 2, n):
            add_col(j, t, g[t + 1][j])
    um = Mat(u, PolyF2)
    if um.conj_t() * lam * um != standard_symplectic(n):
        raise SingularFormError("internal error: reduction did not standardise")
    return SymplecticBasis(um, tuple(q), tuple(ops))



@st.composite
def perturbed_block_sums(draw):
    """A transported block sum, sometimes with psi changed off the diagonal
    (the pairing then is often singular) or a row and column dropped (odd
    rank)."""
    _, form = draw(transported_block_sums())
    n = form.rank
    rows = [list(r) for r in form.psi.entries]
    for i, j, bits in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              st.integers(1, 7)), max_size=2)):
        rows[i][j] = rows[i][j] + PolyF2(bits)
    if n > 2 and draw(st.booleans()):
        rows = [r[:-1] for r in rows[:-1]]
    return QuadraticForm(Mat(rows, PolyF2), 1)


def _reduction(reduce, form):
    try:
        basis = reduce(form)
    except (SingularFormError, PrecondError) as exc:
        return type(exc)
    return basis.u, basis.mu, basis.ops


@settings(max_examples=200, deadline=None)
@given(st.one_of(transported_block_sums().map(lambda case: case[1]), perturbed_block_sums()))
def test_reduce_against_the_polyf2_oracle(form):
    assert _reduction(symplectic_reduce, form) == _reduction(polyf2_symplectic_reduce, form)


def lu_transport(rng, n, d):
    """L * U over F2[x]: unit triangular factors whose off-diagonal entries
    are drawn row by row, L first, as rng.getrandbits(d + 1)."""
    one, zero = PolyF2.one(), PolyF2.zero()
    lo = [[one if i == j else PolyF2(rng.getrandbits(d + 1)) if i > j else zero for j in range(n)]
          for i in range(n)]
    up = [[one if i == j else PolyF2(rng.getrandbits(d + 1)) if i < j else zero for j in range(n)]
          for i in range(n)]
    return Mat(lo, PolyF2) * Mat(up, PolyF2)


def test_reduce_with_repacked_columns_against_the_polyf2_oracle():
    """The rank-12 hyperbolic form moved by L * U with degree-8 entries: u's
    entries reach degree 384, more than four times the first slot width of
    its packed columns, so they are repacked wider several times, and the
    reduction still equals the PolyF2 oracle's."""
    form = hyperbolic(6).transport(lu_transport(random.Random(1), 12, 8))
    assert f2_bit_length(symplectic_reduce(form).u.bits) > 4 * FIRST_SLOT_BITS
    assert _reduction(symplectic_reduce, form) == _reduction(polyf2_symplectic_reduce, form)


def test_rank_24_degree_8_transport_within_budget():
    """Twelve make_P blocks (rank 24) moved by L * U with degree-8 entries,
    where u reaches degree 1650: arf took 0.57 s on a 2-core VM
    (CPython 3.11) and is held to 10 s."""
    rng = random.Random(24)
    blocks = [(rng.getrandbits(4), rng.getrandbits(4)) for _ in range(12)]
    form = make_P(PolyF2(blocks[0][0]), PolyF2(blocks[0][1]))
    for q, g in blocks[1:]:
        form = direct_sum(form, make_P(PolyF2(q), PolyF2(g)))
    moved = form.transport(lu_transport(rng, 24, 8))
    start = time.perf_counter()
    cls = arf(moved)
    elapsed = time.perf_counter() - start
    assert cls.to_poly().bits == block_class_bits(blocks)
    assert elapsed < 10


@pytest.mark.parametrize(
    "psi",
    [
        # an alternating determinant is a square (of the Pfaffian): these have
        # Pfaffian x and 1+x, and a first row with unit gcd
        "[0,x,1,0;0,0,x,0;0,0,0,1;0,0,0,0]",
        "[0,x,1,0;0,0,x,1;0,0,0,1;0,0,0,0]",
        # odd rank: the last pivot row is empty
        "[0,1,0;0,0,1;0,0,0]",
    ],
)
def test_reduce_rejects_non_unimodular_alternating_pairings(psi):
    form = QuadraticForm(parse_matrix(psi, PolyF2), 1)
    assert form.is_even() and not form.is_nonsingular()
    with pytest.raises(SingularFormError):
        symplectic_reduce(form)


def test_reduce_six_by_six_fixture():
    # pairing of the additivity obstruction at p1 = p2 = x, g = 1
    lam = parse_matrix(
        "[0,1,1,1,0,1;1,0,0,x,1,x;1,0,0,1,0,0;1,x,1,0,0,0;0,1,0,0,0,0;1,x,0,0,0,0]",
        PolyF2,
    )
    vec = [f2("1"), f2("0"), f2("0"), f2("x"), f2("0"), f2("x")]
    form = from_pairing_and_vector(lam, vec)
    basis = symplectic_reduce(form)
    assert basis.u.conj_t() * lam * basis.u == standard_symplectic(6)
    assert len(basis.pairs) == 3
    assert arf(form).to_poly() == f2("x")


# -- the packed u^T lam u = J check


@st.composite
def standard_gram_pairs(draw):
    """(u, lam) as bit rows with u^T lam u = J, at even ranks 0-20: u is a
    product of elementary matrices E = Id + f e_(src,tgt), each its own
    inverse over F2[x], so u^-1 is built alongside and lam = u^-T J u^-1."""
    n = 2 * draw(st.integers(0, 10))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [r[:] for r in u]
    if n:
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 255))
        for src, tgt, f in draw(st.lists(ops, max_size=2 * n)):
            if src != tgt:
                for r in u:  # u <- u E: column tgt gains f * column src
                    r[tgt] ^= clmul(f, r[src])
                # u^-1 <- E u^-1: row src gains f * row tgt
                inv[src] = [a ^ clmul(f, b) for a, b in zip(inv[src], inv[tgt])]
    inv_m = Mat.from_bits(inv, n)
    lam = inv_m.conj_t() * standard_symplectic(n) * inv_m
    return u, [list(r) for r in lam.bits]


def polyf2_gram(u, lam):
    """Oracle: u^T lam u entry by entry on PolyF2 objects, as bit rows."""
    n = len(u)
    up = [[PolyF2(v) for v in r] for r in u]
    lp = [[PolyF2(v) for v in r] for r in lam]
    zero = PolyF2.zero()
    ul = [[sum((up[s][i] * lp[s][r] for s in range(n)), zero) for r in range(n)] for i in range(n)]
    return [[sum((ul[i][r] * up[r][j] for r in range(n)), zero).bits for j in range(n)] for i in range(n)]


def unpack_slots(rows, w, n):
    mask = (1 << w) - 1
    return [[z >> (j * w) & mask for j in range(n)] for z in rows]


def pack_cols(u):
    """u's columns packed as the reduction holds them, at the least
    multiple of 64 bits that holds every entry, and that width."""
    w = 64 * max(1, -(-f2_bit_length(u) // 64))
    return [f2_pack(c, w) for c in zip(*u)], w


def gram_width(u, lam):
    """_gram_slot_bits for u given by rows, its columns packed as pack_cols
    packs them."""
    ucols, w = pack_cols(u)
    return _gram_slot_bits(ucols, len(u), w, lam)


def checked(ucols, n, w, lam):
    """u's rows from _checked_rows, or None when it raises the reduction's
    internal error."""
    try:
        return _checked_rows(ucols, n, w, lam)
    except SingularFormError as exc:
        assert str(exc).startswith("internal error")
        return None


def checked_u(u, lam):
    ucols, w = pack_cols(u)
    return checked(ucols, len(u), w, lam)


@settings(max_examples=120, deadline=None)
@given(standard_gram_pairs(), st.data())
def test_packed_gram_check_against_the_dense_product(pair, data):
    """The check accepts exactly when the dense u^T lam u is J, and then
    returns u's rows.  The pairs drawn are accepted ones and one-bit
    mutations of them: of lam (always rejected, as u^T (x^b e_rc) u is the
    outer product of two nonzero rows of u), of u (a transvection inside a
    pair can keep J, so only agreement with the oracle is asserted), and a
    top mutation that puts an entry of u^T lam u at exactly the exact
    bound's bit length."""
    u, lam = pair
    n = len(u)
    j_rows = [[int(j == i ^ 1) for j in range(n)] for i in range(n)]
    assert polyf2_gram(u, lam) == j_rows and checked_u(u, lam) == u
    kind = data.draw(st.sampled_from(["u", "lam", "top"])) if n else None
    if kind == "top":
        # lam[r][r] gains x^b one above lam's top bit, where u[r][i] has
        # u's top degree: entry (i, i) gains x^b u[r][i]^2, of bit length
        # 2 bitlen(u) + bitlen(lam') - 2
        r, i = max(((r, i) for r in range(n) for i in range(n)), key=lambda ri: u[ri[0]][ri[1]])
        lam[r][r] ^= 1 << f2_bit_length(lam)
    elif kind is not None:
        m = u if kind == "u" else lam
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        m[r][c] ^= 1 << data.draw(st.integers(0, f2_bit_length(m)))
    dense = polyf2_gram(u, lam)
    assert checked_u(u, lam) == (u if dense == j_rows else None)
    if kind in ("lam", "top"):
        assert checked_u(u, lam) is None
    # the check's width is the exact bound rounded up to a multiple of 64
    exact = max(2 * f2_bit_length(u) + f2_bit_length(lam) - 2, 1)
    big_w = gram_width(u, lam)
    assert big_w % 64 == 0 and big_w - 64 < exact <= big_w
    for ws in (big_w, exact):
        assert unpack_slots(_packed_gram(u, [f2_pack(r, ws) for r in u], lam), ws, n) == dense
    if kind == "top":
        assert f2_bit_length(dense) == exact
    if exact > 1:
        # one bit narrower, an entry of full bit length spills into the
        # next slot: the packed rows no longer hold the product
        narrow = unpack_slots(_packed_gram(u, [f2_pack(r, exact - 1) for r in u], lam), exact - 1, n)
        assert (narrow == dense) == (f2_bit_length(dense) < exact)


def test_packed_gram_check_on_every_single_bit_flip_of_u():
    """On the symplectic bases of machine obstruction forms (ranks 4 and 6)
    and of dense forms like user-forms' (make_P blocks moved by L * U,
    ranks 2-6), the check agrees with the PolyF2 product on every one-bit
    change of one packed column of u, up to one bit past u's longest
    entry: it rejects each change that breaks u^T lam u = J.  A few
    changes keep J (a transvection that turns u into another symplectic
    basis), and those it accepts, returning the changed rows."""
    from unilc2.complexes import run_relation

    x, x2 = PolyInt.x_power(1), PolyInt.x_power(2)
    cases = [(1, x, PolyInt.one() + x, x2), (2, x, PolyInt.one(), None), (4, x + x2, x, None)]
    bases = [run_relation(*case)[0].obstruction.reduced for case in cases]
    rng = random.Random(19)
    for rank in (2, 4, 6):
        blocks = [make_P(PolyF2(rng.getrandbits(3)), PolyF2(rng.getrandbits(3))) for _ in range(rank // 2)]
        bases.append(functools.reduce(direct_sum, blocks).transport(lu_transport(rng, rank, 1)))
    kept = broken = 0
    for form in bases:
        u = [list(r) for r in symplectic_reduce(form).u.bits]
        lam = [list(r) for r in form.symmetrization().bits]
        n = len(u)
        j_rows = [[int(j == i ^ 1) for j in range(n)] for i in range(n)]
        ucols, w = pack_cols(u)
        for r in range(n):
            for c in range(n):
                for b in range(f2_bit_length(u) + 1):
                    u[r][c] ^= 1 << b
                    ucols[c] ^= 1 << (r * w + b)
                    keeps_j = polyf2_gram(u, lam) == j_rows
                    assert checked(ucols, n, w, lam) == (u if keeps_j else None), (form, r, c, b)
                    kept, broken = kept + keeps_j, broken + (not keeps_j)
                    u[r][c] ^= 1 << b
                    ucols[c] ^= 1 << (r * w + b)
    assert broken > kept > 0  # 655 and 65 on these bases


def wide_form():
    """The rank-12 hyperbolic form moved by L * U with degree-8 entries:
    u's slots and the check's both reach several 64-bit limbs."""
    return hyperbolic(6).transport(lu_transport(random.Random(1), 12, 8))


def machine_big_form():
    """The rank-18 obstruction form of relation 1 at p = x, g = 1 + x,
    p2 = x^2."""
    from unilc2.complexes import run_relation

    x = PolyInt.x_power(1)
    return run_relation(1, x, PolyInt.one() + x, PolyInt.x_power(2))[0].obstruction.big


@pytest.mark.parametrize("make", [machine_big_form, wide_form], ids=["machine-big", "wide"])
def test_a_flipped_limb_in_the_reduction_s_check_raises(make, monkeypatch):
    """Inside symplectic_reduce, one bit flipped in one limb of one packed
    row of u (while u's rows stay as they are) always raises the internal
    error: u^T lam u' = J = u^T lam u would force u' = u.  One bit flipped in
    one limb of one packed column of u changes u itself, and raises exactly
    when the changed u^T lam u is not J."""
    form = make()
    lam = [list(r) for r in form.symmetrization().bits]
    u = [list(r) for r in symplectic_reduce(form).u.bits]
    n, width = len(u), gram_width(u, lam)
    j_rows = [[int(j == i ^ 1) for j in range(n)] for i in range(n)]
    real_gram, real_rows = forms._packed_gram, forms._checked_rows
    rng = random.Random(7)
    raised = 0
    for _ in range(12):
        r, c, limb, bit = rng.randrange(n), rng.randrange(n), rng.randrange(8), rng.randrange(64)

        def flip_row(urows, packed, lam):
            packed = list(packed)
            packed[r] ^= 1 << (c * width + 64 * (limb % (width // 64)) + bit)
            return real_gram(urows, packed, lam)

        monkeypatch.setattr(forms, "_packed_gram", flip_row)
        with pytest.raises(SingularFormError, match="^internal error"):
            symplectic_reduce(form)
        monkeypatch.setattr(forms, "_packed_gram", real_gram)

        flipped = []  # the bit flipped in u[r][c]

        def flip_col(ucols, n, w, lam):
            flipped.append(64 * (limb % (w // 64)) + bit)
            ucols = list(ucols)
            ucols[c] ^= 1 << (r * w + flipped[0])
            return real_rows(ucols, n, w, lam)

        monkeypatch.setattr(forms, "_checked_rows", flip_col)
        try:
            symplectic_reduce(form)
            changed = False
        except SingularFormError as exc:
            assert str(exc).startswith("internal error")
            changed = True
        monkeypatch.setattr(forms, "_checked_rows", real_rows)
        u[r][c] ^= 1 << flipped[0]
        assert changed == (polyf2_gram(u, lam) != j_rows)
        u[r][c] ^= 1 << flipped[0]
        raised += changed
    assert raised > 6


def test_the_check_width_from_the_folded_columns_is_the_scanned_one(monkeypatch):
    """_gram_slot_bits folds u's longest entry out of its packed columns;
    on machine obstruction forms (relations 1-4, seeded degree-2
    parameters with p * g in x Z[x]), on dense forms like user-forms' (make_P blocks moved by
    L * U, ranks 2-12) and on forms whose columns were repacked wider (a
    hyperbolic form moved by degree-8 L * U), the width is the one scanned
    from all n^2 entries of u."""
    from unilc2.complexes import run_relation

    rng = random.Random(11)
    forms_seen = []
    for k in (1, 2, 3, 4):
        p, p2 = (PolyInt([0, rng.randint(0, 2), rng.randint(1, 2)]) for _ in range(2))  # p * g in x Z[x]
        g = PolyInt([rng.randint(0, 2) for _ in range(3)])
        res = run_relation(k, p, g, p2)[0]
        forms_seen += [res.obstruction.big, res.obstruction.reduced]
    for rank in (2, 6, 12):
        blocks = [make_P(PolyF2(rng.getrandbits(3)), PolyF2(rng.getrandbits(3))) for _ in range(rank // 2)]
        forms_seen.append(functools.reduce(direct_sum, blocks).transport(lu_transport(rng, rank, 1)))
    forms_seen += [wide_form(), hyperbolic(4).transport(lu_transport(rng, 8, 8))]
    calls = []
    real = forms._checked_rows

    def spy(ucols, n, w, lam):
        urows = real(ucols, n, w, lam)
        scanned = -(-max(2 * f2_bit_length(urows) + f2_bit_length(lam) - 2, 1) // 64) * 64
        calls.append((w, _gram_slot_bits(ucols, n, w, lam), scanned))
        return urows

    monkeypatch.setattr(forms, "_checked_rows", spy)
    for form in forms_seen:
        symplectic_reduce(form)
    assert len(calls) == len(forms_seen) == 13
    assert all(folded == scanned for _, folded, scanned in calls)
    assert any(w > FIRST_SLOT_BITS for w, _, _ in calls)


def coupled_form(f, h, vec):
    """The rank-6 form with pairing J + f (e1 e2^T + e2 e1^T) + h (e3 e4^T +
    e4 e3^T) (f, h bitmasks) and quadratic values vec: the reduction makes
    u_2 = f e_0 + e_2 and u_4 = h u_2 + e_4, with multipliers f and h."""
    lam = [[int(j == i ^ 1) for j in range(6)] for i in range(6)]
    lam[1][2] = lam[2][1] = f
    lam[3][4] = lam[4][3] = h
    return from_pairing_and_vector(Mat.from_bits(lam, 6), [PolyF2(v) for v in vec])


@pytest.mark.parametrize("a, b, exact, width", [(20, 4, 64, 64), (21, 3, 65, 128)])
def test_the_check_width_rounds_the_exact_bound_up_to_64_bits(a, b, exact, width, monkeypatch):
    """coupled_form with f = x^(a-1), h = x^(b-1): bitlen(u) = a + b - 1 and
    bitlen(lam) = a, so the exact bound 2 bitlen(u) + bitlen(lam) - 2 is 64
    at (20, 4) and 65 at (21, 3), while u's slots stay 64 bits wide.  The
    check packs u's rows at W = 64 and W = 128."""
    form = coupled_form(1 << (a - 1), 1 << (b - 1), [0] * 6)
    packed_rows = []
    real = forms._packed_gram
    monkeypatch.setattr(forms, "_packed_gram", lambda u, packed, lam: packed_rows.append(packed) or real(u, packed, lam))
    basis = symplectic_reduce(form)
    u, lam = basis.u.bits, form.symmetrization().bits
    assert f2_bit_length(u) == a + b - 1 and f2_bit_length(lam) == a
    assert 2 * (a + b - 1) + a - 2 == exact and gram_width(u, lam) == width
    assert packed_rows == [[f2_pack(r, width) for r in u]]
    assert basis.u.conj_t() * form.symmetrization() * basis.u == standard_symplectic(6)


# -- bit identity with the reduction before its bookkeeping ran on limb
# arrays (conftest.reference_symplectic_reduce)


def _degree_2_polys():
    return st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).map(PolyInt)


@st.composite
def machine_obstruction_forms(draw):
    """The big or reduced obstruction form of a machine run on relation k
    with degree-2 parameters (coefficients 0-2) that relation_fixture
    admits."""
    from unilc2.complexes import run_relation

    k = draw(st.integers(1, 4))
    p, g, p2 = draw(_degree_2_polys()), draw(_degree_2_polys()), draw(_degree_2_polys())
    if k == 1:
        assume(not ((p * g).constant or (p2 * g).constant or ((p + p2) * g).constant))
    else:
        p2 = None
        assume(k == 3 or not (p * g).constant)
    obs = run_relation(k, p, g, p2)[0].obstruction
    return obs.big if draw(st.booleans()) else obs.reduced


@st.composite
def wide_transports(draw):
    """A hyperbolic form of rank 2-12 moved by L * U with entries of degree
    up to 8: u's entries, or the check's bound, often pass 64 bits."""
    rank = 2 * draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return hyperbolic(rank // 2).transport(lu_transport(rng, rank, draw(st.integers(1, 8))))


@st.composite
def long_multiplier_forms(draw):
    """coupled_form with multipliers of up to 300 bits: a single operation
    can widen u's slots more than twofold."""
    bits = st.integers(1, 2 ** 300)
    return coupled_form(draw(bits), draw(bits), draw(st.lists(st.integers(0, 255), min_size=6, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(machine_obstruction_forms(), transported_block_sums().map(lambda case: case[1]),
                 wide_transports(), long_multiplier_forms()))
@example(wide_form())
def test_reduce_is_bit_identical_to_the_reference(form):
    want, got = reference_symplectic_reduce(form), symplectic_reduce(form)
    assert got.u.bits == want.u.bits
    assert [v.bits for v in got.mu] == [v.bits for v in want.mu]
    assert got.ops == want.ops
    total = PolyF2.zero()
    for i, j in want.pairs:
        total = total + want.mu[i] * want.mu[j]
    assert arf(form) == arf_normalize(total)


def test_arf_reaches_the_reduction_through_the_module_attribute(monkeypatch):
    """arf looks symplectic_reduce up on the module at each call, so a
    wrapper set there (as the benchmark's tracer sets one) sees it.  A form
    whose isolated unit pairs split off completely makes no call."""
    calls = []
    real = forms.symplectic_reduce
    monkeypatch.setattr(forms, "symplectic_reduce", lambda form: calls.append(form) or real(form))
    form = QuadraticForm(parse_matrix(NO_UNIT_ROW, PolyF2), 1)
    assert forms.arf(form).to_poly() == f2("x")
    assert len(calls) == 1 and calls[0] is form
    calls.clear()
    assert forms.arf(make_P(f2("x"), f2("1"))).to_poly() == f2("x")
    assert calls == []


# -- isolated unit pairs split off before the reduction
# (forms._split_unit_pairs), against the Arf class read off the whole form

# a rank-4 form whose pairing has three nonzero entries in every row, so
# nothing splits; its Arf class is x
NO_UNIT_ROW = "[x,1,1,1;0,1,1,1;0,0,0,1;0,0,0,1]"


def reference_arf(form):
    """The Arf class of the conftest reduction of the whole form."""
    basis = reference_symplectic_reduce(form)
    total = PolyF2.zero()
    for i, j in basis.pairs:
        total = total + basis.mu[i] * basis.mu[j]
    return arf_normalize(total)


@st.composite
def partly_split_forms(draw):
    """(the Arf class, the rank left after the split, form): a sum of
    make_P(q, 1) blocks with q != 0 and hyperbolic planes, and perhaps the
    NO_UNIT_ROW block, moved by elementary column operations that add
    multiples of a block's first vector e to columns other than the e's,
    then permuted.  Each e row keeps its single unit entry, and each
    addition changes mu of its column by c^2 mu(e), which the split must
    undo."""
    qs = draw(st.lists(st.integers(0, 31), min_size=1, max_size=5))  # 0: a hyperbolic plane
    core = draw(st.booleans())
    blocks = [make_P(PolyF2(q), PolyF2(1 if q else 0)) for q in qs]
    if core:
        blocks.append(QuadraticForm(parse_matrix(NO_UNIT_ROW, PolyF2), 1))
    form = functools.reduce(direct_sum, blocks)
    n = form.rank
    cols = [list(c) for c in zip(*Mat.identity(n, PolyF2).entries)]
    es = range(0, 2 * len(qs), 2)
    others = [j for j in range(n) if j not in es]
    ops = st.tuples(st.sampled_from(es), st.sampled_from(others), st.integers(1, 7))
    for e, j, c in draw(st.lists(ops, max_size=2 * n)):
        cols[j] = [a + PolyF2(c) * b for a, b in zip(cols[j], cols[e])]
    cols = [cols[k] for k in draw(st.permutations(range(n)))]
    want = block_class_bits([(q, 1) for q in qs]) ^ (0b10 if core else 0)
    return arf_normalize(PolyF2(want)), 4 if core else 0, form.transport(Mat(list(zip(*cols)), PolyF2))


@settings(max_examples=200, deadline=None)
@given(partly_split_forms())
def test_split_against_the_reference_on_partly_split_forms(case):
    want, left, form = case
    total, residual = forms._split_unit_pairs(form)
    assert (residual.rank if residual else 0) == left
    assert arf(form) == reference_arf(form) == want


def _admitted_obstruction_forms(k, rng, count):
    """The big and reduced obstruction forms of `count` machine runs of
    relation k with random degree-2 parameters (coefficients 0-2) that
    relation_fixture admits (it refuses the others with PrecondError)."""
    from unilc2.complexes import run_relation

    def poly():
        return PolyInt([rng.randrange(3) for _ in range(3)])

    out = []
    for _ in range(50 * count):
        try:
            obs = run_relation(k, poly(), poly(), poly() if k == 1 else None)[0].obstruction
        except PrecondError:
            continue
        out += [obs.big, obs.reduced]
        if len(out) == 2 * count:
            return out
    raise AssertionError(f"relation {k} admitted too few parameter draws")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_obstruction_forms_split_completely_and_agree_with_the_reference(k, monkeypatch):
    """The machine's obstruction forms need no reduction: big splits its
    middle block onto reduced's pairing and values, and those split too."""
    calls = []
    real = forms.symplectic_reduce
    monkeypatch.setattr(forms, "symplectic_reduce", lambda form: calls.append(form) or real(form))
    for form in _admitted_obstruction_forms(k, random.Random(k), 8):
        assert forms._split_unit_pairs(form)[1] is None
        assert arf(form) == reference_arf(form)
    assert calls == []


def test_a_singular_residual_behind_a_unit_pair_raises():
    """A unit pair splits off, and the reduction of what is left finds the
    singular pairing, also when the pair is mixed into it, or the rest has
    odd rank."""
    form = direct_sum(make_P(f2("x"), f2("1")), QuadraticForm(parse_matrix("[0,x;0,0]", PolyF2), 1))
    u = parse_matrix("[1,0,x,1;0,1,0,0;0,0,1,0;0,0,0,1]", PolyF2)  # e added to columns 2 and 3
    odd = direct_sum(make_P(f2("1"), f2("x")), QuadraticForm(parse_matrix("[x]", PolyF2), 1))
    for case, left in ((form, 2), (form.transport(u), 2), (odd, 1)):
        assert forms._split_unit_pairs(case)[1].rank == left
        with pytest.raises(SingularFormError):
            arf(case)


def test_arf_checks_ring_and_epsilon_before_any_split(monkeypatch):
    """The reduction's ring and epsilon checks run before any split, with
    its errors.  (A pairing psi + psi^T over F2[x] is always alternating,
    so the reduction's zero-diagonal check has no form to refuse.)"""
    monkeypatch.setattr(forms, "symplectic_reduce", lambda form: pytest.fail("reduction reached"))
    p = make_P(f2("x"), f2("1"))
    with pytest.raises(PrecondError, match="expects a \\(\\+1\\)-form"):
        arf(QuadraticForm(p.psi, -1))
    with pytest.raises(RingTagError, match="works over F2"):
        arf(QuadraticForm(parse_matrix("[x,1;0,1]", PolyInt), 1))
