import functools
import itertools
import operator
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bareiss_det,
    cofactor_adjugate,
    f2,
    gauss_jordan_solve,
    int_polys,
    laplace_det,
    obj_add,
    obj_mul,
    obj_neg,
    obj_rows,
    obj_transpose,
    zx,
)

from unilc2 import rings
from unilc2.complexes import relation_fixture, run_relation
from unilc2.formations import make_M_sum
from unilc2.rings import (
    C2Poly,
    MAX_EXPONENT,
    MIN_SLOT_BITS,
    Mat,
    NEG_INF,
    NonDivisibleError,
    NotInImageError,
    ONE_MINUS_T,
    PolyF2,
    PolyInt,
    PrecondError,
    RingTagError,
    ShapeError,
    _f2_row,
    _zx_row,
    apply_i,
    apply_j,
    apply_k,
    cl_divmod,
    f2_dot,
    format_matrix,
    format_poly,
    parse_matrix,
    parse_poly,
    pullback_inverse,
    pullback_matrix,
    pullback_pair,
    solve_right,
    spread_bits,
)


def rand_polyint(rng, deg=4, bound=4):
    return PolyInt([rng.randint(-bound, bound) for _ in range(deg + 1)])


def rand_c2(rng, deg=3, bound=3):
    return C2Poly.from_parts(rand_polyint(rng, deg, bound), rand_polyint(rng, deg, bound))


# -- canonical representation


def test_trailing_zeros_stripped():
    assert PolyInt((1, 2, 0, 0)).coeffs == (1, 2)
    assert PolyInt((0, 0, 0)).coeffs == ()
    assert not PolyInt(())


def test_zero_degree_marker():
    assert PolyInt(()).degree() == NEG_INF
    assert PolyF2(0).degree() == NEG_INF
    assert zx("x^3").degree() == 3


def test_equality_is_structural():
    assert zx("1+2*x") == PolyInt((1, 2))
    assert zx("x") != zx("x^2")


# -- C2 arithmetic


def test_c2_multiplication_table():
    one, t = C2Poly.one(), C2Poly.t()
    assert t * t == one
    assert t * one == one * t == t
    assert parse_poly("2+3*T", C2Poly) * parse_poly("5-T", C2Poly) == parse_poly("7+13*T", C2Poly)
    assert (t.a, t.b) == (zx("0"), zx("1"))


def test_one_minus_t_squared():
    assert ONE_MINUS_T * ONE_MINUS_T == parse_poly("2-2*T", C2Poly)


def test_duality_determinant_square_is_one_mod_two():
    # ((1-T)pg - 1)^2 for p = x, g = 1
    p, g = zx("x"), zx("1")
    d = ONE_MINUS_T * C2Poly.from_polyint(p * g) - C2Poly.one()
    sq = d * d
    assert sq == parse_poly("1-2*x+2*T*x+2*x^2-2*T*x^2", C2Poly)
    assert sq.congruent_mod2(C2Poly.one())


def test_mixed_ring_operands_rejected():
    with pytest.raises(RingTagError):
        zx("x") + f2("x")
    with pytest.raises(RingTagError):
        f2("1") * ONE_MINUS_T
    with pytest.raises(RingTagError):
        ONE_MINUS_T - f2("x")
    for entries, ring in (([[zx("x"), f2("x")]], None), ([[ONE_MINUS_T]], PolyInt), ([[zx("1")]], PolyF2)):
        with pytest.raises(RingTagError):
            Mat(entries, ring)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(80):
        for make in (lambda: rand_polyint(rng), lambda: rand_c2(rng),
                      lambda: PolyF2(rng.getrandbits(8))):
            a, b, c = make(), make(), make()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert (a * b).conj() == b.conj() * a.conj()


# -- square homomorphisms


def test_apply_i_on_scalars():
    assert apply_i(-1, ONE_MINUS_T) == zx("2")
    assert apply_i(1, ONE_MINUS_T) == zx("0")


def test_apply_i_is_a_ring_map():
    rng = random.Random(11)
    for _ in range(60):
        a, b = rand_c2(rng), rand_c2(rng)
        for s in (1, -1):
            assert apply_i(s, a * b) == apply_i(s, a) * apply_i(s, b)
            assert apply_i(s, a + b) == apply_i(s, a) + apply_i(s, b)


def test_apply_i_on_generator_gamma():
    # the (1-T)g corner becomes 2g under T -> -1
    g = zx("x^2")
    entry = ONE_MINUS_T * C2Poly.from_polyint(g)
    assert apply_i(-1, entry) == zx("2*x^2")
    assert apply_i(1, entry) == zx("0")


def test_apply_j():
    assert apply_j(zx("2*x^2")) == f2("0")
    assert apply_j(zx("x+2*x^2")) == f2("x")


def test_square_commutes():
    rng = random.Random(13)
    for _ in range(100):
        a = rand_c2(rng)
        assert apply_j(apply_i(-1, a)) == apply_j(apply_i(1, a))


def test_k_of_one_minus_t_times_q():
    q = zx("x")
    assert apply_k(ONE_MINUS_T * C2Poly.from_polyint(q)) == f2("0")


# -- pullback


def test_pullback_pair_values():
    a = parse_poly("3+2*T", C2Poly)
    assert pullback_pair(a) == (zx("1"), zx("5"))
    assert pullback_inverse(zx("1"), zx("5")) == a


def test_pullback_parity_obstruction():
    with pytest.raises(NotInImageError):
        pullback_inverse(zx("0"), zx("1"))


def test_c2poly_is_built_from_legs_that_agree_mod_2():
    """C2Poly(u, v) is pullback_inverse: the element with legs u and v, and
    NotInImageError when they differ mod 2."""
    assert C2Poly(zx("1"), zx("5")) == pullback_inverse(zx("1"), zx("5")) == parse_poly("3+2*T", C2Poly)
    assert C2Poly(zx("x"), zx("x")) == C2Poly.from_polyint(zx("x"))
    for u, v in [("0", "1"), ("x", "0"), ("1+x^3", "1+2*x^3+x^5")]:
        with pytest.raises(NotInImageError):
            C2Poly(zx(u), zx(v))


# lengths up to 12, so ua * ub also takes the Kronecker path
wide_polyints = st.lists(st.integers(-(2**100), 2**100), max_size=12).map(PolyInt)
wide_c2polys = st.tuples(wide_polyints, wide_polyints).map(lambda ab: C2Poly.from_parts(*ab))


@settings(max_examples=150, deadline=None)
@given(wide_c2polys, wide_c2polys, st.integers(0, 11))
def test_pullback_is_ring_iso(a, b, k):
    ua, va = pullback_pair(a)
    ub, vb = pullback_pair(b)
    assert pullback_pair(a + b) == (ua + ub, va + vb)
    assert pullback_pair(a * b) == (ua * ub, va * vb)
    assert pullback_inverse(ua, va) == C2Poly(ua, va) == a
    assert pullback_inverse(ua * ub, va * vb) == a * b
    with pytest.raises(NotInImageError):
        pullback_inverse(ua, va + PolyInt.x_power(k))
    with pytest.raises(NotInImageError):
        C2Poly(ua + PolyInt.x_power(k), va)


# -- the mod-2 agreement of pullback_matrix, read off packed values

# coefficients at the slot bound of the narrowest width, 2^(MIN_SLOT_BITS-1)
SLOT_EDGE = 2 ** (MIN_SLOT_BITS - 1)
leg_coeffs = {
    "wide": st.integers(-(2**70), 2**70),
    "small": st.integers(-5, 5),
    "slot-bound": st.sampled_from([SLOT_EDGE - 1, SLOT_EDGE - 2, SLOT_EDGE - 3, 2, 1, 0]).flatmap(
        lambda c: st.sampled_from([c, -c])
    ),
}


@st.composite
def leg_pairs(draw):
    """(u, v) Z[x] matrices of one shape, coefficients as coeff_rows: v is
    u minus an even matrix, then perhaps changed by one odd coefficient
    (anywhere, or in the top slot), or v is drawn on its own."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    coeff = leg_coeffs[draw(st.sampled_from(sorted(leg_coeffs)))]
    top = draw(st.sampled_from([1, 1, 4]))  # 1: constants only
    entry = st.lists(coeff, max_size=top)
    u = [[draw(entry) for _ in range(c)] for _ in range(r)]
    w = [[draw(st.lists(coeff, max_size=top)) for _ in range(c)] for _ in range(r)]
    v = [[list(a) + [0] * (top - len(a)) for a in row] for row in u]
    for vr, wr in zip(v, w):
        for a, b in zip(vr, wr):
            for i, x in enumerate(b):
                a[i] -= 2 * x
    kind = draw(st.sampled_from(["even", "odd", "odd-top", "independent"]))
    if kind == "independent":
        v = [[draw(entry) for _ in range(c)] for _ in range(r)]
    elif kind != "even" and r and c:
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
        slot = top - 1 if kind == "odd-top" else draw(st.integers(0, top - 1))
        v[i][j][slot] += draw(st.sampled_from([1, -1, 2**64 + 1]))

    def mat(rows):
        return Mat.from_coeffs([[PolyInt(e).coeffs for e in row] for row in rows], c)

    return mat(u), mat(v)


def first_odd_entry(u, v):
    """The first entry, row by row, at which u - v has an odd coefficient."""
    for i, (ru, rv) in enumerate(zip(u.entries, v.entries)):
        for j, (a, b) in enumerate(zip(ru, rv)):
            if any(x % 2 for x in (a - b).coeffs):
                return i, j
    return None


@settings(max_examples=300, deadline=None)
@given(leg_pairs())
def test_pullback_matrix_accepts_exactly_the_pairs_equal_mod_2(pair):
    u, v = pair
    agree = (u - v).mod2().is_zero()
    assert agree == (first_odd_entry(u, v) is None)
    if agree:
        m = pullback_matrix(u, v)
        assert (m.i_minus(), m.i_plus()) == (u, v)
        return
    with pytest.raises(NotInImageError) as exc:
        pullback_matrix(u, v)
    i, j = first_odd_entry(u, v)
    assert str(exc.value) == f"({u[i, j]}, {v[i, j]}) at {(i, j)} do not agree mod 2"


# -- subtraction and canonical results


def any_polys(ring):
    """Elements of the ring with unequal lengths, large and negative
    coefficients, and zero."""
    if ring is PolyF2:
        return st.integers(0, 2**70).map(PolyF2)
    ints = st.lists(st.integers(-(2**70), 2**70), max_size=9).map(PolyInt)
    if ring is PolyInt:
        return ints
    return st.tuples(ints, ints).map(lambda ab: C2Poly.from_parts(*ab))


@st.composite
def poly_pairs(draw):
    """(a, b) in one ring; b is independent of a, equal to it (a - b = 0),
    or a plus a short polynomial, so the top coefficients of a - b cancel."""
    ring = draw(st.sampled_from([PolyInt, PolyF2, C2Poly]))
    a, c = draw(any_polys(ring)), draw(any_polys(ring))
    kind = draw(st.sampled_from(["independent", "equal", "close"]))
    if kind == "equal":
        return a, a
    if kind == "close":
        return a, a + draw(st.integers(-3, 3))
    return a, c


def is_canonical(p):
    """No trailing zero coefficient (a PolyF2 bitmask is always canonical);
    a C2Poly is canonical when both legs are."""
    if isinstance(p, PolyF2):
        return True
    parts = pullback_pair(p) if isinstance(p, C2Poly) else (p,)
    return all(not q.coeffs or q.coeffs[-1] for q in parts)


@settings(max_examples=300, deadline=None)
@given(poly_pairs(), st.integers(-5, 5))
def test_subtraction_is_adding_the_negation(pair, n):
    a, b = pair
    diff = a - b
    assert diff == a + (-b)
    assert n - a == a.from_int(n) + (-a)
    assert a - n == a + a.from_int(-n)
    for p in (diff, a + b, -a, n - a):
        assert is_canonical(p)
    if a == b:
        assert not diff


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=7).map(PolyInt),
    st.lists(st.integers(-(2**70), 2**70), max_size=7).map(PolyInt),
)
def test_negation_product_and_quotient_stay_canonical(a, b):
    """Negation, the schoolbook product and the exact_div quotient build
    their result without stripping; none may end in a zero coefficient."""
    for p in (-a, a * b, b * a, -(a * b)):
        assert is_canonical(p)
    assert a * b == schoolbook(a.coeffs, b.coeffs)
    if b:
        q = (a * b).exact_div(b)
        assert q == a and is_canonical(q)


# -- units


def test_units():
    assert not zx("2").is_unit()
    assert zx("-1").is_unit()
    assert f2("1").is_unit() and not f2("x").is_unit()
    assert parse_poly("T", C2Poly).is_unit()
    assert parse_poly("-T", C2Poly).is_unit()
    assert not parse_poly("1+T", C2Poly).is_unit()
    assert not C2Poly.zero().is_unit()


def test_unit_mod2():
    p, g = zx("x"), zx("x")
    d = ONE_MINUS_T * C2Poly.from_polyint(p * g) - C2Poly.one()
    assert d.is_unit_mod2()
    assert not zx("x").is_unit_mod2()
    assert zx("1+2*x").is_unit_mod2()


def test_inverse_mod2_neumann():
    # u = (1 - b + 2r) + b*T has mod-2 image 1 + (b mod 2)*(1+T), a unit
    rng = random.Random(19)
    for _ in range(100):
        b = rand_polyint(rng, 3, 2)
        r = rand_polyint(rng, 3, 2)
        u = C2Poly.from_parts(PolyInt((1,)) - b + zx("2") * r, b)
        assert u.is_unit_mod2()
        v = u.inverse_mod2()
        assert (u * v).congruent_mod2(C2Poly.one())
    assert not parse_poly("1+T", C2Poly).is_unit_mod2()


# -- matrices


def schoolbook(a, b):
    """Oracle: the coefficient list of a * b by the double sum."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return PolyInt(out)


huge_polyints = st.lists(st.integers(-(2**200), 2**200), max_size=40).map(PolyInt)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(huge_polyints, st.integers(-(2**200), 2**200).map(PolyInt.from_int)),
    huge_polyints,
)
def test_polyint_product_against_schoolbook(a, b):
    """Lengths 0-40, constant operands."""
    want = schoolbook(a.coeffs, b.coeffs)
    assert a * b == want
    assert b * a == want


def test_polyint_product_at_the_crossover():
    """Equal coefficients make a middle coefficient of the product as large
    as the lengths allow; alternating signs make it cancel."""
    for la in (7, 8):
        for lb in (7, 8, 40):
            for top in (1, -1, 3, 2**200 - 1, -(2**200)):
                a = PolyInt([top] * la)
                for b in (PolyInt([top] * lb), PolyInt([(-1) ** j * top for j in range(lb)])):
                    assert a * b == schoolbook(a.coeffs, b.coeffs)


@st.composite
def zx_matrix_pairs(draw):
    """Z[x] factors of shape r x n and n x c (1 <= r, n, c <= 6) with entries
    of length up to 10 and coefficients up to 2^64; some are zero matrices
    or have a zero row or column."""
    r, n, c = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.lists(st.integers(-(2**64), 2**64), max_size=10).map(PolyInt)
    a = [[draw(entry) for _ in range(n)] for _ in range(r)]
    b = [[draw(entry) for _ in range(c)] for _ in range(n)]
    zero = PolyInt(())
    kind = draw(st.sampled_from(["dense", "zero-a", "zero-b", "zero-row", "zero-col"]))
    if kind == "zero-a":
        a = [[zero] * n for _ in range(r)]
    elif kind == "zero-b":
        b = [[zero] * c for _ in range(n)]
    elif kind == "zero-row":
        a[draw(st.integers(0, r - 1))] = [zero] * n
    elif kind == "zero-col":
        j = draw(st.integers(0, c - 1))
        for row in b:
            row[j] = zero
    return Mat(a, PolyInt), Mat(b, PolyInt)


def entrywise_product(a, b):
    """Oracle: each entry as a sum of schoolbook products."""
    return [
        [
            sum((schoolbook(a[i, l].coeffs, b[l, j].coeffs) for l in range(a.cols)), PolyInt(()))
            for j in range(b.cols)
        ]
        for i in range(a.rows)
    ]


@settings(max_examples=200, deadline=None)
@given(zx_matrix_pairs())
def test_zx_matrix_product_against_entrywise_oracle(pair):
    a, b = pair
    prod = a * b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert [list(r) for r in prod.entries] == entrywise_product(a, b)


def test_zx_row_times_column_and_back():
    """1 x n times n x 1 and back; with equal entries a coefficient of the
    1 x 1 product reaches the slot-width bound exactly."""
    rng = random.Random(41)
    for n in (1, 3, 6):
        row = Mat([[rand_polyint(rng, 9, 2**80) for _ in range(n)]], PolyInt)
        col = Mat([[rand_polyint(rng, 9, 2**80)] for _ in range(n)], PolyInt)
        for top in (1, 3, -(2**80)):
            full = PolyInt([top] * 10)
            for a, b in ((row, col), (col, row), (Mat([[full] * n], PolyInt), Mat([[full]] * n, PolyInt))):
                assert [list(r) for r in (a * b).entries] == entrywise_product(a, b)


def clmul(x, y):
    """Carry-less product of two bitmasks, one shift per set bit of x."""
    out = 0
    for i in range(x.bit_length()):
        if x >> i & 1:
            out ^= y << i
    return out


def f2_entrywise_product(a, b):
    """Oracle: each F2[x] entry as the XOR of carry-less products."""

    def entry(i, j):
        terms = (clmul(a[i, l].bits, b[l, j].bits) for l in range(a.cols))
        return PolyF2(functools.reduce(operator.xor, terms, 0))

    return [[entry(i, j) for j in range(b.cols)] for i in range(a.rows)]


@st.composite
def f2_matrix_pairs(draw):
    """F2[x] factors of shape r x n and n x c (1 <= r, n, c <= 6) with
    entries of up to 64 bits; some are zero matrices or have a zero row or
    column.  In the "top" kind every product entry has exactly one term of
    full bit length la + lb - 1, so it fills the top bit of its slot."""
    r, n, c = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.integers(0, 2**64 - 1).map(PolyF2)
    a = [[draw(entry) for _ in range(n)] for _ in range(r)]
    b = [[draw(entry) for _ in range(c)] for _ in range(n)]
    zero = PolyF2(0)
    kind = draw(st.sampled_from(["dense", "zero-a", "zero-b", "zero-row", "zero-col", "top"]))
    if kind == "zero-a":
        a = [[zero] * n for _ in range(r)]
    elif kind == "zero-b":
        b = [[zero] * c for _ in range(n)]
    elif kind == "zero-row":
        a[draw(st.integers(0, r - 1))] = [zero] * n
    elif kind == "zero-col":
        j = draw(st.integers(0, c - 1))
        for row in b:
            row[j] = zero
    elif kind == "top":
        la, lb = draw(st.integers(1, 64)), draw(st.integers(1, 64))

        def low(bits):  # a bitmask of fewer than `bits` bits
            return draw(st.integers(0, 2 ** (bits - 1) - 1))

        a = [[PolyF2(low(la) | (k == 0) << (la - 1)) for k in range(n)] for _ in range(r)]
        b = [[PolyF2(low(lb) | (k == 0) << (lb - 1)) for _ in range(c)] for k in range(n)]
    return Mat(a, PolyF2), Mat(b, PolyF2)


@settings(max_examples=300, deadline=None)
@given(f2_matrix_pairs())
def test_f2_matrix_product_against_entrywise_oracle(pair):
    a, b = pair
    prod = a * b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert [list(r) for r in prod.entries] == f2_entrywise_product(a, b)


def test_f2_row_times_column_and_back():
    """1 x n times n x 1 and back; all-ones entries of equal full bit length
    make every product fill the top bit of its slot."""
    rng = random.Random(43)
    for n in (1, 3, 6):
        row = Mat([[PolyF2(rng.getrandbits(64)) for _ in range(n)]], PolyF2)
        col = Mat([[PolyF2(rng.getrandbits(64))] for _ in range(n)], PolyF2)
        for bits in (1, 2**64 - 1, 2**40 | 1):
            full = PolyF2(bits)
            for a, b in ((row, col), (col, row), (Mat([[full] * n], PolyF2), Mat([[full]] * n, PolyF2))):
                assert [list(r) for r in (a * b).entries] == f2_entrywise_product(a, b)


# entries of the kinds f2_dot meets: zero, one, monomials and dense masks
f2_bitmasks = st.one_of(
    st.just(0),
    st.just(1),
    st.integers(0, 300).map(lambda k: 1 << k),
    st.integers(0, 2**300 - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.lists(st.tuples(f2_bitmasks, f2_bitmasks), min_size=n, max_size=n)))
def test_f2_dot_against_a_clmul_loop(pairs):
    """f2_dot, which skips zero entries and adds a unit multiplier's packed
    row without a product, equals the XOR of every product row[k] *
    packed[k]."""
    row, packed = [v for v, _ in pairs], [z for _, z in pairs]
    want = 0
    for v, z in zip(row, packed):
        want ^= clmul(v, z)
    assert f2_dot(row, packed) == want


@settings(max_examples=300, deadline=None)
@given(f2_bitmasks, st.integers(1, 130))
def test_spread_bits_against_the_string_spread(b, k):
    """spread_bits, a byte table ORed in per byte, is b's value at x = 2^k:
    its binary digits with k - 1 zeros between each two."""
    assert spread_bits(b, k) == int(("0" * (k - 1)).join(format(b, "b")), 2)


@st.composite
def small_matrices(draw):
    """Up to 3x3 over any of the three rings, entries from any_polys."""
    ring = draw(st.sampled_from([PolyInt, PolyF2, C2Poly]))
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return Mat([[draw(any_polys(ring)) for _ in range(c)] for _ in range(r)], ring)


@st.composite
def mat_pairs(draw):
    """Two matrices of one shape over one ring; the second is independent
    of the first or equal to it (the difference cancels to zero)."""
    a = draw(small_matrices())
    if draw(st.booleans()):
        return a, a
    return a, Mat([[draw(any_polys(a.ring)) for _ in range(a.cols)] for _ in range(a.rows)], a.ring)


@settings(max_examples=150, deadline=None)
@given(mat_pairs())
def test_matrix_subtraction_is_adding_the_negation(pair):
    a, b = pair
    assert a - b == a + (-b)
    assert (a - b).is_zero() == (a == b)
    other = next(r for r in (PolyInt, PolyF2, C2Poly) if r is not a.ring)
    with pytest.raises(RingTagError):
        a - Mat.zeros(a.rows, a.cols, other)
    with pytest.raises(ShapeError):
        a - Mat.zeros(a.rows + 1, a.cols, a.ring)


@pytest.mark.parametrize("build", [
    lambda a, b: Mat.from_blocks([[a, b]]),
    lambda a, b: Mat.from_blocks([[a], [b]]),
    lambda a, b: Mat.block_diag([a, b]),
], ids=["from_blocks-row", "from_blocks-column", "block_diag"])
def test_blocks_of_mixed_rings_rejected_in_either_order(build):
    for r1, r2 in itertools.permutations([PolyInt, PolyF2, C2Poly], 2):
        with pytest.raises(RingTagError):
            build(Mat.identity(2, r1), Mat.identity(2, r2))


def test_block_edges_must_match():
    i2, i3 = Mat.identity(2, PolyInt), Mat.identity(3, PolyInt)
    with pytest.raises(ShapeError):  # block-column widths 2 and 3
        Mat.from_blocks([[i2], [Mat.zeros(2, 3, PolyInt)]])
    with pytest.raises(ShapeError):  # same total width, other split
        Mat.from_blocks([[i2, Mat.zeros(2, 3, PolyInt)], [Mat.zeros(2, 3, PolyInt), i2]])
    with pytest.raises(ShapeError):  # block-row heights 2 and 3
        Mat.from_blocks([[i2, Mat.zeros(3, 2, PolyInt)]])
    grid = Mat.from_blocks([[i2, Mat.zeros(2, 3, PolyInt)], [Mat.zeros(3, 2, PolyInt), i3]])
    assert grid == Mat.identity(5, PolyInt) == Mat.block_diag([i2, i3])


def test_conj_transpose_laws():
    rng = random.Random(23)
    m = Mat([[rand_c2(rng, 2) for _ in range(3)] for _ in range(2)], C2Poly)
    n = Mat([[rand_c2(rng, 2) for _ in range(2)] for _ in range(3)], C2Poly)
    assert m.conj_t().conj_t() == m
    assert (m * n).conj_t() == n.conj_t() * m.conj_t()


# -- scalar matrices: a product with one is a scaling


def scalar_values(ring):
    """0, +-1, 2, T and 1 - T (over Z[C2][x]), and elements from any_polys."""
    fixed = [0, 1, -1, 2] + ([C2Poly.t(), ONE_MINUS_T] if ring is C2Poly else [])
    return st.one_of(st.sampled_from(fixed), any_polys(ring))


@st.composite
def scalar_products(draw):
    """(s, left, right): s = Mat.scalar(n, v, ring), left r x n, right n x c."""
    ring = draw(st.sampled_from([PolyInt, PolyF2, C2Poly]))
    n, r, c = (draw(st.integers(1, 3)) for _ in range(3))
    s = Mat.scalar(n, draw(scalar_values(ring)), ring)

    def block(rows, cols):
        return Mat([[draw(any_polys(ring)) for _ in range(cols)] for _ in range(rows)], ring)

    return s, block(r, n), block(n, c)


@settings(max_examples=300, deadline=None)
@given(scalar_products())
def test_scalar_matrix_products_against_the_dense_product(case):
    s, left, right = case
    dense = Mat(s.entries, s.ring)
    assert s._scalar is not None and dense._scalar is None
    for got, want, shape in ((left * s, left * dense, (left.rows, s.cols)),
                             (s * right, dense * right, (s.rows, right.cols)),
                             (s * s, dense * dense, (s.rows, s.cols))):
        assert (got.rows, got.cols) == shape
        assert got == want
    assert s.conj_t() == dense.conj_t() == dense


@pytest.mark.parametrize("ring", [PolyInt, PolyF2, C2Poly])
def test_only_square_scalar_matrices_carry_the_tag(ring):
    ident, two = Mat.identity(2, ring), Mat.scalar(2, 2, ring)
    assert ident._scalar is not None and Mat.zeros(2, 2, ring)._scalar is not None
    untagged = [
        Mat(ident.entries, ring),
        Mat.scalar(2, 1, ring, cols=3),
        Mat.zeros(2, 3, ring),
        ident + ident,
        ident - two,
        ident * 3,
        3 * ident,
        two * two,
    ]
    if ring is PolyInt:
        untagged += [Mat.from_coeffs((((1,), ()), ((), (1,))), 2), ident.to_c2()]
    if ring is PolyF2:
        untagged.append(Mat.from_bits([[1, 0], [0, 1]], 2))
    if ring is C2Poly:
        total = ident + Mat.scalar(2, C2Poly.t(), ring)
        untagged += [total, total.i_minus(), total.i_plus()]
    assert all(m._scalar is None for m in untagged)
    copy = Mat(ident.entries, ring)
    assert ident == copy and copy == ident and hash(ident) == hash(copy)
    assert Mat.scalar(2, 0, ring) == Mat(Mat.zeros(2, 2, ring).entries, ring)


def test_a_matrix_equals_itself_without_reading_its_entries(monkeypatch):
    m = Mat.scalar(2, zx("1+x"), PolyInt)

    def banned(*_):
        raise AssertionError("entries compared")

    monkeypatch.setattr(rings, "_at_width", banned)
    assert m == m and not m != m


def test_det_fixtures():
    p, g = zx("x"), zx("x^3")
    gamma = Mat(
        [
            [C2Poly.from_polyint(p), C2Poly.one()],
            [C2Poly.one(), ONE_MINUS_T * C2Poly.from_polyint(g)],
        ],
        C2Poly,
    )
    want = ONE_MINUS_T * C2Poly.from_polyint(p * g) - C2Poly.one()
    assert gamma.det() == want

    assert Mat.identity(4, PolyInt).det() == zx("1")
    assert parse_matrix("[0,1;1,0]", PolyInt).det() == zx("-1")


def permutation_det(m):
    """Oracle: the Leibniz sum over all permutations."""
    n = m.rows
    acc = m.ring.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = m.ring.one()
        for i in range(n):
            term = term * m[i, perm[i]]
        acc = acc + (-term if inversions % 2 else term)
    return acc


def ring_elements(ring):
    ints = st.lists(st.integers(-3, 3), max_size=3).map(PolyInt)
    if ring is PolyInt:
        return ints
    if ring is PolyF2:
        return st.integers(0, 15).map(PolyF2)
    return st.tuples(ints, ints).map(lambda ab: C2Poly.from_parts(*ab))


@st.composite
def square_matrices(draw):
    """Z[x] and F2[x] up to 6x6, Z[C2][x] up to 5x5 (above 2x2 its det goes
    through the pullback legs).  Leading zeros in the first column force
    row swaps or a zero column; a repeated row makes the matrix singular."""
    ring = draw(st.sampled_from([PolyInt, PolyF2, C2Poly]))
    n = draw(st.integers(1, 5 if ring is C2Poly else 6))
    rows = [[draw(ring_elements(ring)) for _ in range(n)] for _ in range(n)]
    for r in rows[: draw(st.integers(0, n))]:
        r[0] = ring.zero()
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j])
    return Mat(rows, ring)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_det_against_permutation_expansion(m):
    d = m.det()
    assert d == permutation_det(m)
    assert m * cofactor_adjugate(m) == Mat.scalar(m.rows, d, m.ring)
    if m.ring is not C2Poly:
        assert d == bareiss_det(m)


@st.composite
def block_diagonal_matrices(draw):
    """(m, big): a contiguous block-diagonal Z[x] or F2[x] matrix with
    blocks of sizes 1-4 (none at all, for n = 0, included), and whether its
    Z[x] coefficients are past the 2x2 closed form's guard (about 2^40, so
    the bound squared needs more than the 64-bit slot).  A block is dense,
    singular (rank one, still with no zero entry) or zero; some matrices
    get one nonzero entry outside the blocks."""
    ring = draw(st.sampled_from([PolyInt, PolyF2]))
    sizes = draw(st.lists(st.integers(1, 4), max_size=3).filter(lambda s: sum(s) <= 8))
    big = ring is PolyInt and draw(st.booleans())
    nonzero = ring_elements(ring).filter(bool)
    if big:
        nonzero = nonzero.map(lambda e: e + PolyInt((0, 1 << 40)))
    n = sum(sizes)
    rows = [[ring.zero()] * n for _ in range(n)]
    owner = [b for b, s in enumerate(sizes) for _ in range(s)]
    start = 0
    for s in sizes:
        kind = draw(st.sampled_from(["dense", "singular", "zero"]))
        u, v = ([draw(nonzero) for _ in range(s)] for _ in range(2))
        for i in range(s):
            for j in range(s):
                if kind != "zero":
                    rows[start + i][start + j] = draw(nonzero) if kind == "dense" else u[i] * v[j]
        start += s
    outside = [(i, j) for i in range(n) for j in range(n) if owner[i] != owner[j]]
    if outside and draw(st.booleans()):
        i, j = draw(st.sampled_from(outside))
        rows[i][j] = draw(nonzero)
    return Mat(rows, ring), big and any(map(any, rows))  # a zero matrix has no big entry


@settings(max_examples=300, deadline=None)
@given(block_diagonal_matrices())
def test_det_splits_at_the_diagonal_blocks(case):
    """det is the Laplace expansion's, and only the blocks between the
    cuts c with m[:c, c:] and m[c:, :c] zero that are larger than 2x2, or
    2x2 past the closed form's guard, go through elimination (a matrix up
    to 2x2 is one block)."""
    m, big = case
    n = m.rows
    cuts = [0, *[c for c in range(1, n) if n > 2 and not any(
        m[i, j] or m[j, i] for i in range(c) for j in range(c, n))], n]
    blocks = [b - a for a, b in zip(cuts, cuts[1:])]
    with mock.patch.object(rings, "_eliminate", wraps=rings._eliminate) as spy:
        d = m.det()
    assert d == laplace_det(m.entries, m.ring)
    assert [c.args[1] for c in spy.call_args_list] == [s for s in blocks if s > 2 or s == 2 and big]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, -1]), st.sampled_from(int_polys(1)),
                          st.sampled_from(int_polys(1))).filter(lambda t: not (t[1] * t[2]).constant),
                max_size=3))
def test_det_of_generator_sums_against_laplace_expansion(terms):
    gamma = make_M_sum(terms).gamma
    assert gamma.det() == laplace_det(gamma.entries, C2Poly)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_the_machine_runs_without_elimination(monkeypatch, k):
    """Every determinant of a relation's machine run (the T -> +1 graph
    check among them) is of a matrix that splits into 2x2 diagonal blocks,
    so it needs no elimination."""

    def banned(*args):
        raise AssertionError("_eliminate called")

    monkeypatch.setattr(rings, "_eliminate", banned)
    x, one = zx("x"), zx("1")
    for p, g, p2 in [(x, one, x), (x, x, one), (zx("2*x+1"), x, x)]:
        res, expected = run_relation(k, p, g, p2 if k == 1 else None)
        assert res.arf == expected


def test_adjugate_identity():
    rng = random.Random(31)
    makers = {PolyInt: lambda: rand_polyint(rng, 2, 3), PolyF2: lambda: PolyF2(rng.getrandbits(4)),
              C2Poly: lambda: rand_c2(rng, 2)}
    for ring, make in makers.items():
        for _ in range(20):
            for n in (1, 2):
                m = Mat([[make() for _ in range(n)] for _ in range(n)], ring)
                d = m.det()
                assert m * m.adjugate() == Mat.scalar(n, d, ring)
                assert m.adjugate() * m == Mat.scalar(n, d, ring)
            (a, b), (c, e) = m.entries
            assert m.adjugate() == Mat([[e, -b], [-c, a]], ring)
        assert Mat([[make()]], ring).adjugate() == Mat.identity(1, ring)
        with pytest.raises(ShapeError):  # above 2x2 systems are solved by elimination
            Mat.identity(3, ring).adjugate()


def test_solve_right():
    two_id = Mat.scalar(2, zx("2"), PolyInt)
    assert solve_right(two_id, two_id) == Mat.identity(2, PolyInt)
    with pytest.raises(NonDivisibleError):
        solve_right(parse_matrix("[x,0;0,1]", PolyInt), Mat.identity(2, PolyInt))


def test_solve_right_on_symmetry_witness():
    # the 4x4 witness of the symmetry relation divides exactly
    pi = parse_matrix("[1,0,2,0;0,1,0,2;0,1,0,0;1,0,0,0]", PolyInt)
    sol = solve_right(pi, Mat.scalar(4, zx("2"), PolyInt))
    assert pi * sol == Mat.scalar(4, zx("2"), PolyInt)
    assert sol == parse_matrix("[0,0,0,2;0,0,2,0;1,0,0,-1;0,1,-1,0]", PolyInt)


def adjugate_solve(a, b):
    """Oracle: adj(A) * B divided entry-wise by det(A)."""
    d = a.det()
    if not d:
        raise PrecondError("singular matrix")
    return Mat([[e.exact_div(d) for e in r] for r in (cofactor_adjugate(a) * b).entries], PolyInt)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecondError, NonDivisibleError) as exc:
        return type(exc)


DEG1 = int_polys(1)
# relation parameters (k, p, g, p2) whose generator formations are defined
RELATION_PARAMS = [
    (k, p, g, p2)
    for k in (1, 2, 3, 4)
    for p in DEG1
    for g in DEG1
    for p2 in DEG1
    if k == 3
    or (
        not (p * g).constant
        and (k != 1 or not ((p2 * g).constant or ((p + p2) * g).constant))
    )
]


@st.composite
def solve_cases(draw):
    """(A, B) over Z[x]: A up to 6x6 with leading zeros in its first column
    (row swaps) and, sometimes, a repeated row (singular); B = A*X (always
    solvable when A is not singular), a random B (mostly not over Z[x]) or
    2*Id.  Or A is a relation witness pi and B = d^* = 2*Id."""
    if draw(st.booleans()):
        pi = relation_fixture(*draw(st.sampled_from(RELATION_PARAMS)))[1].pi
        return pi, Mat.scalar(pi.rows, zx("2"), PolyInt)
    n = draw(st.integers(1, 6))
    entry = ring_elements(PolyInt)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for r in rows[: draw(st.integers(0, n))]:
        r[0] = PolyInt.zero()
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j])
    a = Mat(rows, PolyInt)
    kind = draw(st.sampled_from(["product", "random", "scalar"]))
    if kind == "scalar":
        return a, Mat.scalar(n, zx("2"), PolyInt)
    m = draw(st.integers(1, 3))
    b = Mat([[draw(entry) for _ in range(m)] for _ in range(n)], PolyInt)
    return a, (a * b if kind == "product" else b)


@settings(max_examples=300, deadline=None)
@given(solve_cases())
def test_solve_right_against_adjugate_oracle(case):
    a, b = case
    got = _outcome(solve_right, a, b)
    assert got == _outcome(adjugate_solve, a, b)
    if isinstance(got, Mat):
        assert a * got == b


@st.composite
def packed_elimination_cases(draw):
    """(A, B) over Z[x] for the packed-integer det and solve_right: A up to
    6x6 with entries of degree <= 3 and coefficients up to 40, some zero
    rows, leading zeros in the first column (row swaps), sometimes a
    repeated row (singular); B = A*X (solvable unless A is singular), a
    random B (mostly not over Z[x]), Id, or no columns at all."""
    n = draw(st.integers(1, 6))
    entry = st.lists(st.integers(-40, 40), max_size=4).map(PolyInt)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for r in rows[: draw(st.integers(0, n))]:
        r[0] = PolyInt.zero()
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[i] = [PolyInt.zero()] * n
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j])
    a = Mat(rows, PolyInt)
    kind = draw(st.sampled_from(["product", "random", "identity", "empty"]))
    if kind == "identity":
        return a, Mat.identity(n, PolyInt)
    m = 0 if kind == "empty" else draw(st.integers(1, 3))
    b = Mat.from_coeffs([[draw(entry).coeffs for _ in range(m)] for _ in range(n)], m)
    return a, (a * b if kind == "product" else b)


@settings(max_examples=300, deadline=None)
@given(packed_elimination_cases())
def test_packed_det_and_solve_against_object_oracles(case):
    a, b = case
    assert a.det() == bareiss_det(a)
    got = _outcome(solve_right, a, b)
    assert got == _outcome(gauss_jordan_solve, a, b)
    if isinstance(got, Mat):
        assert (got.rows, got.cols) == (b.rows, b.cols)
        assert a * got == b


# Diagonal and anti-diagonal matrices whose determinant has a coefficient
# equal to the product of the rows' coefficient L1 norms: the packing's
# slot width is exactly wide enough for them.
BOUND_MEETING = [
    "[3,0,0;0,5,0;0,0,7]",
    "[-3*x,0,0;0,5,0;0,0,7*x^2]",
    "[0,0,-9;0,11*x,0;13,0,0]",
    "[0,0,0,1;0,0,-2*x,0;0,127,0,0;-64*x^3,0,0,0]",
    "[2*x^2,0,0;0,-5*x,0;0,0,-255]",
]


@pytest.mark.parametrize("text", BOUND_MEETING)
def test_packed_det_and_solve_meet_the_minor_bound(text):
    a = parse_matrix(text, PolyInt)
    d = a.det()
    assert d == bareiss_det(a) == permutation_det(a)
    bound = 1
    for r in a.entries:
        bound *= sum(abs(c) for p in r for c in p.coeffs)
    assert max(abs(c) for c in d.coeffs) == bound
    x = Mat([[PolyInt((i - j, j)) for j in range(2)] for i in range(a.rows)], PolyInt)
    assert solve_right(a, a * x) == x
    assert solve_right(a, Mat.scalar(a.rows, d, PolyInt)) == cofactor_adjugate(a)
    c2 = a.to_c2()
    assert c2.det() == C2Poly.from_polyint(d)


def test_packed_row_update_checks_every_remainder():
    # Inside an elimination over an integral domain every Bareiss division
    # is exact, so the check can only fire on inconsistent input: drive the
    # row updates directly with a previous pivot that does not divide.
    ok = [1, 3, 5]
    _zx_row(ok, [2, 2, 4], 0, 2)  # (2*3 - 1*2) / 2, (2*5 - 1*4) / 2
    assert ok[1:] == [2, 3]
    with pytest.raises(NonDivisibleError):
        _zx_row([1, 3, 5], [2, 2, 4], 0, 4)
    ok = [1, 0b10, 0b11]
    _f2_row(ok, [1, 0b1, 0b1], 0, 0b1)
    assert ok[1:] == [0b11, 0b10]
    with pytest.raises(NonDivisibleError):
        _f2_row([1, 0b10, 0b11], [1, 0b1, 0b1], 0, 0b10)


@pytest.mark.parametrize("ring", [PolyInt, PolyF2, C2Poly])
def test_matrices_without_rows_or_columns_keep_their_shape(ring):
    empty = Mat.zeros(0, 3, ring)
    assert (empty.rows, empty.cols) == (0, 3)
    assert empty != Mat.zeros(0, 0, ring)
    tall = Mat.zeros(2, 0, ring)
    assert (tall.conj_t().rows, tall.conj_t().cols) == (0, 2)
    prod = tall * empty
    assert (prod.rows, prod.cols) == (2, 3) and prod == Mat.zeros(2, 3, ring)
    assert (empty.conj_t() * empty) == Mat.zeros(3, 3, ring)
    assert (empty + empty, -empty, 2 * empty, empty.mod2().cols) == (empty, empty, empty, 3)
    if ring is PolyInt:
        assert empty.to_c2() == Mat.zeros(0, 3, C2Poly)
    assert Mat.zeros(0, 0, ring).det() == ring.one()
    if ring is PolyInt:
        got = solve_right(Mat.zeros(0, 0, ring), empty)
        assert (got.rows, got.cols) == (0, 3)
        wide = Mat.identity(3, ring)
        got = solve_right(wide, Mat.zeros(3, 0, ring))
        assert (got.rows, got.cols) == (3, 0)


def test_exact_division():
    a = zx("2+4*x^2")
    assert a.exact_div(zx("2")) == zx("1+2*x^2")
    with pytest.raises(NonDivisibleError):
        zx("1").exact_div(zx("x"))
    with pytest.raises(NonDivisibleError):
        zx("3").exact_div(zx("2"))


# -- F2[x] Euclidean structure


def test_f2_divmod_and_xgcd():
    """Division with remainder in F2[x], on bitmasks (cl_divmod): the
    remainder is shorter than the divisor, and a product divides exactly."""
    rng = random.Random(37)
    for _ in range(100):
        a, b = PolyF2(rng.getrandbits(9)), PolyF2(rng.getrandbits(6) | 1)
        q, r = cl_divmod(a.bits, b.bits)
        assert PolyF2(q) * b + PolyF2(r) == a
        assert r.bit_length() < b.bits.bit_length()
        assert cl_divmod((a * b).bits, b.bits) == (a.bits, 0)


# -- grammar


@pytest.mark.parametrize(
    "text",
    [
        "0", "1", "1-T", "2*x^3", "x+x^3", "-x", "2-2*T", "x-T*x", "1+2*T*x^4",
        # a negative T part, and a T part longer than the T-free part
        "-T", "-3*T*x^2", "1-T*x^3", "x^2-5*T*x^2-T*x^7", "T+x-2*T*x^4",
    ],
)
def test_poly_text_roundtrip(text):
    p = parse_poly(text, C2Poly)
    assert parse_poly(format_poly(p), C2Poly) == p
    assert format_poly(p) == text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([PolyInt, PolyF2, C2Poly]).flatmap(lambda r: st.tuples(st.just(r), any_polys(r))))
def test_poly_text_roundtrip_property(case):
    """Negative and large coefficients, T terms and zero, over all three
    rings."""
    ring, p = case
    assert parse_poly(format_poly(p), ring) == p


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_matrix_text_roundtrip_property(m):
    assert parse_matrix(format_matrix(m), m.ring) == m


def test_poly_format_canonical():
    assert format_poly(parse_poly("x^3*2", PolyInt)) == "2*x^3"
    assert format_poly(ONE_MINUS_T) == "1-T"
    assert format_poly(PolyInt(())) == "0"
    assert format_poly(f2("x^2 + x")) == "x+x^2"


def test_matrix_text_roundtrip():
    m = parse_matrix("[1-T,2*x;0,x^2]", C2Poly)
    assert parse_matrix(format_matrix(m), C2Poly) == m


def test_t_rejected_outside_group_ring():
    with pytest.raises(RingTagError):
        parse_poly("1-T", PolyInt)


@pytest.mark.parametrize("ring", [PolyInt, PolyF2])
def test_t_evaluation_needs_a_group_ring_matrix(ring):
    m = Mat.identity(2, ring)
    with pytest.raises(RingTagError):
        m.i_minus()
    with pytest.raises(RingTagError):
        m.i_plus()


def test_matrix_ring_maps_are_entrywise():
    rng = random.Random(41)
    m = Mat([[rand_c2(rng) for _ in range(3)] for _ in range(2)], C2Poly)
    for sign, got in ((-1, m.i_minus()), (1, m.i_plus())):
        assert got == Mat([[apply_i(sign, e) for e in r] for r in m.entries], PolyInt)
    assert m.mod2() == Mat([[apply_k(e) for e in r] for r in m.entries], PolyF2)
    zm = m.i_minus()
    assert zm.mod2() == Mat([[apply_j(e) for e in r] for r in zm.entries], PolyF2)


def test_subs_power():
    assert zx("x+x^3").subs_power(2) == zx("x^2+x^6")
    assert f2("1+x^2").subs_power(3) == f2("1+x^6")
    v = parse_poly("x-T*x", C2Poly).subs_power(2)
    assert v == parse_poly("x^2-T*x^2", C2Poly)


def test_subs_power_cap():
    """x -> x^n is refused before anything is built when the result's
    degree would pass MAX_EXPONENT; constants never pass it."""
    assert zx("x^2").subs_power(MAX_EXPONENT // 2) == PolyInt.x_power(MAX_EXPONENT)
    assert zx("3").subs_power(10**9) == zx("3")
    assert C2Poly.zero().subs_power(10**9) == C2Poly.zero()
    for p in (zx("x^2"), f2("1+x^2"), parse_poly("1-T*x^2", C2Poly)):
        with pytest.raises(PrecondError):
            p.subs_power(MAX_EXPONENT // 2 + 1)
        with pytest.raises(PrecondError):
            p.subs_power(10**9)
        with pytest.raises(PrecondError):
            p.subs_power(0)


# -- Z[C2][x] stored by its pullback legs, against the a + b*T formulas
#
# The oracle keeps an element as the pair (a, b) with value a + b*T and
# computes with the formulas of the group ring.


def oracle_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c + b * d, a * d + b * c)


def parts(p):
    return (p.a, p.b)


def c2_pairs(max_len=7, bound=2**70):
    """(a, b) with unequal lengths, large and negative coefficients and
    zero; b is sometimes zero (an element of Z[x]), and sometimes the pair
    is a unit or a unit mod 2."""
    ints = st.lists(st.integers(-bound, bound), max_size=max_len).map(PolyInt)
    small = st.sampled_from([zx(t) for t in ("0", "1", "-1", "2", "-2", "x", "1+x")])

    def unit_mod2(br):  # (1 - b + 2r) + b*T reduces to 1 + (b mod 2)(1 + T)
        b, r = br
        return (PolyInt((1,)) - b + zx("2") * r, b)

    return st.one_of(
        st.tuples(ints, ints),
        st.tuples(ints, st.just(PolyInt(()))),
        st.tuples(small, small),
        st.tuples(ints, ints).map(unit_mod2),
    )


@settings(max_examples=300, deadline=None)
@given(c2_pairs(), c2_pairs(), st.integers(1, 5))
def test_c2_ring_operations_against_the_oracle(x, y, n):
    p, q = C2Poly.from_parts(*x), C2Poly.from_parts(*y)
    assert parts(p) == x
    assert parts(p + q) == (x[0] + y[0], x[1] + y[1])
    assert parts(p - q) == (x[0] - y[0], x[1] - y[1])
    assert parts(-p) == (-x[0], -x[1])
    assert parts(p * q) == oracle_mul(x, y)
    assert parts(p.subs_power(n)) == (x[0].subs_power(n), x[1].subs_power(n))
    assert apply_k(p) == (x[0] + x[1]).mod2()
    assert (p == q) == (x == y)
    for r in (p, q, p + q, p * q, -p):
        assert is_canonical(r)


@settings(max_examples=300, deadline=None)
@given(c2_pairs(), c2_pairs())
def test_c2_unit_tests_against_the_oracle(x, y):
    (a, b), p = x, C2Poly.from_parts(*x)
    assert p.is_unit() == ((a.is_unit() and not b) or (b.is_unit() and not a))
    assert p.is_unit_mod2() == (a + b).is_unit_mod2()
    if p.is_unit_mod2():
        beta = PolyInt(tuple(c & 1 for c in b.coeffs))
        assert parts(p.inverse_mod2()) == (PolyInt((1,)) + beta, beta)
    else:
        with pytest.raises(PrecondError):
            p.inverse_mod2()
    c, d = y
    even = lambda f: not any(k % 2 for k in f.coeffs)
    q = C2Poly.from_parts(*y)
    assert p.congruent_mod2(q) == (even(a - c) and even(b - d))
    assert p.congruent_mod2(C2Poly.from_parts(a + zx("2") * c, b - zx("2") * d))


@settings(max_examples=300, deadline=None)
@given(c2_pairs())
def test_c2_text_roundtrip_against_the_oracle(x):
    p = C2Poly.from_parts(*x)
    back = parse_poly(format_poly(p), C2Poly)
    assert back == p and parts(back) == x


@st.composite
def c2_matrix_pairs(draw):
    """Z[C2][x] factors of shape r x n and n x c (1 <= r, n, c <= 6); some
    have a zero row or only T-free entries, in either factor."""
    r, n, c = (draw(st.integers(1, 6)) for _ in range(3))
    entry = c2_pairs(max_len=4, bound=2**20)
    a = [[draw(entry) for _ in range(n)] for _ in range(r)]
    b = [[draw(entry) for _ in range(c)] for _ in range(n)]
    kind = draw(st.sampled_from(["dense", "zero-row", "t-free-a", "t-free-b", "t-free"]))
    zero = (PolyInt(()), PolyInt(()))
    if kind == "zero-row":
        a[draw(st.integers(0, r - 1))] = [zero] * n
    if kind in ("t-free-a", "t-free"):
        a = [[(e[0], PolyInt(())) for e in row] for row in a]
    if kind in ("t-free-b", "t-free"):
        b = [[(e[0], PolyInt(())) for e in row] for row in b]
    return a, b


@settings(max_examples=100, deadline=None)
@given(c2_matrix_pairs())
def test_c2_matrix_product_against_the_oracle(pair):
    a, b = pair
    ma, mb = (Mat([[C2Poly.from_parts(*e) for e in row] for row in m], C2Poly) for m in pair)
    prod = ma * mb
    assert (prod.rows, prod.cols) == (len(a), len(b[0]))
    minus, plus, mod2 = prod.i_minus(), prod.i_plus(), prod.mod2()
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            want = (PolyInt(()), PolyInt(()))
            for k, x in enumerate(row):
                t = oracle_mul(x, b[k][j])
                want = (want[0] + t[0], want[1] + t[1])
            assert parts(prod[i, j]) == want
            assert minus[i, j] == want[0] - want[1]
            assert plus[i, j] == want[0] + want[1]
            assert mod2[i, j] == (want[0] + want[1]).mod2()


def oracle_det(rows):
    """The Leibniz sum over all permutations, in the a + b*T oracle."""
    n = len(rows)
    acc = (PolyInt(()), PolyInt(()))
    for perm in itertools.permutations(range(n)):
        sign = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        term = (PolyInt((1,)), PolyInt(()))
        for i in range(n):
            term = oracle_mul(term, rows[i][perm[i]])
        acc = (acc[0] - term[0], acc[1] - term[1]) if sign else (acc[0] + term[0], acc[1] + term[1])
    return acc


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(c2_pairs(max_len=3, bound=3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_c2_det_against_the_oracle(rows):
    m = Mat([[C2Poly.from_parts(*e) for e in row] for row in rows], C2Poly)
    assert parts(m.det()) == oracle_det(rows)


# -- packed Z[x] and Z[C2][x] matrices against the object-level oracle
#
# Coefficients reach 2^64 and sit at the narrowest slot width's bound and
# one past it; "top" factors have every coefficient equal to one value, so
# that each product coefficient reaches inner * min(L1, L2) * B1 * B2.

TOP = 2 ** (MIN_SLOT_BITS - 1) - 1  # the largest coefficient at the narrowest width
EDGE = [TOP, TOP + 1, 2**64, 1]
edge_coeffs = st.one_of(st.integers(-(2**64), 2**64), st.sampled_from(EDGE + [-c for c in EDGE]))
zx_entries = st.lists(edge_coeffs, max_size=5).map(PolyInt)


@st.composite
def zx_rows(draw, r, c, entry=zx_entries):
    """r rows of c entries; sometimes zero rows, or every entry one "top"
    polynomial of equal coefficients."""
    kind = draw(st.sampled_from(["dense", "zero-row", "top"]))
    if kind == "top":
        top = PolyInt([draw(st.sampled_from(EDGE + [-TOP]))] * draw(st.integers(1, 5)))
        return [[top] * c for _ in range(r)]
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if kind == "zero-row" and r:
        rows[draw(st.integers(0, r - 1))] = [PolyInt(())] * c
    return rows


def holds_its_bounds(m):
    """The packing invariant: every coefficient within the bound, every
    entry within the length, and the bound below 2^(k-1)."""
    legs = (m.i_minus(), m.i_plus()) if m.ring is C2Poly else (m,)
    for leg in legs:
        cs = [e.coeffs for r in leg.entries for e in r]
        assert leg.bound < 2 ** (leg.k - 1)
        assert max((abs(c) for e in cs for c in e), default=0) <= leg.bound
        assert max(map(len, cs), default=0) <= leg.length
    return True


shapes = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(
    st.just(s), zx_rows(s[0], s[1]), zx_rows(s[0], s[1]), zx_rows(s[1], s[2]))))
def test_zx_matrix_arithmetic_against_the_object_oracle(case):
    (r, n, c), ra, rb, rd = case
    a, b = (Mat(x, PolyInt) if r else Mat.zeros(0, n, PolyInt) for x in (ra, rb))
    d = Mat(rd, PolyInt) if n else Mat.zeros(0, c, PolyInt)
    zero = PolyInt(())
    for got, want in (
        (a + b, obj_add(ra, rb)),
        (a - b, obj_add(ra, rb, operator.sub)),
        (-a, obj_neg(ra)),
        (a.conj_t(), obj_transpose(ra, n)),
        (a * d, obj_mul(ra, rd, c, zero)),
        (a.conj_t() * b, obj_mul(obj_transpose(ra, n), rb, n, zero)),
        (a * zx("-x+3"), [[e * zx("-x+3") for e in row] for row in ra]),
    ):
        assert obj_rows(got) == want
        assert holds_its_bounds(got)
    assert obj_rows(a.mod2()) == [[e.mod2() for e in row] for row in ra]
    wide = a + a * d * d.conj_t() - a * d * d.conj_t()  # the same, wider k when the bound needs it
    assert wide == a and hash(wide) == hash(a) and obj_rows(wide) == ra
    assert (a + b == a) == (obj_rows(b) == [[zero] * n for _ in range(r)])


@settings(max_examples=100, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(
    st.just(s), *(st.lists(st.lists(c2_pairs(max_len=4, bound=2**64), min_size=w, max_size=w),
                           min_size=h, max_size=h) for h, w in ((s[0], s[1]), (s[0], s[1]), (s[1], s[2]))))))
def test_c2_matrix_arithmetic_against_the_object_oracle(case):
    """The same over Z[C2][x], where the legs must also agree mod 2 after
    every operation."""
    (r, n, c), *pairs = case
    ra, rb, rd = ([[C2Poly.from_parts(*e) for e in row] for row in p] for p in pairs)
    a, b = (Mat(x, C2Poly) if r else Mat.zeros(0, n, C2Poly) for x in (ra, rb))
    d = Mat(rd, C2Poly) if n else Mat.zeros(0, c, C2Poly)
    zero = C2Poly.zero()
    t = parse_poly("x-T", C2Poly)
    for got, want in (
        (a + b, obj_add(ra, rb)),
        (a - b, obj_add(ra, rb, operator.sub)),
        (-a, obj_neg(ra)),
        (a.conj_t(), obj_transpose(ra, n)),
        (a * d, obj_mul(ra, rd, c, zero)),
        (a * t, [[e * t for e in row] for row in ra]),
    ):
        assert obj_rows(got) == want
        assert holds_its_bounds(got)
        assert (got.i_minus() - got.i_plus()).mod2().is_zero()
        assert obj_rows(got.i_minus()) == [[apply_i(-1, e) for e in row] for row in want]
    assert obj_rows(a.mod2()) == [[apply_k(e) for e in row] for row in ra]
    assert hash(a + b - b) == hash(a) and a + b - b == a


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([-1, 0, 1]), st.sampled_from([1, -1]), st.integers(1, 4), st.integers(0, 3))
def test_equality_and_hash_at_the_slot_bound(delta, sign, length, i):
    """Coefficients at the narrowest width's bound (TOP) and one past it
    pack at different widths; equal matrices stay equal, with equal hashes,
    whatever width they are held at, and a difference of one in one
    coefficient is seen."""
    top = PolyInt([sign * (TOP + delta)] * length)
    m = Mat([[top, zx("1")], [zx("-x"), top]], PolyInt)
    assert m.k == MIN_SLOT_BITS + (delta == 1)
    big = Mat.scalar(2, PolyInt((2**200,)), PolyInt)
    wide = m + big - big
    assert wide.k > m.k
    assert wide == m and m == wide and hash(wide) == hash(m)
    assert obj_rows(wide) == obj_rows(m)
    j = min(i, length - 1)
    bumped = PolyInt([c + (k == j) for k, c in enumerate(top.coeffs)])
    nudged = Mat([[bumped, zx("1")], [zx("-x"), top]], PolyInt)
    assert nudged != m and nudged != wide and wide != nudged
    assert (nudged - m) == Mat([[PolyInt.x_power(j), zx("0")], [zx("0"), zx("0")]], PolyInt)
    c2 = m.to_c2()
    assert c2 == (wide + Mat.zeros(2, 2, PolyInt)).to_c2() and hash(c2) == hash(wide.to_c2())


# -- one object over both planes: T -> -1 and T -> +1 commute with every
# Z[C2][x] operation


def leg(m, sign):
    return m.i_plus() if sign == 1 else m.i_minus()


def c2_ops(a, b, d, s, ring):
    """The matrix operations on a, b (r x n), d (n x n) and the scalar s over
    ring, Z[C2][x] or (on their legs) Z[x]."""
    n = d.rows
    return [
        a + b, a - b, -a, a * s, a * d, d * d, a.conj_t(), a.conj_t() * b,
        Mat.from_blocks([[a, b]]), Mat.from_blocks([[a], [b]]), Mat.block_diag([a, d]),
        Mat.scalar(n, s, ring), Mat.scalar(n, s, ring) * d, a * Mat.identity(n, ring),
    ]


@st.composite
def c2_operands(draw):
    """(a, b, d, s, t_free): a, b r x n and d n x n over Z[C2][x] and s in
    Z[C2][x], with coefficients up to 2^70, so that results are repacked
    wider; with t_free every entry has b = 0 (an element of Z[x])."""
    r, n, t_free = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.booleans())
    pairs = c2_pairs(max_len=4, bound=2**70)
    if t_free:
        pairs = pairs.map(lambda ab: (ab[0], PolyInt(())))
    elt = pairs.map(lambda ab: C2Poly.from_parts(*ab))

    def mat(h, w):
        return Mat([[draw(elt) for _ in range(w)] for _ in range(h)], C2Poly) if h else Mat.zeros(0, w, C2Poly)

    return mat(r, n), mat(r, n), mat(n, n), draw(elt), t_free


@settings(max_examples=150, deadline=None)
@given(c2_operands())
def test_t_evaluations_commute_with_every_c2_operation(case):
    """Each result's i_minus() and i_plus() are the Z[x] operation on the
    operands' legs (det, equality, is_zero and mod2 too, and from_legs and
    pullback_matrix give back the matrix); T-free operands give T-free
    results, whose two planes are one row tuple; and every result's
    recorded bound holds on both legs."""
    a, b, d, s, t_free = case
    got = c2_ops(a, b, d, s, C2Poly)
    for sign in (-1, 1):
        legs = [leg(m, sign) for m in (a, b, d)]
        assert [leg(m, sign) for m in got] == c2_ops(*legs[:2], legs[2], apply_i(sign, s), PolyInt)
        assert apply_i(sign, d.det()) == legs[2].det()
        assert a.mod2() == legs[0].mod2()
    for x, y in ((a, b), (a, a + b - b), (a, -a)):
        assert (x == y) == (x.i_minus() == y.i_minus() and x.i_plus() == y.i_plus())
        assert (x - y).is_zero() == ((x - y).i_minus().is_zero() and (x - y).i_plus().is_zero())
    assert Mat.from_legs(a.i_minus(), a.i_plus()) == a == pullback_matrix(a.i_minus(), a.i_plus())
    for m in got:
        assert holds_its_bounds(m)
        assert not t_free or m._data[0] is m._data[1]
    det = d.det()
    assert not t_free or det.u is det.v


def test_a_repack_of_either_plane_goes_through_at_width(monkeypatch):
    """A sum that needs a wider slot than a Z[C2][x] matrix holds repacks
    it by one rings._at_width call, whichever plane holds the large
    coefficients: the spy that guards machine runs against repacks sees
    it."""
    big = PolyInt((2**62, 1))
    repacks = []
    real = rings._at_width
    monkeypatch.setattr(rings, "_at_width", lambda m, k: repacks.append(k != m.k and m.length > 1) or real(m, k))
    for sign in (-1, 1):  # b = sign * a: the large leg is v (T -> +1) or u (T -> -1)
        m = Mat([[C2Poly.from_parts(big, PolyInt([sign * c for c in big.coeffs])), C2Poly.one()]], C2Poly)
        repacks.clear()
        total = m + m
        assert total.k > m.k and any(repacks)
        assert leg(total, sign) == leg(m, sign) * 2 and leg(total, -sign) == leg(m, -sign) * 2
