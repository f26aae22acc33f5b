import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import f2, int_polys, zx

from unilc2.complexes import relation_fixture
from unilc2.rings import (
    C2Elt,
    C2Poly,
    Mat,
    NEG_INF,
    NonDivisibleError,
    NotInImageError,
    ONE_MINUS_T,
    PolyF2,
    PolyInt,
    PrecondError,
    RingTagError,
    SCHOOLBOOK_MAX_LEN,
    apply_i,
    apply_j,
    apply_k,
    f2_divmod,
    format_matrix,
    format_poly,
    parse_matrix,
    parse_poly,
    pullback_inverse,
    pullback_pair,
    ring_add,
    ring_mul,
    solve_right,
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
    one, t = C2Elt(1, 0), C2Elt(0, 1)
    assert t * t == one
    assert t * one == t
    assert C2Elt(2, 3) * C2Elt(5, -1) == C2Elt(7, 13)


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
        ring_add(zx("x"), f2("x"))
    with pytest.raises(RingTagError):
        ring_mul(f2("1"), ONE_MINUS_T)


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
    assert pullback_inverse(ua, va) == a
    assert pullback_inverse(ua * ub, va * vb) == a * b
    with pytest.raises(NotInImageError):
        pullback_inverse(ua, va + PolyInt.x_power(k))


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
    """Lengths 0-40 on both sides of SCHOOLBOOK_MAX_LEN, constant operands."""
    want = schoolbook(a.coeffs, b.coeffs)
    assert a * b == want
    assert b * a == want


def test_polyint_product_at_the_crossover():
    """Equal coefficients make a middle coefficient of the product reach the
    slot-width bound exactly; alternating signs make it cancel."""
    for la in (SCHOOLBOOK_MAX_LEN, SCHOOLBOOK_MAX_LEN + 1):
        for lb in (SCHOOLBOOK_MAX_LEN, SCHOOLBOOK_MAX_LEN + 1, 40):
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


def test_conj_transpose_laws():
    rng = random.Random(23)
    m = Mat([[rand_c2(rng, 2) for _ in range(3)] for _ in range(2)], C2Poly)
    n = Mat([[rand_c2(rng, 2) for _ in range(2)] for _ in range(3)], C2Poly)
    assert m.conj_t().conj_t() == m
    assert (m * n).conj_t() == n.conj_t() * m.conj_t()


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
    assert m * m.adjugate() == Mat.scalar(m.rows, d, m.ring)


def test_adjugate_identity():
    rng = random.Random(31)
    for n in (2, 3, 4):
        m = Mat([[rand_polyint(rng, 1, 2) for _ in range(n)] for _ in range(n)], PolyInt)
        d = m.det()
        assert m * m.adjugate() == Mat.scalar(n, d, PolyInt)


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
    return Mat([[e.exact_div(d) for e in r] for r in (a.adjugate() * b).entries], PolyInt)


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


def test_exact_division():
    a = zx("2+4*x^2")
    assert a.exact_div(zx("2")) == zx("1+2*x^2")
    with pytest.raises(NonDivisibleError):
        zx("1").exact_div(zx("x"))
    with pytest.raises(NonDivisibleError):
        zx("3").exact_div(zx("2"))


# -- F2[x] Euclidean structure


def test_f2_divmod_and_xgcd():
    rng = random.Random(37)
    for _ in range(100):
        a, b = PolyF2(rng.getrandbits(9)), PolyF2(rng.getrandbits(6) | 1)
        q, r = f2_divmod(a, b)
        assert q * b + r == a
        assert (a * b).exact_div(b) == a
        if r:
            with pytest.raises(NonDivisibleError):
                a.exact_div(b)


# -- grammar


@pytest.mark.parametrize(
    "text",
    ["0", "1", "1-T", "2*x^3", "x+x^3", "-x", "2-2*T", "x-T*x", "1+2*T*x^4"],
)
def test_poly_text_roundtrip(text):
    p = parse_poly(text, C2Poly)
    assert parse_poly(format_poly(p), C2Poly) == p


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
