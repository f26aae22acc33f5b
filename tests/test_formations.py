import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cofactor_adjugate, direct_sum, int_polys, negate, pg_sweep, unit_inverse, zx
from test_rim import dense_boundary_form

from unilc2 import complexes, rim, rings, witt
from unilc2.formations import (
    SplitFormation,
    UnsupportedShapeError,
    _is_even_difference,
    i_minus,
    i_plus,
    is_contractible,
    is_graph,
    make_M,
    make_M_sum,
    make_N_resolution,
    make_Q,
    two_id,
    verify_formation_iso,
    verify_poincare,
)
from unilc2.rings import ONE_MINUS_T, C2Poly, Mat, PolyF2, PolyInt, PrecondError, parse_matrix, parse_poly


def c2mat(text):
    return parse_matrix(text, C2Poly)


# -- constructors


def test_make_M_matrices():
    m = make_M(zx("x"), zx("1"))
    assert m.gamma == c2mat("[x,1;1,1-T]")
    assert m.mu == c2mat("[2,0;0,2]")
    assert m.theta == m.gamma
    assert m.epsilon == -1
    assert m.hessian_holds()


def test_split_formation_is_a_frozen_record_equal_by_its_fields():
    m = make_M(zx("x"), zx("1"))
    for name in ("gamma", "mu", "theta", "epsilon"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))
    assert m == make_M(zx("x"), zx("1")) == SplitFormation(m.gamma, m.mu, m.theta, -1)
    for other in (
        SplitFormation(-m.gamma, m.mu, m.theta, -1),
        SplitFormation(m.gamma, -m.mu, m.theta, -1),
        SplitFormation(m.gamma, m.mu, -m.theta, -1),
        SplitFormation(m.gamma, m.mu, m.theta, 1),
    ):
        assert m != other


def test_make_M_precondition():
    with pytest.raises(PrecondError):
        make_M(zx("1"), zx("1"))


def test_make_Q_matrices():
    q = make_Q(zx("x"))
    assert q.gamma == c2mat("[0,2*x-2*T*x;2*x-2*T*x,0]")
    assert q.mu == c2mat("[1,x-T*x;1-T,1]")
    assert q.theta == c2mat("[2*x-2*T*x,0;2*x-2*T*x,2*x^2-2*T*x^2]")
    assert q.hessian_holds()


def test_q_hat_expansion():
    qh = C2Poly.from_int(2) * parse_poly("1-T", C2Poly) * C2Poly.from_polyint(zx("x"))
    assert qh == parse_poly("2*x-2*T*x", C2Poly)


def test_make_N_resolution():
    n = make_N_resolution(zx("x"), zx("1"))
    assert n.gamma == parse_matrix("[x,1;1,2]", PolyInt)
    assert n.hessian_holds()
    # allowed when only g has zero constant coefficient
    make_N_resolution(zx("1"), zx("x"))
    with pytest.raises(PrecondError):
        make_N_resolution(zx("1"), zx("1"))


def test_hessians_on_sweep():
    for p, g in pg_sweep(max_deg=2):
        assert make_M(p, g).hessian_holds()


# -- evaluations


def test_i_minus_is_the_resolution():
    for p, g in pg_sweep(max_deg=2):
        assert i_minus(make_M(p, g)) == make_N_resolution(p, g)


def test_i_plus_is_graph():
    for p, g in pg_sweep(max_deg=2):
        plus = i_plus(make_M(p, g))
        assert plus.gamma == parse_matrix(f"[{p},1;1,0]", PolyInt)
        assert is_graph(plus)


def test_i_minus_graph_only_when_pg_zero():
    for p, g in pg_sweep(max_deg=2):
        d = zx("2") * p * g - zx("1")
        assert is_graph(i_minus(make_M(p, g))) == d.is_unit()


# -- duality and graph predicates


def test_verify_poincare():
    assert verify_poincare(make_M(zx("x"), zx("x^3")))
    for p, g in pg_sweep():
        assert verify_poincare(make_M(p, g))


def test_verify_poincare_false_case():
    bad = SplitFormation(
        c2mat("[2,0;0,2]"), c2mat("[2,0;0,2]"), c2mat("[2,0;0,2]"), -1
    )
    assert not verify_poincare(bad)


def test_verify_poincare_unsupported_shape():
    with pytest.raises(UnsupportedShapeError):
        verify_poincare(make_Q(zx("x")))


def test_graph_fixtures():
    assert is_graph(make_M(zx("0"), zx("x")))   # det gamma = -1
    assert not is_graph(make_M(zx("x"), zx("1")))
    assert not is_graph(make_Q(zx("x")))
    assert is_contractible(
        SplitFormation(c2mat("[0,0;0,0]"), c2mat("[1,0;0,1]"), c2mat("[0,0;0,0]"), -1)
    )


# -- the explicit isomorphism family


def test_iso_m0_witness():
    ident = Mat.identity(2, C2Poly)
    for p, g in pg_sweep(max_deg=1):
        src = make_M(zx("0"), g)
        dst = make_M(zx("4") * p, g)
        nu = Mat(
            [[C2Poly.from_polyint(p), C2Poly.zero()], [C2Poly.zero(), C2Poly.zero()]],
            C2Poly,
        )
        assert verify_formation_iso(src, dst, ident, ident, nu, ident, ident)


def test_iso_reflexive_and_zero_witness_fails_off_diagonal():
    m = make_M(zx("x"), zx("1"))
    ident = Mat.identity(2, C2Poly)
    zero = Mat.zeros(2, 2, C2Poly)
    assert verify_formation_iso(m, m, ident, ident, zero, ident, ident)
    src = make_M(zx("0"), zx("1"))
    dst = make_M(zx("4*x"), zx("1"))
    assert not verify_formation_iso(src, dst, ident, ident, zero, ident, ident)


def test_iso_composes_with_identity():
    p, g = zx("x"), zx("1")
    src = make_M(zx("0"), g)
    dst = make_M(zx("4") * p, g)
    ident = Mat.identity(2, C2Poly)
    zero = Mat.zeros(2, 2, C2Poly)
    nu = Mat(
        [[C2Poly.from_polyint(p), C2Poly.zero()], [C2Poly.zero(), C2Poly.zero()]],
        C2Poly,
    )
    assert verify_formation_iso(src, src, ident, ident, zero, ident, ident)
    assert verify_formation_iso(src, dst, ident, ident, nu, ident, ident)
    # composite witness of identity-then-iso is the same nu
    assert verify_formation_iso(src, dst, ident, ident, nu, ident, ident)


def test_iso_requires_unimodular_change():
    """2*Id is not unimodular: no claimed inverse is accepted for it."""
    m = make_M(zx("x"), zx("1"))
    bad = Mat.scalar(2, C2Poly.from_int(2), C2Poly)
    zero = Mat.zeros(2, 2, C2Poly)
    for claimed in (bad, Mat.identity(2, C2Poly), zero, c2mat("[1,T;x,-1]")):
        with pytest.raises(PrecondError):
            verify_formation_iso(m, m, bad, bad, zero, claimed, claimed)


def test_iso_checks_alpha_and_beta_separately():
    m = make_M(zx("x"), zx("1"))
    ident, zero = Mat.identity(2, C2Poly), Mat.zeros(2, 2, C2Poly)
    bad = Mat.scalar(2, C2Poly.from_int(2), C2Poly)
    # wide * wide^T = Id, but a non-square matrix is not invertible
    wide = c2mat("[1,0,0;0,1,0]")
    big_ident = Mat.identity(3, C2Poly)
    for alpha, alpha_inv, beta, beta_inv in (
        (bad, ident, ident, ident),
        (ident, ident, bad, ident),
        (wide, wide.conj_t(), ident, ident),
        (ident, ident, wide, wide.conj_t()),
        (ident, big_ident, ident, ident),
        (ident, ident, ident, big_ident),
    ):
        with pytest.raises(PrecondError):
            verify_formation_iso(m, m, alpha, beta, zero, alpha_inv, beta_inv)
    assert verify_formation_iso(m, m, ident, ident, zero, ident, ident)


def test_iso_accepts_a_skew_nu():
    """With e = -1, (iii) asks for eta - eta^*.  The witness (Id, Id, nu)
    with the skew nu = [[0, x], [-x, 0]] keeps gamma and mu (nu + nu^* = 0),
    and its difference -mu^* nu mu = -4 nu is eta - eta^* for the eta
    below."""
    m = make_M(zx("x"), zx("1"))
    ident = Mat.identity(2, C2Poly)
    nu, eta = c2mat("[0,x;-x,0]"), c2mat("[0,-4*x;0,0]")
    assert -(m.mu.conj_t() * nu * m.mu) == eta - eta.conj_t()
    assert verify_formation_iso(m, m, ident, ident, nu, ident, ident)


def test_iso_rejects_an_even_symmetric_theta_change():
    """2 e_11 added to theta is eta + eta^* (eta = e_11), not eta - eta^*:
    its diagonal is not 0.  Such a dst fails its own hessian identity."""
    m = make_M(zx("x"), zx("1"))
    ident, zero = Mat.identity(2, C2Poly), Mat.zeros(2, 2, C2Poly)
    eta = c2mat("[1,0;0,0]")
    dst = SplitFormation(m.gamma, m.mu, m.theta + eta + eta.conj_t(), -1)
    assert not dst.hessian_holds()
    assert not verify_formation_iso(m, dst, ident, ident, zero, ident, ident)


def test_even_difference_by_sign():
    """x = eta - sign * eta^* for the hand-built eta, and not for the other
    sign; over Z[x] an odd diagonal is neither.  Over F2[x] both signs give
    eta + eta^T, whose diagonal is 0, so [[1,0],[0,0]] is neither."""
    eta = parse_matrix("[1,x;2,3]", PolyInt)
    for sign, x in ((1, eta - eta.conj_t()), (-1, eta + eta.conj_t())):
        assert _is_even_difference(x, sign)
        assert not _is_even_difference(x, -sign)
        assert not _is_even_difference(parse_matrix("[1,0;0,0]", PolyInt), sign)
    eta = parse_matrix("[1,x;0,1+x]", PolyF2)
    for sign in (1, -1):
        assert _is_even_difference(eta + eta.conj_t(), sign)
        assert not _is_even_difference(parse_matrix("[1,0;0,0]", PolyF2), sign)


def replaced_iso_verdict(src, dst, alpha, beta, nu):
    """Oracle: verify_formation_iso as it was before it took the inverses,
    proving alpha and beta unimodular by their determinants (over every
    leg) and forming alpha^{-*} as the cofactor adjugate over the unit
    determinant.  Condition (iii) builds eta from the difference itself."""
    if src.epsilon != dst.epsilon or src.ring is not dst.ring:
        raise PrecondError("formations must share epsilon and ring")
    e = src.epsilon
    if not (alpha.is_square() and beta.is_square() and beta.det().is_unit()):
        raise PrecondError("alpha and beta must be unimodular")
    alpha_inv_star = cofactor_adjugate(alpha.conj_t()) * unit_inverse(alpha.det())
    nus = nu.conj_t()
    skew_nu = nu - nus if e == 1 else nu + nus
    if dst.gamma * beta != alpha * src.gamma + skew_nu * src.mu:
        return False
    if dst.mu * beta != alpha_inv_star * src.mu:
        return False
    diff = beta.conj_t() * dst.theta * beta - src.theta - src.mu.conj_t() * nu * src.mu
    eta = upper_and_half_diagonal(diff)
    return eta + e * eta.conj_t() == diff


def upper_and_half_diagonal(x):
    """The strict upper part of x plus half its diagonal (each coefficient
    of a + b*T rounded down), over Z[C2][x]: the eta with
    x = eta - sign * eta^* if there is one, for either sign."""

    def half(r):
        return C2Poly.from_parts(*(PolyInt(tuple(c // 2 for c in h.coeffs)) for h in (r.a, r.b)))

    n = x.rows
    return Mat([[x[i, j] if i < j else half(x[i, i]) if i == j else C2Poly.zero() for j in range(n)]
                for i in range(n)], C2Poly)


small_zx = st.lists(st.integers(-2, 2), max_size=3).map(PolyInt)
c2_elts = st.builds(C2Poly.from_parts, small_zx, small_zx)


def single_entry(n, i, j, r):
    """r e_ij, n x n over Z[C2][x]."""
    return Mat([[r if (a, b) == (i, j) else C2Poly.zero() for b in range(n)] for a in range(n)], C2Poly)


def elementary(n, i, j, r):
    """Id + r e_ij (i != j) over Z[C2][x]."""
    return Mat.identity(n, C2Poly) + single_entry(n, i, j, r)


@st.composite
def unimodular_with_inverse(draw, n):
    """(m, m^-1) over Z[C2][x]: m is a product of elementary matrices
    Id + r e_ij (i != j) and +-1 diagonals, and m^-1 the reversed product
    of the factors' inverses."""
    m = inv = Mat.identity(n, C2Poly)
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            r = draw(c2_elts)
            f, f_inv = elementary(n, i, j, r), elementary(n, i, j, -r)
        else:
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
            f = f_inv = Mat([[C2Poly.from_int(s if a == b else 0) for b in range(n)] for a, s in enumerate(signs)], C2Poly)
        m, inv = m * f, f_inv * inv
    return m, inv


generator_term = st.tuples(st.sampled_from((1, -1)), small_zx, small_zx).filter(lambda t: not (t[1] * t[2]).constant)


@st.composite
def iso_cases(draw):
    """A make_M_sum formation src, a unimodular (alpha, beta) with their
    inverses, a random nu, and dst: the transport of src along
    (alpha, beta, nu), with up to two entries of its blocks changed and
    theta perhaps moved by eta + e eta^* or by eta - e eta^* (e = -1, eta
    random: the first keeps the isomorphism, the second only when it is
    also the first), or another make_M_sum formation of the same rank; and
    whether dst is a transport."""
    src = make_M_sum(draw(st.lists(generator_term, min_size=1, max_size=2)))
    n = src.f_rank
    alpha, alpha_inv = draw(unimodular_with_inverse(n))
    beta, beta_inv = draw(unimodular_with_inverse(n))
    nu = Mat([[draw(c2_elts) for _ in range(n)] for _ in range(n)], C2Poly)
    if draw(st.booleans()):
        terms = draw(st.lists(generator_term, min_size=n // 2, max_size=n // 2))
        return (src, make_M_sum(terms), alpha, beta, nu, alpha_inv, beta_inv), False
    mu = src.mu
    blocks = {
        "gamma": (alpha * src.gamma + (nu + nu.conj_t()) * mu) * beta_inv,
        "mu": alpha_inv.conj_t() * mu * beta_inv,
        "theta": beta_inv.conj_t() * (src.theta + mu.conj_t() * nu * mu) * beta_inv,
    }
    bumps = draw(st.integers(0, 2))
    for _ in range(bumps):
        name = draw(st.sampled_from(sorted(blocks)))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        blocks[name] = blocks[name] + single_entry(n, i, j, draw(c2_elts))
    shift = draw(st.sampled_from((0, 1, -1)))  # theta += eta + shift * e * eta^*
    if shift:
        eta = Mat([[draw(c2_elts) for _ in range(n)] for _ in range(n)], C2Poly)
        blocks["theta"] = blocks["theta"] + eta - shift * eta.conj_t()
    dst = SplitFormation(blocks["gamma"], blocks["mu"], blocks["theta"], -1)
    return (src, dst, alpha, beta, nu, alpha_inv, beta_inv), bumps == 0 and shift != -1


@settings(max_examples=150, deadline=None)
@given(iso_cases(), st.data())
def test_iso_verdict_matches_the_determinant_and_elimination_path(case_exact, data):
    """Over random unimodular (alpha, beta), nu and make_M_sum formations,
    the verdict with the inverses supplied is the verdict of the replaced
    path; a transported formation is accepted, and a wrong alpha_inv or
    beta_inv, each changed alone, raises PrecondError."""
    (src, dst, alpha, beta, nu, alpha_inv, beta_inv), exact = case_exact
    got = verify_formation_iso(src, dst, alpha, beta, nu, alpha_inv, beta_inv)
    assert got == replaced_iso_verdict(src, dst, alpha, beta, nu)
    assert got or not exact
    n = src.f_rank
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bump = data.draw(c2_elts.filter(bool))
    off = single_entry(n, i, j, bump)
    with pytest.raises(PrecondError):
        verify_formation_iso(src, dst, alpha, beta, nu, alpha_inv + off, beta_inv)
    with pytest.raises(PrecondError):
        verify_formation_iso(src, dst, alpha, beta, nu, alpha_inv, beta_inv + off)


# -- sums and negation


def test_direct_sum_ranks():
    m = make_M(zx("x"), zx("1"))
    s = direct_sum(m, m)
    assert s.f_rank == 4 and s.g_rank == 4
    assert s.hessian_holds()


def test_negate_preserves_hessian():
    rng = random.Random(61)
    sweep = pg_sweep(max_deg=2)
    for _ in range(40):
        p, g = sweep[rng.randrange(len(sweep))]
        m = make_M(p, g)
        n = negate(m)
        assert n.hessian_holds()
        assert n.gamma == m.gamma and n.theta == -m.theta and n.mu == -m.mu
        s = direct_sum(m, n)
        assert s.hessian_holds()


# -- signed generator sums in one pass


_X2 = PolyInt.x_power(2)
# relation_fixture's formation sums, as signed terms of make_M_sum
RELATION_TERMS = {
    1: lambda p, g, p2: ((1, p, g), (1, p2, g), (-1, p + p2, g)),
    2: lambda p, g, p2: ((1, 2 * p, g), (-1, 2 * g, p)),
    3: lambda p, g, p2: ((1, _X2 * p, g), (-1, p, _X2 * g)),
    4: lambda p, g, p2: ((1, 2 * p * p * g, g), (-1, 2 * p, g)),
}


def object_M(p, g):
    """Oracle: M(p, g) from Z[C2][x] entries, [[p,1],[1,(1-T)g]] and 2*Id,
    for p*g in x*Z[x]."""
    if (p * g).constant:
        raise PrecondError("p*g must have zero constant coefficient")
    pc, one = C2Poly.from_polyint(p), C2Poly.one()
    gamma = Mat([[pc, one], [one, ONE_MINUS_T * C2Poly.from_polyint(g)]], C2Poly)
    return SplitFormation(gamma, Mat.scalar(2, 2, C2Poly), gamma, -1)


def chain_sum(terms, generator=make_M):
    """The direct_sum/negate chain of +-generator(p, g) over the terms, or
    PrecondError when a generator refuses its parameters."""
    f = None
    for s, p, g in terms:
        try:
            m = generator(p, g)
        except PrecondError:
            return PrecondError
        m = m if s == 1 else negate(m)
        f = m if f is None else direct_sum(f, m)
    return f


def one_pass_sum(terms):
    try:
        return make_M_sum(terms)
    except PrecondError:
        return PrecondError


def assert_chain_after_base_change(got, chain, terms):
    """make_M_sum's sum is the direct_sum/negate chain after the base change
    beta = diag(s_i) of G: (Id, beta, 0) is an isomorphism chain -> got,
    whose mu is 2*Id and theta is gamma, and the two are equal when no
    term is negated."""
    n = got.g_rank
    signs = [s for s, _, _ in terms for _ in range(2)]
    beta = Mat([[C2Poly.from_int(s if i == j else 0) for j in range(n)] for i, s in enumerate(signs)], C2Poly)
    ident, zero = Mat.identity(n, C2Poly), Mat.zeros(n, n, C2Poly)
    assert verify_formation_iso(chain, got, ident, beta, zero, ident, beta)
    assert got.mu == Mat.scalar(n, 2, C2Poly) and got.theta == got.gamma
    assert (got == chain) == (-1 not in signs)


def test_make_M_sum_against_the_chain_on_the_degree_2_space():
    """On relation_fixture's four sums over every degree-2 parameter with
    coefficients {0,1,2}, make_M_sum is the direct_sum/negate chain after
    the base change beta = diag(s_i), and both raise PrecondError exactly
    when some p*g has a constant term."""
    ps = int_polys(2)
    blocks = {}

    def cached_M(p, g):  # the chain's make_M, once per parameter pair
        if (p, g) not in blocks:
            blocks[p, g] = one_pass_sum(((1, p, g),))
        if blocks[p, g] is PrecondError:
            raise PrecondError("p*g must have zero constant coefficient")
        return blocks[p, g]

    accepted = Counter()
    for k, shape in RELATION_TERMS.items():
        for p in ps:
            for g in ps:
                for p2 in ps if k == 1 else (None,):
                    terms = shape(p, g, p2)
                    got, chain = one_pass_sum(terms), chain_sum(terms, cached_M)
                    assert (got is PrecondError) == (chain is PrecondError), (k, p, g, p2)
                    assert (got is PrecondError) == any((q * h).constant for _, q, h in terms)
                    if got is not PrecondError:
                        assert_chain_after_base_change(got, chain, terms)
                    accepted[k] += got is not PrecondError
    assert accepted == {1: 8019, 2: 405, 3: 729, 4: 405}


signed_terms = st.lists(
    st.tuples(
        st.sampled_from((1, -1)),
        *[st.lists(st.integers(-5, 5), max_size=5).map(PolyInt)] * 2,
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(signed_terms)
def test_make_M_sum_against_the_chain_on_random_terms(terms):
    """1-4 signed terms of degree <= 4 with coefficients -5..5: make_M_sum
    is the chain of object-level generators after the base change
    beta = diag(s_i) (and make_M is its one-term case), or both raise
    PrecondError."""
    got, chain = one_pass_sum(terms), chain_sum(terms, object_M)
    assert chain == chain_sum(terms)
    assert (got is PrecondError) == (chain is PrecondError)
    assert (got is PrecondError) == any((p * g).constant for _, p, g in terms)
    if got is not PrecondError:
        assert_chain_after_base_change(got, chain, terms)
        assert got.hessian_holds()
        assert all(make_M(p, g) == object_M(p, g) for _, p, g in terms)


def test_iso_checks_run_no_adjugate_and_no_elimination(monkeypatch):
    """With the inverses supplied, an exponent-four replay and the chain
    test's call on a 6x6 degree-2 relation-1 sum neither solve a linear
    system nor form an adjugate; nor does a gluing-machine run of each
    relation, nor the boundary of a dense rank-6 form."""

    def banned(*_):
        raise AssertionError("elimination inverse or adjugate called")

    monkeypatch.setattr(rings, "_solve", banned)
    monkeypatch.setattr(Mat, "adjugate", banned)
    p, g = zx("x+2*x^2"), zx("1+x")
    assert witt.replay(witt.exponent_four_script(p, g), witt.exponent_four_start(p, g), witt.GenWord.zero())
    terms = RELATION_TERMS[1](zx("x"), zx("1+2*x"), zx("x+x^2"))
    assert_chain_after_base_change(make_M_sum(terms), chain_sum(terms), terms)
    for k, p, g, p2 in ((1, "x", "1+x", "x^2"), (2, "x", "1", None), (3, "x+x^2", "x", None), (4, "x", "x", None)):
        res, expected = complexes.run_relation(k, zx(p), zx(g), p2 and zx(p2))
        assert res.arf == expected
    form = dense_boundary_form(random.Random(5), 6)
    assert rim.boundary(rim.BoundaryInput.with_default_lifts(form)).hessian_holds()


def test_a_product_with_an_identity_factor_is_the_other_factor():
    """mu * beta in ISO-M0's condition (ii), with mu = 2*Id and beta = Id
    (both tagged), is mu itself, on either side, and so is any product
    with Id."""
    mu, ident = two_id(2, C2Poly), Mat.identity(2, C2Poly)
    assert mu * ident is mu and ident * mu is mu
    m = make_M(zx("x"), zx("1")).gamma
    assert m * ident is m and ident * m is m and ident * ident is ident


def test_the_lift_plus_check_fails_when_the_plus_leg_is_not_a_graph(monkeypatch):
    """With make_M patched so that its T -> +1 leg is the resolution
    [[p, 1], [1, 2g]] (its T -> -1 leg), whose determinant 2pg - 1 is not
    a unit once pg != 0, formations.lift-plus-graph fails at such a pair."""
    from unilc2 import formations, registry

    def plus_not_graph(p, g):
        gamma = make_N_resolution(p, g).gamma
        gamma = Mat.from_legs(gamma, gamma)
        return SplitFormation(gamma, two_id(2, C2Poly), gamma, -1)

    assert registry.check_lift_plus_graph(registry.SweepConfig(max_deg=1))[0]
    monkeypatch.setattr(formations, "make_M", plus_not_graph)
    ok, detail = registry.check_lift_plus_graph(registry.SweepConfig(max_deg=1))
    assert not ok and detail.startswith("T -> +1 evaluation is not a graph formation at")


def test_iso_m0_proof_forms_no_dense_product(monkeypatch):
    """Every product of the ISO-M0 proof has a scalar factor (Id or
    mu = 2*Id), so an exponent-four replay forms no dense product, nor an
    adjugate or elimination inverse."""

    def banned(*_):
        raise AssertionError("dense product, elimination inverse or adjugate called")

    for name in ("_zx_mul", "_solve"):
        monkeypatch.setattr(rings, name, banned)
    monkeypatch.setattr(Mat, "adjugate", banned)
    p, g = zx("x+2*x^2"), zx("1+x")
    assert witt.replay(witt.exponent_four_script(p, g), witt.exponent_four_start(p, g), witt.GenWord.zero())


def test_make_M_sum_rejects_a_sign_other_than_plus_or_minus_one():
    with pytest.raises(PrecondError):
        make_M_sum(((1, zx("x"), zx("1")), (2, zx("x"), zx("1"))))


def test_linking_sum_evaluation():
    # T -> -1 of M(p1,g) + M(p2,g) - M(p1+p2,g) is the resolution sum with
    # the matching sign convention
    p1, p2, g = zx("x"), zx("x^2"), zx("1")
    s = direct_sum(direct_sum(make_M(p1, g), make_M(p2, g)), negate(make_M(p1 + p2, g)))
    sm = i_minus(s)
    n1, n2 = make_N_resolution(p1, g), make_N_resolution(p2, g)
    n3 = make_N_resolution(p1 + p2, g)
    assert sm.gamma == Mat.block_diag([n1.gamma, n2.gamma, n3.gamma])
    assert sm.theta == Mat.block_diag([n1.theta, n2.theta, -n3.theta])
    assert sm.mu == Mat.block_diag([n1.mu, n2.mu, -n3.mu])
