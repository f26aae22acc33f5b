import random

import pytest

from conftest import pg_sweep, zx

from unilc2.formations import (
    SplitFormation,
    UnsupportedShapeError,
    direct_sum,
    i_minus,
    i_plus,
    is_contractible,
    is_graph,
    make_M,
    make_N_resolution,
    make_Q,
    negate,
    verify_formation_iso,
    verify_poincare,
)
from unilc2.rings import C2Poly, Mat, PolyInt, PrecondError, parse_matrix, parse_poly


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
    for p, g in pg_sweep(max_deg=1):
        src = make_M(zx("0"), g)
        dst = make_M(zx("4") * p, g)
        ident = Mat.identity(2, C2Poly)
        nu = Mat(
            [[C2Poly.from_polyint(p), C2Poly.zero()], [C2Poly.zero(), C2Poly.zero()]],
            C2Poly,
        )
        assert verify_formation_iso(src, dst, ident, ident, nu)


def test_iso_reflexive_and_zero_witness_fails_off_diagonal():
    m = make_M(zx("x"), zx("1"))
    ident = Mat.identity(2, C2Poly)
    zero = Mat.zeros(2, 2, C2Poly)
    assert verify_formation_iso(m, m, ident, ident, zero)
    src = make_M(zx("0"), zx("1"))
    dst = make_M(zx("4*x"), zx("1"))
    assert not verify_formation_iso(src, dst, ident, ident, zero)


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
    assert verify_formation_iso(src, src, ident, ident, zero)
    assert verify_formation_iso(src, dst, ident, ident, nu)
    # composite witness of identity-then-iso is the same nu
    assert verify_formation_iso(src, dst, ident, ident, nu)


def test_iso_requires_unimodular_change():
    m = make_M(zx("x"), zx("1"))
    bad = Mat.scalar(2, C2Poly.from_int(2), C2Poly)
    with pytest.raises(PrecondError):
        verify_formation_iso(m, m, bad, bad, Mat.zeros(2, 2, C2Poly))


def test_iso_checks_alpha_and_beta_separately():
    m = make_M(zx("x"), zx("1"))
    ident, zero = Mat.identity(2, C2Poly), Mat.zeros(2, 2, C2Poly)
    bad = Mat.scalar(2, C2Poly.from_int(2), C2Poly)
    wide = Mat.zeros(2, 3, C2Poly)
    for alpha, beta in ((bad, ident), (ident, bad), (wide, ident), (ident, wide)):
        with pytest.raises(PrecondError):
            verify_formation_iso(m, m, alpha, beta, zero)
    assert verify_formation_iso(m, m, ident, ident, zero)


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
