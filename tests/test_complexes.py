import dataclasses
import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_polys, pg_sweep, zx

from unilc2.complexes import (
    NullCobordismData,
    QuadComplex1,
    StageError,
    alpha_pullback_check,
    build_null_cobordism,
    build_psi_hat,
    build_union,
    check_desymmetrization,
    complex_to_formation,
    formation_to_complex,
    instant_obstruction,
    relation_fixture,
    run_machine,
    run_relation,
)
from unilc2.formations import SplitFormation, direct_sum, is_graph, make_M, negate
from unilc2.forms import ArfClass, SingularFormError, arf, arf_normalize
from unilc2 import complexes, rings
from unilc2.rings import (
    C2Poly,
    Mat,
    PolyF2,
    PolyInt,
    PrecondError,
    RingTagError,
    ShapeError,
    format_matrix,
    parse_matrix,
    solve_right,
)


# -- packed matrices through a machine run


def test_machine_run_packs_each_entry_once(monkeypatch):
    """During a degree-2 relation-1 run a Z[x] entry is packed once, when
    its matrix is built from coefficients or an elimination packs its
    operands at their minor bound, and unpacked once for each read (or
    elimination input and result): no sum, product, transpose or mod-2
    reduction repacks or unpacks anything."""
    f, ncd, expected = relation_fixture(1, zx("2*x+x^2"), zx("1+2*x^2"), zx("x+2*x^2"))
    n = Counter()

    def spy(owner, name, key, weight=lambda *args: 1):
        fn = getattr(owner, name)

        def wrapped(*args):
            n[key] += weight(*args)
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapped)

    def z(m, count):  # count the entries of a Z[x] matrix (legs count themselves)
        return count if m.ring is PolyInt else 0

    spy(rings, "_pack", "pack")
    spy(rings, "_unpack", "unpack")
    spy(rings, "_packed", "built", lambda crows, k=0: sum(map(len, crows)))
    spy(rings, "_zx_pack_rows", "built", lambda crows: sum(map(len, crows)))
    spy(rings, "_at_width", "repacks", lambda m, k: int(k != m.k and m.length > 1))
    spy(Mat, "__getitem__", "read", lambda m, rc: z(m, 1))
    spy(rings, "_det", "read", lambda m: z(m, m.rows**2 + 1))
    spy(rings, "_solve", "read", lambda a, b: z(a, a.rows * (a.cols + b.cols) + b.rows * b.cols + 1))
    entries = Mat.entries.fget

    def counted_entries(m):
        n["read"] += z(m, m.rows * m.cols)
        return entries(m)

    monkeypatch.setattr(Mat, "entries", property(counted_entries))
    assert run_machine(f, ncd).arf == expected
    assert n["repacks"] == 0
    assert n["pack"] <= n["built"] and n["unpack"] <= n["read"]
    assert n["pack"] + n["unpack"] < 400, n  # about 1755 when each product packed its factors


def test_machine_run_builds_only_what_it_reads(monkeypatch):
    """A degree-2 relation-1 run makes 9 Z[x] matrix products (two of them
    the check pi * pi_inv_d = d^* of the witness's composite, once per
    de-symmetrization check), no Z[C2][x] product (d = 2*Id is a scaling),
    1 F2[x] product (d o d of the union), 4 mod-2 reductions and 3 block
    matrices, and solves no linear system: no null-cobordism or union block
    that nothing reads is built."""
    f, ncd, expected = relation_fixture(1, zx("2*x+x^2"), zx("1+2*x^2"), zx("x+2*x^2"))
    n = Counter()

    def spy(name, key_of):
        fn = getattr(Mat, name)

        def wrapped(*args):
            n[key_of(*args)] += 1
            return fn(*args)

        monkeypatch.setattr(Mat, name, wrapped)

    spy("__mul__", lambda a, b: f"mul {a.ring.__name__}" if isinstance(b, Mat) else "scale")
    spy("mod2", lambda m: "mod2")
    spy("from_blocks", lambda blocks: "from_blocks")
    monkeypatch.setattr(complexes, "solve_right", lambda *args: n.update(["solve_right"]))
    assert run_machine(f, ncd).arf == expected
    keys = ("mul PolyInt", "mul C2Poly", "mul PolyF2", "mod2", "from_blocks", "solve_right")
    counts = {k: n[k] for k in keys}
    assert counts == {
        "mul PolyInt": 9, "mul C2Poly": 0, "mul PolyF2": 1, "mod2": 4, "from_blocks": 3, "solve_right": 0
    }, n


# -- dictionary


def test_formation_to_complex_shape():
    c = formation_to_complex(make_M(zx("x"), zx("1")))
    assert c.rank == 2
    assert c.d == Mat.scalar(2, c.ring.from_int(2), c.ring)
    assert c.cycle_holds()


def test_roundtrip_exact():
    for p, g in [(zx("x"), zx("1")), (zx("x+2*x^2"), zx("x"))]:
        m = make_M(p, g)
        assert complex_to_formation(formation_to_complex(m)) == m


def test_roundtrip_on_sum_with_negation():
    m = direct_sum(make_M(zx("x"), zx("1")), negate(make_M(zx("x"), zx("1"))))
    c = formation_to_complex(m)
    assert c.cycle_holds()
    back = complex_to_formation(c)
    # the mu signs were normalised away, so gamma/theta flipped on the block
    assert back.mu == Mat.scalar(4, c.ring.from_int(2), c.ring)
    assert back.hessian_holds()


def test_graph_of_roundtrip_on_trivial_parameters():
    m = make_M(zx("0"), zx("0"))
    back = complex_to_formation(formation_to_complex(m))
    assert is_graph(back)


def test_cycle_condition_sweep():
    for p in int_polys(2):
        for g in int_polys(1):
            if (p * g).constant:
                continue
            assert formation_to_complex(make_M(p, g)).cycle_holds()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(pg_sweep(1)), st.booleans()), min_size=1, max_size=4))
def test_normalize_mu_signs_against_diag_product(summands):
    """The sign flips of formation_to_complex equal the base change by
    beta = diag(+-1): the complex is the dictionary image of gamma*beta,
    mu*beta, beta^* theta beta."""
    f = None
    for (p, g), neg in summands:
        m = negate(make_M(p, g)) if neg else make_M(p, g)
        f = m if f is None else direct_sum(f, m)
    two = C2Poly.from_int(2)
    one, zero = C2Poly.one(), C2Poly.zero()
    n = f.g_rank
    beta = Mat([[zero if i != j else one if f.mu[i, i] == two else -one
                 for j in range(n)] for i in range(n)], C2Poly)
    want = SplitFormation(f.gamma * beta, f.mu * beta, beta.conj_t() * f.theta * beta, -1)
    c = formation_to_complex(f)
    assert c.d == want.mu.conj_t() == Mat.scalar(n, two, C2Poly)
    assert c.psi0t == want.gamma.conj_t()
    assert c.psi1 == -want.theta
    assert complex_to_formation(c) == want


def test_dictionary_rejects_other_mu_shapes():
    from unilc2.formations import make_Q

    with pytest.raises(PrecondError):
        formation_to_complex(make_Q(zx("x")))
    # over F2[x], where 2 = 0, mu = 0 is not the shape mu = diag(+-2)
    zero = Mat.zeros(2, 2, PolyF2)
    with pytest.raises(PrecondError):
        formation_to_complex(SplitFormation(Mat.identity(2, PolyF2), zero, zero, -1))


# -- de-symmetrization fixtures


def fixture(k, p, g, p2=None):
    return relation_fixture(k, p, g, p2)


def test_desymmetrization_additivity():
    f, ncd, _ = fixture(1, zx("x"), zx("1"), zx("x^2"))
    c = formation_to_complex(f)
    assert check_desymmetrization(c, ncd)


def test_desymmetrization_symmetry():
    f, ncd, _ = fixture(2, zx("x"), zx("1"))
    c = formation_to_complex(f)
    assert check_desymmetrization(c, ncd)


def test_desymmetrization_detects_perturbation():
    f, ncd, _ = fixture(2, zx("x"), zx("1"))
    c = formation_to_complex(f)
    rows = [list(r) for r in ncd.chi.entries]
    rows[0][0] = rows[0][0] + PolyInt((1,))
    bad = dataclasses.replace(ncd, chi=Mat(rows, PolyInt))
    assert not check_desymmetrization(c, bad)


def test_invalid_pi_is_flagged():
    f, ncd, _ = fixture(2, zx("x"), zx("1"))
    c = formation_to_complex(f)
    bad_pi = parse_matrix("[x,0,0,0;0,1,0,2;0,1,0,0;1,0,0,0]", PolyInt)
    with pytest.raises(StageError) as err:
        check_desymmetrization(c, dataclasses.replace(ncd, pi=bad_pi))
    assert err.value.stage == "desymmetrization"
    assert "invalid pi" in str(err.value)


# -- psi-hat and the null-cobordism


def test_psi_hat_skew_difference():
    for k, args in [
        (1, (zx("x"), zx("1"), zx("x"))),
        (3, (zx("x"), zx("1"), None)),
        (4, (zx("x"), zx("x"), None)),
    ]:
        p, g, p2 = args
        f, ncd, _ = fixture(k, p, g, p2)
        c = formation_to_complex(f)
        hat = build_psi_hat(c, ncd)
        diff = hat.psi1 - c.psi1.i_minus()
        assert diff.conj_t() == -diff
        assert all(not diff[i, i] for i in range(diff.rows))


def test_psi_hat_degenerate_zero_witness():
    # chi = 0 with psi0t = 0 forces psi1_hat = 0
    n = 2
    zero = Mat.zeros(n, n, C2Poly)
    c = QuadComplex1(zero, zero)
    two_id = Mat.scalar(n, 2, PolyInt)
    ncd = NullCobordismData(Mat.identity(n, PolyInt), Mat.zeros(n, n, PolyInt), two_id)
    hat = build_psi_hat(c, ncd)
    assert hat.psi1.is_zero()


def test_null_cobordism_chain_map():
    for k, p, g, p2 in [(1, zx("x"), zx("1"), zx("x")), (4, zx("x"), zx("x"), None)]:
        f, ncd, _ = fixture(k, p, g, p2)
        c = formation_to_complex(f)
        bundle = build_null_cobordism(c, ncd)
        assert c.d.i_minus() == bundle.d_d * bundle.f1
        assert bundle.dpsi0 == -ncd.chi.conj_t()


# -- union and obstruction


def test_union_differentials():
    f, ncd, _ = fixture(2, zx("x"), zx("1"))
    c = formation_to_complex(f)
    hat = build_psi_hat(c, ncd)
    bundle = build_null_cobordism(c, ncd)
    u = build_union(c, hat, bundle)
    assert (u.d_f1 * u.d_f2).is_zero()
    n = u.rank
    # the top block of d_F^2 is the chain map component, mod 2
    top = Mat([[u.d_f2[i, j] for j in range(n)] for i in range(n)], u.d_f2.ring)
    assert top == bundle.f1.mod2()


def test_obstruction_reduces_to_chi_transpose():
    f, ncd, _ = fixture(2, zx("x"), zx("1"))
    c = formation_to_complex(f)
    hat = build_psi_hat(c, ncd)
    bundle = build_null_cobordism(c, ncd)
    obs = instant_obstruction(build_union(c, hat, bundle))
    assert obs.reduced.psi == ncd.chi.conj_t().mod2()
    assert obs.big_arf == obs.reduced_arf
    assert obs.big.rank == 3 * obs.reduced.rank
    assert obs.reduced.is_nonsingular()


def test_obstruction_rejects_a_singular_reduced_form():
    """A union complex whose obstruction block dpsi0 (the reduced form) is
    singular fails the obstruction stage; the singularity is read off the
    symplectic reduction."""
    f, ncd, _ = fixture(1, zx("x"), zx("1"), zx("x"))
    c = formation_to_complex(f)
    u = build_union(c, build_psi_hat(c, ncd), build_null_cobordism(c, ncd))
    n = u.rank
    rows = [list(r) for r in u.dpsi0.bits]
    for i in range(n):  # e_0 then pairs to zero with the whole block
        rows[0][i] = rows[i][0] = 0
    broken = dataclasses.replace(u, dpsi0=Mat.from_bits(rows, n))
    with pytest.raises(StageError) as err:
        instant_obstruction(broken)
    assert err.value.stage == "obstruction"
    assert "reduced obstruction form is singular" in str(err.value)
    assert isinstance(err.value.__cause__, SingularFormError)


# -- the full machine


def test_machine_additivity_values():
    for p1, p2, g in [
        (zx("x"), zx("x"), zx("1")),
        (zx("x"), zx("x^2"), zx("1")),
        (zx("x"), zx("x"), zx("x")),
        (zx("2"), zx("1"), zx("x")),
    ]:
        res, expected = run_relation(1, p1, g, p2=p2)
        assert expected == arf_normalize((p1 * p2 * g * g).mod2())
        assert res.arf == expected


def test_machine_zero_relations():
    assert run_relation(2, zx("x"), zx("1"))[0].arf == ArfClass.zero()
    assert run_relation(3, zx("x+x^2"), zx("x"))[0].arf == ArfClass.zero()
    assert run_relation(4, zx("x"), zx("x"))[0].arf == ArfClass.zero()


def test_stages_reject_the_evaluated_complex():
    """The stages take the Z[C2][x] complex and read its legs; its T -> -1
    evaluation over Z[x] has no legs."""
    f, ncd, _ = fixture(1, zx("x"), zx("1+x"), zx("2*x"))
    c = formation_to_complex(f)
    ci = QuadComplex1(c.psi0t.i_minus(), c.psi1.i_minus())
    hat = build_psi_hat(c, ncd)
    for stage in (check_desymmetrization, build_psi_hat, build_null_cobordism):
        with pytest.raises(RingTagError):
            stage(ci, ncd)
    with pytest.raises(RingTagError):
        build_union(ci, hat, build_null_cobordism(c, ncd))
    res = run_machine(f, ncd)
    assert res.complex.psi1 == c.psi1
    assert res.psi_hat.psi1 == hat.psi1


# SHA-256 of the formatted psi1-hat, d_D, big and reduced obstruction forms
# of relations 1-4 on the degree-1 grid below, as computed by the stage-by-
# stage pipeline before run_machine evaluated the complex once and arf read
# the tracked quadratic values.
MACHINE_DIGEST = "c9b8e8ae77156602b1c98eba621cf64abfebabaf856826a92ecd161abde03dba"


def test_machine_golden_digest():
    ps = int_polys(1)
    cases = [
        (1, p1, g, p2)
        for i, p1 in enumerate(ps)
        for p2 in ps[i:]
        for g in ps
        if not ((p1 * g).constant or (p2 * g).constant or ((p1 + p2) * g).constant)
    ]
    cases += [
        (k, p, g, None)
        for k in (2, 3, 4)
        for p in ps
        for g in ps
        if k == 3 or not (p * g).constant
    ]
    assert len(cases) == 342
    h = hashlib.sha256()
    for k, p, g, p2 in cases:
        res, expected = run_relation(k, p, g, p2)
        assert res.arf == expected
        obs = res.obstruction
        for m in (res.psi_hat.psi1, res.null_cobordism.d_d, obs.big.psi, obs.reduced.psi):
            h.update(format_matrix(m).encode() + b"\n")
    assert h.hexdigest() == MACHINE_DIGEST


def test_machine_stage_list():
    assert complexes.STAGES == (
        "complex",
        "desymmetrization",
        "psi-hat",
        "null-cobordism",
        "union",
        "obstruction",
        "arf",
    )


SLACK_FIXTURES = [(1, "x", "1", "x"), (1, "x^2", "1+x", "x"), (2, "x", "1", None), (4, "x", "x", None)]


@st.composite
def chi_slack(draw):
    """A relation fixture and an antisymmetric Z[x] matrix of degree <= 2
    of the witness's size."""
    k, p, g, p2 = draw(st.sampled_from(SLACK_FIXTURES))
    f, ncd, expected = fixture(k, zx(p), zx(g), zx(p2) if p2 else None)
    n = ncd.p_rank
    entry = st.lists(st.integers(-3, 3), max_size=3).map(PolyInt)
    rows = [[PolyInt.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            rows[j][i] = -rows[i][j]
    return f, ncd, expected, Mat(rows, PolyInt)


@settings(max_examples=40, deadline=None)
@given(chi_slack())
def test_machine_chi_slack_invariance(case):
    f, ncd, expected, slack = case
    res = run_machine(f, dataclasses.replace(ncd, chi=ncd.chi + slack))
    assert res.arf == expected


def test_machine_rejects_broken_witness():
    f, ncd, _ = fixture(3, zx("x"), zx("1"))
    rows = [list(r) for r in ncd.chi.entries]
    rows[1][2] = rows[1][2] + PolyInt((1,))
    with pytest.raises(StageError) as err:
        run_machine(f, dataclasses.replace(ncd, chi=Mat(rows, PolyInt)))
    assert err.value.stage == "desymmetrization"


MUTATION_FIXTURES = [(1, "x", "1", "x"), (2, "x", "1", None), (3, "x", "1", None), (4, "x", "x", None)]


def _bumped(m, i, j, delta):
    rows = [list(r) for r in m.entries]
    rows[i][j] = rows[i][j] + PolyInt((delta,))
    return Mat(rows, PolyInt)


def test_machine_rejects_every_single_entry_witness_mutation():
    """Adding +1, -1 or +2 to any one entry of pi or of chi, with the
    fixture's composite kept, is refused at the de-symmetrization stage for
    relations 1-4: 504 mutations.  The 134 mutated pi that have a composite
    pi^{-1} d^* over Z[x] are also run with it, and the de-symmetrization
    identity refuses each of them."""
    tried = solved = 0
    for k, p, g, p2 in MUTATION_FIXTURES:
        f, ncd, _ = fixture(k, zx(p), zx(g), zx(p2) if p2 else None)
        n = ncd.p_rank
        two_id = Mat.scalar(n, 2, PolyInt)
        for i in range(n):
            for j in range(n):
                for delta in (1, -1, 2):
                    bad_pi = _bumped(ncd.pi, i, j, delta)
                    bads = [
                        dataclasses.replace(ncd, pi=bad_pi),
                        dataclasses.replace(ncd, chi=_bumped(ncd.chi, i, j, delta)),
                    ]
                    try:
                        bads.append(dataclasses.replace(ncd, pi=bad_pi, pi_inv_d=solve_right(bad_pi, two_id)))
                        solved += 1
                    except rings.AlgebraError:
                        pass
                    for bad in bads:
                        with pytest.raises(StageError) as err:
                            run_machine(f, bad)
                        assert err.value.stage == "desymmetrization", (k, i, j, delta)
                    tried += 2
    assert (tried, solved) == (504, 134)


# -- the witnesses' closed-form composites pi^{-1} d^*


def _composite_is_solved(k, p, g, p2=None, solved=None) -> bool:
    """Whether relation_fixture accepts these parameters; if it does, its
    composite must be what fraction-free elimination gives for its pi and
    d^* = 2*Id (formation_to_complex's d).  `solved` caches the
    eliminations as (pi, composite) pairs."""
    try:
        _, ncd, _ = relation_fixture(k, p, g, p2)
    except PrecondError:
        return False
    solved = [] if solved is None else solved
    want = next((a for pi, a in solved if pi == ncd.pi), None)
    if want is None:
        want = solve_right(ncd.pi, Mat.scalar(ncd.p_rank, 2, PolyInt))
        solved.append((ncd.pi, want))
    assert ncd.pi_inv_d == want, (k, p, g, p2)
    return True


def test_fixture_composites_against_solve_right_on_the_degree_2_space():
    ps = int_polys(2)
    accepted, solved = Counter(), []
    for k in (1, 2, 3, 4):
        for p in ps:
            for g in ps:
                for p2 in ps if k == 1 else (None,):
                    accepted[k] += _composite_is_solved(k, p, g, p2, solved)
    assert accepted == {1: 8019, 2: 405, 3: 729, 4: 405}
    assert len(solved) == 3 + 27  # relations 1-3 have one pi each, relation 4 one per p


@st.composite
def fixture_params(draw):
    """A relation and parameters of degree <= 4 with coefficients -5..5
    that relation_fixture accepts: make_M needs p*g (and p2*g) in x*Z[x],
    so g or else p and p2 have constant coefficient 0."""
    k = draw(st.sampled_from((1, 2, 3, 4)))
    p, g, p2 = (draw(st.lists(st.integers(-5, 5), min_size=5, max_size=5)) for _ in range(3))
    if draw(st.booleans()):
        g[0] = 0
    else:
        p[0] = p2[0] = 0
    return k, PolyInt(p), PolyInt(g), PolyInt(p2) if k == 1 else None


@settings(max_examples=60, deadline=None)
@given(fixture_params())
def test_fixture_composites_against_solve_right_on_random_parameters(params):
    assert _composite_is_solved(*params)


def test_witness_composite_is_checked():
    f, ncd, _ = fixture(4, zx("x"), zx("x"))
    with pytest.raises(RingTagError):
        dataclasses.replace(ncd, pi_inv_d=ncd.pi_inv_d.mod2())
    with pytest.raises(ShapeError):
        dataclasses.replace(ncd, pi_inv_d=Mat.identity(3, PolyInt))


def test_fixture_runs_never_solve_and_bare_witnesses_cannot_be_built(monkeypatch):
    """A fixture witness's composite is checked by one product, with no
    elimination; a witness without a composite cannot be built."""
    solves = Counter()
    monkeypatch.setattr(complexes, "solve_right", lambda *args: solves.update(["n"]))
    for k, p, g, p2 in MUTATION_FIXTURES:
        f, ncd, expected = fixture(k, zx(p), zx(g), zx(p2) if p2 else None)
        assert run_machine(f, ncd).arf == expected
        with pytest.raises(TypeError):
            NullCobordismData(ncd.pi, ncd.chi)
        with pytest.raises(RingTagError):
            dataclasses.replace(ncd, pi_inv_d=None)
    assert solves["n"] == 0


def test_witness_fields_must_be_zx_matrices():
    """A field that is not a matrix is a RingTagError, not an
    AttributeError escaping the constructor."""
    _, ncd, _ = fixture(2, zx("x"), zx("1"))
    for field in ("pi", "chi", "pi_inv_d"):
        for value in (None, zx("x"), [[1]]):
            with pytest.raises(RingTagError):
                dataclasses.replace(ncd, **{field: value})


def test_machine_rejects_a_composite_wrong_in_one_entry():
    tried = 0
    for k, p, g, p2 in MUTATION_FIXTURES:
        f, ncd, _ = fixture(k, zx(p), zx(g), zx(p2) if p2 else None)
        n = ncd.p_rank
        for i in range(n):
            for j in range(n):
                for delta in (1, -1):
                    bad = dataclasses.replace(ncd, pi_inv_d=_bumped(ncd.pi_inv_d, i, j, delta))
                    with pytest.raises(StageError) as err:
                        run_machine(f, bad)
                    assert err.value.stage == "desymmetrization", (k, i, j, delta)
                    assert "invalid pi" in str(err.value)
                    tried += 1
    assert tried == 168


# -- base change fixture


def test_alpha_pullback():
    for p1, p2, g in [
        (zx("x"), zx("x"), zx("1")),
        (zx("x^2"), zx("1+x"), zx("x")),
        (zx("0"), zx("x"), zx("1+x^2")),
    ]:
        assert alpha_pullback_check(p1, p2, g)


def test_alpha_pullback_matches_machine_output():
    p1, p2, g = zx("x"), zx("x"), zx("1")
    f, ncd, _ = fixture(1, p1, g, p2)
    c = formation_to_complex(f)
    hat = build_psi_hat(c, ncd)
    bundle = build_null_cobordism(c, ncd)
    obs = instant_obstruction(build_union(c, hat, bundle))
    # the reduced obstruction has the displayed pairing and quadratic vector
    lam = obs.reduced.symmetrization()
    assert lam == (ncd.chi + ncd.chi.conj_t()).mod2()
    assert arf(obs.reduced) == arf_normalize((p1 * p2 * g * g).mod2())
