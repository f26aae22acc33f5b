import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cofactor_adjugate, f2, obj_mul, zx

from unilc2 import rim
from unilc2.formations import is_contractible, is_graph, make_Q
from unilc2.forms import (
    QuadraticForm,
    SymplecticBasis,
    direct_sum,
    hyperbolic,
    make_P,
    symplectic_reduce,
)
from unilc2.rim import (
    AssemblyError,
    BoundaryInput,
    LiftError,
    boundary,
    boundary_steps,
    canonical_P_lifts,
    compute_chi_prime,
    default_lift,
    expected_fixture_steps,
    _assemble,
    _unimodular_lift,
)
from unilc2.rings import Mat, PolyF2, PolyInt, PrecondError, clmul, parse_matrix, spread_bits


def test_chi_prime_of_the_family():
    q = f2("x")
    assert compute_chi_prime(make_P(q, f2("1"))) == parse_matrix("[1,0;1,x]", PolyF2)


def test_chi_prime_of_hyperbolic():
    assert compute_chi_prime(hyperbolic(1)) == parse_matrix("[0,0;1,0]", PolyF2)


def test_phi_prime_self_inverse():
    phi = make_P(f2("x"), f2("1")).symmetrization()
    assert phi * phi == Mat.identity(2, PolyF2)


def test_default_lift():
    m = parse_matrix("[1,0;1,x]", PolyF2)
    lifted = default_lift(m)
    assert lifted == parse_matrix("[1,0;1,x]", PolyInt)
    assert lifted.mod2() == m


def test_canonical_lifts_differ_from_default():
    q = zx("x")
    _, chi = canonical_P_lifts(q)
    assert chi == parse_matrix("[-1,0;1,-x]", PolyInt)
    assert chi != default_lift(parse_matrix("[1,0;1,x]", PolyF2))
    assert chi.mod2() == parse_matrix("[1,0;1,x]", PolyF2)


def test_lift_validation():
    q = zx("x")
    form = make_P(q.mod2(), PolyF2.one())
    psi, chi = canonical_P_lifts(q)
    with pytest.raises(LiftError):
        BoundaryInput(form, psi + Mat.identity(2, PolyInt), chi)
    with pytest.raises(LiftError):
        BoundaryInput(form, psi, chi + Mat.identity(2, PolyInt))


@pytest.mark.parametrize("qtext", ["x", "x^2", "x+x^3", "x^5", "2*x"])
def test_boundary_fixture(qtext):
    q = zx(qtext)
    assert boundary(BoundaryInput(make_P(q.mod2(), PolyF2.one()), *canonical_P_lifts(q))) == make_Q(q)


def test_boundary_intermediates():
    q = zx("x^2")
    inp = BoundaryInput(make_P(q.mod2(), PolyF2.one()), *canonical_P_lifts(q))
    steps = boundary_steps(inp)
    exp1, exp2 = expected_fixture_steps(q)
    assert steps.over_phi.gamma[0] == exp1["gamma"]
    assert steps.over_phi.mu[0] == exp1["mu"]
    assert steps.over_phi.theta[0] == exp1["theta"]
    assert steps.over_id.gamma[0] == exp2["gamma"]
    assert steps.over_id.mu[0] == exp2["mu"]
    assert steps.over_id.theta[0] == exp2["theta"]
    # second legs: zero, identity, zero throughout
    assert steps.over_id.gamma[1].is_zero()
    assert steps.over_id.mu[1] == Mat.identity(2, PolyInt)
    assert steps.over_id.theta[1].is_zero()
    assert steps.result == make_Q(q)


def test_boundary_output_hessian():
    for qtext in ("x", "x+x^2"):
        q = zx(qtext)
        inp = BoundaryInput(make_P(q.mod2(), PolyF2.one()), *canonical_P_lifts(q))
        assert boundary(inp).hessian_holds()


def test_boundary_of_hyperbolic_with_default_lifts():
    """The boundary of the hyperbolic form represents zero.

    Its gamma is identically zero mod 2 (as for every boundary output), so
    it is not a graph formation; the zero class is certified by mu being
    invertible, which makes the associated complex contractible.
    """
    out = boundary(BoundaryInput.with_default_lifts(hyperbolic(1)))
    assert out.hessian_holds()
    assert out.gamma.mod2().is_zero()
    assert not is_graph(out)
    assert is_contractible(out)


def test_boundary_gamma_always_even():
    for qtext in ("x", "x^3"):
        q = zx(qtext)
        out = boundary(
            BoundaryInput(make_P(q.mod2(), PolyF2.one()), *canonical_P_lifts(q))
        )
        assert out.gamma.mod2().is_zero()


def test_lift_independence_gamma_law():
    q = zx("x")
    form = make_P(q.mod2(), PolyF2.one())
    psi, chi1 = canonical_P_lifts(q)
    chi2 = default_lift(compute_chi_prime(form))
    out1 = boundary(BoundaryInput(form, psi, chi1))
    out2 = boundary(BoundaryInput(form, psi, chi2))
    assert out1.mu == out2.mu
    assert is_graph(out1) == is_graph(out2)
    delta = chi1 - chi2
    phi = psi + psi.conj_t()
    phi_tilde = default_lift(form.symmetrization())
    want = _assemble(
        (-((delta + delta.conj_t()) * phi) * phi_tilde, Mat.zeros(2, 2, PolyInt))
    )
    assert out1.gamma - out2.gamma == want


def test_assembly_rejects_incongruent_pairs():
    with pytest.raises(AssemblyError):
        _assemble((Mat.identity(2, PolyInt), Mat.zeros(2, 2, PolyInt)))


GENERIC_PSI = "[x,x,x,1;0,1+x+x^2,1+x+x^2,x;0,x^2,x^2,1+x;0,0,0,0]"


def test_unimodular_lift_of_elementary_product():
    # phi'^{-1} of the rank-4 form below: its coefficient-wise lift has det
    # 1 - 4x^2 - 4x^3, not a unit over Z[x]; U J U^T, with U the product of
    # the lifted column operations of the symplectic reduction, is unimodular
    form = QuadraticForm(parse_matrix(GENERIC_PSI, PolyF2), 1)
    phi_inv = BoundaryInput.with_default_lifts(form).phi_inv
    assert form.symmetrization() * phi_inv == Mat.identity(4, PolyF2)
    assert all(not phi_inv[i, i] for i in range(4)) and phi_inv == phi_inv.conj_t()
    assert phi_inv.det() == f2("1")
    assert not default_lift(phi_inv).det().is_unit()
    lift = _unimodular_lift(symplectic_reduce(form), phi_inv)
    assert lift.mod2() == phi_inv
    assert lift.det().is_unit()


def test_generic_boundary_input():
    """A rank-4 even nonsingular form outside the rank-2 family whose
    symmetrization and its inverse have no unimodular coefficient-wise
    lift, so assembly needs the lift read off the symplectic reduction."""
    form = QuadraticForm(parse_matrix(GENERIC_PSI, PolyF2), 1)
    assert form.is_nonsingular() and form.is_even()
    assert not default_lift(form.symmetrization()).det().is_unit()
    out = boundary(BoundaryInput.with_default_lifts(form))
    assert out.hessian_holds()
    assert out.gamma.mod2().is_zero()


# -- dense forms moved by a unimodular base change


def dense_unimodular(rng, n):
    """P * L * U: unit triangular factors with entries of degree <= 2 and a
    permutation, so elimination needs row swaps and Euclid steps."""
    one, zero = PolyF2.one(), PolyF2.zero()
    lo = Mat([[one if i == j else PolyF2(rng.getrandbits(3)) if i > j else zero
               for j in range(n)] for i in range(n)], PolyF2)
    up = Mat([[one if i == j else PolyF2(rng.getrandbits(3)) if i < j else zero
               for j in range(n)] for i in range(n)], PolyF2)
    perm = list(range(n))
    rng.shuffle(perm)
    p = Mat([[one if perm[i] == j else zero for j in range(n)] for i in range(n)], PolyF2)
    return p * lo * up


def dense_boundary_form(rng, rank):
    """A make_P block sum moved by a dense unimodular matrix, with a random
    alternating slack A + A^T added to psi (it leaves the symmetrization
    unchanged)."""
    blocks = [make_P(PolyF2(rng.getrandbits(3)), PolyF2(rng.getrandbits(3)))
              for _ in range(rank // 2)]
    form = blocks[0]
    for b in blocks[1:]:
        form = direct_sum(form, b)
    psi = form.transport(dense_unimodular(rng, rank)).psi
    a = Mat([[PolyF2(rng.getrandbits(2)) for _ in range(rank)] for _ in range(rank)], PolyF2)
    return QuadraticForm(psi + a + a.conj_t(), 1)


def test_chi_prime_against_adjugate_on_dense_forms():
    rng = random.Random(47)
    for rank in (2, 4, 6, 8):
        for _ in range(3):
            form = dense_boundary_form(rng, rank)
            adj = cofactor_adjugate(form.symmetrization())
            assert compute_chi_prime(form) == adj * form.psi * adj


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8]))
def test_unimodular_lift_on_dense_forms(seed, rank):
    inp = BoundaryInput.with_default_lifts(dense_boundary_form(random.Random(seed), rank))
    lift = _unimodular_lift(inp.basis, inp.phi_inv)
    assert lift.mod2() == inp.phi_inv
    assert lift.det().is_unit()
    assert boundary(inp).hessian_holds()
    if rank == 2:
        # a rank-2 unimodular alternating pairing is J: no column operations
        assert lift == default_lift(inp.phi_inv)


# -- phi'^{-1} = u J u^T from the one symplectic reduction


boundary_forms = st.one_of(
    st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8])).map(
        lambda sr: dense_boundary_form(random.Random(sr[0]), sr[1])
    ),
    st.integers(1, 4).map(hyperbolic),
)


@settings(max_examples=60, deadline=None)
@given(boundary_forms)
def test_phi_inv_from_the_reduction_against_gauss_jordan(form):
    inp = BoundaryInput.with_default_lifts(form)
    phi = form.symmetrization()
    assert phi * inp.phi_inv == Mat.identity(form.rank, PolyF2)
    assert compute_chi_prime(form) == inp.phi_inv * form.psi * inp.phi_inv
    if form.rank == 2:
        # a rank-2 unimodular alternating pairing is J: no column operations
        assert inp.basis.ops == ()


@pytest.mark.parametrize(
    "text",
    [
        "[x,1;1,0]",  # phi' = [0,0;0,0]
        "[0,x;0,0]",  # phi' = [0,x;x,0], det x^2
        "[0,1+x;0,0]",  # det 1 + x^2
        "[0,1,0;0,0,0;0,0,0]",  # odd rank
        "[1]",  # rank 1
        "[0,1,0,0;0,0,0,0;0,0,0,x;0,0,0,0]",  # second pair's pairing x
    ],
)
def test_singular_or_odd_rank_symmetrization_is_a_precondition_error(text):
    form = QuadraticForm(parse_matrix(text, PolyF2), 1)
    with pytest.raises(PrecondError):
        compute_chi_prime(form)
    with pytest.raises(PrecondError):
        BoundaryInput.with_default_lifts(form)


def test_dropped_operation_fails_the_lift_check():
    """The replay is checked against phi'^{-1}: a basis missing one of its
    recorded operations, an add or a swap, no longer lifts it."""
    inp = BoundaryInput.with_default_lifts(QuadraticForm(parse_matrix(GENERIC_PSI, PolyF2), 1))
    ops = inp.basis.ops
    kinds = {op[0] for op in ops}
    assert kinds == {"add", "swap"}
    assert _unimodular_lift(inp.basis, inp.phi_inv).mod2() == inp.phi_inv
    for kind in ("add", "swap"):
        i = next(i for i, op in enumerate(ops) if op[0] == kind)
        broken = dataclasses.replace(inp.basis, ops=ops[:i] + ops[i + 1:])
        with pytest.raises(AssemblyError):
            _unimodular_lift(broken, inp.phi_inv)


# -- the unit determinant, checked on the factor U


def j_matrix(n):
    """J over Z[x]: the columns of each pair of Id exchanged."""
    one, zero = PolyInt.one(), PolyInt.zero()
    return Mat([[one if j == i ^ 1 else zero for j in range(n)] for i in range(n)], PolyInt)


@pytest.mark.parametrize(
    "seed_rank", [(seed, rank) for rank in (2, 4, 6, 8) for seed in (53, 54, 55)] + [None], ids=str
)
def test_lift_determinant_is_det_J_times_det_U_squared(seed_rank):
    """det(U J U^T) = det J * det(U)^2, with U from the object-level
    replay, and det U = +-1, on dense forms and the generic rank-4 form:
    so the lift is unimodular exactly when its factor U is, which is
    where _unimodular_lift checks it."""
    if seed_rank is None:
        form = QuadraticForm(parse_matrix(GENERIC_PSI, PolyF2), 1)
    else:
        form = dense_boundary_form(random.Random(seed_rank[0]), seed_rank[1])
    inp = BoundaryInput.with_default_lifts(form)
    lift = _unimodular_lift(inp.basis, inp.phi_inv)
    det_u = Mat(polyint_factor(inp.basis), PolyInt).det()
    assert det_u in (PolyInt.one(), -PolyInt.one())
    assert lift.det() == j_matrix(lift.rows).det() * det_u * det_u


def test_non_unimodular_factor_fails_the_lift_check(monkeypatch):
    """A factor congruent to u mod 2 but not unimodular passes the mod-2
    check and must fail the determinant check: an appended u_0 += u_0,
    whose multiplier is lifted to 2 instead of 1, scales column 0 of U by
    3 (u_0 + u_0 is 0 over F2[x], but 3 u_0 reduces to u_0)."""
    inp = BoundaryInput.with_default_lifts(QuadraticForm(parse_matrix(GENERIC_PSI, PolyF2), 1))
    basis = dataclasses.replace(inp.basis, ops=inp.basis.ops + (("add", 0, 0, 1),))
    adds = sum(op[0] == "add" for op in basis.ops)
    calls = []

    def lift_multiplier(b, k):
        calls.append(b)
        return 2 if len(calls) == adds else spread_bits(b, k)

    monkeypatch.setattr(rim, "spread_bits", lift_multiplier)
    with pytest.raises(AssemblyError, match="is not unimodular"):
        _unimodular_lift(basis, inp.phi_inv)
    assert len(calls) == adds


def test_lift_failures_have_distinct_messages():
    inp = BoundaryInput.with_default_lifts(QuadraticForm(parse_matrix(GENERIC_PSI, PolyF2), 1))
    i = next(i for i, op in enumerate(inp.basis.ops) if op[0] == "add")
    broken = dataclasses.replace(inp.basis, ops=inp.basis.ops[:i] + inp.basis.ops[i + 1:])
    with pytest.raises(AssemblyError, match=r"does not reduce to phi'\^-1"):
        _unimodular_lift(broken, inp.phi_inv)


# -- the packed replay against the object-level one


def polyint_factor(basis):
    """Oracle: U^T as rows of PolyInt objects (the columns of U), U the
    basis's column operations replayed on Id entry by entry with each
    multiplier lifted coefficient-wise (the replay the packed columns
    replaced)."""
    n = basis.u.rows
    one, zero = PolyInt.one(), PolyInt.zero()
    cols = [[one if i == j else zero for i in range(n)] for j in range(n)]
    for op in basis.ops:
        if op[0] == "swap":
            _, i, j = op
            cols[i], cols[j] = cols[j], cols[i]
        else:
            _, tgt, src, f = op
            fl = PolyInt(PolyF2(f).coeffs)
            cols[tgt] = [a + fl * b for a, b in zip(cols[tgt], cols[src])]
    return cols


def polyint_lift(basis):
    """Oracle: U J U^T as rows of PolyInt objects, U from polyint_factor."""
    cols = polyint_factor(basis)
    n = len(cols)
    # U J is U with the columns of each pair exchanged; U^T has rows cols
    u_j = [[cols[j ^ 1][i] for j in range(n)] for i in range(n)]
    return obj_mul(u_j, cols, n, PolyInt.zero())


@st.composite
def recorded_bases(draw):
    """(basis, phi_inv) at ranks 2-8: ops drawn as adds, with multipliers of
    degree < 3 or of degree 64-80, and swaps; u is their replay over F2[x],
    and phi_inv = u J u^T, the matrix the lift must reduce to."""
    n = 2 * draw(st.integers(1, 4))
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    multipliers = st.one_of(st.integers(1, 7), st.integers(2**64, 2**81 - 1))
    ops = []
    for tgt, src, f, swap in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), multipliers, st.booleans()),
        max_size=2 * n,
    )):
        if tgt == src:
            continue
        if swap:
            ops.append(("swap", tgt, src))
            cols[tgt], cols[src] = cols[src], cols[tgt]
        else:
            ops.append(("add", tgt, src, f))
            cols[tgt] = [a ^ clmul(f, b) for a, b in zip(cols[tgt], cols[src])]
    u = Mat.from_bits([list(r) for r in zip(*cols)], n)
    u_j = Mat.from_bits([[cols[j ^ 1][i] for j in range(n)] for i in range(n)], n)
    return SymplecticBasis(u, (), tuple(ops)), u_j * u.conj_t()


def reduced_basis(seed_rank):
    """(basis, phi_inv) of the boundary input of a dense form."""
    inp = BoundaryInput.with_default_lifts(dense_boundary_form(random.Random(seed_rank[0]), seed_rank[1]))
    return inp.basis, inp.phi_inv


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    recorded_bases(),
    st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8])).map(reduced_basis),
))
def test_packed_lift_against_the_polyint_replay(case):
    basis, phi_inv = case
    lift, want = _unimodular_lift(basis, phi_inv), polyint_lift(basis)
    assert lift == Mat(want, PolyInt)
    assert [list(r) for r in lift.entries] == want
    # the packed matrix's coefficient bound, which sizes the products it
    # takes part in, holds
    assert lift.bound >= max([abs(c) for r in want for e in r for c in e.coeffs], default=0)


def test_packed_lift_with_coefficients_past_the_first_slot_width():
    """Eighty alternating operations with multiplier 1 + x on a rank-2 basis
    push U's coefficients past 2^64, so the slots are packed wider than
    MIN_SLOT_BITS, and the bound of the packed factors must hold for
    their product to come out exact."""
    ops = tuple(("add", i % 2, 1 - i % 2, 0b11) for i in range(80))
    cols = [[1, 0], [0, 1]]
    for _, tgt, src, f in ops:
        cols[tgt] = [a ^ clmul(f, b) for a, b in zip(cols[tgt], cols[src])]
    u = Mat.from_bits([list(r) for r in zip(*cols)], 2)
    u_j = Mat.from_bits([[cols[j ^ 1][i] for j in range(2)] for i in range(2)], 2)
    basis = SymplecticBasis(u, (), ops)
    want = polyint_lift(basis)
    assert max(c for r in want for e in r for c in e.coeffs) > 2**64
    assert [list(r) for r in _unimodular_lift(basis, u_j * u.conj_t()).entries] == want


# -- the coefficient-wise lift read off bitmasks


def object_lift(m):
    """The coefficient-wise lift built from ring objects."""
    return Mat._raw(tuple(tuple(PolyInt._raw(e.coeffs) for e in r) for r in m.entries), PolyInt, m.cols)


f2_bits = st.one_of(st.sampled_from([0, 1]), st.integers(0, 2**8), st.integers(2**64, 2**130))


@st.composite
def f2_matrices(draw):
    """F2[x] matrices of every shape up to 4 x 4, 0 x 0 and n x 0 included,
    with entries 0 and 1, short ones and ones of degree >= 64."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return Mat.from_bits([[draw(f2_bits) for _ in range(c)] for _ in range(r)], c)


@given(f2_matrices())
def test_default_lift_against_the_object_lift(m):
    lifted, want = default_lift(m), object_lift(m)
    assert (lifted.rows, lifted.cols) == (m.rows, m.cols)
    assert lifted == want
    assert hash(lifted) == hash(want)
    assert lifted.entries == want.entries
    assert lifted.mod2() == m
