"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with its elapsed time and asserts
both the verified statement and the stated time budget.  Sweep defaults:
degrees <= 3 with coefficients {0,1,2} for algebraic identities; the
machine pipelines run on the documented smaller slice (degree <= 2 for
triples and for pairs) that the CLI exposes as its defaults.
"""

import itertools
import random
import time

from conftest import f2, int_polys, pg_sweep, zx

from unilc2 import complexes, formations, forms, rim, witt
from unilc2.forms import ArfClass, arf, arf_normalize, make_P
from unilc2.rings import C2Poly, Mat, ONE_MINUS_T, PolyF2, PolyInt, parse_matrix


def report(name, started, budget):
    elapsed = time.perf_counter() - started
    print(f"criterion {name}: PASS ({elapsed:.2f} s, budget {budget} s)")
    assert elapsed < budget, f"criterion {name} exceeded its {budget} s budget"


def test_criterion_1_boundary_fixture():
    """Boundary of the rank-2 family reproduces the Q-generator exactly,
    both intermediate displays included, for four parameter values."""
    t0 = time.perf_counter()
    for q in (zx("x"), zx("x^2"), zx("x+x^3"), zx("x^5")):
        inp = rim.BoundaryInput(
            make_P(q.mod2(), PolyF2.one()), *rim.canonical_P_lifts(q)
        )
        steps = rim.boundary_steps(inp)
        exp1, exp2 = rim.expected_fixture_steps(q)
        assert steps.over_phi.gamma[0] == exp1["gamma"]
        assert steps.over_phi.mu[0] == exp1["mu"]
        assert steps.over_phi.theta[0] == exp1["theta"]
        assert steps.over_id.gamma[0] == exp2["gamma"]
        assert steps.over_id.mu[0] == exp2["mu"]
        assert steps.over_id.theta[0] == exp2["theta"]
        assert steps.result == formations.make_Q(q)
    report("1 (boundary fixture)", t0, 1.0)


def test_criterion_2_duality_units():
    """((1-T)pg - 1)^2 = 1 mod 2 and the duality verdict for the whole
    sweep of generator parameters."""
    t0 = time.perf_counter()
    one = C2Poly.one()
    n = 0
    for p, g in pg_sweep():
        d = ONE_MINUS_T * C2Poly.from_polyint(p * g) - one
        assert (d * d).congruent_mod2(one)
        assert formations.verify_poincare(formations.make_M(p, g))
        n += 1
    assert n == 3645  # pairs with zero constant product in the default sweep
    report("2 (duality units)", t0, 5.0)


def test_criterion_3_lift_fixtures():
    """T -> -1 evaluations equal the resolutions exactly and T -> +1
    evaluations are graph formations, across the whole sweep."""
    t0 = time.perf_counter()
    for p, g in pg_sweep():
        m = formations.make_M(p, g)
        assert formations.i_minus(m) == formations.make_N_resolution(p, g)
        assert formations.is_graph(formations.i_plus(m))
    report("3 (evaluation fixtures)", t0, 5.0)


def test_criterion_4_machine_additivity():
    """The machine returns [p1*p2*g^2] on every additivity triple of the
    machine sweep, and the closed-form base change standardises the
    displayed rank-6 obstruction form."""
    t0 = time.perf_counter()
    ps = int_polys(2)
    n = 0
    for p1 in ps:
        for p2 in ps:
            for g in ps:
                if (p1 * g).constant or (p2 * g).constant or ((p1 + p2) * g).constant:
                    continue
                res, expected = complexes.run_relation(1, p1, g, p2=p2)
                assert expected == arf_normalize((p1 * p2 * g * g).mod2())
                assert res.arf == expected
                n += 1
    assert n == 8019
    for p1 in int_polys(2)[:6]:
        for p2 in int_polys(2)[:6]:
            for g in int_polys(2)[:6]:
                assert complexes.alpha_pullback_check(p1, p2, g)
    report("4 (machine additivity)", t0, 60.0)


def test_criterion_5_machine_zero_relations():
    """The machine returns the zero class on every pair of the machine
    sweep for the symmetry, square-associativity and square-root
    relations, with the de-symmetrization identity holding entry-wise.  A
    pair is admitted, as in the registry sweep, when every generator of the
    relation's move in witt.RULES has p*g in x*Z[x]."""
    t0 = time.perf_counter()
    ps = int_polys(2)
    cases = {}
    for k in (2, 3, 4):
        cases[k] = 0
        for p in ps:
            for g in ps:
                taken, put, _ = witt.RULES[f"R{k}"].move(p, g)
                if any((q * h).constant for q, h in taken + put):
                    continue
                f, ncd, expected = complexes.relation_fixture(k, p, g)
                c = complexes.formation_to_complex(f)
                assert complexes.check_desymmetrization(c, ncd)
                assert complexes.run_machine(f, ncd).arf == expected == ArfClass.zero()
                cases[k] += 1
    assert cases == {2: 405, 3: 729, 4: 405}
    report("5 (machine zero relations)", t0, 60.0)


def test_criterion_6_replays():
    """All four derivation scripts close across their sweeps, including
    both parity branches of the exponent-two chain for g = x^k, k <= 6."""
    t0 = time.perf_counter()
    zero = witt.GenWord.zero()
    for p, g in pg_sweep():
        assert witt.replay(
            witt.exponent_four_script(p, g), witt.exponent_four_start(p, g), zero
        )
    for tup in itertools.product((0, 1, 2), repeat=4):
        p = PolyInt((0,) + tup)
        if p:
            assert witt.replay(
                witt.idempotence_script(p), witt.idempotence_start(p), zero
            )
    for k in range(7):
        assert witt.replay(
            witt.exponent_two_script(k), witt.exponent_two_start(k), zero
        )
    for g in int_polys(3):
        assert witt.replay(
            witt.nilpotence_script(g), witt.nilpotence_start(g), zero
        )
    report("6 (derivation replays)", t0, 10.0)


def test_criterion_7_arf_algorithm():
    """arf inverts the rank-2 family on random parameters, is invariant
    under random unimodular base changes, and the normal form agrees with
    the brute-force quotient oracle through degree 12."""
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    for _ in range(50):
        q = PolyF2(rng.getrandbits(11))
        assert arf(make_P(q, PolyF2.one())) == arf_normalize(q)
    base = forms.direct_sum(make_P(f2("x+x^3"), f2("1")), forms.hyperbolic(2))
    want = arf(base)
    for _ in range(100):
        rows = [
            [PolyF2.one() if i == j else PolyF2.zero() for j in range(base.rank)]
            for i in range(base.rank)
        ]
        for _ in range(12):
            i, j = rng.randrange(base.rank), rng.randrange(base.rank)
            if i == j:
                continue
            fpoly = PolyF2(rng.getrandbits(3))
            for r in range(base.rank):
                rows[r][j] = rows[r][j] + fpoly * rows[r][i]
        assert arf(base.transport(Mat(rows, PolyF2))) == want
    # oracle: the row space of all f^2 - f with deg f <= 6
    pivots = {}
    for fbits in range(2, 1 << 7):
        fp = PolyF2(fbits)
        v = (fp * fp + fp).bits
        while v:
            lead = v.bit_length() - 1
            if lead in pivots:
                v ^= pivots[lead]
            else:
                pivots[lead] = v
                v = 0
    for bits in range(1 << 13):
        v = bits
        changed = True
        while changed:
            changed = False
            w = v
            while w:
                lead = w.bit_length() - 1
                if lead in pivots:
                    v ^= pivots[lead]
                    changed = True
                    break
                w ^= 1 << lead
        assert arf_normalize(PolyF2(bits)).to_poly().bits == v
    report("7 (arf algorithm)", t0, 10.0)


def test_criterion_8_answer_table():
    """The residue table: zero in residues 0 and 1, the Arf group in
    residue 2, and the three-summand decomposition in residue 3."""
    t0 = time.perf_counter()
    for n in (0, 1, 4, 5, 1024, 1025):
        assert witt.unil_answer(n).kind == "zero"
    for n in (2, 6, -2):
        a = witt.unil_answer(n)
        assert a.kind == "arf-group" and a.summands == (witt.ARF_GROUP,)
    a = witt.unil_answer(3)
    assert a.kind == "three-summand"
    assert a.summands[0] == witt.ARF_GROUP
    assert len(a.summands) == 3 and a.summands[1] == a.summands[2]
    report("8 (answer table)", t0, 1.0)


def _mutations():
    """Ten single-sign mutations of the two generator fixtures: entry
    negations plus T-sign flips."""
    p = g = zx("x")
    q = zx("x")
    m = formations.make_M(p, g)
    qf = formations.make_Q(q)
    flip_t = parse_matrix("[1+T]", C2Poly)[0, 0]
    out = []
    for block, i, j, value in (
        ("gamma", 0, 0, -m.gamma[0, 0]),
        ("gamma", 0, 1, -m.gamma[0, 1]),
        ("gamma", 1, 1, flip_t * C2Poly.from_polyint(g)),  # (1-T)g -> (1+T)g
        ("mu", 0, 0, -m.mu[0, 0]),
        ("theta", 1, 0, -m.theta[1, 0]),
    ):
        out.append(("M", block, i, j, value))
    for block, i, j, value in (
        ("gamma", 0, 1, -qf.gamma[0, 1]),
        ("mu", 1, 0, flip_t),                               # (1-T) -> (1+T)
        ("mu", 0, 1, -qf.mu[0, 1]),
        ("theta", 0, 0, -qf.theta[0, 0]),
        ("theta", 1, 1, -qf.theta[1, 1]),
    ):
        out.append(("Q", block, i, j, value))
    return out


def _mutate(formation, block, i, j, value):
    mats = {
        "gamma": formation.gamma,
        "mu": formation.mu,
        "theta": formation.theta,
    }
    rows = [list(r) for r in mats[block].entries]
    rows[i][j] = value
    mats[block] = Mat(rows, C2Poly)
    return formations.SplitFormation(
        mats["gamma"], mats["mu"], mats["theta"], formation.epsilon
    )


def test_criterion_9_mutation_sensitivity():
    """Each of ten single-sign fixture mutations fails at least one of the
    registry predicates (hessian identity, resolution equality, duality
    unit, boundary equality)."""
    t0 = time.perf_counter()
    p = g = zx("x")
    q = zx("x")
    base_q_input = rim.BoundaryInput(
        make_P(q.mod2(), PolyF2.one()), *rim.canonical_P_lifts(q)
    )
    boundary_out = rim.boundary(base_q_input)
    for target, block, i, j, value in _mutations():
        base = formations.make_M(p, g) if target == "M" else formations.make_Q(q)
        mutated = _mutate(base, block, i, j, value)
        assert mutated != base
        caught = not mutated.hessian_holds()
        if target == "M":
            caught = caught or formations.i_minus(mutated) != formations.make_N_resolution(p, g)
            try:
                caught = caught or not formations.verify_poincare(mutated)
            except formations.UnsupportedShapeError:
                caught = True
        else:
            caught = caught or boundary_out != mutated
        assert caught, f"mutation {target}.{block}[{i}][{j}] went undetected"
    report("9 (mutation sensitivity)", t0, 60.0)
