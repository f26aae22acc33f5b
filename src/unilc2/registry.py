"""Verification registry: every identity the package is built around, as a
named, independently runnable check.

Each check has a stable id ``module.name``, a one-line statement of what it
verifies, and a callable taking a SweepConfig and returning (ok, detail).
The sweep bounds are configuration defaults (degrees <= 3, coefficients
{0,1,2}, preconditions respected); the machine checks run on a documented
smaller slice because a full-degree sweep of chain-level pipelines is far
outside the time budget.  All bounds are overridable from the CLI, up to
the cap SWEEP_CAPS sets for each sweep.
"""

from __future__ import annotations

import fnmatch
import itertools
import random
import shlex
import time
from dataclasses import dataclass, field, replace

from . import complexes, formations, forms, rim, witt
from .forms import arf, arf_normalize, make_P
from .rings import (
    AlgebraError,
    C2Poly,
    Mat,
    MAX_EXPONENT,
    NotInImageError,
    ONE_MINUS_T,
    PolyF2,
    PolyInt,
    PrecondError,
    apply_i,
    apply_j,
    pullback_inverse,
    pullback_pair,
)

SEED = 20260808  # the random checks draw from streams SEED, SEED + 1, ...
MAX_SWEEP = 10**6  # most pairs the identity sweeps (--max-deg) may enumerate
# Most candidates one gluing-machine sweep may enumerate.  Each candidate
# that passes the precondition is a whole machine run, so this bounds the
# run time too: the default 19 683 degree-2 triples (8019 runs) took
# 6.8-7.3 s in `unilc2 verify` on a 2-core Xeon VM with CPython 3.11, and
# the degree-3 triples (531 441, 27 times as many) would take minutes.
MAX_MACHINE_SWEEP = 20_000
SWEEP_CAPS = {
    "--max-deg": MAX_SWEEP,
    "--machine-deg-pairs": MAX_MACHINE_SWEEP,
    "--machine-deg-triples": MAX_MACHINE_SWEEP,
}
# Highest degree each sweep flag accepts, checked before any sweep size is
# computed (the size grows exponentially in it): witt.nilpotence
# substitutes x -> x^2 in x*g, of degree --max-deg + 1, and no polynomial
# exceeds MAX_EXPONENT.
DEGREE_CAPS = {
    "--max-deg": MAX_EXPONENT // 2 - 1,
    "--machine-deg-pairs": MAX_EXPONENT,
    "--machine-deg-triples": MAX_EXPONENT,
}


@dataclass(frozen=True)
class SweepConfig:
    max_deg: int = 3
    coeffs: tuple = (0, 1, 2)
    machine_deg_triples: int = 2
    machine_deg_pairs: int = 2

    def __post_init__(self):
        # the sweep sizes grow exponentially in the degrees, so a degree
        # above its cap is refused before any size can be computed
        for flag, cap in DEGREE_CAPS.items():
            if (deg := getattr(self, flag[2:].replace("-", "_"))) > cap:
                raise PrecondError(f"{flag} {deg} is above the degree cap {cap}")

    def polys(self, max_deg=None, coeffs=None):
        md = self.max_deg if max_deg is None else max_deg
        cs = self.coeffs if coeffs is None else coeffs
        return [PolyInt(t) for t in itertools.product(cs, repeat=md + 1)]

    def sweep_sizes(self) -> dict:
        """Candidates each sized sweep enumerates, by the flag setting its
        degree (the keys of SWEEP_CAPS): pairs for the identity sweeps
        (whose fixed degree-2 pairs count too) and the machine pairs,
        triples for machine additivity."""
        def count(deg, arity):
            return (len(self.coeffs) ** (deg + 1)) ** arity

        return {
            "--max-deg": count(max(self.max_deg, 2), 2),
            "--machine-deg-pairs": count(self.machine_deg_pairs, 2),
            "--machine-deg-triples": count(self.machine_deg_triples, 3),
        }

    def pg_pairs(self, max_deg=None):
        """All (p, g) with p*g having zero constant coefficient."""
        ps = self.polys(max_deg)
        return [(p, g) for p in ps for g in ps if (p * g).constant == 0]


def _rand_polyint(rng, max_deg, bound=3) -> PolyInt:
    return PolyInt([rng.randint(-bound, bound) for _ in range(max_deg + 1)])


def _rand_polyf2(rng, max_deg) -> PolyF2:
    return PolyF2(rng.getrandbits(max_deg + 1))


def _rand_c2poly(rng, max_deg, bound=3) -> C2Poly:
    return C2Poly.from_parts(
        _rand_polyint(rng, max_deg, bound), _rand_polyint(rng, max_deg, bound)
    )


# ---------------------------------------------------------------------------
# rings


def _c2_const(m: int, n: int) -> C2Poly:
    return C2Poly.from_parts(PolyInt((m,)), PolyInt((n,)))


def check_c2_mult_table(cfg):
    one, t = C2Poly.one(), C2Poly.t()
    table = [
        (one * one, one),
        (one * t, t),
        (t * one, t),
        (t * t, one),
        (_c2_const(2, 3) * _c2_const(5, -1), _c2_const(2 * 5 + 3 * -1, 2 * -1 + 3 * 5)),
    ]
    bad = [f"{a} != {b}" for a, b in table if a != b]
    return not bad, "; ".join(bad) or "multiplication table of the order-2 group holds"


def check_one_minus_t_square(cfg):
    lhs = ONE_MINUS_T * ONE_MINUS_T
    rhs = C2Poly.from_int(2) * ONE_MINUS_T
    return lhs == rhs, f"(1-T)^2 = {lhs}"


def check_ring_axioms(cfg):
    rng = random.Random(SEED)
    for _ in range(60):
        for make in (
            lambda: _rand_polyint(rng, 4),
            lambda: _rand_polyf2(rng, 6),
            lambda: _rand_c2poly(rng, 3),
        ):
            a, b, c = make(), make(), make()
            if (a * b) * c != a * (b * c):
                return False, "associativity fails"
            if a * (b + c) != a * b + a * c:
                return False, "distributivity fails"
            if (a * b).conj() != b.conj() * a.conj():
                return False, "involution is not an anti-automorphism"
    return True, "ring axioms on randomized inputs over all three rings"


def check_square_commutes(cfg):
    rng = random.Random(SEED + 1)
    for _ in range(200):
        a = _rand_c2poly(rng, 4)
        if apply_j(apply_i(-1, a)) != apply_j(apply_i(1, a)):
            return False, f"square does not commute at {a}"
    return True, "mod-2 reduction after either T-evaluation agrees"


def check_pullback_iso(cfg):
    rng = random.Random(SEED + 2)
    for _ in range(200):
        a, b = _rand_c2poly(rng, 4), _rand_c2poly(rng, 4)
        ua, va = pullback_pair(a)
        ub, vb = pullback_pair(b)
        if pullback_inverse(ua, va) != a:
            return False, "round trip fails"
        if pullback_pair(a * b) != (ua * ub, va * vb):
            return False, "multiplication does not commute with the pair map"
        if pullback_pair(a + b) != (ua + ub, va + vb):
            return False, "addition does not commute with the pair map"
    try:
        pullback_inverse(PolyInt((0,)), PolyInt((1,)))
        return False, "parity obstruction not detected"
    except NotInImageError:
        pass
    return True, "fibre-product isomorphism round-trips and is a ring map"


def check_unit_mod2_inverse(cfg):
    rng = random.Random(SEED + 3)
    count = 0
    for _ in range(400):
        u = _rand_c2poly(rng, 3)
        if not u.is_unit_mod2():
            continue
        count += 1
        v = u.inverse_mod2()
        if not (u * v).congruent_mod2(C2Poly.one()):
            return False, f"inverse fails for {u}"
    return count > 20, f"verified {count} nilpotent-part inverses"


def check_duality_unit_sweep(cfg):
    one = C2Poly.one()
    two = C2Poly.from_int(2)
    n = 0
    for p, g in cfg.pg_pairs():
        d = ONE_MINUS_T * C2Poly.from_polyint(p * g) - one
        if not (d * d).congruent_mod2(one):
            return False, f"square of the duality determinant is not 1 mod 2 at ({p},{g})"
        if not d.is_unit_mod2():
            return False, f"duality determinant not a unit mod 2 at ({p},{g})"
        n += 1
    return True, f"duality determinant is a unit mod 2 on {n} parameter pairs"


# ---------------------------------------------------------------------------
# forms


def check_arf_p_family(cfg):
    rng = random.Random(SEED + 4)
    for _ in range(50):
        q = _rand_polyf2(rng, 10)
        form = make_P(q, PolyF2.one())
        if arf(form) != arf_normalize(q):
            return False, f"arf of the rank-2 family at q={q} is wrong"
    return True, "arf inverts the rank-2 family on 50 random parameters"


def _random_unimodular(rng, n) -> Mat:
    u = Mat.identity(n, PolyF2)
    rows = [list(r) for r in u.entries]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = _rand_polyf2(rng, 2)
        for r in range(n):
            rows[r][j] = rows[r][j] + f * rows[r][i]
    return Mat(rows, PolyF2)


def check_arf_basis_invariance(cfg):
    rng = random.Random(SEED + 5)
    base = forms.direct_sum(
        make_P(PolyF2(0b1010), PolyF2.one()), forms.hyperbolic(2)
    )
    want = arf(base)
    for _ in range(100):
        u = _random_unimodular(rng, base.rank)
        if arf(base.transport(u)) != want:
            return False, "arf changed under a unimodular base change"
    return True, "arf invariant under 100 random unimodular base changes"


def _oracle_normal_forms(max_deg):
    """Brute-force quotient: row space of all f^2 - f with 2*deg(f) <= max_deg,
    as bitmask pivots for elimination."""
    gens = []
    for fbits in range(2, 1 << (max_deg // 2 + 1)):
        f = PolyF2(fbits)
        rel = (f * f + f).bits
        if rel:
            gens.append(rel)
    pivots = {}
    for g in gens:
        g = _reduce_bits(g, pivots)
        if g:
            pivots[g.bit_length() - 1] = g
    return pivots


def _reduce_bits(v, pivots):
    while v:
        lead = v.bit_length() - 1
        if lead in pivots:
            v ^= pivots[lead]
        else:
            break
    # eliminate interior pivot hits
    changed = True
    while changed and v:
        changed = False
        for lead, row in pivots.items():
            if (v >> lead) & 1:
                v ^= row
                changed = True
    return v


def check_arf_normalize_oracle(cfg):
    pivots = _oracle_normal_forms(12)
    for bits in range(1 << 13):
        mine = arf_normalize(PolyF2(bits)).to_poly().bits
        theirs = _reduce_bits(bits, pivots)
        if mine != theirs:
            return False, f"normal forms disagree at bitmask {bits:b}"
    return True, "normal form agrees with the quotient-space oracle through degree 12"


def check_arf_hyperbolic(cfg):
    for r in range(1, 7):
        if arf(forms.hyperbolic(r)):
            return False, f"hyperbolic rank {r} has nonzero class"
    return True, "hyperbolic forms have zero class up to rank 6"


def check_arf_additive(cfg):
    rng = random.Random(SEED + 6)
    for _ in range(40):
        a = make_P(_rand_polyf2(rng, 5), PolyF2.one())
        b = make_P(_rand_polyf2(rng, 5), PolyF2(rng.getrandbits(4) | 1))
        if arf(forms.direct_sum(a, b)) != arf(a) + arf(b):
            return False, "arf is not additive"
    return True, "arf additive on 40 random direct sums"


# ---------------------------------------------------------------------------
# formations


def check_hessians(cfg):
    for p, g in cfg.pg_pairs(max_deg=2):
        if not formations.make_M(p, g).hessian_holds():
            return False, f"hessian fails for the M-generator at ({p},{g})"
        if g.constant == 0 or p.constant == 0:
            if not formations.make_N_resolution(p, g).hessian_holds():
                return False, f"hessian fails for the N-resolution at ({p},{g})"
    for q in cfg.polys(max_deg=3):
        if q.constant:
            continue
        if not formations.make_Q(q).hessian_holds():
            return False, f"hessian fails for the boundary generator at q={q}"
    return True, "hessian identity holds for every constructed generator"


def check_poincare_sweep(cfg):
    n = 0
    for p, g in cfg.pg_pairs():
        if not formations.verify_poincare(formations.make_M(p, g)):
            return False, f"duality check fails at ({p},{g})"
        n += 1
    return True, f"duality unit verified for {n} generator parameters"


def check_lift_minus(cfg):
    n = 0
    for p, g in cfg.pg_pairs():
        if formations.i_minus(formations.make_M(p, g)) != formations.make_N_resolution(p, g):
            return False, f"T -> -1 evaluation differs from the resolution at ({p},{g})"
        n += 1
    return True, f"T -> -1 evaluation equals the resolution on {n} parameters"


def check_lift_plus_graph(cfg):
    for p, g in cfg.pg_pairs():
        m = formations.make_M(p, g)
        if not formations.is_graph(formations.i_plus(m)):
            return False, f"T -> +1 evaluation is not a graph formation at ({p},{g})"
    return True, "T -> +1 evaluations are graph formations on the whole sweep"


def check_iso_m0(cfg):
    for p, g in cfg.pg_pairs(max_deg=2):
        # apply_iso_M0 verifies the witness (Id, Id, [[p,0],[0,0]]) and that
        # M(0,g) is a graph formation, or raises RuleError
        try:
            rest = witt.apply_iso_M0(witt.GenWord.generator(PolyInt((4,)) * p, g), p, g)
        except witt.RuleError as exc:
            return False, f"M(4p,g) is not discharged at ({p},{g}): {exc}"
        if not rest.is_zero():
            return False, f"discharging M(4p,g) leaves {rest} at ({p},{g})"
    return True, "the explicit M(0,g) -> M(4p,g) isomorphism verifies on the sweep"


# ---------------------------------------------------------------------------
# boundary


def check_boundary_q_family(cfg):
    x = PolyInt.x_power(1)
    qs = [
        x,
        PolyInt.x_power(2),
        x + PolyInt.x_power(3),
        PolyInt.x_power(5),
    ]
    for q in qs:
        inp = rim.BoundaryInput(
            make_P(q.mod2(), PolyF2.one()), *rim.canonical_P_lifts(q)
        )
        steps = rim.boundary_steps(inp)
        exp1, exp2 = rim.expected_fixture_steps(q)
        if steps.over_phi.gamma[0] != exp1["gamma"] or steps.over_phi.mu[0] != exp1["mu"] or steps.over_phi.theta[0] != exp1["theta"]:
            return False, f"first intermediate differs at q={q}"
        if steps.over_id.gamma[0] != exp2["gamma"] or steps.over_id.mu[0] != exp2["mu"] or steps.over_id.theta[0] != exp2["theta"]:
            return False, f"second intermediate differs at q={q}"
        if steps.result != formations.make_Q(q):
            return False, f"assembled boundary differs from the Q-generator at q={q}"
        if not steps.result.hessian_holds():
            return False, f"boundary output fails the hessian identity at q={q}"
    return True, "boundary reproduces the Q-generator exactly, intermediates included"


def check_boundary_hyperbolic(cfg):
    out = rim.boundary(rim.BoundaryInput.with_default_lifts(forms.hyperbolic(1)))
    ok = (
        out.hessian_holds()
        and formations.is_contractible(out)
        and out.gamma.mod2().is_zero()
    )
    return ok, "boundary of the hyperbolic form is a contractible (zero-class) formation"


def check_lift_independence(cfg):
    x = PolyInt.x_power(1)
    for q in [x, PolyInt.x_power(2), x + PolyInt.x_power(2)]:
        form = make_P(q.mod2(), PolyF2.one())
        psi, chi_canonical = rim.canonical_P_lifts(q)
        chi_default = rim.default_lift(rim.compute_chi_prime(form))
        out1 = rim.boundary(rim.BoundaryInput(form, psi, chi_canonical))
        out2 = rim.boundary(rim.BoundaryInput(form, psi, chi_default))
        if out1.mu != out2.mu:
            return False, f"mu depends on the chi-lift at q={q}"
        if not (out1.hessian_holds() and out2.hessian_holds()):
            return False, f"hessian fails for a lift at q={q}"
        if formations.is_graph(out1) != formations.is_graph(out2):
            return False, f"graph verdicts differ between lifts at q={q}"
        # gamma difference is -(delta + delta^*) phi assembled over the square
        delta = chi_canonical - chi_default
        phi = psi + psi.conj_t()
        gdiff = -((delta + delta.conj_t()) * phi) * rim.default_lift(
            form.symmetrization()
        )
        want = rim._assemble((gdiff, Mat.zeros(2, 2, PolyInt)))
        if out1.gamma - out2.gamma != want:
            return False, f"gamma difference formula fails at q={q}"
    return True, "different chi-lifts agree in mu, verdicts and the gamma-difference law"


# ---------------------------------------------------------------------------
# machine


def _machine_case(k, p, g, p2):
    """Relation k's machine case at (p, g, p2): its parameters by name, as
    witt.RULES["R<k>"] takes them, and the CLI line that replays it."""
    values = (p, g) if p2 is None else (p, p2, g)
    where = ", ".join(f"{name}={v}" for name, v in zip(witt.RULES[f"R{k}"].params, values))
    flags = [f"--p={p}"] + ([f"--p2={p2}"] if p2 is not None else []) + [f"--g={g}"]
    return where, shlex.join(["unilc2", "machine", "--relation", str(k), *flags])


def check_machine_relation(cfg, k):
    """The machine gives the debris of relation k = witt.RULES["R<k>"] as
    its class on each parameter tuple of the machine sweep (triples for
    relation 1, pairs for the others) at which every generator of the move
    has p*g in x*Z[x].  A failing case's detail ends in the CLI line that
    replays it."""
    rule = witt.RULES[f"R{k}"]
    arity = len(rule.params)
    n = 0
    for params in itertools.product(
        cfg.polys(cfg.machine_deg_triples if arity == 3 else cfg.machine_deg_pairs), repeat=arity
    ):
        taken, put, _ = rule.move(*params)
        if any(p.constant * g.constant for p, g in taken + put):
            continue
        # (p1, p2, g) or (p, g)
        p, p2, g = params[0], params[1] if arity == 3 else None, params[-1]
        try:
            res, expected = complexes.run_relation(k, p, g, p2)
            wrong = None if res.arf == expected else f"class {res.arf}, expected {expected}"
        except AlgebraError as exc:
            wrong = f"raised {type(exc).__name__}: {exc}"
        if wrong:
            where, replay = _machine_case(k, p, g, p2)
            return False, f"relation {k} machine wrong at {where}: {wrong}; replay: {replay}"
        n += 1
    return True, f"relation {k} verified by the machine on {n} {'triples' if arity == 3 else 'pairs'}"


def check_alpha_pullback(cfg):
    ps = cfg.polys(max_deg=2)
    n = 0
    for p1 in ps[:6]:
        for p2 in ps[:6]:
            for g in ps[:6]:
                if not complexes.alpha_pullback_check(p1, p2, g):
                    return False, f"base-change fixture fails at ({p1},{p2},{g})"
                n += 1
    return True, f"obstruction form standardised by the closed-form base change, {n} cases"


def check_chi_slack(cfg):
    rng = random.Random(SEED + 7)
    x = PolyInt.x_power(1)
    cases = [
        (1, x, PolyInt.one(), x),
        (2, x, PolyInt.one(), None),
        (3, x, x, None),
        (4, x, x, None),
    ]
    for k, p, g, p2 in cases:
        where, replay = _machine_case(k, p, g, p2)
        try:
            f, ncd, _ = complexes.relation_fixture(k, p, g, p2)
            base = complexes.run_machine(f, ncd).arf
        except AlgebraError as exc:
            wrong = f"raised {type(exc).__name__}: {exc}"
            return False, f"relation {k} machine wrong at {where}: {wrong}; replay: {replay}"
        n = ncd.p_rank
        for _ in range(5):
            rows = [[PolyInt.zero()] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    e = _rand_polyint(rng, 1, 2)
                    rows[i][j] = e
                    rows[j][i] = -e
            sigma = Mat(rows, PolyInt)
            # the slack leaves pi, so the witness keeps its composite
            try:
                res = complexes.run_machine(f, replace(ncd, chi=ncd.chi + sigma))
            except AlgebraError as exc:
                wrong = f"raised {type(exc).__name__}: {exc}"
                return False, f"relation {k} machine wrong at {where} with skew slack: {wrong}"
            if res.arf != base:
                return False, f"skew slack changed the class for relation {k} at {where}"
    return True, "adding skew slack to chi never changes the final class"


def check_cycle_and_roundtrip(cfg):
    for p, g in cfg.pg_pairs(max_deg=2):
        m = formations.make_M(p, g)
        c = complexes.formation_to_complex(m)
        if not c.cycle_holds():
            return False, f"cycle condition fails at ({p},{g})"
        back = complexes.complex_to_formation(c)
        if back != m:
            return False, f"dictionary round trip fails at ({p},{g})"
    return True, "complex dictionary round-trips and cycles close on the sweep"


# ---------------------------------------------------------------------------
# word calculus


def check_exponent_four(cfg):
    n = 0
    for p, g in cfg.pg_pairs():
        script = witt.exponent_four_script(p, g)
        if not witt.replay(script, witt.exponent_four_start(p, g), witt.GenWord.zero()):
            return False, f"exponent-four replay fails at ({p},{g})"
        n += 1
    return True, f"4*M(p,g) reduces to zero on {n} parameters"


def check_idempotence(cfg):
    n = 0
    for tup in itertools.product(cfg.coeffs, repeat=4):
        p = PolyInt((0,) + tup)
        if not p:
            continue
        if not witt.replay(
            witt.idempotence_script(p), witt.idempotence_start(p), witt.GenWord.zero()
        ):
            return False, f"idempotence replay fails at p={p}"
        n += 1
    if not n:
        return False, "the coefficient set admits no nonzero polynomial"
    return True, f"2*(V2-1)*M(p,1) reduces to zero for {n} polynomials of degree <= 4"


def check_exponent_two(cfg):
    for k in range(7):
        if not witt.replay(
            witt.exponent_two_script(k), witt.exponent_two_start(k), witt.GenWord.zero()
        ):
            return False, f"exponent-two replay fails at k={k}"
    return True, "2*(M(x,g) - M(1,xg)) reduces to zero for g = x^k, k <= 6"


def check_nilpotence(cfg):
    for g in cfg.polys():
        if not witt.replay(
            witt.nilpotence_script(g), witt.nilpotence_start(g), witt.GenWord.zero()
        ):
            return False, f"nilpotence replay fails at g={g}"
    return True, "V2*(M(x,g) - M(1,xg)) reduces to zero on the sweep"


def check_verschiebung(cfg):
    rng = random.Random(SEED + 8)
    x = PolyInt.x_power(1)
    w = witt.GenWord.generator(x, PolyInt.one()) + witt.GenWord.q_generator(x)
    for m in (2, 3, 5):
        for n in (2, 3):
            if witt.verschiebung(m, witt.verschiebung(n, w)) != witt.verschiebung(m * n, w):
                return False, "substitution operators do not compose multiplicatively"
    if witt.verschiebung(1, w) != w:
        return False, "V_1 is not the identity"
    # commutes with additivity instances
    for _ in range(20):
        p1 = PolyInt([0, rng.randint(0, 2), rng.randint(0, 2)])
        p2 = PolyInt([0, rng.randint(0, 2)])
        g = PolyInt([rng.randint(0, 2), rng.randint(0, 2)])
        word = witt.GenWord.generator(p1, g) + witt.GenWord.generator(p2, g)
        n = rng.choice((2, 3))
        a = witt.verschiebung(n, witt.apply_rule(word, "R1", p1, p2, g))
        b = witt.apply_rule(
            witt.verschiebung(n, word),
            "R1",
            p1.subs_power(n),
            p2.subs_power(n),
            g.subs_power(n),
        )
        if a != b:
            return False, "substitution does not commute with additivity"
    return True, "substitution operators form a monoid and commute with additivity"


def check_machine_crosscheck(cfg):
    x = PolyInt.x_power(1)
    one = PolyInt.one()
    triples = [
        (x, x, one),
        (x, PolyInt((0, 2)), one),
        (x, x, x),
        (PolyInt((0, 1, 1)), x, one),
        (one, one, x),
        (PolyInt((2,)), x, x),
    ]
    for p1, p2, g in triples:
        word = witt.GenWord.generator(p1, g) + witt.GenWord.generator(p2, g)
        debris = witt.apply_rule(word, "R1", p1, p2, g).arf_part
        res, _ = complexes.run_relation(1, p1, g, p2=p2)
        if res.arf != debris:
            return False, f"rewrite debris disagrees with the machine at ({p1},{p2},{g})"
    return True, "additivity rewrite debris matches the machine on spot triples"


def check_section(cfg):
    x = PolyInt.x_power(1)
    one = PolyInt.one()
    v2n = witt.NWord.generator(PolyInt.x_power(2), one)
    if witt.section_s(v2n) != witt.GenWord.generator(PolyInt.x_power(2), one):
        return False, "single-generator assignment is wrong"
    pair = witt.NWord.generator(x, x) - witt.NWord.generator(one, PolyInt.x_power(2))
    want = witt.GenWord.generator(x, x) - witt.GenWord.generator(one, PolyInt.x_power(2))
    if witt.section_s(pair) != want:
        return False, "pair assignment is wrong"
    # the relations the section must respect close on the M-side
    doubled = witt.section_s(2 * pair)
    word = doubled
    try:
        ok = witt.replay(witt.exponent_two_script(1), word, witt.GenWord.zero())
    except witt.ReplayError as exc:
        return False, f"exponent-two replay on the section image fails: {exc}"
    if not ok:
        return False, "doubled section image does not reduce to zero"
    try:
        witt.section_s(witt.NWord.generator(one, PolyInt.x_power(2)))
        return False, "unmatched partner accepted"
    except witt.SpanError:
        pass
    return True, "section assignments verified and doubled images reduce to zero"


def check_answer_table(cfg):
    for n in (0, 1, 4, 5, 8, -4):
        if witt.unil_answer(n).kind != "zero":
            return False, f"residue {n % 4} should vanish"
    for n in (2, 6, -2):
        a = witt.unil_answer(n)
        if a.kind != "arf-group" or witt.ARF_GROUP not in a.summands:
            return False, "residue 2 should be the Arf group"
    a = witt.unil_answer(3)
    if a.kind != "three-summand" or len(a.summands) != 3:
        return False, "residue 3 should have three summands"
    if a.summands[0] != witt.ARF_GROUP:
        return False, "first residue-3 summand should be the Arf group"
    try:
        witt.unil_answer(3, "normal-sylow2-exponent-two")
        return False, "residue-3 answer should be order-2-group specific"
    except PrecondError:
        pass
    return True, "answer table matches in every residue"


# ---------------------------------------------------------------------------
# registry and runner


@dataclass(frozen=True)
class Check:
    id: str
    statement: str
    fn: object


REGISTRY = (
    Check("rings.c2-mult-table", "order-2 group ring multiplication table", check_c2_mult_table),
    Check("rings.one-minus-t-square", "(1-T)^2 = 2(1-T)", check_one_minus_t_square),
    Check("rings.ring-axioms", "ring axioms and involution on random inputs", check_ring_axioms),
    Check("rings.square-commutes", "both square legs reduce equally mod 2", check_square_commutes),
    Check("rings.pullback-iso", "fibre-product isomorphism round trip", check_pullback_iso),
    Check("rings.unit-mod2-inverse", "nilpotent-series inverse of units mod 2", check_unit_mod2_inverse),
    Check("rings.duality-unit-sweep", "((1-T)pg-1)^2 = 1 mod 2 on the sweep", check_duality_unit_sweep),
    Check("forms.arf-p-family", "arf inverts the rank-2 family", check_arf_p_family),
    Check("forms.arf-basis-invariance", "arf invariant under base change", check_arf_basis_invariance),
    Check("forms.arf-normalize-oracle", "normal form matches the quotient oracle", check_arf_normalize_oracle),
    Check("forms.arf-hyperbolic", "hyperbolic forms have zero class", check_arf_hyperbolic),
    Check("forms.arf-additive", "arf is additive on direct sums", check_arf_additive),
    Check("formations.hessians", "hessian identity for all generators", check_hessians),
    Check("formations.poincare-sweep", "duality determinant unit mod 2 for M(p,g)", check_poincare_sweep),
    Check("formations.lift-minus", "T -> -1 evaluation equals the resolution", check_lift_minus),
    Check("formations.lift-plus-graph", "T -> +1 evaluation is a graph formation", check_lift_plus_graph),
    Check("formations.iso-m0", "explicit isomorphism M(0,g) -> M(4p,g)", check_iso_m0),
    Check("rim.boundary-q-family", "boundary lands exactly on the Q-generators", check_boundary_q_family),
    Check("rim.boundary-hyperbolic", "boundary of the hyperbolic form is zero-class", check_boundary_hyperbolic),
    Check("rim.lift-independence", "chi-lift changes nothing at class level", check_lift_independence),
    Check("machine.cycle-roundtrip", "dictionary round trip and cycle condition", check_cycle_and_roundtrip),
    Check("machine.additivity", "machine verifies the additivity relation", lambda cfg: check_machine_relation(cfg, 1)),
    Check("machine.alpha-pullback", "obstruction form standardises as displayed", check_alpha_pullback),
    Check("machine.symmetry", "machine verifies the symmetry relation", lambda cfg: check_machine_relation(cfg, 2)),
    Check("machine.square-associativity", "machine verifies square associativity", lambda cfg: check_machine_relation(cfg, 3)),
    Check("machine.square-root", "machine verifies the square-root relation", lambda cfg: check_machine_relation(cfg, 4)),
    Check("machine.chi-slack", "skew slack in chi never changes the class", check_chi_slack),
    Check("witt.exponent-four", "4*M(p,g) = 0 by replay", check_exponent_four),
    Check("witt.idempotence", "2(V2-1)M(p,1) = 0 by replay", check_idempotence),
    Check("witt.exponent-two", "2(M(x,g) - M(1,xg)) = 0 by replay", check_exponent_two),
    Check("witt.nilpotence", "V2(M(x,g) - M(1,xg)) = 0 by replay", check_nilpotence),
    Check("witt.verschiebung", "substitution operators behave as a monoid", check_verschiebung),
    Check("witt.machine-crosscheck", "rewrite debris equals the machine class", check_machine_crosscheck),
    Check("witt.section", "the section is well defined on its span", check_section),
    Check("witt.answer-table", "residue answer table", check_answer_table),
)


@dataclass
class VerificationReport:
    results: list = field(default_factory=list)  # (id, statement, ok, detail, secs)

    @property
    def ok(self) -> bool:
        return all(r[2] for r in self.results)

    def human_lines(self):
        for cid, statement, ok, detail, secs in self.results:
            verdict = "PASS" if ok else "FAIL"
            yield f"[{verdict}] {cid:34s} {statement} ({secs * 1000:.0f} ms)"
            if not ok:
                yield f"       -> {detail}"
        yield f"overall: {'pass' if self.ok else 'FAIL'} ({len(self.results)} checks)"

    def summary_lines(self):
        for cid, _, ok, _, secs in self.results:
            yield f"{cid}={'pass' if ok else 'fail'} time_ms={secs * 1000:.0f}"
        yield f"overall={'pass' if self.ok else 'fail'}"


def select(pattern: str | None = None) -> list:
    """The checks whose ids match the glob pattern; all of them for None."""
    return [c for c in REGISTRY if pattern is None or fnmatch.fnmatch(c.id, pattern)]


def run_registry(cfg: SweepConfig | None = None, pattern: str | None = None) -> VerificationReport:
    cfg = cfg or SweepConfig()
    selected = select(pattern)

    def run(check: Check):
        t0 = time.perf_counter()
        try:
            ok, detail = check.fn(cfg)
        except Exception as exc:  # a crash is a failing verdict, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        return (check.id, check.statement, ok, detail, time.perf_counter() - t0)

    return VerificationReport([run(c) for c in selected])
