"""The three seeded workloads.

Each workload turns a seed into a list of cases.  A case carries its inputs
and an expected answer that is known without running the code being timed:
relation classes come from the closed formula [p*p2*g^2] computed here with
plain integer bit operations, Arf classes of transported direct sums come
from their rank-2 blocks, and the identity and boundary cases expect the
paper's identities to hold.  ``run`` executes the timed operation and
``check`` compares its result with the expected answer.

All calls into the package go through module attributes (``forms.arf``,
not ``from unilc2.forms import arf``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from unilc2 import complexes, formations, forms, rim, witt
from unilc2.forms import ArfClass
from unilc2.registry import SweepConfig, _rand_polyf2
from unilc2.rings import Mat, PolyF2, PolyInt


@dataclass(frozen=True)
class Case:
    kind: str
    params: tuple
    expected: object


# ---------------------------------------------------------------------------
# Independent answers: Arf classes from bit arithmetic on coefficients


def _bits_mod2(p: PolyInt) -> int:
    return sum((c & 1) << i for i, c in enumerate(p.coeffs))


def _clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def arf_class_of_bits(bits: int) -> ArfClass:
    """Class of a binary polynomial modulo x^(2k) = x^k: each exponent is
    replaced by its odd part, colliding terms cancel."""
    odd = set()
    k = 1
    bits_hi = bits >> 1
    while bits_hi:
        if bits_hi & 1:
            e = k
            while e % 2 == 0:
                e //= 2
            odd ^= {e}
        bits_hi >>= 1
        k += 1
    return ArfClass(bits & 1, frozenset(odd))


# ---------------------------------------------------------------------------
# machine-sweep: the four relation witnesses through run_machine


def _machine_params(rng, ps, k):
    while True:
        p, g, p2 = rng.choice(ps), rng.choice(ps), rng.choice(ps)
        if k == 1:
            if (p * g).constant or (p2 * g).constant or ((p + p2) * g).constant:
                continue
            return (p, g, p2)
        if k in (2, 4) and (p * g).constant:
            continue
        return (p, g, None)


def machine_cases(seed: int, count: int = 2000):
    """Relations 1-4 in turn, parameters of degree <= 2 with coefficients
    {0,1,2}: the widened additivity space."""
    rng = random.Random(seed)
    ps = SweepConfig().polys(max_deg=2)
    out = []
    for i in range(count):
        k = 1 + i % 4
        p, g, p2 = _machine_params(rng, ps, k)
        if k == 1:
            gb = _bits_mod2(g)
            want = arf_class_of_bits(_clmul(_clmul(_bits_mod2(p), _bits_mod2(p2)), _clmul(gb, gb)))
        else:
            want = ArfClass.zero()
        out.append(Case(f"relation-{k}", (k, p, g, p2), want))
    return out


def machine_run(case: Case):
    k, p, g, p2 = case.params
    f, ncd, fixture_expected = complexes.relation_fixture(k, p, g, p2)
    return complexes.run_machine(f, ncd).arf, fixture_expected


def machine_check(case: Case, result) -> bool:
    got, fixture_expected = result
    return got == case.expected and fixture_expected == case.expected


# ---------------------------------------------------------------------------
# identity-sweep: the degree-3 (p, g) sweep through the formation identities
# and the exponent-four replay


def identity_cases(seed: int):
    """The 3645 pairs in a seeded order.  A 30-second run goes round them
    several times, so a cache keyed on (p, g) would show a gain here that a
    single pass of ``verify`` would not (witt.apply_iso_M0.distinct_frac
    reports the repetition)."""
    pairs = SweepConfig().pg_pairs()
    random.Random(seed).shuffle(pairs)
    return [Case("pg", (p, g), (True, True, True, True)) for p, g in pairs]


def identity_run(case: Case):
    p, g = case.params
    m = formations.make_M(p, g)
    return (
        formations.verify_poincare(m),
        formations.i_minus(m) == formations.make_N_resolution(p, g),
        formations.is_graph(formations.i_plus(m)),
        witt.replay(
            witt.exponent_four_script(p, g),
            witt.exponent_four_start(p, g),
            witt.GenWord.zero(),
        ),
    )


def identity_check(case: Case, result) -> bool:
    return result == case.expected


# ---------------------------------------------------------------------------
# user-forms: dense forms through arf, and the boundary map


def dense_unimodular(rng, n: int) -> Mat:
    """L*U with unit triangular factors whose off-diagonal entries have
    degree <= 1: determinant 1 and almost every entry nonzero.  (The
    registry's _random_unimodular leaves many zeros, and its per-case times
    vary too much for steady percentiles.)"""
    one, zero = PolyF2.one(), PolyF2.zero()
    lo = [[one if i == j else PolyF2(rng.getrandbits(2)) if i > j else zero for j in range(n)] for i in range(n)]
    up = [[one if i == j else PolyF2(rng.getrandbits(2)) if i < j else zero for j in range(n)] for i in range(n)]
    return Mat(lo, PolyF2) * Mat(up, PolyF2)


def dense_form(rng, rank: int):
    """A seeded unimodular transport of a direct sum of rank-2 forms
    make_P(q, g), with the sum of the blocks' classes [q*g] as its answer."""
    blocks = [(_rand_polyf2(rng, 3), _rand_polyf2(rng, 3)) for _ in range(rank // 2)]
    form = forms.make_P(*blocks[0])
    for q, g in blocks[1:]:
        form = forms.direct_sum(form, forms.make_P(q, g))
    bits = 0
    for q, g in blocks:
        bits ^= _clmul(q.bits, g.bits)
    return form.transport(dense_unimodular(rng, rank)), arf_class_of_bits(bits)


# One cycle of twenty cases; a timing block is one cycle.  Ranks >= 12 are
# included; dense rank 18 takes seconds per case and rank 24 does not
# finish, so both stay out.  The weights put the median in the middle of
# the rank-10 arf group (40-60 %) and the 90th percentile in the middle of
# the rank-6 boundary group (80-100 %), not on a group edge.  Forty cycles
# are more than a 30-second run reaches, so no input repeats.
USER_FORMS_CYCLE = (
    (("boundary", 2),) * 2 + (("arf", 6),) * 2 + (("arf", 8),) * 2
    + (("boundary", 4),) * 2 + (("arf", 10),) * 4 + (("arf", 12),) * 4
    + (("boundary", 6),) * 4
)


def user_forms_cases(seed: int, cycles: int = 40):
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        for kind, rank in USER_FORMS_CYCLE:
            form, cls = dense_form(rng, rank)
            out.append(Case(f"{kind}-r{rank}", (kind, form), cls if kind == "arf" else True))
    return out


def user_forms_run(case: Case):
    kind, form = case.params
    if kind == "arf":
        return forms.arf(form)
    return rim.boundary(rim.BoundaryInput.with_default_lifts(form))


def user_forms_check(case: Case, result) -> bool:
    if case.params[0] == "arf":
        return result == case.expected
    return result.hessian_holds() == case.expected


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    generate: object
    run: object
    check: object
    block_cases: int  # cases per throughput block; a whole number of mixes
    count_cases: int  # fixed prefix of the inputs used for exact counts


WORKLOADS = {
    "machine-sweep": Workload(machine_cases, machine_run, machine_check, 40, 40),
    "identity-sweep": Workload(identity_cases, identity_run, identity_check, 100, 200),
    "user-forms": Workload(
        user_forms_cases, user_forms_run, user_forms_check,
        len(USER_FORMS_CYCLE), len(USER_FORMS_CYCLE),
    ),
}


def inputs_sha256(cases) -> str:
    """Hash of the input list, so two runs can be shown to share inputs."""
    h = hashlib.sha256()
    for c in cases:
        h.update(repr((c.kind, tuple(str(x) for x in c.params), str(c.expected))).encode())
    return h.hexdigest()
