import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_polys, pg_sweep, zx

from unilc2 import witt
from unilc2.forms import ArfClass, arf_normalize
from unilc2.rings import PolyInt, PrecondError
from unilc2.witt import (
    RULES,
    GenWord,
    NWord,
    ReplayError,
    RuleError,
    SpanError,
    Step,
    apply_iso_M0,
    apply_qarith,
    apply_rule,
    exponent_four_script,
    exponent_four_start,
    exponent_two_script,
    exponent_two_start,
    idempotence_script,
    idempotence_start,
    nilpotence_script,
    nilpotence_start,
    replay,
    section_s,
    unil_answer,
    verschiebung,
)


x = zx("x")
one = zx("1")


# -- word arithmetic


def test_add_and_cancel():
    w = GenWord.generator(x, one) + (-GenWord.generator(x, one))
    assert w.is_zero()


def test_q_part_is_two_torsion():
    w = GenWord.q_generator(x) + GenWord.q_generator(x)
    assert w.is_zero()
    w2 = GenWord.q_generator(x) + GenWord.q_generator(zx("x^3"))
    assert w2.arf_part.to_poly().bits == 0b1010


def test_generator_precondition():
    with pytest.raises(PrecondError):
        GenWord.generator(one, one)
    with pytest.raises(PrecondError):
        GenWord.q_generator(one)


# -- rules


def test_additivity_merges():
    w = GenWord.generator(x, one) + GenWord.generator(x, one)
    out = apply_rule(w, "R1", x, x, one)
    assert out.coeff(zx("2*x"), one) == 1
    assert out.arf_part == arf_normalize(zx("x^2").mod2())
    assert out.arf_part.to_poly().bits == 0b10  # [x^2] = [x]


def test_additivity_with_zero_partner():
    w = GenWord.generator(x, x) + GenWord.generator(zx("0"), x)
    out = apply_rule(w, "R1", x, zx("0"), x)
    assert out.coeff(x, x) == 1 and len(out.m_terms) == 1
    assert out.arf_part == ArfClass.zero()


def test_additivity_distinct_parameters():
    w = GenWord.generator(x, one) + GenWord.generator(zx("x^2"), one)
    out = apply_rule(w, "R1", x, zx("x^2"), one)
    assert out.coeff(zx("x+x^2"), one) == 1
    assert out.arf_part.to_poly().bits == 0b1000  # [x^3]


def test_additivity_split_direction():
    w = GenWord.generator(zx("2*x"), one)
    out = apply_rule(w, "R1", x, x, one, direction="rl")
    assert out.coeff(x, one) == 2
    assert apply_rule(out, "R1", x, x, one) == w


def test_rule_requires_occurrence():
    with pytest.raises(RuleError):
        apply_rule(GenWord.generator(x, one), "R1", x, x, one)
    with pytest.raises(RuleError):
        apply_rule(GenWord.zero(), "R4", x, one)


x_polys = st.lists(st.integers(-3, 3), max_size=5).map(lambda cs: PolyInt([0, *cs]))


@settings(max_examples=200, deadline=None)
@given(x_polys, x_polys, st.lists(st.integers(-3, 3), max_size=5).map(PolyInt))
def test_additivity_debris_is_the_class_of_p1_p2_g_squared(p1, p2, g):
    # the debris reduces each factor mod 2 before multiplying; the product
    # over Z[x] reduced afterwards is the oracle
    w = GenWord.generator(p1, g) + GenWord.generator(p2, g)
    out = apply_rule(w, "R1", p1, p2, g)
    assert out.arf_part == arf_normalize((p1 * p2 * g * g).mod2())
    assert apply_rule(out, "R1", p1, p2, g, direction="rl") == w


def test_symmetry_instance():
    w = GenWord.generator(zx("2*x"), zx("x^2"))
    out = apply_rule(w, "R2", x, zx("x^2"))
    assert out.coeff(zx("2*x^2"), x) == 1


def test_square_associativity_instance():
    w = GenWord.generator(zx("x^3"), one)
    out = apply_rule(w, "R3", x, one)
    assert out.coeff(x, zx("x^2")) == 1


def test_square_root_instance():
    w = GenWord.generator(zx("2*x^3"), x)
    out = apply_rule(w, "R4", x, x)
    assert out.coeff(zx("2*x"), x) == 1


def test_negative_occurrences():
    w = -GenWord.generator(zx("2*x"), one)
    out = apply_rule(w, "R2", x, one, sign=-1)
    assert out.coeff(zx("2"), x) == -1


def test_qarith_toggle():
    w = apply_qarith(GenWord.zero(), zx("x^2"))
    assert w.arf_part.to_poly().bits == 0b10
    assert apply_qarith(w, zx("x^2")).is_zero()
    assert apply_qarith(GenWord.zero(), zx("2*x")).is_zero()


def test_iso_m0_discharges():
    w = GenWord.generator(zx("4*x"), one)
    assert apply_iso_M0(w, x, one).is_zero()
    w0 = GenWord.generator(zx("0"), x)
    assert apply_iso_M0(w0, zx("0"), x).is_zero()


def test_iso_m0_proves_m0_a_graph_once_per_g(monkeypatch):
    """M(0, g) is built and shown to be a graph formation once for every p
    with the same g; a failing graph check is not kept, so it raises on
    every call."""
    witt._graph_M0.cache_clear()
    built, make_M = [], witt.make_M
    monkeypatch.setattr(witt, "make_M", lambda p, g: built.append(p) or make_M(p, g))
    g = zx("1+x")
    for p in (x, zx("2*x")):
        assert apply_iso_M0(GenWord.generator(4 * p, g), p, g).is_zero()
    assert built == [zx("0"), zx("4*x"), zx("8*x")]
    monkeypatch.setattr(witt, "is_graph", lambda f: False)
    g = zx("x")
    for _ in range(2):
        with pytest.raises(RuleError, match=r"M\(0,g\) is not a graph formation"):
            apply_iso_M0(GenWord.generator(zx("4"), g), one, g)
    assert built[3:] == [zx("0"), zx("0")]


# -- steps are checked against the rule table


@pytest.mark.parametrize(
    "rule, params",
    [
        ("R5", {"p": x, "g": one}),
        ("r2", {"p": x, "g": one}),  # names are exact; the CLI upper-cases
        ("R2", {"p": x}),
        ("R1", {"p1": x, "g": one}),
        ("VN", {}),
        ("R2", {"p": x, "g": one, "bogus": one}),
        ("R2", {"p": x, "g": one, "dir": "sideways"}),
        ("R3", {"p": x, "g": one, "sign": 0}),
        ("R4", {"p": x, "g": one, "sign": "-"}),
        ("ISO-M0", {"p": x, "g": one, "dir": "rl"}),
        ("QARITH", {"q": x, "sign": -1}),
        ("VN", {"n": 2, "dir": "lr"}),
    ],
)
def test_step_is_checked_against_the_rule_table(rule, params):
    with pytest.raises(RuleError):
        Step(rule, params)


def test_step_takes_the_declared_parameters_and_options():
    assert set(RULES) == {"R1", "R2", "R3", "R4", "VN", "ISO-M0", "QARITH"}
    assert RULES["R1"].params == ("p1", "p2", "g")
    assert all(RULES[r].params == ("p", "g") for r in ("R2", "R3", "R4", "ISO-M0"))
    assert RULES["VN"].params == ("n",) and RULES["QARITH"].params == ("q",)
    w = -GenWord.generator(zx("2*x"), one)
    step = Step("R2", {"p": x, "g": one, "dir": "lr", "sign": -1})
    assert step.apply(w) == -GenWord.generator(zx("2"), x)
    assert Step("R2", {"p": one, "g": x, "dir": "rl", "sign": -1}).apply(w) == (
        -GenWord.generator(zx("2"), x)
    )
    assert Step("ISO-M0", {"p": x, "g": one, "sign": -1}).apply(
        -GenWord.generator(zx("4*x"), one)
    ).is_zero()
    assert Step("VN", {"n": 2}).apply(GenWord.generator(x, one)) == GenWord.generator(
        zx("x^2"), one
    )
    assert Step("QARITH", {"q": x}).apply(GenWord.zero()) == GenWord.q_generator(x)


# -- substitution operators


def test_verschiebung_on_generators():
    w = GenWord.generator(x, one)
    assert verschiebung(2, w) == GenWord.generator(zx("x^2"), one)


def test_verschiebung_normalizes_arf():
    w = GenWord.q_generator(x)
    assert verschiebung(2, w).arf_part.to_poly().bits == 0b10  # [x^2] = [x]


def test_verschiebung_monoid():
    rng = random.Random(71)
    for _ in range(20):
        w = GenWord.generator(
            PolyInt([0, rng.randint(0, 2), rng.randint(0, 2)]), one
        ) + GenWord.q_generator(PolyInt([0, rng.randint(0, 1), 0, rng.randint(0, 1)]))
        m, n = rng.choice(((2, 2), (2, 3), (3, 5)))
        assert verschiebung(m, verschiebung(n, w)) == verschiebung(m * n, w)
    assert verschiebung(1, w) == w
    with pytest.raises(PrecondError):
        verschiebung(0, w)


def test_verschiebung_commutes_with_additivity():
    rng = random.Random(73)
    for _ in range(30):
        p1 = PolyInt([0, rng.randint(0, 2), rng.randint(0, 2)])
        p2 = PolyInt([0, rng.randint(0, 2)])
        g = PolyInt([rng.randint(0, 2), rng.randint(0, 2)])
        w = GenWord.generator(p1, g) + GenWord.generator(p2, g)
        n = rng.choice((2, 3))
        lhs = verschiebung(n, apply_rule(w, "R1", p1, p2, g))
        rhs = apply_rule(
            verschiebung(n, w), "R1", p1.subs_power(n), p2.subs_power(n), g.subs_power(n)
        )
        assert lhs == rhs


# -- replays


def test_exponent_four_replay_sweep():
    for p, g in pg_sweep(max_deg=2):
        assert replay(
            exponent_four_script(p, g), exponent_four_start(p, g), GenWord.zero()
        )


def test_idempotence_replay_degree_four():
    for tup in itertools.product((0, 1, 2), repeat=4):
        p = PolyInt((0,) + tup)
        if not p:
            continue
        assert replay(idempotence_script(p), idempotence_start(p), GenWord.zero())


def test_exponent_two_replay_both_parities():
    for k in range(7):
        assert replay(exponent_two_script(k), exponent_two_start(k), GenWord.zero())


def test_nilpotence_replay():
    for g in int_polys(3):
        assert replay(nilpotence_script(g), nilpotence_start(g), GenWord.zero())


def test_replay_reports_failing_step():
    bad = (
        Step("R1", {"p1": x, "p2": x, "g": one}),
        Step("R4", {"p": x, "g": one}),  # needs M(2x^2,1), absent
    )
    start = 2 * GenWord.generator(x, one)
    with pytest.raises(ReplayError) as err:
        replay(bad, start, GenWord.zero())
    assert err.value.index == 1


def test_replay_open_chain_returns_false():
    script = (Step("R1", {"p1": x, "p2": x, "g": one}),)
    start = 2 * GenWord.generator(x, one)
    assert not replay(script, start, GenWord.zero())


def test_misapplied_square_root_is_diagnosed():
    # odd first index: the rule instance does not match
    w = GenWord.generator(zx("x"), one)
    with pytest.raises(RuleError):
        apply_rule(w, "R4", x, one)


# -- section


def test_section_single_assignments():
    for n in (1, 2, 5):
        nw = NWord.generator(PolyInt.x_power(n), one)
        assert section_s(nw) == GenWord.generator(PolyInt.x_power(n), one)


def test_section_pair_assignments():
    nw = NWord.generator(x, x) - NWord.generator(one, zx("x^2"))
    want = GenWord.generator(x, x) - GenWord.generator(one, zx("x^2"))
    assert section_s(nw) == want
    # substituted pair with n = 2, j = 1
    nw2 = NWord.generator(zx("x^2"), zx("x^2")) - NWord.generator(one, zx("x^4"))
    want2 = GenWord.generator(zx("x^2"), zx("x^2")) - GenWord.generator(one, zx("x^4"))
    assert section_s(nw2) == want2


def test_section_is_additive_on_span():
    a = NWord.generator(zx("x^3"), one)
    b = NWord.generator(x, x) - NWord.generator(one, zx("x^2"))
    assert section_s(a + b) == section_s(a) + section_s(b)


def test_section_rejects_outside_span():
    with pytest.raises(SpanError):
        section_s(NWord.generator(zx("1+x"), one))
    with pytest.raises(SpanError):
        section_s(NWord.generator(one, zx("x^2")))
    with pytest.raises(SpanError):
        section_s(NWord.generator(x, x))  # missing partner


def test_section_doubled_pair_reduces_to_zero():
    nw = NWord.generator(x, x) - NWord.generator(one, zx("x^2"))
    doubled = section_s(2 * nw)
    assert replay(exponent_two_script(1), doubled, GenWord.zero())


def test_section_substituted_pair_killed_by_nilpotence():
    nw = NWord.generator(zx("x^2"), zx("x^2")) - NWord.generator(one, zx("x^4"))
    image = section_s(nw)
    assert image == verschiebung(2, nilpotence_start(x))
    assert replay(nilpotence_script(x.subs_power(1)), nilpotence_start(x), GenWord.zero())


# -- answers


def test_answer_residues_zero_and_one():
    for n in (0, 1, 4, 5, -3, -4):
        assert unil_answer(n).kind == "zero"


def test_answer_residue_two():
    a = unil_answer(2)
    assert a.kind == "arf-group"
    assert "xF2[x]/(f^2-f)" in str(a)
    assert unil_answer(2, "normal-sylow2-exponent-two").kind == "arf-group"


def test_answer_residue_three():
    a = unil_answer(3)
    assert a.kind == "three-summand"
    assert len(a.summands) == 3
    assert a.summands[0] == "xF2[x]/(f^2-f)"
    assert a.summands[1] == a.summands[2]
    with pytest.raises(PrecondError):
        unil_answer(3, "normal-sylow2-exponent-two")
    with pytest.raises(PrecondError):
        unil_answer(2, "dihedral")
