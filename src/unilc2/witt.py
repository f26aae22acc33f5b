"""Class-level calculus on generator words and the answer tables.

Elements of the reduced odd cobordism group are formal words: an integer
multiset of rank-2 generators M(p, g) plus an Arf class absorbing all the
boundary generators (the boundary map is injective, so a Q-generator is
remembered only through its Arf class).

The four rewrite rules (additivity, symmetry, square associativity and
square root) are the relations R1-R4 of the table RULES, which also holds
the other steps a derivation may take and the parameters of each.  They
apply in either direction, to a positively or negatively signed
occurrence.  Derivations are replayed step by step; the discharge step for
M(4p, g) checks the explicit formation isomorphism onto M(0, g) and that
M(0, g) is a graph formation.  Verschiebung operators substitute x -> x^n
everywhere.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

from .forms import ArfClass, arf_normalize
from .formations import is_graph, make_M, two_id, verify_formation_iso
from .rings import (
    AlgebraError,
    C2Poly,
    Mat,
    PolyInt,
    PrecondError,
)


class RuleError(AlgebraError):
    """A rewrite step does not apply to the current word."""


class SpanError(AlgebraError):
    """An N-word is outside the recognized basis span of the section."""


class ReplayError(AlgebraError):
    """A derivation script step failed; carries the step index."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"step {index}: {reason}")


class GenWord:
    """Integer combination of M-generators plus a reduced Arf part."""

    __slots__ = ("m_terms", "arf_part")

    def __init__(self, m_terms=None, arf_part: ArfClass = ArfClass.zero()):
        terms = {}
        for (p, g), c in (m_terms or {}).items():
            if c == 0:
                continue
            if p.constant * g.constant != 0:  # the constant coefficient of p*g
                raise PrecondError("every generator needs p*g in x*Z[x]")
            terms[(p, g)] = c
        if not arf_part.is_reduced():
            raise PrecondError("the Arf part of a reduced word has constant 0")
        object.__setattr__(self, "m_terms", terms)
        object.__setattr__(self, "arf_part", arf_part)

    def __setattr__(self, *a):
        raise AttributeError("GenWord is immutable")

    @staticmethod
    def zero() -> "GenWord":
        return GenWord()

    @staticmethod
    def generator(p: PolyInt, g: PolyInt, coeff: int = 1) -> "GenWord":
        return GenWord({(p, g): coeff})

    @staticmethod
    def q_generator(q: PolyInt) -> "GenWord":
        if q.constant != 0:
            raise PrecondError("boundary generators need q in x*Z[x]")
        return GenWord({}, arf_normalize(q.mod2()))

    def coeff(self, p: PolyInt, g: PolyInt) -> int:
        return self.m_terms.get((p, g), 0)

    def is_zero(self) -> bool:
        return not self.m_terms and not self.arf_part

    def __add__(self, other: "GenWord") -> "GenWord":
        terms = dict(self.m_terms)
        for k, c in other.m_terms.items():
            terms[k] = terms.get(k, 0) + c
        return GenWord(terms, self.arf_part + other.arf_part)

    def __neg__(self) -> "GenWord":
        return GenWord({k: -c for k, c in self.m_terms.items()}, self.arf_part)

    def __sub__(self, other: "GenWord") -> "GenWord":
        return self + (-other)

    def __rmul__(self, n: int) -> "GenWord":
        terms = {k: n * c for k, c in self.m_terms.items()}
        arf = self.arf_part if n % 2 else ArfClass.zero()
        return GenWord(terms, arf)

    def __eq__(self, other):
        return (
            isinstance(other, GenWord)
            and self.m_terms == other.m_terms
            and self.arf_part == other.arf_part
        )

    def __str__(self):
        bits = []
        for (p, g), c in sorted(
            self.m_terms.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        ):
            coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            piece = f"{coeff}M({p};{g})"
            bits.append(piece if piece.startswith("-") or not bits else f"+{piece}")
        if self.arf_part:
            q = str(self.arf_part)
            bits.append(f"+Q({q})" if bits else f"Q({q})")
        return "".join(bits) if bits else "0"


def _take(word: GenWord, keys, sign: int) -> dict:
    """Remove one signed occurrence of each key (with multiplicity for
    repeated keys); RuleError if a coefficient does not cover it."""
    need = {}
    for k in keys:
        need[k] = need.get(k, 0) + 1
    terms = dict(word.m_terms)
    for k, mult in need.items():
        have = terms.get(k, 0)
        if sign > 0 and have < mult:
            raise RuleError(f"word lacks +{mult} occurrence(s) of M{k[0]},{k[1]}")
        if sign < 0 and have > -mult:
            raise RuleError(f"word lacks -{mult} occurrence(s) of M{k[0]},{k[1]}")
        terms[k] = have - sign * mult
        if terms[k] == 0:
            del terms[k]
    return terms


def _put(terms: dict, keys, sign: int) -> dict:
    for k in keys:
        terms[k] = terms.get(k, 0) + sign
        if terms[k] == 0:
            del terms[k]
    return terms


_TWO = PolyInt((2,))
_X2 = PolyInt.x_power(2)
_NO_DEBRIS = ArfClass.zero()


def _additivity(p1, p2, g):
    gb = g.mod2()  # reduce each factor first: mod 2 is a ring map
    debris = arf_normalize(p1.mod2() * p2.mod2() * gb * gb)
    return [(p1, g), (p2, g)], [(p1 + p2, g)], debris


@dataclass(frozen=True)
class Rule:
    """An entry of RULES: the parameter names, in the order the rule takes
    them, and the keys of OPTIONS a step may add.  A relation (R1-R4) has a
    move, from its parameters to the generators taken, the generators put
    and the Arf debris, read left to right; any other rule has an act,
    (word, *params, **options) -> word."""

    params: tuple
    options: tuple = ("dir", "sign")
    move: Callable | None = None
    act: Callable | None = None


# The options a step may give, by key: the keyword the rule's function
# takes it as and its allowed values.  Left out, it takes that default.
OPTIONS = {"dir": ("direction", ("lr", "rl")), "sign": ("sign", (1, -1))}

RULES = {
    # additivity: M(p1,g) + M(p2,g) = M(p1+p2,g) + [p1*p2*g^2]
    "R1": Rule(("p1", "p2", "g"), move=_additivity),
    # symmetry: M(2p,g) = M(2g,p)
    "R2": Rule(("p", "g"), move=lambda p, g: ([(_TWO * p, g)], [(_TWO * g, p)], _NO_DEBRIS)),
    # square associativity: M(x^2 p,g) = M(p,x^2 g)
    "R3": Rule(("p", "g"), move=lambda p, g: ([(_X2 * p, g)], [(p, _X2 * g)], _NO_DEBRIS)),
    # square root: M(2 p^2 g,g) = M(2p,g)
    "R4": Rule(("p", "g"), move=lambda p, g: ([(_TWO * p * p * g, g)], [(_TWO * p, g)], _NO_DEBRIS)),
    "VN": Rule(("n",), (), act=lambda word, n: verschiebung(n, word)),
    # looked up by name on each call, so a wrapper on witt.apply_iso_M0 sees it
    "ISO-M0": Rule(("p", "g"), ("sign",), act=lambda w, p, g, **o: apply_iso_M0(w, p, g, **o)),
    "QARITH": Rule(("q",), (), act=lambda word, q: apply_qarith(word, q)),
}


def apply_rule(
    word: GenWord, rule: str, *params, direction: str = "lr", sign: int = 1
) -> GenWord:
    """Apply the relation rule (R1-R4) at params.

    lr takes the generators of the left side and puts those of the right;
    rl does the reverse.  sign selects a positively or negatively signed
    occurrence.  The Arf debris is added either way: it is 2-torsion.
    """
    left, right, debris = RULES[rule].move(*params)
    src, dst = (left, right) if direction == "lr" else (right, left)
    return GenWord(_put(_take(word, src, sign), dst, sign), word.arf_part + debris)


def verschiebung(n: int, word: GenWord) -> GenWord:
    """Substitute x -> x^n in every index and in the Arf part."""
    if n <= 0:
        raise PrecondError("verschiebung needs n > 0")
    terms = {}
    for (p, g), c in word.m_terms.items():
        k = (p.subs_power(n), g.subs_power(n))
        terms[k] = terms.get(k, 0) + c
    return GenWord(terms, word.arf_part.verschiebung(n))


@functools.lru_cache(maxsize=256)
def _graph_M0(g: PolyInt):
    """M(0, g), shown to be a graph formation (RuleError otherwise, which
    is not cached): both depend on g alone."""
    src = make_M(PolyInt.zero(), g)
    if not is_graph(src):
        raise RuleError("M(0,g) is not a graph formation")
    return src


def apply_iso_M0(word: GenWord, p: PolyInt, g: PolyInt, sign: int = 1) -> GenWord:
    """Discharge M(4p, g): verified isomorphic to the graph formation
    M(0, g) by the explicit witness (Id, Id, [[p,0],[0,0]]), hence zero."""
    four_p = PolyInt((4,)) * p
    src = _graph_M0(g)
    dst = make_M(four_p, g)
    ident = two_id(2, C2Poly, c=1)
    nu = Mat.from_coeffs(((p.coeffs, ()), ((), ())), 2).to_c2()
    if not verify_formation_iso(src, dst, ident, ident, nu, ident, ident):
        raise RuleError("the M(0,g) -> M(4p,g) isomorphism witness fails")
    return GenWord(_take(word, [(four_p, g)], sign), word.arf_part)


def apply_qarith(word: GenWord, q: PolyInt) -> GenWord:
    """Toggle the boundary-generator class [q]; even q contributes zero."""
    return GenWord(dict(word.m_terms), word.arf_part + arf_normalize(q.mod2()))


# ---------------------------------------------------------------------------
# Derivation scripts


@dataclass(frozen=True)
class Step:
    """A rule of RULES with its parameters and options by name; RuleError
    unless they are exactly what the rule takes."""

    rule: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        entry = RULES.get(self.rule)
        if entry is None:
            raise RuleError(f"unknown rule {self.rule!r}, not one of {' '.join(RULES)}")
        given = self.params
        wrong = [f"missing {k}" for k in entry.params if k not in given]
        wrong += [f"unexpected {k}" for k in given if k not in entry.params + entry.options]
        wrong += [f"{k} must be one of {'/'.join(map(str, OPTIONS[k][1]))}"
                  for k in entry.options if k in given and given[k] not in OPTIONS[k][1]]
        if wrong:
            takes = " ".join([*entry.params, *(f"[{k}]" for k in entry.options)])
            raise RuleError(f"{self.rule} takes {takes}: {', '.join(wrong)}")

    def apply(self, word: GenWord) -> GenWord:
        entry = RULES[self.rule]
        args = [self.params[k] for k in entry.params]
        opts = {OPTIONS[k][0]: v for k, v in self.params.items() if k in OPTIONS}
        if entry.move is not None:
            return apply_rule(word, self.rule, *args, **opts)
        return entry.act(word, *args, **opts)


def replay(script, start: GenWord, end: GenWord) -> bool:
    """Apply the steps of script to start; ReplayError tags the failing
    step, and the return value is whether the final word equals end."""
    word = start
    for i, step in enumerate(script):
        try:
            word = step.apply(word)
        except AlgebraError as exc:
            raise ReplayError(i, str(exc)) from exc
    return word == end


# -- script generators transcribing the four derivations


def exponent_four_script(p: PolyInt, g: PolyInt) -> tuple:
    """4*M(p,g) -> 0: merge twice, merge the doubles, discharge M(4p,g)."""
    return (
        Step("R1", {"p1": p, "p2": p, "g": g}),
        Step("R1", {"p1": p, "p2": p, "g": g}),
        Step("R1", {"p1": _TWO * p, "p2": _TWO * p, "g": g}),
        Step("ISO-M0", {"p": p, "g": g}),
    )


def _monomials(p: PolyInt):
    return [
        (c, k) for k, c in enumerate(p.coeffs) if c
    ]


def idempotence_script(p: PolyInt) -> tuple:
    """2*(V2 - 1)*M(p,1) -> 0 for p with zero constant coefficient and
    nonnegative coefficients.

    Merge each signed double, split both merged generators into monomial
    pieces (all even, so no Arf debris), and cancel each matched pair
    M(2x^{2k},1) - M(2x^k,1) by the square-root rule, highest exponent
    first so earlier rewrites keep their generators available.
    """
    if p.constant != 0:
        raise PrecondError("p must have zero constant coefficient")
    if any(c < 0 for c in p.coeffs):
        raise PrecondError("monomial decomposition needs nonnegative coefficients")
    one = PolyInt.one()
    v2p = p.subs_power(2)
    steps = [
        Step("R1", {"p1": v2p, "p2": v2p, "g": one}),
        Step("R1", {"p1": p, "p2": p, "g": one, "sign": -1}),
    ]
    for poly, sign in ((_TWO * v2p, 1), (_TWO * p, -1)):
        # peel monomials off the merged generator, highest exponent first
        rest = poly
        mono = _monomials(poly)
        for c, k in sorted(mono, key=lambda ck: -ck[1])[:-1]:
            piece = PolyInt.x_power(k, c)
            rest = rest - piece
            steps.append(
                Step("R1", {"p1": piece, "p2": rest, "g": one, "dir": "rl", "sign": sign})
            )
        # split repeated monomials 2m*x^k into m unit pieces 2x^k
        for c, k in mono:
            unit = PolyInt.x_power(k, 2)
            for j in range(c // 2, 1, -1):
                steps.append(
                    Step(
                        "R1",
                        {
                            "p1": unit,
                            "p2": PolyInt.x_power(k, 2 * (j - 1)),
                            "g": one,
                            "dir": "rl",
                            "sign": sign,
                        },
                    )
                )
    # each piece 2x^{2k} maps onto its negative partner 2x^k; descending k
    # so that a rewrite never needs a generator a later one produces
    for c, k in sorted(_monomials(p), key=lambda ck: -ck[1]):
        for _ in range(c):
            steps.append(Step("R4", {"p": PolyInt.x_power(k), "g": one}))
    return tuple(steps)


def _claim_steps(k: int, sign: int):
    """Steps carrying M(2x^k, x) to M(2x^{k+1}, 1), by induction on k."""
    one = PolyInt.one()
    x = PolyInt.x_power(1)
    if k == 0:
        return [Step("R2", {"p": one, "g": x, "sign": sign})]
    if k % 2 == 0:
        i = k // 2
        steps = []
        g = x
        for step in range(i):
            p_part = PolyInt.x_power(2 * (i - step - 1), 2)
            steps.append(Step("R3", {"p": p_part, "g": g, "sign": sign}))
            g = PolyInt.x_power(2) * g
        steps.append(Step("R2", {"p": one, "g": PolyInt.x_power(k + 1), "sign": sign}))
        return steps
    i = (k - 1) // 2
    steps = [Step("R4", {"p": PolyInt.x_power(i), "g": x, "sign": sign})]
    steps += _claim_steps(i, sign)
    steps.append(
        Step("R4", {"p": PolyInt.x_power(i + 1), "g": one, "dir": "rl", "sign": sign})
    )
    return steps


def exponent_two_script(k: int) -> tuple:
    """2*(M(x,g) - M(1,xg)) -> 0 for g = x^k: merge both signed pairs, turn
    the doubles by symmetry, then run the inductive monomial chain.

    For k = 0 the two symmetry rewrites land on the same generator, so the
    word is already zero after the first one.
    """
    one = PolyInt.one()
    x = PolyInt.x_power(1)
    g = PolyInt.x_power(k)
    xg = x * g
    steps = [
        Step("R1", {"p1": x, "p2": x, "g": g}),
        Step("R1", {"p1": one, "p2": one, "g": xg, "sign": -1}),
        Step("R2", {"p": x, "g": g}),
    ]
    if k == 0:
        return tuple(steps)
    steps.append(Step("R2", {"p": one, "g": xg, "sign": -1}))
    steps += _claim_steps(k, 1)
    return tuple(steps)


def nilpotence_script(g: PolyInt) -> tuple:
    """V2*(M(x,g) - M(1,xg)) -> 0: substitute and apply square
    associativity once."""
    one = PolyInt.one()
    return (
        Step("VN", {"n": 2}),
        Step("R3", {"p": one, "g": g.subs_power(2), "sign": 1}),
    )


def exponent_four_start(p: PolyInt, g: PolyInt) -> GenWord:
    return 4 * GenWord.generator(p, g)


def idempotence_start(p: PolyInt) -> GenWord:
    one = PolyInt.one()
    return 2 * (GenWord.generator(p.subs_power(2), one) - GenWord.generator(p, one))


def exponent_two_start(k: int) -> GenWord:
    x = PolyInt.x_power(1)
    g = PolyInt.x_power(k)
    return 2 * (GenWord.generator(x, g) - GenWord.generator(PolyInt.one(), x * g))


def nilpotence_start(g: PolyInt) -> GenWord:
    x = PolyInt.x_power(1)
    return GenWord.generator(x, g) - GenWord.generator(PolyInt.one(), x * g)


# ---------------------------------------------------------------------------
# The section on the recognized N-generator span


class NWord:
    """Integer combination of linking-form generators N(p, g), used only as
    the domain of the section; no rewrite calculus is attempted on it."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (p, g), c in (terms or {}).items():
            if c:
                clean[(p, g)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("NWord is immutable")

    @staticmethod
    def generator(p: PolyInt, g: PolyInt, coeff: int = 1) -> "NWord":
        return NWord({(p, g): coeff})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return NWord(terms)

    def __neg__(self):
        return NWord({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n: int):
        return NWord({k: n * c for k, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, NWord) and self.terms == other.terms


def _monomial_exponent(p: PolyInt):
    mono = _monomials(p)
    if len(mono) == 1 and mono[0][0] == 1:
        return mono[0][1]
    return None


def section_s(target: NWord) -> GenWord:
    """Map a recognized N-word to the corresponding M-word.

    Recognized span (images of the basis family under the substitution
    operators): single generators N(x^n, 1) with n >= 1, and matched pairs
    c*N(x^n, x^(n*j)) - c*N(1, x^(n*(j+1))) with n, j >= 1.  Anything else
    raises SpanError.
    """
    remaining = dict(target.terms)
    out = GenWord.zero()
    items = sorted(
        remaining.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
    )
    # first pass: matched pairs, keyed by their positive member
    for (p, g), c in items:
        if remaining.get((p, g), 0) == 0:
            continue
        n = _monomial_exponent(p)
        ge = _monomial_exponent(g)
        if n is None or ge is None or n < 1 or ge < 1 or ge % n:
            continue
        partner = (PolyInt.one(), PolyInt.x_power(ge + n))
        if remaining.get(partner, 0) != -c:
            raise SpanError(
                f"N({p};{g}) lacks its matched partner -{c}*N(1;x^{ge + n})"
            )
        out = out + c * (
            GenWord.generator(p, g)
            - GenWord.generator(PolyInt.one(), PolyInt.x_power(ge + n))
        )
        remaining[(p, g)] = 0
        remaining[partner] = 0
    # second pass: single generators N(x^n, 1)
    for (p, g), c in items:
        if remaining.get((p, g), 0) == 0:
            continue
        n = _monomial_exponent(p)
        ge = _monomial_exponent(g)
        if n is not None and ge == 0 and n >= 1:
            out = out + c * GenWord.generator(p, g)
            remaining[(p, g)] = 0
    leftovers = {k: c for k, c in remaining.items() if c}
    if leftovers:
        bad = ", ".join(f"{c}*N({p};{g})" for (p, g), c in leftovers.items())
        raise SpanError(f"outside the recognized span: {bad}")
    return out


# ---------------------------------------------------------------------------
# Answer tables


@dataclass(frozen=True)
class UNilAnswer:
    """Structure descriptor per residue mod 4."""

    residue: int
    kind: str            # "zero" | "arf-group" | "three-summand"
    summands: tuple = ()

    def __str__(self):
        if self.kind == "zero":
            return "0"
        return " (+) ".join(self.summands)


ARF_GROUP = "xF2[x]/(f^2-f)"
TWO_STAGE = "0 -> xF2[x]/(f^2-f) -> NL3(Z) -> xF2[x] x xF2[x] -> 0"

VALID_CONTEXTS = ("C2", "normal-sylow2-exponent-two")


def unil_answer(n: int, context: str = "C2") -> UNilAnswer:
    """Answer table for the unitary nilpotent groups in residue n mod 4.

    Residues 0 and 1 vanish and residue 2 is the Arf group for any finite
    group with a normal Sylow 2-subgroup of exponent two; the residue-3
    three-summand decomposition is stated for the order-2 group only.
    """
    if context not in VALID_CONTEXTS:
        raise PrecondError(f"unknown group context {context!r}")
    r = n % 4
    if r in (0, 1):
        return UNilAnswer(r, "zero")
    if r == 2:
        return UNilAnswer(r, "arf-group", (ARF_GROUP,))
    if context != "C2":
        raise PrecondError(
            "the residue-3 decomposition is determined only for the order-2 group"
        )
    return UNilAnswer(
        3,
        "three-summand",
        (ARF_GROUP, f"NL3(Z) [{TWO_STAGE}]", f"NL3(Z) [{TWO_STAGE}]"),
    )
