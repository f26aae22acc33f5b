"""1-dimensional (-1)-quadratic complexes and the gluing machine.

The pipeline turns a sum of generator formations plus a null-cobordism
witness (pi, chi) into a nonsingular (+1)-quadratic form over F2[x] and
returns its Arf class:

    formation -> complex -> de-symmetrization check -> corrected cycle
    -> null-cobordism -> union complex -> instant obstruction -> Arf

Complexes here always have modules C_1 = C_0 and differential 2*Id; the
composite pi^{-1} d^* is the witness's own closed form, checked by one
product, and every stage re-checks the matrix identity it relies on.  The
stages that work over Z[x] read the T -> -1 legs of the Z[C2][x] complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import witt
from .forms import (
    ArfClass,
    QuadraticForm,
    SingularFormError,
    arf,
    arf_normalize,
    from_pairing_and_vector,
    standard_symplectic,
)
from .formations import SplitFormation, is_graph, make_M_sum, two_id
from .rings import (
    AlgebraError,
    Mat,
    PolyF2,
    PolyInt,
    PrecondError,
    RingTagError,
    ShapeError,
    # No stage solves.  bench/ wraps these names, so they stay until the
    # benchmark drops them: this import (complexes.solve_right in
    # bench/ubench/baseline.py), rings.solve_right and Mat.adjugate
    # (bench/ubench/trace.py), and build_union's unread psi_hat parameter.
    solve_right,
)


class StageError(AlgebraError):
    """A machine stage failed; carries the stage tag and offending matrix."""

    def __init__(self, stage: str, message: str, matrix: Mat | None = None):
        self.stage = stage
        self.matrix = matrix
        detail = f" (offending matrix {matrix})" if matrix is not None else ""
        super().__init__(f"[{stage}] {message}{detail}")


class QuadComplex1:
    """1-dimensional (-1)-quadratic complex with C_1 = C_0, d = 2*Id.

    Cycle components: psi0t: C^1 -> C_0, psi1: C^0 -> C_0.  The third
    component psi0: C^0 -> C_1 is not stored: the split-formation
    dictionary makes it 0 and the cycle correction keeps it 0.  Nor is d,
    which is the same 2*Id for every complex.  The ring is Z[C2][x] for the
    machine's input and Z[x] for the corrected cycle.
    """

    __slots__ = ("rank", "psi0t", "psi1")

    def __init__(self, psi0t: Mat, psi1: Mat):
        n = psi0t.rows
        for m in (psi0t, psi1):
            if not (m.is_square() and m.rows == n):
                raise ShapeError("all complex components must be n x n")
        if psi1.ring is not psi0t.ring:
            raise RingTagError("complex components over different rings")
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "psi0t", psi0t)
        object.__setattr__(self, "psi1", psi1)

    def __setattr__(self, *a):
        raise AttributeError("QuadComplex1 is immutable")

    @property
    def ring(self):
        return self.psi0t.ring

    @property
    def d(self) -> Mat:
        return two_id(self.rank, self.ring)

    def cycle_holds(self) -> bool:
        """psi1 + psi1^* = -psi0t d^* = -2 psi0t, checked as the vanishing
        of the sum of both sides."""
        return (self.psi1 + self.psi1.conj_t() + self.psi0t * 2).is_zero()


def formation_to_complex(f: SplitFormation) -> QuadComplex1:
    """Associated complex of a split (-1)-formation with mu = 2*Id.

    Dictionary: d = mu^* = 2*Id, psi0 = 0 (not stored), psi0t = gamma^*,
    psi1 = -theta.  Signed sums reach this shape as make_M_sum builds them;
    any other mu, and F2[x], where 2 = 0, raise PrecondError.
    """
    if f.epsilon != -1:
        raise PrecondError("the dictionary is for (-1)-formations")
    if f.f_rank != f.g_rank:
        raise PrecondError("square formations only (F and G of equal rank)")
    if f.ring is PolyF2 or f.mu != two_id(f.g_rank, f.ring):
        raise PrecondError("mu must be 2*Id")
    return QuadComplex1(f.gamma.conj_t(), -f.theta)


def complex_to_formation(c: QuadComplex1) -> SplitFormation:
    """Inverse dictionary: gamma = psi0t^*, mu = d^* = d, theta = -psi1."""
    return SplitFormation(c.psi0t.conj_t(), c.d, -c.psi1, -1)


@dataclass(frozen=True)
class NullCobordismData:
    """Witness (pi, chi) for the null-cobordism builder and its composite
    pi_inv_d = pi^{-1} d^* (d = 2*Id at T -> -1), all over Z[x]; the
    machine checks the composite by one product."""

    pi: Mat
    chi: Mat
    pi_inv_d: Mat

    def __post_init__(self):
        mats = (self.pi, self.chi, self.pi_inv_d)
        if not all(isinstance(m, Mat) and m.ring is PolyInt for m in mats):
            raise RingTagError("pi, chi and pi_inv_d must have entries in Z[x]")
        if not all(m.is_square() for m in mats):
            raise ShapeError("pi, chi and pi_inv_d must be square")
        if any(m.rows != self.pi.rows for m in mats):
            raise ShapeError("pi, chi and pi_inv_d sizes differ")

    @property
    def p_rank(self) -> int:
        return self.pi.rows


def check_desymmetrization(c: QuadComplex1, n: NullCobordismData) -> bool:
    """(pi^{-1} d^*)^* (chi + chi^*) = psi0t pi over Z[x] (psi0t at
    T -> -1).

    The witness's composite a is checked first: pi a = d^* = 2*Id gives
    det pi det a = 2^n, nonzero, so a is pi^{-1} d^*; StageError if not."""
    if n.p_rank != c.rank:
        raise ShapeError("pi size differs from the complex rank")
    a = n.pi_inv_d
    if n.pi * a != two_id(c.rank, PolyInt):
        raise StageError("desymmetrization", "invalid pi: pi * pi_inv_d is not d^*", n.pi)
    rhs = c.psi0t.i_minus() * n.pi
    return a.conj_t() * (n.chi + n.chi.conj_t()) == rhs


def build_psi_hat(c: QuadComplex1, n: NullCobordismData) -> QuadComplex1:
    """Corrected cycle with psi1_hat = (pi^{-1}d^*)^* chi (pi^{-1}d^*) - psi0t d^*,
    returned as the T -> -1 evaluation of the complex.

    Verifies that psi1_hat - psi1 is skew-symmetric, which over Z[x] forces
    zero diagonal, so the correction changes the cycle by an even amount.
    """
    if not check_desymmetrization(c, n):
        raise StageError(
            "desymmetrization",
            "the de-symmetrization identity fails entry-wise",
            n.chi,
        )
    a, psi0t = n.pi_inv_d, c.psi0t.i_minus()
    psi1_hat = a.conj_t() * n.chi * a - psi0t * 2
    diff = psi1_hat - c.psi1.i_minus()
    if not (diff.conj_t() + diff).is_zero():
        raise StageError(
            "psi-hat", "corrected cycle does not differ by a skew matrix", diff
        )
    return QuadComplex1(psi0t, psi1_hat)


@dataclass(frozen=True)
class NullCobordism:
    """Explicit null-cobordism over Z[x]: target differential d_D, chain map
    component f1 and quadratic block dpsi0, the parts the union reads (f0 =
    Id and the other delta-psi blocks enter no check, so are not built)."""

    d_d: Mat        # differential D_1 -> D_0
    f1: Mat         # C_1 -> D_1
    dpsi0: Mat      # D^1 -> D_1


def build_null_cobordism(c: QuadComplex1, n: NullCobordismData) -> NullCobordism:
    """D_1 = P^*, D_0 = C_0, d_D = (pi^{-1}d^*)^*, f = (Id, pi^*),
    dpsi0 = -chi^*, all over Z[x]; checks the chain map d_C = d_D f1."""
    d_d = n.pi_inv_d.conj_t()
    f1 = n.pi.conj_t()
    if c.d.i_minus() != d_d * f1:
        raise StageError("null-cobordism", "f is not a chain map", f1)
    return NullCobordism(d_d=d_d, f1=f1, dpsi0=-n.chi.conj_t())


@dataclass(frozen=True)
class UnionComplex:
    """2-dimensional quadratic complex over F2[x] glued from the two
    null-cobordisms; module ranks (n, 3n, n).  Only what the machine reads
    is built: the differentials (checked, and dumped) and the obstruction
    block dpsi0 = chi^* mod 2 of psi0; no other quadratic block is read."""

    rank: int
    d_f2: Mat       # F_2 -> F_1
    d_f1: Mat       # F_1 -> F_0
    dpsi0: Mat      # the D^1 -> D_1 block of psi0: F^1 -> F_1


def build_union(
    c: QuadComplex1, psi_hat: QuadComplex1, bundle: NullCobordism
) -> UnionComplex:
    """Glue the explicit null-cobordism against the graph-formation side.

    Requires the T -> +1 evaluation of the input, read off its legs, to be
    a graph formation.  All blocks are reduced to F2[x]; the differentials are

        d_F^2 = (-f1; d_C; -Id),   d_F^1 = (d_D, f0, 0)

    with f0 = Id and d_C = 2*Id = 0 (psi_hat is not read); d o d = 0 is checked.
    """
    # a Z[x] input has no T -> +1 evaluation: Mat.i_plus raises RingTagError
    plus = complex_to_formation(QuadComplex1(c.psi0t.i_plus(), c.psi1.i_plus()))
    if not is_graph(plus):
        raise StageError(
            "union", "T -> +1 evaluation is not a graph formation", plus.gamma
        )
    n = c.rank
    zero, ident = (0,) * n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
    d_f2 = Mat.from_bits(bundle.f1.mod2().bits + (zero,) * n + ident, n)
    d_f1 = Mat.from_bits([r + e + zero for r, e in zip(bundle.d_d.mod2().bits, ident)], 3 * n)
    dd = d_f1 * d_f2
    if not dd.is_zero():
        raise StageError("union", "d o d is nonzero", dd)
    return UnionComplex(n, d_f2, d_f1, bundle.dpsi0.mod2())  # -chi^* = chi^* mod 2


@dataclass(frozen=True)
class Obstruction:
    """Instant surgery obstruction: the rank-3n form, the rank-n form it
    reduces to, and their (equal) Arf classes."""

    big: QuadraticForm
    reduced: QuadraticForm
    big_arf: ArfClass
    reduced_arf: ArfClass


def instant_obstruction(u: UnionComplex) -> Obstruction:
    """Surgery obstruction form of the union complex.

    The rank-3n form is

        [[dpsi0, 0, -f1], [0, 0, -Id], [0, 0, 0]]   (mod 2)

    and is stably equivalent to the rank-n form (D^1, dpsi0); the
    equivalence is asserted by comparing Arf classes.
    """
    n, dpsi0, d_f2 = u.rank, u.dpsi0, u.d_f2.bits
    zero = (0,) * n
    # row blocks [dpsi0, 0, f1], [0, 0, Id] and 0; f1, Id: d_F^2's top and bottom
    rows = [r + zero + f for r, f in zip(dpsi0.bits, d_f2)]
    rows += [zero + zero + e for e in d_f2[2 * n:]] + [zero * 3] * n
    big = QuadraticForm(Mat.from_bits(rows, 3 * n), 1)
    reduced = QuadraticForm(dpsi0, 1)
    # the reduction standardises the pairing by a polynomial change of
    # basis u (u^T lambda u = J), which forces det lambda to be a unit; so
    # it fails exactly when the form is singular
    try:
        reduced_arf = arf(reduced)
    except SingularFormError as exc:
        raise StageError(
            "obstruction", "reduced obstruction form is singular", dpsi0
        ) from exc
    big_arf = arf(big)
    if big_arf != reduced_arf:
        raise StageError(
            "obstruction", "big and reduced obstruction forms disagree", dpsi0
        )
    return Obstruction(big, reduced, big_arf, reduced_arf)


# the stages of run_machine, in order; a run that returns passed them all
STAGES = (
    "complex",
    "desymmetrization",
    "psi-hat",
    "null-cobordism",
    "union",
    "obstruction",
    "arf",
)


@dataclass(frozen=True)
class MachineResult:
    """The Arf class and each stage's output."""

    arf: ArfClass
    complex: QuadComplex1
    psi_hat: QuadComplex1
    null_cobordism: NullCobordism
    union: UnionComplex
    obstruction: Obstruction


def run_machine(f: SplitFormation, n: NullCobordismData) -> MachineResult:
    """Full pipeline; returns the Arf class of the reduced obstruction.

    Stage order: formation -> complex, de-symmetrization check, cycle
    correction, null-cobordism, union, instant obstruction, Arf.
    """
    c = formation_to_complex(f)
    if not c.cycle_holds():
        raise StageError("complex", "cycle condition fails", c.psi1)
    if not check_desymmetrization(c, n):
        raise StageError(
            "desymmetrization",
            "the de-symmetrization identity fails entry-wise",
            n.chi,
        )
    psi_hat = build_psi_hat(c, n)
    bundle = build_null_cobordism(c, n)
    union = build_union(c, psi_hat, bundle)
    obs = instant_obstruction(union)
    return MachineResult(obs.reduced_arf, c, psi_hat, bundle, union, obs)


# ---------------------------------------------------------------------------
# Relation fixtures: the null-cobordism witnesses for the four generator
# relations, as closed-form matrices in the parameters.


def _zx_mat(rows) -> Mat:
    """The Z[x] matrix with these rows, built packed: each entry is an
    integer or a PolyInt."""
    crows = [[e.coeffs if isinstance(e, PolyInt) else (e,) if e else () for e in r] for r in rows]
    return Mat.from_coeffs(crows, len(crows[0]))


_X = PolyInt.x_power(1)
# the constant pi of relations 1-3 and its composite pi^{-1} d^* (d^* = 2*Id)
_R1_PI = _zx_mat(
    [
        (0, 1, 0, 2, 0, 0),
        (1, 0, 1, 0, 2, 0),
        (0, 1, 0, 0, 0, 2),
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
    ]
)
_R1_PI_INV_D = _zx_mat(
    [
        (0, 0, 0, 2, 0, 0),
        (0, 0, 0, 0, 2, 0),
        (0, 0, 0, 0, 0, 2),
        (1, 0, 0, 0, -1, 0),
        (0, 1, 0, -1, 0, -1),
        (0, 0, 1, 0, -1, 0),
    ]
)
_R2_PI = _zx_mat([(1, 0, 2, 0), (0, 1, 0, 2), (0, 1, 0, 0), (1, 0, 0, 0)])
_R2_PI_INV_D = _zx_mat([(0, 0, 0, 2), (0, 0, 2, 0), (1, 0, 0, -1), (0, 1, -1, 0)])
_R3_PI = _zx_mat([(1, 0, 0, 0), (0, _X, 0, 2), (_X, 0, 2, 0), (0, 1, 0, 0)])
_R3_PI_INV_D = _zx_mat([(2, 0, 0, 0), (0, 0, 0, 2), (-_X, 0, 1, 0), (0, 1, 0, -_X)])


def relation_fixture(k: int, p: PolyInt, g: PolyInt, p2: PolyInt | None = None):
    """Formation sum, witness (pi, chi, pi^{-1} d^*) and expected Arf class
    for relation k.

    The relation is witt.RULES["R<k>"], the table the rewrite calculus
    applies, with parameters (p1, p2, g) = (p, p2, g) for relation 1 and
    (p, g) for the others.  Its move gives the generators taken, the
    generators put and the Arf debris: the sum is make_M_sum of the taken
    generators with sign +1 and the put ones with sign -1, and the expected
    class is the debris.  Only the witnesses are stated here.
    """
    if k not in (1, 2, 3, 4):
        raise PrecondError(f"unknown relation {k}")
    if k == 1 and p2 is None:
        raise PrecondError("relation 1 needs both p parameters")
    taken, put, debris = witt.RULES[f"R{k}"].move(*((p, p2, g) if k == 1 else (p, g)))
    f = make_M_sum([(1, q, h) for q, h in taken] + [(-1, q, h) for q, h in put])
    if k == 1:
        tg = 2 * g
        chi = _zx_mat(
            [
                (g, 1, g, 1, tg, 1),
                (0, 0, 0, p, 1, p2),
                (0, 0, 0, 1, tg, 0),
                (0, 0, 0, p, 2, 0),
                (0, 0, 0, 0, tg, 0),
                (0, 0, 0, 0, 0, p2),
            ]
        )
        ncd = NullCobordismData(_R1_PI, chi, _R1_PI_INV_D)
    elif k == 2:
        chi = _zx_mat([(0, 0, 2 * p, 1), (0, 0, 1, 2 * g), (0, 0, 2 * p, 2), (0, 0, 0, 2 * g)])
        ncd = NullCobordismData(_R2_PI, chi, _R2_PI_INV_D)
    elif k == 3:
        chi = _zx_mat(
            [(0, 0, -(_X * p), 1), (0, 0, -1, 2 * _X * g), (0, 0, -p, 0), (0, 0, 0, 2 * g)]
        )
        ncd = NullCobordismData(_R3_PI, chi, _R3_PI_INV_D)
    else:
        pi = _zx_mat([(1, 1, 0, 0), (0, p, 2, 0), (0, 1, 0, 0), (p, 0, 0, 2)])
        pi_inv_d = _zx_mat([(2, 0, -2, 0), (0, 0, 2, 0), (0, 1, -p, 0), (-p, 0, p, 1)])
        p2g = p * p * g
        chi = _zx_mat(
            [
                (0, p2g, 1, -2 * p * g),
                (0, p2g, 1 + 2 * p * g, -1),
                (0, 0, 2 * g, 0),
                (0, 0, 0, -2 * g),
            ]
        )
        ncd = NullCobordismData(pi, chi, pi_inv_d)
    return f, ncd, debris


def run_relation(k: int, p: PolyInt, g: PolyInt, p2: PolyInt | None = None):
    """Run the machine on relation k; returns (result, expected ArfClass)."""
    f, ncd, expected = relation_fixture(k, p, g, p2)
    return run_machine(f, ncd), expected


# ---------------------------------------------------------------------------
# The explicit base change that standardises the additivity obstruction form


def alpha_pullback_check(p1: PolyInt, p2: PolyInt, g: PolyInt) -> bool:
    """Verify the closed-form base change for the additivity relation.

    The rank-6 obstruction form with pairing lam and quadratic vector
    (g,0,0,p1,0,p2) is transported by the displayed unimodular alpha onto
    the standard symplectic pairing with quadratic vector
    (g,0,0,p1,p1*g^2,p2), whose Arf class is [p1*p2*g^2]; basis invariance
    of the Arf algorithm is checked along the way.
    """
    one, zero = PolyF2.one(), PolyF2.zero()
    gp, p1p, p2p = g.mod2(), p1.mod2(), p2.mod2()
    lam = Mat(
        [
            [zero, one, gp, one, zero, one],
            [one, zero, zero, p1p, one, p2p],
            [gp, zero, zero, one, zero, zero],
            [one, p1p, one, zero, zero, zero],
            [zero, one, zero, zero, zero, zero],
            [one, p2p, zero, zero, zero, zero],
        ],
        PolyF2,
    )
    vec = (gp, zero, zero, p1p, zero, p2p)
    form = from_pairing_and_vector(lam, vec)
    alpha = Mat(
        [
            [one, zero, zero, zero, one, zero],
            [zero, one, gp, one, zero, one],
            [zero, zero, one, zero, one, zero],
            [zero, zero, zero, one, gp, zero],
            [zero, zero, zero, p1p, one + p1p * gp, p2p],
            [zero, zero, zero, zero, zero, one],
        ],
        PolyF2,
    )
    if not alpha.det().is_unit():
        return False
    moved = form.transport(alpha)
    if moved.symmetrization() != standard_symplectic(6):
        return False
    target_vec = (gp, zero, zero, p1p, p1p * gp * gp, p2p)
    if tuple(moved.psi[i, i] for i in range(6)) != target_vec:
        return False
    expected = arf_normalize(p1p * p2p * gp * gp)
    return arf(form) == expected and arf(moved) == expected
