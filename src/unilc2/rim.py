"""Boundary map from rank-r forms over F2[x] to split formations over
Z[C2][x], computed by lift-and-pullback along the cartesian square.

Input: a nonsingular form (F2[x]^r, psi') together with integer lifts
psi of psi' and chi of chi' = phi'^{-1} psi' phi'^{-1} (phi' the
symmetrization).  The construction runs in three recorded steps:

  1. the boundary formation of the lifted form over one Z[x] leg, paired
     with the hyperbolic data over the other leg, glued over phi';
  2. a change of coordinates on the second lagrangian that re-glues the
     pair over the identity (this needs a unimodular integer lift of
     phi'^{-1}; the one symplectic reduction of phi' gives u with
     u^T phi' u = J, so phi'^{-1} = u J u^T with no Gauss-Jordan inverse,
     and its elementary column operations, lifted one by one, lift u to U;
     the lift U J U^T has determinant det J * det(U)^2, so its unit
     determinant is checked on U);
  3. entry-wise assembly of each matched pair of integer matrices into a
     single matrix over Z[C2][x] through the fibre-product isomorphism.

For the rank-2 input family P over F2[x] with second parameter 1 and the
canonical lift choices this lands exactly on the make_Q matrices.  Inputs
outside that family are supported on a best-effort basis: the construction
runs whenever the symmetrization is unimodular over F2[x] (always true for
nonsingular even forms), every output is checked to assemble and to satisfy
the hessian identity, but no canonical lift choice is singled out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import forms
from .forms import QuadraticForm, SingularFormError, SymplecticBasis, _slot_or
from .formations import SplitFormation
from .rings import (
    MIN_SLOT_BITS,
    AlgebraError,
    Mat,
    NotInImageError,
    PolyInt,
    PrecondError,
    RingTagError,
    ShapeError,
    _new,
    pullback_matrix,
    spread_bits,
)


class LiftError(AlgebraError):
    """A lift does not reduce to the matrix it is supposed to lift."""


class AssemblyError(AlgebraError):
    """A matched pair of integer matrices is not congruent mod 2."""


def _chi_prime(form: QuadraticForm):
    """(chi', phi'^{-1}, basis) with chi' = phi'^{-1} psi' phi'^{-1} over
    F2[x], read off the form's symplectic reduction (basis: u with u^T phi'
    u = J, so phi'^{-1} = u J u^T); PrecondError unless phi' is
    unimodular.  The reduction is looked up on the forms module at each
    call, as arf does, so a wrapper set there sees it."""
    try:
        basis = forms.symplectic_reduce(form)
    except SingularFormError as exc:
        raise PrecondError("the symmetrization is not unimodular") from exc
    n = form.rank
    # u J is u with the columns of each pair exchanged
    u_j = Mat.from_bits([[r[j ^ 1] for j in range(n)] for r in basis.u.bits], n)
    inv = u_j * basis.u.conj_t()
    return inv * form.psi * inv, inv, basis


def compute_chi_prime(form: QuadraticForm) -> Mat:
    """chi' = phi'^{-1} psi' phi'^{-1} over F2[x]; phi' must be unimodular."""
    return _chi_prime(form)[0]


def default_lift(m: Mat) -> Mat:
    """Coefficient-wise integer lift of an F2[x] matrix (bits 0/1 kept);
    RingTagError for any other ring."""
    return m.lift_bits()


def canonical_P_lifts(q: PolyInt):
    """The lift choices for the rank-2 family that reproduce the Q-generator
    matrices exactly: psi = [[q,1],[0,1]] and chi = [[-1,0],[1,-q]]."""
    one, zero = PolyInt.one(), PolyInt.zero()
    psi = Mat([[q, one], [zero, one]], PolyInt)
    chi = Mat([[-one, zero], [one, -q]], PolyInt)
    return psi, chi


@dataclass(frozen=True)
class BoundaryInput:
    """A form over F2[x] plus integer lifts of psi' and chi'.

    An omitted lift_chi is the coefficient-wise lift of chi'.  The form's
    symplectic reduction runs once here, as basis (u with u^T phi' u = J),
    and phi_inv = u J u^T is read off it, with no Gauss-Jordan inverse: it
    gives chi' for the lift check, and both give the re-coordination in
    boundary_steps.
    """

    form: QuadraticForm
    lift_psi: Mat
    lift_chi: Mat | None = None
    basis: SymplecticBasis = field(init=False, repr=False, compare=False)
    phi_inv: Mat = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        chi = self.lift_chi
        if self.lift_psi.ring is not PolyInt or (chi is not None and chi.ring is not PolyInt):
            raise RingTagError("lifts must have entries in Z[x]")
        if self.lift_psi.mod2() != self.form.psi:
            raise LiftError("lift_psi does not reduce to the input form")
        chi_prime, inv, basis = _chi_prime(self.form)
        if chi is None:
            object.__setattr__(self, "lift_chi", default_lift(chi_prime))
        elif chi.mod2() != chi_prime:
            raise LiftError("lift_chi does not reduce to chi'")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "phi_inv", inv)

    @classmethod
    def with_default_lifts(cls, form: QuadraticForm) -> "BoundaryInput":
        return cls(form, default_lift(form.psi))


@dataclass(frozen=True)
class GluedPair:
    """A formation presented as pairs of integer matrices glued over a
    matrix congruence: the two legs of the fibre product."""

    gamma: tuple
    mu: tuple
    theta: tuple


@dataclass(frozen=True)
class BoundarySteps:
    """The two recorded intermediate presentations and the assembled result."""

    over_phi: GluedPair
    over_id: GluedPair
    result: SplitFormation


def _unimodular_lift(basis: SymplecticBasis, phi_inv: Mat) -> Mat:
    """A lift of phi_inv = phi'^{-1} over Z[x] with determinant +-1.

    The symplectic reduction's basis u has u^T phi' u = J, J exchanging
    the two columns of each pair, so phi'^{-1} = u J u^T.  Its column
    operations, replayed on Id with each multiplier lifted coefficient-wise,
    build a lift U of u; every operation is elementary, so det U = +-1, and
    U J U^T lifts phi'^{-1} with determinant +-1.  The result is checked
    against phi_inv: the replayed Z[x] operations must reduce to u J u^T,
    which the reduction's exact check u^T phi' u = J proves is phi'^{-1}.
    Its unit determinant is checked on the factor U^T: the product is
    exact and det J = +-1, so det(U J U^T) = det J * det(U)^2 is +-1
    exactly when det U is, and U's entries are about half as long as the
    product's, so its determinant is the cheaper one to form.

    Every lifted multiplier has 0/1 coefficients and every operation adds,
    so no coefficient of U is negative and none cancels.  A first pass over
    the operations therefore bounds each column's coefficients and gives its
    longest entry exactly, and the replay runs on packed columns: column j
    is one int whose slot i, k * L bits wide, holds U[i][j] at x = 2^k (k
    wider than every coefficient, L the longest entry), so u_tgt += f u_src
    is one multiply-add by f(2^k).  The slots are the packed entries of the
    two factors U J and U^T.
    """
    n = basis.u.rows
    bound, length = [1] * n, [1] * n
    for op in basis.ops:
        if op[0] == "swap":
            _, i, j = op
            bound[i], bound[j] = bound[j], bound[i]
            length[i], length[j] = length[j], length[i]
        else:
            # a coefficient of f * b sums at most min(#terms of f, len b)
            # coefficients of b
            _, tgt, src, f = op
            bound[tgt] += min(f.bit_count(), length[src]) * bound[src]
            length[tgt] = max(length[tgt], length[src] + f.bit_length() - 1)
    longest = max(length, default=0)
    k = max(MIN_SLOT_BITS, max(bound, default=0).bit_length() + 1)
    s = k * longest
    cols = [1 << (j * s) for j in range(n)]
    for op in basis.ops:
        if op[0] == "swap":
            _, i, j = op
            cols[i], cols[j] = cols[j], cols[i]
        else:
            _, tgt, src, f = op
            cols[tgt] += spread_bits(f, k) * cols[src]
    # the factors' bound, within a factor 2 of their largest coefficient:
    # the OR of all coefficients, folded slot by slot out of the columns
    top = (1 << _slot_or(cols, n * longest, k).bit_length()) - 1
    # U^T has rows cols; U J is U with the columns of each pair exchanged
    mask = (1 << s) - 1
    ut = tuple([tuple([c >> (i * s) & mask for i in range(n)]) for c in cols])
    u_j = tuple(zip(*[ut[j ^ 1] for j in range(n)]))
    factor = _new(PolyInt, n, n, ut, k, top, longest)  # U^T
    lift = _new(PolyInt, n, n, u_j, k, top, longest) * factor
    if lift.mod2() != phi_inv:
        raise AssemblyError("the lift U J U^T does not reduce to phi'^-1")
    if not factor.det().is_unit():
        raise AssemblyError("the lift U of u is not unimodular")
    return lift


def _assemble(pair) -> Mat:
    """Fibre-product assembly of (matrix over leg-, matrix over leg+) into a
    matrix over Z[C2][x]."""
    m_minus, m_plus = pair
    if (m_minus.rows, m_minus.cols) != (m_plus.rows, m_plus.cols):
        raise ShapeError("pair shapes differ")
    try:
        return pullback_matrix(m_minus, m_plus)
    except NotInImageError as exc:
        raise AssemblyError(f"the pair does not glue: {exc}") from exc


def boundary_steps(inp: BoundaryInput) -> BoundarySteps:
    """Run the boundary construction, recording both intermediate
    presentations."""
    r = inp.form.rank
    psi, chi = inp.lift_psi, inp.lift_chi
    phi = psi + psi.conj_t()
    ident = Mat.identity(r, PolyInt)
    zero = Mat.zeros(r, r, PolyInt)
    gamma_b = ident - (chi + chi.conj_t()) * phi
    theta_b = psi - phi * chi * phi
    step1 = GluedPair(
        gamma=(gamma_b, zero),
        mu=(phi, ident),
        theta=(theta_b, zero),
    )
    # re-coordinate the second lagrangian by a unimodular lift of the
    # inverse symmetrization, so that every pair glues over the identity
    phi_tilde = _unimodular_lift(inp.basis, inp.phi_inv)
    step2 = GluedPair(
        gamma=(gamma_b * phi_tilde, zero),
        mu=(phi * phi_tilde, ident),
        theta=(phi_tilde.conj_t() * theta_b * phi_tilde, zero),
    )
    result = SplitFormation(
        _assemble(step2.gamma),
        _assemble(step2.mu),
        _assemble(step2.theta),
        -1,
    )
    return BoundarySteps(over_phi=step1, over_id=step2, result=result)


def boundary(inp: BoundaryInput) -> SplitFormation:
    """Boundary formation over Z[C2][x] of a lifted form over F2[x]."""
    return boundary_steps(inp).result


def expected_fixture_steps(q: PolyInt):
    """The two intermediate displays for the P-family fixture, as closed
    forms in q: used by the golden tests and the --show-steps output."""
    one, zero, two = PolyInt.one(), PolyInt.zero(), PolyInt((2,))
    four_q = PolyInt((4,)) * q
    two_q = two * q
    step1 = {
        "gamma": Mat([[four_q, zero], [zero, four_q]], PolyInt),
        "mu": Mat([[two_q, one], [one, two]], PolyInt),
        "theta": Mat([[four_q * q, four_q], [zero, four_q]], PolyInt),
    }
    step2 = {
        "gamma": Mat([[zero, four_q], [four_q, zero]], PolyInt),
        "mu": Mat([[one, two_q], [two, one]], PolyInt),
        "theta": Mat([[four_q, zero], [four_q, four_q * q]], PolyInt),
    }
    return step1, step2
