"""Boundary map from rank-r forms over F2[x] to split formations over
Z[C2][x], computed by lift-and-pullback along the cartesian square.

Input: a nonsingular (+1)-form (F2[x]^r, psi') together with integer lifts
psi of psi' and chi of chi' = phi'^{-1} psi' phi'^{-1} (phi' the
symmetrization).  The construction runs in three recorded steps:

  1. the boundary formation of the lifted form over one Z[x] leg, paired
     with the hyperbolic data over the other leg, glued over phi';
  2. a change of coordinates on the second lagrangian that re-glues the
     pair over the identity (this needs a unimodular integer lift of the
     inverse of phi', produced from an elementary factorization when the
     coefficient-wise lift is not already unimodular);
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

from .forms import QuadraticForm
from .formations import SplitFormation
from .rings import (
    AlgebraError,
    C2Poly,
    Mat,
    PolyF2,
    PolyInt,
    PrecondError,
    RingTagError,
    ShapeError,
    f2_divmod,
    pullback_inverse,
)


class LiftError(AlgebraError):
    """A lift does not reduce to the matrix it is supposed to lift."""


class AssemblyError(AlgebraError):
    """A matched pair of integer matrices is not congruent mod 2."""


def _chi_prime(form: QuadraticForm):
    """(chi', phi'^{-1}) with chi' = phi'^{-1} psi' phi'^{-1} over F2[x];
    PrecondError unless phi' is unimodular."""
    if form.ring is not PolyF2 or form.epsilon != 1:
        raise PrecondError("the boundary takes (+1)-forms over F2[x]")
    inv = form.symmetrization().inverse_unimodular()
    return inv * form.psi * inv, inv


def compute_chi_prime(form: QuadraticForm) -> Mat:
    """chi' = phi'^{-1} psi' phi'^{-1} over F2[x]; phi' must be unimodular."""
    return _chi_prime(form)[0]


def default_lift(m: Mat) -> Mat:
    """Coefficient-wise integer lift of an F2[x] matrix (bits 0/1 kept)."""
    if m.ring is not PolyF2:
        raise RingTagError("default_lift expects an F2[x] matrix")
    return m.map_entries(lambda e: PolyInt(e.coeffs), PolyInt)


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

    An omitted lift_chi is the coefficient-wise lift of chi'.  phi_inv, the
    inverse of the symmetrization phi', is derived once here: it gives chi'
    for the lift check and the re-coordination in boundary_steps.
    """

    form: QuadraticForm
    lift_psi: Mat
    lift_chi: Mat | None = None
    phi_inv: Mat = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        chi = self.lift_chi
        if self.lift_psi.ring is not PolyInt or (chi is not None and chi.ring is not PolyInt):
            raise RingTagError("lifts must have entries in Z[x]")
        if self.lift_psi.mod2() != self.form.psi:
            raise LiftError("lift_psi does not reduce to the input form")
        chi_prime, inv = _chi_prime(self.form)
        if chi is None:
            object.__setattr__(self, "lift_chi", default_lift(chi_prime))
        elif chi.mod2() != chi_prime:
            raise LiftError("lift_chi does not reduce to chi'")
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
    gluing: Mat  # over F2[x]; Id after re-coordination


@dataclass(frozen=True)
class BoundarySteps:
    """The two recorded intermediate presentations and the assembled result."""

    over_phi: GluedPair
    over_id: GluedPair
    result: SplitFormation


def _euclid_ops(m: Mat) -> list:
    """Row operations over the Euclidean domain F2[x] that reduce the square
    matrix m to Id, in order of application: ("add", i, j, f) for
    row_i += f * row_j and ("swap", i, j).  PrecondError if m is not
    invertible."""
    n = m.rows
    work = [list(r) for r in m.entries]
    ops = []

    def rows_add(i, j, f):
        work[i] = [a + f * b for a, b in zip(work[i], work[j])]
        ops.append(("add", i, j, f))

    def rows_swap(i, j):
        work[i], work[j] = work[j], work[i]
        ops.append(("swap", i, j))

    for col in range(n):
        while True:
            nz = [i for i in range(col, n) if work[i][col]]
            if not nz:
                raise PrecondError("matrix is singular over F2[x]")
            nz.sort(key=lambda i: (work[i][col].degree(), i))
            piv = nz[0]
            if len(nz) == 1 and work[piv][col].is_unit():
                if piv != col:
                    rows_swap(col, piv)
                break
            if len(nz) == 1:
                raise PrecondError("matrix is not invertible over F2[x]")
            other = nz[1]
            rows_add(other, piv, f2_divmod(work[other][col], work[piv][col])[0])
        for i in range(n):
            if i != col and work[i][col]:
                rows_add(i, col, work[i][col])
    return ops


def _unimodular_lift(phi_bar: Mat) -> Mat:
    """A lift of an invertible F2[x] matrix that is unimodular over Z[x].

    The coefficient-wise lift is used when its determinant is already +-1;
    otherwise phi_bar is factored into elementary row operations over the
    Euclidean domain F2[x] and each factor lifted, so the product lifts
    phi_bar with determinant +-1.
    """
    cand = default_lift(phi_bar)
    if cand.det().is_unit():
        return cand
    n = phi_bar.rows
    # the ops reduce phi_bar to Id, so phi_bar is the inverse of their
    # product: apply the inverse ops to Id in reverse order, with integer
    # entries
    ident = [[PolyInt((1,)) if i == j else PolyInt(()) for j in range(n)] for i in range(n)]
    for op in reversed(_euclid_ops(phi_bar)):
        if op[0] == "swap":
            _, i, j = op
            ident[i], ident[j] = ident[j], ident[i]
        else:
            _, i, j, f = op
            fl = PolyInt(f.coeffs)
            ident[i] = [a - fl * b for a, b in zip(ident[i], ident[j])]
    lift = Mat(ident, PolyInt)
    if lift.mod2() != phi_bar or not lift.det().is_unit():
        raise AssemblyError("unimodular lift construction failed")
    return lift


def _assemble(pair) -> Mat:
    """Entry-wise fibre-product assembly of (matrix over leg-, matrix over
    leg+) into a matrix over Z[C2][x]."""
    m_minus, m_plus = pair
    if (m_minus.rows, m_minus.cols) != (m_plus.rows, m_plus.cols):
        raise ShapeError("pair shapes differ")
    rows = []
    for r1, r2 in zip(m_minus.entries, m_plus.entries):
        row = []
        for u, v in zip(r1, r2):
            try:
                row.append(pullback_inverse(u, v))
            except AlgebraError as exc:
                raise AssemblyError(
                    f"pair ({u}, {v}) does not glue: {exc}"
                ) from exc
        rows.append(tuple(row))
    return Mat._raw(tuple(rows), C2Poly, m_minus.cols)


def boundary_steps(inp: BoundaryInput) -> BoundarySteps:
    """Run the boundary construction, recording both intermediate
    presentations."""
    r = inp.form.rank
    psi, chi = inp.lift_psi, inp.lift_chi
    phi = psi + psi.conj_t()
    phi_bar = inp.form.symmetrization()
    ident = Mat.identity(r, PolyInt)
    zero = Mat.zeros(r, r, PolyInt)
    gamma_b = ident - (chi + chi.conj_t()) * phi
    theta_b = psi - phi * chi * phi
    step1 = GluedPair(
        gamma=(gamma_b, zero),
        mu=(phi, ident),
        theta=(theta_b, zero),
        gluing=phi_bar,
    )
    # re-coordinate the second lagrangian by a unimodular lift of the
    # inverse symmetrization, so that every pair glues over the identity
    phi_tilde = _unimodular_lift(inp.phi_inv)
    step2 = GluedPair(
        gamma=(gamma_b * phi_tilde, zero),
        mu=(phi * phi_tilde, ident),
        theta=(phi_tilde.conj_t() * theta_b * phi_tilde, zero),
        gluing=Mat.identity(r, PolyF2),
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
