"""Split epsilon-quadratic formations and the generator families.

A split formation is stored as (gamma, mu, theta, epsilon): the second
lagrangian of the hyperbolic form on F + F* is the image of the column
(gamma over mu): G -> F + F*, and theta is a hessian de-symmetrizing the
pullback form, so that

    theta - epsilon * theta^* = gamma^* mu.

The constructors make_M, make_M_sum, make_Q and make_N_resolution build
the concrete generator matrices over Z[C2][x] and Z[x] used throughout
the package; verify_poincare, is_graph and verify_formation_iso are the
decidable certificates attached to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rings import (
    AlgebraError,
    C2Poly,
    Mat,
    ONE_MINUS_T,
    PolyF2,
    PolyInt,
    PrecondError,
    RingTagError,
    ShapeError,
    all_even,
)


class UnsupportedShapeError(AlgebraError):
    """The operation only supports the exponent-two shape mu = 2*Id."""


@dataclass(frozen=True)
class SplitFormation:
    """Nonsingular split epsilon-quadratic formation (gamma, mu, theta)."""

    # declared here, not by slots=True: the class that slots=True rebuilds
    # makes assigning a name that is not a field raise TypeError, not
    # FrozenInstanceError, on CPython 3.11
    __slots__ = ("gamma", "mu", "theta", "epsilon")

    gamma: Mat
    mu: Mat
    theta: Mat
    epsilon: int

    def __post_init__(self):
        gamma, mu, theta = self.gamma, self.mu, self.theta
        if self.epsilon not in (1, -1):
            raise PrecondError("epsilon must be +1 or -1")
        if gamma.ring is not mu.ring or gamma.ring is not theta.ring:
            raise RingTagError("formation blocks over different rings")
        if gamma.cols != mu.cols or gamma.rows != mu.rows:
            raise ShapeError("gamma and mu must have equal shape")
        if theta.rows != gamma.cols or not theta.is_square():
            raise ShapeError("theta must be square of size g_rank")

    @property
    def ring(self):
        return self.gamma.ring

    @property
    def f_rank(self) -> int:
        return self.gamma.rows

    @property
    def g_rank(self) -> int:
        return self.gamma.cols

    def hessian_holds(self) -> bool:
        """theta - epsilon*theta^* = gamma^* mu, as an exact matrix equality."""
        ts = self.theta.conj_t()
        lhs = self.theta - ts if self.epsilon == 1 else self.theta + ts
        return lhs == self.gamma.conj_t() * self.mu

    def __repr__(self):
        return (
            f"SplitFormation(eps={self.epsilon:+d}, gamma={self.gamma}, "
            f"mu={self.mu}, theta={self.theta})"
        )


@lru_cache(maxsize=32)
def two_id(n: int, ring, c: int = 2) -> Mat:
    """c*Id, n x n over ring: 2*Id is mu of the generators and the
    differential of their complexes, Id the identity of the isomorphism
    checks.  Shared, since a Mat is immutable; made by Mat.scalar, so a
    product with it is a scaling of the other factor."""
    return Mat.scalar(n, c, ring)


def make_M(p: PolyInt, g: PolyInt) -> SplitFormation:
    """Rank-2 generator over Z[C2][x] with parameters p, g (p*g in x*Z[x]):
    gamma = theta = [[p,1],[1,(1-T)g]], mu = 2*Id."""
    return make_M_sum(((1, p, g),))


def make_M_sum(terms) -> SplitFormation:
    """The signed sum of generators s_1 M(p_1, g_1) + ... over Z[C2][x], for
    terms (s_i, p_i, g_i) with s_i = +-1, in the representative with
    mu = 2*Id: block i of gamma = theta is s_i times make_M's block.  It is
    the block sum of the generators, each negative one with mu and theta
    negated (mu = diag(+-2)), after the base change beta = diag(s_i) of G."""
    n, minus, plus = 2 * len(terms), [], []
    for i, (s, p, g) in enumerate(terms):
        if s not in (1, -1):
            raise PrecondError("a generator's sign must be +1 or -1")
        if p.constant * g.constant != 0:  # the constant coefficient of p*g
            raise PrecondError("p*g must have zero constant coefficient")
        # the legs of block i, which agree mod 2: (1 - T) g is 2g at T -> -1
        # and 0 at T -> +1
        left, right = ((),) * (2 * i), ((),) * (n - 2 * i - 2)
        top = (*left, tuple([s * c for c in p.coeffs]), (s,), *right)
        minus += [top, (*left, (s,), tuple([2 * s * c for c in g.coeffs]), *right)]
        plus += [top, (*left, (s,), (), *right)]
    gamma = Mat.from_legs(Mat.from_coeffs(minus, n), Mat.from_coeffs(plus, n))
    return SplitFormation(gamma, two_id(n, C2Poly), gamma, -1)


def make_Q(q: PolyInt) -> SplitFormation:
    """Rank-2 generator over Z[C2][x] with parameter q in x*Z[x]; with
    qh = 2(1-T)q: gamma = [[0,qh],[qh,0]], mu = [[1,(1-T)q],[(1-T),1]],
    theta = [[qh,0],[qh,q*qh]]."""
    if q.constant != 0:
        raise PrecondError("q must have zero constant coefficient")
    qc = C2Poly.from_polyint(q)
    qh = C2Poly.from_int(2) * ONE_MINUS_T * qc
    zero, one = C2Poly.zero(), C2Poly.one()
    gamma = Mat([[zero, qh], [qh, zero]], C2Poly)
    mu = Mat([[one, ONE_MINUS_T * qc], [ONE_MINUS_T, one]], C2Poly)
    theta = Mat([[qh, zero], [qh, qc * qh]], C2Poly)
    return SplitFormation(gamma, mu, theta, -1)


def make_N_resolution(p: PolyInt, g: PolyInt) -> SplitFormation:
    """Resolution over Z[x] of the exponent-two linking-form generator with
    parameters p, g: gamma = theta = [[p,1],[1,2g]], mu = 2*Id."""
    if p.constant != 0 and g.constant != 0:
        raise PrecondError("either p or g must have zero constant coefficient")
    gamma = Mat.from_coeffs(((p.coeffs, (1,)), ((1,), tuple([2 * c for c in g.coeffs]))), 2)
    return SplitFormation(gamma, two_id(2, PolyInt), gamma, -1)


def i_minus(f: SplitFormation) -> SplitFormation:
    """Evaluate T -> -1 entry-wise."""
    return SplitFormation(
        f.gamma.i_minus(), f.mu.i_minus(), f.theta.i_minus(), f.epsilon
    )


def i_plus(f: SplitFormation) -> SplitFormation:
    """Evaluate T -> +1 entry-wise."""
    return SplitFormation(
        f.gamma.i_plus(), f.mu.i_plus(), f.theta.i_plus(), f.epsilon
    )


def verify_poincare(f: SplitFormation) -> bool:
    """Homological duality certificate for the exponent-two shape.

    For mu = 2*Id the duality map on the mod-2 homology of the associated
    complex is gamma, so the verdict is: det(gamma) is a unit mod 2.
    Other mu shapes raise UnsupportedShapeError.
    """
    if f.ring is PolyF2 or f.mu != two_id(f.f_rank, f.ring):  # over F2[x], 2 = 0
        raise UnsupportedShapeError("duality check supports only mu = 2*Id")
    return f.gamma.det().is_unit_mod2()


def is_graph(f: SplitFormation) -> bool:
    """True iff the second lagrangian projects isomorphically to F, i.e.
    gamma is invertible over the ring; such formations represent zero."""
    return f.gamma.is_square() and f.gamma.det().is_unit()


def is_contractible(f: SplitFormation) -> bool:
    """True iff mu is invertible over the ring, so the associated complex
    (differential mu^*) is contractible; such formations represent zero."""
    return f.mu.is_square() and f.mu.det().is_unit()


def _is_even_difference(x: Mat, sign: int) -> bool:
    """Whether x = eta - sign * eta^* for some eta.  It holds exactly when
    x + sign * x^* = 0 and each diagonal entry x_ii = (1 - sign) eta_ii is
    0 (sign = +1) or even (sign = -1): eta is then the strict upper part of
    x plus half its diagonal.  Over F2[x] even is 0, for either sign.

    Both tests read the packed values of x, plane by plane over Z[C2][x]
    (the T-evaluations commute with ^*).  Over Z[x] an entry is its value
    at x = 2^k, with every coefficient below 2^(k-1) in absolute value, so
    each coefficient of a + sign * b is below 2^k; a polynomial with such
    coefficients is zero exactly when its value is (its lowest nonzero
    coefficient is not a multiple of 2^k), so x + sign * x^* = 0 is the
    integer test a + sign * b = 0 at one k.  Evenness is read slot by slot
    (rings.all_even).  An entry of Z[C2][x] is even, 2(c + dT), exactly
    when its legs u = 2(c - d) and v = 2(c + d) are even and so is
    (v - u)/2 = 2d, whose value is half that of v - u.
    """
    n = x.rows
    if x.ring is PolyF2:  # x = x^T, with a zero diagonal
        rows = x.bits
        return rows == tuple(zip(*rows)) and not any(rows[i][i] for i in range(n))
    planes = x._data if x.ring is C2Poly else (x._data,)
    for d in planes:
        if any(d[i][j] + sign * d[j][i] for i in range(n) for j in range(i + 1)):
            return False
    if sign == 1:
        return True  # x_ii + x_ii = 0 made the diagonal 0
    u, v = planes[0], planes[-1]
    diag = [u[i][i] for i in range(n)]
    if u is not v:
        diag += [v[i][i] for i in range(n)] + [(v[i][i] - u[i][i]) >> 1 for i in range(n)]
    return all_even(diag, x.k, x.length)


def verify_formation_iso(
    src: SplitFormation,
    dst: SplitFormation,
    alpha: Mat,
    beta: Mat,
    nu: Mat,
    alpha_inv: Mat,
    beta_inv: Mat,
) -> bool:
    """Check that (alpha, beta, nu) is an isomorphism src -> dst.

    Conditions, with e = epsilon:
      (i)   gamma' beta = alpha gamma + (nu - e nu^*) mu
      (ii)  mu' beta = alpha^{-*} mu
      (iii) beta^* theta' beta - theta - mu^* nu mu = eta + e eta^* for
            some eta (_is_even_difference with sign -e).
    alpha_inv and beta_inv are the claimed inverses: PrecondError unless
    alpha * alpha_inv = Id and beta * beta_inv = Id, which over these
    (commutative) rings proves alpha and beta unimodular.  Every product
    is formed; one with a scalar factor (Id, mu = 2*Id from two_id) is a
    scaling, so the ISO-M0 witness (Id, Id, nu) forms no dense product.
    """
    if src.epsilon != dst.epsilon or src.ring is not dst.ring:
        raise PrecondError("formations must share epsilon and ring")
    for name, m, m_inv in (("alpha", alpha, alpha_inv), ("beta", beta, beta_inv)):
        if not (m.is_square() and (m_inv.rows, m_inv.cols) == (m.rows, m.cols)):
            raise PrecondError(f"{name} and {name}_inv must be square of one size")
        if m * m_inv != two_id(m.rows, m.ring, c=1):
            raise PrecondError(f"{name}_inv is not the inverse of {name}")
    e = src.epsilon
    nus = nu.conj_t()
    skew_nu = nu - nus if e == 1 else nu + nus
    if dst.gamma * beta != alpha * src.gamma + skew_nu * src.mu:
        return False
    if dst.mu * beta != alpha_inv.conj_t() * src.mu:
        return False
    diff = (
        beta.conj_t() * dst.theta * beta
        - src.theta
        - src.mu.conj_t() * nu * src.mu
    )
    return _is_even_difference(diff, -e)

