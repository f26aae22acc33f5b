"""Quadratic forms on free modules and the Arf invariant over F2[x].

A form is carried by its matrix psi; the quadratic function is
mu(v) = v^T psi v and the underlying pairing is the symmetrization
lambda = psi + epsilon * psi^T.  Over F2[x] the Arf invariant of an even
nonsingular (+1)-form is computed on a symplectic basis as
sum mu(e_i) mu(f_i), read in the quotient of F2[x] by the relations
x^(2k) = x^k for k >= 1 (class ArfClass).
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (
    AlgebraError,
    Mat,
    PolyF2,
    PrecondError,
    RingTagError,
    ShapeError,
    f2_divmod,
    format_poly,
)


class SingularFormError(AlgebraError):
    """The pairing is not unimodular where the operation requires it."""


# ---------------------------------------------------------------------------
# Arf classes


@dataclass(frozen=True)
class ArfClass:
    """Normal form in the quotient of F2[x] by {f^2 - f}.

    Canonical support: the constant exponent 0 plus odd exponents >= 1.
    The augmentation-zero ("reduced") subgroup is {constant == 0}.
    """

    constant: int = 0
    odd: frozenset = frozenset()

    def __post_init__(self):
        if self.constant not in (0, 1):
            raise ValueError("constant must be a bit")
        if any(k < 1 or k % 2 == 0 for k in self.odd):
            raise ValueError("support must be odd exponents >= 1")

    @staticmethod
    def zero() -> "ArfClass":
        return ArfClass(0, frozenset())

    @staticmethod
    def from_poly(q: PolyF2) -> "ArfClass":
        return arf_normalize(q)

    def __add__(self, other: "ArfClass") -> "ArfClass":
        return ArfClass(self.constant ^ other.constant, self.odd ^ other.odd)

    def __bool__(self):
        return bool(self.constant or self.odd)

    def is_reduced(self) -> bool:
        return self.constant == 0

    def to_poly(self) -> PolyF2:
        bits = self.constant
        for k in self.odd:
            bits |= 1 << k
        return PolyF2(bits)

    def verschiebung(self, n: int) -> "ArfClass":
        return arf_normalize(self.to_poly().subs_power(n))

    def __str__(self):
        return format_poly(self.to_poly())


def arf_normalize(q: PolyF2) -> ArfClass:
    """Exhaustive rewrite x^(2k) -> x^k (k >= 1) with XOR on collision.

    Terminates because every step strictly decreases the exponent; the
    result has support on exponent 0 and odd exponents only.
    """
    odd = set()
    constant = q.bits & 1
    bits = q.bits >> 1
    k = 1
    while bits:
        if bits & 1:
            e = k
            while e % 2 == 0:
                e //= 2
            odd ^= {e}
        bits >>= 1
        k += 1
    return ArfClass(constant, frozenset(odd))


# ---------------------------------------------------------------------------
# Forms


class QuadraticForm:
    """epsilon-quadratic form (rank, psi, epsilon) on a free module."""

    __slots__ = ("rank", "psi", "epsilon")

    def __init__(self, psi: Mat, epsilon: int = 1):
        if not psi.is_square():
            raise ShapeError("form matrix must be square")
        if epsilon not in (1, -1):
            raise PrecondError("epsilon must be +1 or -1")
        object.__setattr__(self, "rank", psi.rows)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "epsilon", epsilon)

    def __setattr__(self, *a):
        raise AttributeError("QuadraticForm is immutable")

    @property
    def ring(self):
        return self.psi.ring

    def symmetrization(self) -> Mat:
        s = self.psi.conj_t()
        return self.psi + (s if self.epsilon == 1 else -s)

    def is_even(self) -> bool:
        lam = self.symmetrization()
        return all(not lam[i, i] for i in range(self.rank))

    def is_nonsingular(self) -> bool:
        return self.symmetrization().det().is_unit()

    def mu(self, v: Mat) -> "PolyF2 | PolyInt":
        """Quadratic function of a column vector: v* psi v."""
        return (v.conj_t() * self.psi * v)[0, 0]

    def transport(self, u: Mat) -> "QuadraticForm":
        """Base change by u (columns = new basis in old coordinates)."""
        return QuadraticForm(u.conj_t() * self.psi * u, self.epsilon)

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and self.epsilon == other.epsilon
            and self.psi == other.psi
        )

    def __repr__(self):
        return f"QuadraticForm(eps={self.epsilon:+d}, psi={self.psi})"


def make_P(q: PolyF2, g: PolyF2) -> QuadraticForm:
    """Rank-2 (+1)-quadratic form over F2[x] with pairing [[0,1],[1,0]] and
    quadratic vector (q, g): psi = [[q,1],[0,g]]."""
    one, zero = PolyF2.one(), PolyF2.zero()
    return QuadraticForm(Mat([[q, one], [zero, g]], PolyF2), 1)


def hyperbolic(r: int, ring=PolyF2, epsilon: int = 1) -> QuadraticForm:
    """Standard hyperbolic form on F + F*: psi = [[0, Id],[0, 0]]."""
    ident = Mat.identity(r, ring)
    zero = Mat.zeros(r, r, ring)
    return QuadraticForm(Mat.from_blocks([[zero, ident], [zero, zero]]), epsilon)


def direct_sum(a: QuadraticForm, b: QuadraticForm) -> QuadraticForm:
    if a.ring is not b.ring:
        raise RingTagError("direct sum of forms over different rings")
    if a.epsilon != b.epsilon:
        raise PrecondError("direct sum of forms with different epsilon")
    return QuadraticForm(Mat.block_diag([a.psi, b.psi]), a.epsilon)


def negate(a: QuadraticForm) -> QuadraticForm:
    return QuadraticForm(-a.psi, a.epsilon)


def from_pairing_and_vector(lam: Mat, vec) -> QuadraticForm:
    """Form with given even symmetric pairing and quadratic vector: psi is
    the strict upper part of lam plus the vector on the diagonal."""
    n = lam.rows
    zero = PolyF2.zero()
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < j:
                out[i][j] = lam[i, j]
            elif i == j:
                out[i][j] = vec[i]
    return QuadraticForm(Mat(out, PolyF2), 1)


# ---------------------------------------------------------------------------
# Symplectic reduction over F2[x]


@dataclass(frozen=True)
class SymplecticBasis:
    """Unimodular change of basis exhibiting hyperbolic pairs.

    Column 2i is e_i and column 2i+1 is f_i; the transported pairing is the
    block-antidiagonal standard symplectic matrix.  mu[j] is the quadratic
    value of column j, i.e. the diagonal of the transported psi.
    """

    u: Mat
    mu: tuple

    @property
    def pairs(self):
        return tuple((2 * i, 2 * i + 1) for i in range(self.u.rows // 2))


def standard_symplectic(n: int) -> Mat:
    """Block-antidiagonal pairing diag([[0,1],[1,0]], ...) of size n."""
    if n % 2:
        raise ShapeError("symplectic pairings have even rank")
    one, zero = PolyF2.one(), PolyF2.zero()
    # i ^ 1 is the other index of the pair (i - i % 2, i - i % 2 + 1)
    return Mat._raw(
        tuple(tuple(one if j == i ^ 1 else zero for j in range(n)) for i in range(n)),
        PolyF2,
    )


def symplectic_reduce(form: QuadraticForm) -> SymplecticBasis:
    """Symplectic Gram-Schmidt over the principal ideal domain F2[x].

    Requires an even nonsingular (+1)-form over F2[x].  Every step is a
    congruence, applied to the pairing and recorded in the basis change.
    For each pair the pivot row runs Euclid's algorithm: the lowest-degree,
    lowest-index entry divides the others until one entry is left, which
    must be a unit.  The output is deterministic.

    The quadratic values q[j] = mu(u_j) ride along with the congruences:
    in characteristic 2, mu(a + f*b) = mu(a) + f^2 mu(b) + f lambda(a, b).
    """
    if form.ring is not PolyF2:
        raise RingTagError("symplectic reduction works over F2[x]")
    if form.epsilon != 1:
        raise PrecondError("symplectic reduction expects a (+1)-form")
    lam = form.symmetrization()
    n = form.rank
    if any(lam[i, i] for i in range(n)):
        raise PrecondError("pairing must be alternating (zero diagonal)")
    g = [list(r) for r in lam.entries]
    u = [list(r) for r in Mat.identity(n, PolyF2).entries]
    q = [form.psi[j, j] for j in range(n)]

    def add_col(tgt, src, f):
        # column op on u and the matching congruence update on g and q
        if not f:
            return
        if q[src]:
            q[tgt] = q[tgt] + f * f * q[src]
        if g[tgt][src]:
            q[tgt] = q[tgt] + f * g[tgt][src]
        for rows in (u, g):
            for r in rows:
                if r[src]:
                    r[tgt] = r[tgt] + f * r[src]
        gt, gs = g[tgt], g[src]
        for j in range(n):
            if gs[j]:
                gt[j] = gt[j] + f * gs[j]

    def swap(i, j):
        q[i], q[j] = q[j], q[i]
        for r in u:
            r[i], r[j] = r[j], r[i]
        g[i], g[j] = g[j], g[i]
        for r in g:
            r[i], r[j] = r[j], r[i]

    for t in range(0, n, 2):
        # Euclid on row t: afterwards <e_t, e_piv> is the row's gcd and
        # every other pairing of e_t vanishes
        while True:
            nz = [j for j in range(t + 1, n) if g[t][j]]
            if not nz:
                raise SingularFormError("pairing is not unimodular")
            piv = min(nz, key=lambda j: (g[t][j].degree(), j))
            if len(nz) == 1:
                break
            for j in nz:
                if j != piv:
                    add_col(j, piv, f2_divmod(g[t][j], g[t][piv])[0])
        if not g[t][piv].is_unit():
            raise SingularFormError("pairing is not unimodular")
        if piv != t + 1:
            swap(t + 1, piv)
        # decouple the rest from the new pair (t, t+1); <e_t, e_j> is
        # already 0 for j > t+1, so only <e_{t+1}, e_j> needs clearing
        for j in range(t + 2, n):
            add_col(j, t, g[t + 1][j])
    um = Mat._raw(tuple(map(tuple, u)), PolyF2)
    if um.conj_t() * lam * um != standard_symplectic(n):
        raise SingularFormError("internal error: reduction did not standardise")
    return SymplecticBasis(um, tuple(q))


def arf(form: QuadraticForm) -> ArfClass:
    """Arf invariant of an even nonsingular (+1)-form over F2[x]."""
    basis = symplectic_reduce(form)
    total = PolyF2.zero()
    for i, j in basis.pairs:
        total = total + basis.mu[i] * basis.mu[j]
    return arf_normalize(total)


def witt_equal(a: QuadraticForm, b: QuadraticForm) -> bool:
    """Stable equivalence of even nonsingular (+1)-forms over F2[x]: the
    Arf classes (including the constant, augmentation-at-0 part) agree."""
    return arf(a) == arf(b)
