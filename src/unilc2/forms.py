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
    cl_divmod,
    clmul,
    f2_bit_length,
    f2_dot,
    f2_pack,
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


def hyperbolic(r: int) -> QuadraticForm:
    """Standard hyperbolic form on F + F* over F2[x]: psi = [[0, Id],[0, 0]]."""
    ident = Mat.identity(r, PolyF2)
    zero = Mat.zeros(r, r, PolyF2)
    return QuadraticForm(Mat.from_blocks([[zero, ident], [zero, zero]]), 1)


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
    value of column j, i.e. the diagonal of the transported psi.  ops are
    the elementary column operations that build u from Id, in order:
    ("add", tgt, src, f) for u_tgt += f * u_src, with f a nonzero bitmask
    (PolyF2.bits), and ("swap", i, j).
    """

    u: Mat
    mu: tuple
    ops: tuple

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
        n,
    )


# u is held by columns, each packed into one int as the F2[x] products of
# rings are (Kronecker substitution): slot i of column j, w bits wide,
# holds u[i][j].  A recorded operation u_tgt += f u_src is then one
# carry-less product, ucols[tgt] ^= clmul(f, ucols[src]); it stays slot by
# slot while no product f * u[i][src] outgrows w bits, so each column's
# longest entry is tracked, and all columns are repacked wider before an
# operation that could spill.
FIRST_SLOT_BITS = 64  # the slot width u's packed columns start at


def _unpack_cols(ucols, n: int, w: int) -> list:
    """The rows of bitmasks of the n x n matrix with these packed columns."""
    mask = (1 << w) - 1
    return [tuple([c >> (i * w) & mask for c in ucols]) for i in range(n)]


def symplectic_reduce(form: QuadraticForm) -> SymplecticBasis:
    """Symplectic Gram-Schmidt over the principal ideal domain F2[x].

    Requires an even nonsingular (+1)-form over F2[x].  Every step is a
    congruence, applied to the pairing and recorded in the basis change.
    For each pair the pivot row runs Euclid's algorithm: the lowest-degree,
    lowest-index entry divides the others until one entry is left, which
    must be a unit.  The output is deterministic.

    The quadratic values q[j] = mu(u_j) ride along with the congruences:
    in characteristic 2, mu(a + f*b) = mu(a) + f^2 mu(b) + f lambda(a, b).

    The pairing runs on bitmask rows with the carry-less arithmetic of
    rings, and u on packed columns (above), unpacked once at the end;
    PolyF2 objects are built only for the quadratic values.
    Every column operation is recorded in the result's ops, and the result
    is checked, u^T lambda u = J, by one packed pass (_is_standard_gram).
    """
    if form.ring is not PolyF2:
        raise RingTagError("symplectic reduction works over F2[x]")
    if form.epsilon != 1:
        raise PrecondError("symplectic reduction expects a (+1)-form")
    n = form.rank
    psi = form.psi.bits
    lam = [[psi[i][j] ^ psi[j][i] for j in range(n)] for i in range(n)]
    if any(lam[i][i] for i in range(n)):
        raise PrecondError("pairing must be alternating (zero diagonal)")
    # the pairing in the current basis (symmetric); while pair t is built
    # only its live block, indices >= t, is kept up to date
    g = [list(r) for r in lam]
    q = [psi[j][j] for j in range(n)]
    ops = []
    w = FIRST_SLOT_BITS
    ucols = [1 << (j * w) for j in range(n)]
    ulen = [1] * n  # a bound on the bit length of each column's entries

    def add_u(tgt, src, f):
        # u_tgt += f * u_src, recorded; the caller updates g and q
        nonlocal w
        ops.append(("add", tgt, src, f))
        need = ulen[src] + f.bit_length() - 1
        if need > w:
            wider = max(2 * w, need)
            ucols[:] = [f2_pack(c, wider) for c in zip(*_unpack_cols(ucols, n, w))]
            w = wider
        ucols[tgt] ^= clmul(f, ucols[src])
        ulen[tgt] = max(ulen[tgt], need)

    for t in range(0, n, 2):
        # Euclid on row t: afterwards <e_t, e_piv> is the row's gcd and
        # every other pairing of e_t vanishes
        gt = g[t]
        live = g[t:]
        while True:
            nz = [j for j in range(t + 1, n) if gt[j]]
            if not nz:
                raise SingularFormError("pairing is not unimodular")
            piv = min(nz, key=lambda j: gt[j].bit_length())  # the first of least degree
            if len(nz) == 1:
                break
            for j in nz:
                if j == piv:
                    continue
                f = cl_divmod(gt[j], gt[piv])[0]
                add_u(j, piv, f)
                q[j] ^= clmul(clmul(f, f), q[piv]) ^ clmul(f, g[j][piv])
                # row and column j of the live block gain f times those of
                # piv (g[piv][piv] and the new g[j][j] are 0)
                row = [a ^ clmul(f, b) if b else a for a, b in zip(g[j][t:], g[piv][t:])]
                row[j - t] = 0
                g[j][t:] = row
                for r, v in zip(live, row):
                    r[j] = v
        if gt[piv] != 1:
            raise SingularFormError("pairing is not unimodular")
        if piv != t + 1:
            i, j = t + 1, piv
            ops.append(("swap", i, j))
            q[i], q[j] = q[j], q[i]
            ucols[i], ucols[j] = ucols[j], ucols[i]
            ulen[i], ulen[j] = ulen[j], ulen[i]
            g[i], g[j] = g[j], g[i]
            for r in g[t:]:
                r[i], r[j] = r[j], r[i]
        # decouple the rest from the new pair (t, t+1); <e_t, e_j> is
        # already 0 for j > t+1, so only <e_{t+1}, e_j> needs clearing.
        # Row t of g is now e_{t+1}^*, so u_j += f u_t changes g only in
        # g[j][t+1] (and g[t+1][j]), which it clears, and mu(u_j) gains
        # f^2 mu(u_t) alone.  No later step reads row or column t+1, and
        # each multiplier g[t+1][j] is read before its own operation, so g
        # is left as it is.
        gf = g[t + 1]
        for j in range(t + 2, n):
            f = gf[j]
            if f:
                add_u(j, t, f)
                q[j] ^= clmul(clmul(f, f), q[t])
    urows = _unpack_cols(ucols, n, w)
    if not _is_standard_gram(urows, lam):
        raise SingularFormError("internal error: reduction did not standardise")
    return SymplecticBasis(Mat.from_bits(urows, n), tuple(map(PolyF2, q)), tuple(ops))


# The check u^T lam u = J runs as one packed matrix-vector pass (Kronecker
# substitution, as for the F2[x] products of rings): row r of u is packed
# once, as U_r with entry j in slot j; LU_s = sum_r lam[s][r] U_r is then
# row s of lam u, packed, and sum_s u[s][i] LU_s is row i of u^T lam u.
# XOR has no carries, so each slot holds its entry exactly as long as the
# slot is wider than the entries' degrees, and row i equals J's row i
# exactly when it is the single bit of slot i ^ 1.


def _gram_slot_bits(urows, lam) -> int:
    """The slot width of the pass: the most bits an entry of u^T lam u can
    have, as deg(u^T lam u) <= 2 deg u + deg lam."""
    return max(2 * f2_bit_length(urows) + f2_bit_length(lam) - 2, 1)


def _packed_gram(urows, lam, w: int) -> list:
    """The rows of u^T lam u (u and lam given by rows of bitmasks), each
    packed into one int at slot width w."""
    packed = [f2_pack(r, w) for r in urows]
    lu = [f2_dot(r, packed) for r in lam]
    return [f2_dot(c, lu) for c in zip(*urows)]


def _is_standard_gram(urows, lam) -> bool:
    """Whether u^T lam u is the standard symplectic matrix J, read off the
    packed rows without unpacking an entry."""
    w = _gram_slot_bits(urows, lam)
    return _packed_gram(urows, lam, w) == [1 << ((i ^ 1) * w) for i in range(len(urows))]


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
