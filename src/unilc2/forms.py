"""Quadratic forms on free modules and the Arf invariant over F2[x].

A form is carried by its matrix psi over F2[x]; the quadratic function
is mu(v) = v^T psi v and the underlying pairing is the symmetrization
lambda = psi + psi^T.  The Arf invariant of a nonsingular form is
computed on a symplectic basis as sum mu(e_i) mu(f_i), read in the
quotient of F2[x] by the relations x^(2k) = x^k for k >= 1 (class
ArfClass).
"""

from __future__ import annotations

import functools
import operator
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, ne, xor

from .rings import (
    AlgebraError,
    Mat,
    PolyF2,
    RingTagError,
    ShapeError,
    cl_divmod,
    clmul,
    f2_bit_length,
    f2_dot,
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


@dataclass(frozen=True)
class QuadraticForm:
    """Quadratic form (rank, psi) on a free module over F2[x].

    Over F2[x], -1 = +1, so one form serves both signs, and its pairing
    psi + psi^T is alternating: its diagonal is psi_ii + psi_ii = 0.  So
    every form is even and is its own negative, and neither needs a check.
    """

    # declared here, not by slots=True: see SplitFormation
    __slots__ = ("psi",)

    psi: Mat

    def __post_init__(self):
        if self.psi.ring is not PolyF2:
            raise RingTagError("quadratic forms are over F2[x]")
        if not self.psi.is_square():
            raise ShapeError("form matrix must be square")

    @property
    def rank(self) -> int:
        return self.psi.rows

    def symmetrization(self) -> Mat:
        return self.psi + self.psi.conj_t()

    def is_nonsingular(self) -> bool:
        return self.symmetrization().det().is_unit()

    def transport(self, u: Mat) -> "QuadraticForm":
        """Base change by u (columns = new basis in old coordinates)."""
        return QuadraticForm(u.conj_t() * self.psi * u)


def make_P(q: PolyF2, g: PolyF2) -> QuadraticForm:
    """Rank-2 form over F2[x] with pairing [[0,1],[1,0]] and quadratic
    vector (q, g): psi = [[q,1],[0,g]]."""
    one, zero = PolyF2.one(), PolyF2.zero()
    return QuadraticForm(Mat([[q, one], [zero, g]], PolyF2))


def hyperbolic(r: int) -> QuadraticForm:
    """Standard hyperbolic form on F + F* over F2[x]: psi = [[0, Id],[0, 0]]."""
    ident = Mat.identity(r, PolyF2)
    zero = Mat.zeros(r, r, PolyF2)
    return QuadraticForm(Mat.from_blocks([[zero, ident], [zero, zero]]))


def direct_sum(a: QuadraticForm, b: QuadraticForm) -> QuadraticForm:
    return QuadraticForm(Mat.block_diag([a.psi, b.psi]))


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
    return QuadraticForm(Mat(out, PolyF2))


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
    # i ^ 1 is the other index of the pair (i - i % 2, i - i % 2 + 1)
    return Mat.from_bits([[int(j == i ^ 1) for j in range(n)] for i in range(n)], n)


# u is held by columns, each packed into one int as the F2[x] products of
# rings are (Kronecker substitution): slot i of column j, w bits wide,
# holds u[i][j].  A recorded operation u_tgt += f u_src is then one
# carry-less product, ucols[tgt] ^= clmul(f, ucols[src]); it stays slot by
# slot while no product f * u[i][src] outgrows w bits, so each column's
# longest entry is tracked, and all columns are repacked wider before an
# operation that could spill.  w is a multiple of 64: laid end to end as
# an array a of 64-bit limbs (_limbs), the columns hold u column by
# column, L = w / 64 limbs an entry, so limb l of row i's entries is the
# strided slice a[i*L + l::n*L].  u is transposed, and re-slotted at
# another multiple of 64, by a few such slices a row (_transpose), not
# entry by entry.
FIRST_SLOT_BITS = 64  # the slot width u's packed columns start at


def _limbs(ints, size: int) -> array:
    """Nonnegative ints of at most 64 * size bits, end to end as 64-bit
    limbs, lowest first."""
    return array("Q", b"".join([z.to_bytes(8 * size, "little") for z in ints]))


def _ints(a: array, size: int) -> list:
    """The ints held by consecutive runs of `size` limbs of a."""
    if size == 1 or not a:
        return a.tolist()
    b, step = a.tobytes(), 8 * size
    return [int.from_bytes(b[k:k + step], "little") for k in range(0, len(b), step)]


def _transpose(a: array, n: int, L: int, K: int) -> array:
    """The transpose of the n x n matrix that a holds entry by entry, row
    by row, L limbs an entry, with K limbs an entry: limbs past L are 0,
    and limbs past K are dropped, so they must be 0."""
    out = array("Q", bytes(8 * n * n * K))
    m = memoryview(a)
    for l in range(min(L, K)):
        plane = m[l::L]  # limb l of each entry: row i of the transpose is plane[i::n]
        out[l::K] = array("Q", b"".join([plane[i::n].tobytes() for i in range(n)]))
    return out


def symplectic_reduce(form: QuadraticForm) -> SymplecticBasis:
    """Symplectic Gram-Schmidt over the principal ideal domain F2[x].

    Requires a nonsingular form.  Every step is a congruence, applied to
    the pairing and recorded in the basis change.  For each pair the pivot
    row runs Euclid's algorithm: the lowest-degree, lowest-index entry
    divides the others until one entry is left, which must be a unit.  The
    output is deterministic.

    The quadratic values q[j] = mu(u_j) ride along with the congruences:
    in characteristic 2, mu(a + f*b) = mu(a) + f^2 mu(b) + f lambda(a, b).

    The pairing runs on bitmask rows with the carry-less arithmetic of
    rings, and u on packed columns (above); each update visits only the
    nonzero entries it reads, and PolyF2 objects are built only for the
    quadratic values.  Every column operation is recorded in the result's
    ops, and the result is checked, u^T lambda u = J, by one packed pass
    (_checked_rows).
    """
    n = form.rank
    psi = form.psi.bits
    lam = [list(map(xor, r, c)) for r, c in zip(psi, zip(*psi))]
    # the pairing in the current basis (symmetric); while pair t is built
    # only its live block, indices >= t, is kept up to date
    g = [r[:] for r in lam]
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
            wider = max(2 * w, -(-need // 64) * 64)
            L, K = w // 64, wider // 64
            # the transpose of the transpose, re-slotted wider on the way
            rows = _transpose(_limbs(ucols, n * L), n, L, K)
            ucols[:] = _ints(_transpose(rows, n, K, K), n * K)
            w = wider
        ucols[tgt] ^= ucols[src] if f == 1 else clmul(f, ucols[src])
        if need > ulen[tgt]:
            ulen[tgt] = need

    for t in range(0, n, 2):
        # Euclid on row t: afterwards <e_t, e_piv> is the row's gcd and
        # every other pairing of e_t vanishes
        gt = g[t]
        while True:
            nz = list(compress(range(t + 1, n), gt[t + 1:]))
            if len(nz) < 2:
                break
            piv = min(nz, key=lambda j: gt[j].bit_length())  # the first of least degree
            # row and column j of the live block gain f times those of piv,
            # where row piv is nonzero (g is symmetric there, and row piv,
            # with g[piv][piv] = 0, is left as it is)
            gp, qp = g[piv], q[piv]
            support = list(compress(range(t, n), gp[t:]))
            for j in nz:
                if j == piv:
                    continue
                f = cl_divmod(gt[j], gt[piv])[0]
                add_u(j, piv, f)
                gj = g[j]
                if qp:
                    q[j] ^= clmul(clmul(f, f), qp)
                if gj[piv]:
                    q[j] ^= clmul(f, gj[piv])
                for k in support:
                    gj[k] = g[k][j] = gj[k] ^ (gp[k] if f == 1 else clmul(f, gp[k]))
                gj[j] = 0
        if not nz or gt[nz[0]] != 1:
            raise SingularFormError("pairing is not unimodular")
        piv = nz[0]
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
        gf, qt = g[t + 1], q[t]
        for j in compress(range(t + 2, n), gf[t + 2:]):
            f = gf[j]
            add_u(j, t, f)
            if qt:
                q[j] ^= clmul(clmul(f, f), qt)
    urows = _checked_rows(ucols, n, w, lam)
    return SymplecticBasis(Mat.from_bits(urows, n), tuple(map(PolyF2, q)), tuple(ops))


# The check u^T lam u = J runs as one packed matrix-vector pass (Kronecker
# substitution, as for the F2[x] products of rings): row r of u is packed
# as U_r with entry j in slot j, W bits wide; LU_s = sum_r lam[s][r] U_r is
# then row s of lam u, packed, and sum_s u[s][i] LU_s is row i of
# u^T lam u.  XOR has no carries, so each slot holds its entry exactly as
# long as W is at least the entries' bit length, and row i equals J's
# row i exactly when it is the single bit of slot i ^ 1.  W is that bound
# rounded up to a multiple of 64, so the packed rows are u's limbs
# transposed, with zero limbs put in where W is wider than u's slots.


def _slot_or(ints, slots: int, w: int) -> int:
    """The OR of every w-bit slot of the ints, each of at most `slots`
    slots: the OR of the ints, folded in half until one slot is left."""
    acc = functools.reduce(operator.or_, ints, 0)
    while slots > 1:
        half = (slots + 1) // 2
        acc = acc & ((1 << half * w) - 1) | acc >> half * w
        slots = half
    return acc


def _gram_slot_bits(ucols, n: int, w: int, lam) -> int:
    """The slot width W of the pass: the most bits an entry of u^T lam u
    can have, as deg(u^T lam u) <= 2 deg u + deg lam, rounded up to a
    multiple of 64.  u's longest entry is that of the OR of its entries,
    folded out of its packed columns (n slots of w bits)."""
    ubits = _slot_or(ucols, n, w).bit_length()
    return -(-max(2 * ubits + f2_bit_length(lam) - 2, 1) // 64) * 64


def _packed_gram(urows, packed, lam) -> list:
    """The rows of u^T lam u, packed as the rows of u are in `packed` (u
    and lam given by rows of bitmasks)."""
    lu = [f2_dot(r, packed) for r in lam]
    return [f2_dot(c, lu) for c in zip(*urows)]


def _checked_rows(ucols, n: int, w: int, lam) -> list:
    """The rows of bitmasks of the n x n matrix u with these packed
    columns (slots w bits wide), once the packed pass shows u^T lam u = J."""
    L = w // 64
    cols = _limbs(ucols, n * L)
    rows = _transpose(cols, n, L, L)
    entries = _ints(rows, L)
    urows = [entries[i * n:(i + 1) * n] for i in range(n)]
    W = _gram_slot_bits(ucols, n, w, lam)
    K = W // 64
    packed = _ints(rows if K == L else _transpose(cols, n, L, K), n * K)
    if _packed_gram(urows, packed, lam) != [1 << ((i ^ 1) * W) for i in range(n)]:
        raise SingularFormError("internal error: reduction did not standardise")
    return urows


def _split_unit_pairs(form: QuadraticForm):
    """Split off the form's isolated unit pairs: (the sum of mu(e) mu(f)
    over the pairs split off, the residual form, or None if nothing is
    left).  When nothing splits, the residual is the form itself.

    An isolated unit pair is a row e of the pairing lambda whose only
    nonzero entry is lambda[e][f] = 1.  Replacing every other basis vector
    v by v' = v + lambda(v, f) e is a congruence: lambda among the v' is
    that among the v, each v' is orthogonal to e and f, and
    mu(v') = mu(v) + lambda(v, f)^2 mu(e), as lambda(v, e) = 0.  So the
    form is the hyperbolic pair (e, f), contributing mu(e) mu(f) to the Arf
    sum, plus the residual on the v', with the rest of lambda and the
    updated mu.  Removing f can leave another row with a single entry, so
    the rows that pair with f are tested again."""
    n = form.rank
    psi = form.psi.bits
    # row e of lambda = psi + psi^T is zero where psi's row e equals its
    # column e, and always on the diagonal; so a row with a single nonzero
    # entry has a zero at e - 1 or at e - 2 (mod n), and that test of two
    # entries rejects most rows of a dense form before the row is compared,
    # and the form before lambda is built
    for e, r in enumerate(psi):
        if r[e - 1] == psi[e - 1][e] or r[e - 2] == psi[e - 2][e]:
            if sum(map(ne, r, map(itemgetter(e), psi))) == 1:
                break
    else:
        return 0, form
    lam = [list(map(xor, r, c)) for r, c in zip(psi, zip(*psi))]
    last = n - 1  # the zeros of a row with a single nonzero entry
    work = list(range(n))
    q = [psi[j][j] for j in range(n)]
    alive = [True] * n
    total = 0
    while work:
        e = work.pop()
        row = lam[e]
        # the rows of split pairs are dropped, and their columns zeroed in
        # the rows left, so a live row's single entry pairs it with a live f
        if not alive[e] or row.count(0) != last or 1 not in row:
            continue
        f, qe = row.index(1), q[e]
        alive[e] = alive[f] = False
        if qe and q[f]:
            total ^= clmul(qe, q[f])
        lf = lam[f]
        for v in compress(range(n), lf):
            if v != e:
                lam[v][f] = 0
                if qe:
                    c = lf[v]
                    q[v] ^= qe if c == 1 else clmul(clmul(c, c), qe)
                work.append(v)
    rest = list(compress(range(n), alive))
    if len(rest) == n:
        return 0, form
    if not rest:
        return total, None
    pairing = Mat.from_bits([[lam[a][b] for b in rest] for a in rest], len(rest))
    return total, from_pairing_and_vector(pairing, [PolyF2(q[a]) for a in rest])


def arf(form: QuadraticForm) -> ArfClass:
    """Arf invariant of a nonsingular form over F2[x].

    The isolated unit pairs are split off first (_split_unit_pairs), and
    what is left goes to symplectic_reduce: on the gluing machine's
    obstruction forms nothing is left."""
    total, residual = _split_unit_pairs(form)
    if residual is not None:
        mu = [v.bits for v in symplectic_reduce(residual).mu]
        for a, b in zip(mu[::2], mu[1::2]):
            if a and b:
                total ^= clmul(a, b)
    return arf_normalize(PolyF2(total))

