import itertools
import operator
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unilc2.rings import PolyF2, PolyInt, parse_poly  # noqa: E402


def zx(text: str) -> PolyInt:
    return parse_poly(text, PolyInt)


def f2(text: str) -> PolyF2:
    return parse_poly(text, PolyF2)


def int_polys(max_deg, coeffs=(0, 1, 2)):
    return [PolyInt(t) for t in itertools.product(coeffs, repeat=max_deg + 1)]


def pg_sweep(max_deg=3, coeffs=(0, 1, 2)):
    """All (p, g) with deg <= max_deg, coefficients from the set, and p*g
    having zero constant coefficient."""
    ps = int_polys(max_deg, coeffs)
    return [(p, g) for p in ps for g in ps if (p * g).constant == 0]


# -- object-level elimination oracles: the slow, obviously-correct versions
# of the packed-integer kernels in unilc2.rings


def laplace_det(rows, ring):
    """det by Laplace expansion along the first row (any of the rings)."""
    if not rows:
        return ring.one()
    acc = ring.zero()
    for j, e in enumerate(rows[0]):
        if e:
            term = e * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]], ring)
            acc = acc + (-term if j % 2 else term)
    return acc


def cofactor_adjugate(m):
    """adj(m) by cofactor expansion: entry (j, i) is (-1)^(i+j) times the
    determinant of m without row i and column j (by object-level Bareiss
    over Z[x] and F2[x], by Laplace expansion over Z[C2][x])."""
    from unilc2.rings import C2Poly, Mat

    n = m.rows
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows = [r[:j] + r[j + 1:] for k, r in enumerate(m.entries) if k != i]
            minor = laplace_det(rows, m.ring) if m.ring is C2Poly else bareiss_det(Mat(rows, m.ring))
            out[j][i] = minor if (i + j) % 2 == 0 else -minor
    return Mat(out, m.ring)


def unit_inverse(p):
    """The inverse of a unit p of Z[x], F2[x] or Z[C2][x] (PrecondError if p
    is not one): every unit is its own inverse, as (+-1)^2 = (+-T)^2 = 1."""
    from unilc2.rings import PrecondError

    if not p.is_unit():
        raise PrecondError(f"{p} is not a unit in {p.TAG}")
    return p


def _pivot_row(a, k, n):
    if a[k][k]:
        return k
    return next((i for i in range(k + 1, n) if a[i][k]), None)


def _bareiss_row(ri, rk, k, prev):
    piv, f = rk[k], ri[k]
    for j in range(k + 1, len(rk)):
        v = ri[j] * piv
        if f and rk[j]:
            v = v - f * rk[j]
        ri[j] = v.exact_div(prev) if prev is not None else v


def bareiss_det(m):
    """det over Z[x] or F2[x] by Bareiss elimination on polynomial objects."""
    a = [list(r) for r in m.entries]
    n = len(a)
    if n == 0:
        return m.ring.one()
    negate, prev = False, None
    for k in range(n - 1):
        p = _pivot_row(a, k, n)
        if p is None:
            return m.ring.zero()
        if p != k:
            a[k], a[p] = a[p], a[k]
            negate = not negate
        for ri in a[k + 1:]:
            _bareiss_row(ri, a[k], k, prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if negate else d


def gauss_jordan_solve(a, b):
    """X with A * X = B over Z[x] by fraction-free Gauss-Jordan elimination
    on polynomial objects: PrecondError if A is singular, NonDivisibleError
    if X is not over Z[x]."""
    from unilc2.rings import Mat, PolyInt, PrecondError

    n = a.rows
    m = [list(ra + rb) for ra, rb in zip(a.entries, b.entries)]
    prev = None
    for k in range(n):
        p = _pivot_row(m, k, n)
        if p is None:
            raise PrecondError("singular matrix")
        m[k], m[p] = m[p], m[k]
        for i, ri in enumerate(m):
            if i != k:
                _bareiss_row(ri, m[k], k, prev)
        prev = m[k][k]
    if n == 0:
        return Mat.zeros(0, b.cols, PolyInt)
    return Mat([[e.exact_div(prev) for e in r[n:]] for r in m], PolyInt)


# -- the object-level matrix oracle: rows of ring elements with the rings'
# own arithmetic, the representation a Mat held before its Z[x] entries
# were packed into integers


def obj_rows(m):
    return [list(r) for r in m.entries]


def obj_add(a, b, op=operator.add):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def obj_neg(a):
    return [[-x for x in r] for r in a]


def obj_transpose(a, cols):
    return [list(c) for c in zip(*a)] if a else [[] for _ in range(cols)]


def obj_mul(a, b, cols, zero):
    """a * b for rows a and b of ring elements, b with `cols` columns."""
    return [[sum((x * rb[j] for x, rb in zip(ra, b)), zero) for j in range(cols)] for ra in a]


# -- the bitmask symplectic reduction as it was before its bookkeeping ran
# on limb arrays: u's packed columns unpacked slot by slot, and the check's
# rows of u packed entry by entry (Horner).  The same congruences in the
# same order, so unilc2.forms.symplectic_reduce must return the same u, mu
# and ops bit for bit.


def reference_symplectic_reduce(form):
    from unilc2.forms import SingularFormError, SymplecticBasis
    from unilc2.rings import (
        Mat, PrecondError, RingTagError, cl_divmod, clmul, f2_bit_length, f2_dot, f2_pack,
    )

    if form.ring is not PolyF2:
        raise RingTagError("symplectic reduction works over F2[x]")
    if form.epsilon != 1:
        raise PrecondError("symplectic reduction expects a (+1)-form")
    n = form.rank
    psi = form.psi.bits
    lam = [[psi[i][j] ^ psi[j][i] for j in range(n)] for i in range(n)]
    if any(lam[i][i] for i in range(n)):
        raise PrecondError("pairing must be alternating (zero diagonal)")
    g = [list(r) for r in lam]
    q = [psi[j][j] for j in range(n)]
    ops = []
    w = 64
    ucols = [1 << (j * w) for j in range(n)]
    ulen = [1] * n

    def unpack(cols, w):
        mask = (1 << w) - 1
        return [tuple([c >> (i * w) & mask for c in cols]) for i in range(n)]

    def add_u(tgt, src, f):
        nonlocal w
        ops.append(("add", tgt, src, f))
        need = ulen[src] + f.bit_length() - 1
        if need > w:
            wider = max(2 * w, need)
            ucols[:] = [f2_pack(c, wider) for c in zip(*unpack(ucols, w))]
            w = wider
        ucols[tgt] ^= clmul(f, ucols[src])
        ulen[tgt] = max(ulen[tgt], need)

    for t in range(0, n, 2):
        gt = g[t]
        live = g[t:]
        while True:
            nz = [j for j in range(t + 1, n) if gt[j]]
            if not nz:
                raise SingularFormError("pairing is not unimodular")
            piv = min(nz, key=lambda j: gt[j].bit_length())
            if len(nz) == 1:
                break
            for j in nz:
                if j == piv:
                    continue
                f = cl_divmod(gt[j], gt[piv])[0]
                add_u(j, piv, f)
                q[j] ^= clmul(clmul(f, f), q[piv]) ^ clmul(f, g[j][piv])
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
        gf = g[t + 1]
        for j in range(t + 2, n):
            f = gf[j]
            if f:
                add_u(j, t, f)
                q[j] ^= clmul(clmul(f, f), q[t])
    urows = unpack(ucols, w)
    ws = max(2 * f2_bit_length(urows) + f2_bit_length(lam) - 2, 1)
    packed = [f2_pack(r, ws) for r in urows]
    lu = [f2_dot(r, packed) for r in lam]
    if [f2_dot(c, lu) for c in zip(*urows)] != [1 << ((i ^ 1) * ws) for i in range(n)]:
        raise SingularFormError("internal error: reduction did not standardise")
    return SymplecticBasis(Mat.from_bits(urows, n), tuple(map(PolyF2, q)), tuple(ops))
