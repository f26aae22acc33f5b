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
