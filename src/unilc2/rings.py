"""Exact arithmetic for the three coefficient rings and their matrices.

The three rings are polynomial rings with involution:

    Z[x]      -- integer polynomials, class PolyInt
    F2[x]     -- binary polynomials, class PolyF2 (stored as a bitmask)
    Z[C2][x]  -- polynomials with coefficients m + n*T, T^2 = 1, class C2Poly

The involution is the identity on all three (T is its own inverse and x is
fixed), so conjugate-transpose of a matrix is plain transpose; the hooks are
kept explicit so every formula reads like the matrix identity it checks.

Ring homomorphisms of the pullback square are provided as functions:
apply_i(sign, .) substitutes T -> sign*1, apply_j reduces mod 2, and
pullback_pair / pullback_inverse realise the isomorphism of Z[C2][x] with
the fibre product of two copies of Z[x] over F2[x].

Polynomials are immutable and canonical (no trailing zero coefficients), so
equality is structural.  The text grammar used by the CLI lives here too:
terms ``c``, ``c*x^k``, ``x^k``, ``T``, ``c*T*x^k`` joined by ``+``/``-``,
matrices written ``[a,b;c,d]``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

NEG_INF = float("-inf")  # degree of the zero polynomial

# A PolyInt product with an operand of at most this many coefficients runs
# the schoolbook loop; longer pairs go through Kronecker substitution, which
# wins from length 8 on (measured crossover).
SCHOOLBOOK_MAX_LEN = 7

# Input size caps of the text grammar, checked before anything is built.
MAX_EXPONENT = 1024  # largest x-exponent parse_poly accepts
MAX_DIM = 64  # most rows, and most columns, parse_matrix accepts


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class RingTagError(AlgebraError):
    """Mixed-ring operands."""


class ShapeError(AlgebraError):
    """Matrix dimension mismatch."""


class NotInImageError(AlgebraError):
    """A pair (u, v) with u != v mod 2 is not in the image of the pullback."""


class NonDivisibleError(AlgebraError):
    """Exact division failed: the composite is not defined over the ring."""


class PrecondError(AlgebraError):
    """An operation's precondition is violated."""


class ParseError(AlgebraError):
    """Text does not follow the polynomial, matrix or word grammar."""


def _strip(coeffs):
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


# Kronecker substitution (von zur Gathen & Gerhard, Modern Computer Algebra,
# section 8.4): a polynomial whose coefficients fit in signed k-bit slots is
# the integer it takes at x = 2^k, so a product of polynomials is one
# product of integers.  The slot width comes from a bound on the result's
# coefficients: a sum of `inner` products of length-la and length-lb
# polynomials has coefficients of size at most
# inner * min(la, lb) * max|a| * max|b|.


def _slot_bits(inner, la, lb, ma, mb) -> int:
    return (inner * min(la, lb) * ma * mb).bit_length() + 1


def _pack(coeffs, k: int) -> int:
    """The value at x = 2^k of the coefficient tuple (Horner with shifts)."""
    z = 0
    for c in reversed(coeffs):
        z = (z << k) + c
    return z


def _unpack(z: int, k: int, m: int) -> list:
    """The m signed k-bit slots of z, lowest first.  A slot of at least
    2^(k-1) stands for a negative coefficient and borrows one from the next
    slot."""
    mask, half, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    out = []
    for _ in range(m):
        c = z & mask
        z >>= k
        if c >= half:
            c -= full
            z += 1
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# Z[x]


class PolyInt:
    """Integer polynomial, coefficients indexed by exponent."""

    __slots__ = ("coeffs",)
    TAG = "Z[x]"

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("PolyInt is immutable")

    @classmethod
    def _raw(cls, coeffs: tuple) -> "PolyInt":
        """Internal fast path: a coefficient tuple that is already canonical
        (empty, or with a nonzero last entry)."""
        self = cls.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def from_int(cls, n: int) -> "PolyInt":
        return cls((n,))

    @classmethod
    def x_power(cls, k: int, c: int = 1) -> "PolyInt":
        return cls((0,) * k + (c,))

    @classmethod
    def zero(cls) -> "PolyInt":
        return cls(())

    @classmethod
    def one(cls) -> "PolyInt":
        return cls((1,))

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PolyInt) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("PolyInt", self.coeffs))

    def __add__(self, other):
        other = _as_polyint(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyInt(out)

    __radd__ = __add__

    def __neg__(self):
        return PolyInt._raw(tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        a, b = self.coeffs, _as_polyint(other).coeffs
        out = list(a)
        if len(a) < len(b):
            out += [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return PolyInt(out)

    def __rsub__(self, other):
        return _as_polyint(other) - self

    def __mul__(self, other):
        other = _as_polyint(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyInt(())
        if len(a) > SCHOOLBOOK_MAX_LEN and len(b) > SCHOOLBOOK_MAX_LEN:
            k = _slot_bits(1, len(a), len(b), max(map(abs, a)), max(map(abs, b)))
            return PolyInt(_unpack(_pack(a, k) * _pack(b, k), k, len(a) + len(b) - 1))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        # the top coefficient is a product of two nonzero leading coefficients
        return PolyInt._raw(tuple(out))

    __rmul__ = __mul__

    def conj(self):
        """Ring involution (the identity on Z[x])."""
        return self

    def is_unit(self) -> bool:
        return self.coeffs == (1,) or self.coeffs == (-1,)

    def unit_inverse(self):
        if not self.is_unit():
            raise PrecondError(f"{self} is not a unit in Z[x]")
        return self

    def is_unit_mod2(self) -> bool:
        """True iff the image in F2[x] is a unit, i.e. the polynomial is odd
        in the constant coefficient and even elsewhere."""
        return self.constant % 2 == 1 and all(c % 2 == 0 for c in self.coeffs[1:])

    def mod2(self) -> "PolyF2":
        bits = 0
        for i, c in enumerate(self.coeffs):
            if c & 1:
                bits |= 1 << i
        return PolyF2(bits)

    def subs_power(self, n: int) -> "PolyInt":
        """Substitute x -> x^n."""
        if n <= 0:
            raise PrecondError("power substitution needs n > 0")
        out = [0] * (n * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[n * i] = c
        return PolyInt(out)

    def exact_div(self, d: "PolyInt") -> "PolyInt":
        """Exact quotient self / d in Z[x]; NonDivisibleError if not exact."""
        if not d:
            raise NonDivisibleError("division by zero polynomial")
        if not self:
            return PolyInt(())
        rem = list(self.coeffs)
        dc = d.coeffs
        dd = len(dc) - 1
        dl = dc[-1]
        q = [0] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd:
            lc = rem[-1]
            if lc % dl:
                raise NonDivisibleError("composite not defined over the ring")
            c = lc // dl
            k = len(rem) - 1 - dd
            q[k] = c
            for i, dco in enumerate(dc):
                rem[k + i] -= c * dco
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        if rem:
            raise NonDivisibleError("composite not defined over the ring")
        # the first step set the top quotient coefficient to a nonzero lc // dl
        return PolyInt._raw(tuple(q))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"PolyInt({format_poly(self)})"


def _as_polyint(v) -> PolyInt:
    if isinstance(v, PolyInt):
        return v
    if isinstance(v, int):
        return PolyInt((v,))
    raise RingTagError(f"cannot coerce {v!r} into Z[x]")


# ---------------------------------------------------------------------------
# F2[x], stored as an integer bitmask (bit k = coefficient of x^k)


class PolyF2:
    """Binary polynomial; addition is XOR."""

    __slots__ = ("bits",)
    TAG = "F2[x]"

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("bitmask must be nonnegative")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("PolyF2 is immutable")

    @classmethod
    def from_int(cls, n: int) -> "PolyF2":
        return cls(n & 1)

    @classmethod
    def x_power(cls, k: int, c: int = 1) -> "PolyF2":
        return cls((c & 1) << k)

    @classmethod
    def zero(cls) -> "PolyF2":
        return cls(0)

    @classmethod
    def one(cls) -> "PolyF2":
        return cls(1)

    @property
    def coeffs(self):
        return tuple((self.bits >> i) & 1 for i in range(self.bits.bit_length()))

    @property
    def constant(self) -> int:
        return self.bits & 1

    def degree(self):
        return self.bits.bit_length() - 1 if self.bits else NEG_INF

    def __bool__(self):
        return bool(self.bits)

    def __eq__(self, other):
        return isinstance(other, PolyF2) and self.bits == other.bits

    def __hash__(self):
        return hash(("PolyF2", self.bits))

    def __add__(self, other):
        other = _as_polyf2(other)
        return PolyF2(self.bits ^ other.bits)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        other = _as_polyf2(other)
        a, b, out = self.bits, other.bits, 0
        while a:
            if a & 1:
                out ^= b
            a >>= 1
            b <<= 1
        return PolyF2(out)

    __rmul__ = __mul__

    def conj(self):
        return self

    def is_unit(self) -> bool:
        return self.bits == 1

    def unit_inverse(self):
        if not self.is_unit():
            raise PrecondError(f"{self} is not a unit in F2[x]")
        return self

    def subs_power(self, n: int) -> "PolyF2":
        if n <= 0:
            raise PrecondError("power substitution needs n > 0")
        out, a, i = 0, self.bits, 0
        while a:
            if a & 1:
                out |= 1 << (n * i)
            a >>= 1
            i += 1
        return PolyF2(out)

    def exact_div(self, d: "PolyF2") -> "PolyF2":
        """Exact quotient self / d in F2[x]; NonDivisibleError if not exact."""
        if not d:
            raise NonDivisibleError("division by zero polynomial")
        q, r = f2_divmod(self, d)
        if r:
            raise NonDivisibleError("composite not defined over the ring")
        return q

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"PolyF2({format_poly(self)})"


def _as_polyf2(v) -> PolyF2:
    if isinstance(v, PolyF2):
        return v
    if isinstance(v, int):
        return PolyF2(v & 1)
    raise RingTagError(f"cannot coerce {v!r} into F2[x]")


def f2_divmod(a: PolyF2, b: PolyF2):
    """Quotient and remainder in the Euclidean domain F2[x]."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    q, r, db = 0, a.bits, b.bits.bit_length() - 1
    while r.bit_length() - 1 >= db:
        shift = r.bit_length() - 1 - db
        q |= 1 << shift
        r ^= b.bits << shift
    return PolyF2(q), PolyF2(r)


# ---------------------------------------------------------------------------
# Z[C2] and Z[C2][x]


@dataclass(frozen=True)
class C2Elt:
    """Group-ring element m + n*T with T^2 = 1."""

    m: int = 0
    n: int = 0

    def __add__(self, other):
        other = _as_c2elt(other)
        return C2Elt(self.m + other.m, self.n + other.n)

    def __neg__(self):
        return C2Elt(-self.m, -self.n)

    def __sub__(self, other):
        return self + (-_as_c2elt(other))

    def __mul__(self, other):
        other = _as_c2elt(other)
        return C2Elt(
            self.m * other.m + self.n * other.n,
            self.m * other.n + self.n * other.m,
        )

    __rmul__ = __mul__
    __radd__ = __add__

    def conj(self):
        """Involution T -> T^{-1} = T: the identity."""
        return self

    def __bool__(self):
        return bool(self.m or self.n)

    def __str__(self):
        return format_poly(C2Poly.from_parts(PolyInt((self.m,)), PolyInt((self.n,))))


def _as_c2elt(v) -> C2Elt:
    if isinstance(v, C2Elt):
        return v
    if isinstance(v, int):
        return C2Elt(v, 0)
    raise RingTagError(f"cannot coerce {v!r} into Z[C2]")


class C2Poly:
    """Polynomial over Z[C2], stored as the pair (a, b) with value a + b*T."""

    __slots__ = ("a", "b")
    TAG = "Z[C2][x]"

    def __init__(self, coeffs=()):
        ms, ns = [], []
        for c in coeffs:
            c = _as_c2elt(c)
            ms.append(c.m)
            ns.append(c.n)
        object.__setattr__(self, "a", PolyInt(ms))
        object.__setattr__(self, "b", PolyInt(ns))

    def __setattr__(self, *a):
        raise AttributeError("C2Poly is immutable")

    @classmethod
    def from_parts(cls, a: PolyInt, b: PolyInt) -> "C2Poly":
        self = cls.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        return self

    @classmethod
    def from_polyint(cls, p: PolyInt) -> "C2Poly":
        return cls.from_parts(p, PolyInt(()))

    @classmethod
    def from_int(cls, n: int) -> "C2Poly":
        return cls.from_parts(PolyInt((n,)), PolyInt(()))

    @classmethod
    def zero(cls) -> "C2Poly":
        return cls.from_parts(PolyInt(()), PolyInt(()))

    @classmethod
    def one(cls) -> "C2Poly":
        return cls.from_parts(PolyInt((1,)), PolyInt(()))

    @classmethod
    def t(cls) -> "C2Poly":
        return cls.from_parts(PolyInt(()), PolyInt((1,)))

    @property
    def coeffs(self):
        la, lb = self.a.coeffs, self.b.coeffs
        k = max(len(la), len(lb))
        return tuple(
            C2Elt(la[i] if i < len(la) else 0, lb[i] if i < len(lb) else 0)
            for i in range(k)
        )

    def degree(self):
        da, db = self.a.degree(), self.b.degree()
        return max(da, db)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        return isinstance(other, C2Poly) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(("C2Poly", self.a.coeffs, self.b.coeffs))

    def __add__(self, other):
        other = _as_c2poly(other)
        return C2Poly.from_parts(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return C2Poly.from_parts(-self.a, -self.b)

    def __sub__(self, other):
        other = _as_c2poly(other)
        return C2Poly.from_parts(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _as_c2poly(other) - self

    def __mul__(self, other):
        # (a + bT)(c + dT) = (ac + bd) + (ad + bc)T
        other = _as_c2poly(other)
        return C2Poly.from_parts(
            self.a * other.a + self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def conj(self):
        return self

    def is_unit(self) -> bool:
        """Units of Z[C2][x] are +-1 and +-T."""
        return (self.a.is_unit() and not self.b) or (self.b.is_unit() and not self.a)

    def unit_inverse(self):
        if not self.is_unit():
            raise PrecondError(f"{self} is not a unit in Z[C2][x]")
        return self  # (+-1)^2 = 1 and (+-T)^2 = 1

    def is_unit_mod2(self) -> bool:
        """Unit detection in F2[C2][x].

        Writing the mod-2 image as alpha(x) + beta(x)*s with s = 1 + T
        (s^2 = 0 in characteristic 2), the element is a unit iff alpha = 1;
        here alpha = (a + b) mod 2.
        """
        return (self.a + self.b).is_unit_mod2()

    def inverse_mod2(self) -> "C2Poly":
        """An inverse of the mod-2 image, as a lift with 0/1 coefficients.

        With s = 1 + T nilpotent, (1 + beta*s)^{-1} = 1 + beta*s, so the
        inverse of alpha + beta*s with alpha = 1 is 1 + beta*s = (1+beta) + beta*T.
        """
        if not self.is_unit_mod2():
            raise PrecondError(f"{self} is not a unit mod 2")
        beta = PolyInt(tuple(c & 1 for c in self.b.coeffs))
        return C2Poly.from_parts(PolyInt((1,)) + beta, beta)

    def congruent_mod2(self, other: "C2Poly") -> bool:
        d = self - other
        return all(c % 2 == 0 for c in d.a.coeffs) and all(c % 2 == 0 for c in d.b.coeffs)

    def subs_power(self, n: int) -> "C2Poly":
        return C2Poly.from_parts(self.a.subs_power(n), self.b.subs_power(n))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"C2Poly({format_poly(self)})"


def _as_c2poly(v) -> C2Poly:
    if isinstance(v, C2Poly):
        return v
    if isinstance(v, int):
        return C2Poly.from_int(v)
    if isinstance(v, C2Elt):
        return C2Poly((v,))
    if isinstance(v, PolyInt):
        return C2Poly.from_polyint(v)
    raise RingTagError(f"cannot coerce {v!r} into Z[C2][x]")


ONE_MINUS_T = C2Poly.from_parts(PolyInt((1,)), PolyInt((-1,)))

_COERCIONS = {PolyInt: _as_polyint, PolyF2: _as_polyf2, C2Poly: _as_c2poly}


def _coercion(ring):
    """The map that coerces a value into the ring class."""
    if ring not in _COERCIONS:
        raise RingTagError(f"unknown ring {ring}")
    return _COERCIONS[ring]


def _check_block_rings(blocks, ring):
    if any(b.ring is not ring for b in blocks):
        raise RingTagError("mixed-ring blocks")


# ---------------------------------------------------------------------------
# Homomorphisms of the pullback square


def apply_i(sign: int, p: C2Poly) -> PolyInt:
    """Substitute T -> sign * 1 coefficient-wise (sign is +1 or -1)."""
    if sign not in (1, -1):
        raise PrecondError("sign must be +1 or -1")
    return p.a + p.b if sign == 1 else p.a - p.b


def apply_j(p: PolyInt) -> PolyF2:
    """Reduce coefficients mod 2 (the same map on both square legs)."""
    return p.mod2()


def apply_k(p: C2Poly) -> PolyF2:
    """The diagonal composite: mod-2 reduction after either T-evaluation."""
    return apply_j(apply_i(-1, p))


def pullback_pair(p: C2Poly):
    """(T -> -1 image, T -> +1 image); a ring isomorphism onto the pairs
    of integer polynomials that agree mod 2."""
    return (apply_i(-1, p), apply_i(1, p))


def pullback_inverse(u: PolyInt, v: PolyInt) -> C2Poly:
    """Inverse of pullback_pair on pairs with u = v mod 2."""
    diff = v - u
    if any(c % 2 for c in diff.coeffs):
        raise NotInImageError(f"({u}, {v}) do not agree mod 2")
    # both u + v and v - u are even, so halving is exact
    a = PolyInt(tuple(c // 2 for c in (u + v).coeffs))
    b = PolyInt(tuple(c // 2 for c in diff.coeffs))
    return C2Poly.from_parts(a, b)


def ring_add(x, y):
    if type(x) is not type(y):
        raise RingTagError(f"mixed rings: {type(x).__name__} + {type(y).__name__}")
    return x + y


def ring_mul(x, y):
    if type(x) is not type(y):
        raise RingTagError(f"mixed rings: {type(x).__name__} * {type(y).__name__}")
    return x * y


def is_unit(x) -> bool:
    return x.is_unit()


def is_unit_mod2(x) -> bool:
    if isinstance(x, (PolyInt, C2Poly)):
        return x.is_unit_mod2()
    raise RingTagError("unit-mod-2 test is defined over Z[x] and Z[C2][x]")


# ---------------------------------------------------------------------------
# Matrices


class Mat:
    """Dense matrix over one of the three rings.

    Entries are stored row-major as a tuple of tuples; the ring is the entry
    class.  conj_t applies the ring involution entry-wise and transposes.
    """

    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(self, entries, ring=None):
        rows = tuple(tuple(r) for r in entries)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ShapeError("ragged rows")
        else:
            w = 0
        if ring is None:
            if not rows or not rows[0]:
                raise ShapeError("empty matrix needs an explicit ring")
            ring = type(rows[0][0])
        coerce = _coercion(ring)
        rows = tuple(tuple(coerce(e) for e in r) for r in rows)
        for r in rows:
            for e in r:
                if type(e) is not ring:
                    raise RingTagError("mixed-ring entries")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", w)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    # -- constructors

    @classmethod
    def _raw(cls, rows, ring) -> "Mat":
        """Internal fast path: entries already canonical for the ring."""
        self = cls.__new__(cls)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "ring", ring)
        return self

    @classmethod
    def identity(cls, n: int, ring) -> "Mat":
        return cls.scalar(n, ring.one(), ring)

    @classmethod
    def zeros(cls, r: int, c: int, ring) -> "Mat":
        return cls._raw(((ring.zero(),) * c,) * r, ring)

    @classmethod
    def scalar(cls, n: int, value, ring) -> "Mat":
        value, zero = _coercion(ring)(value), ring.zero()
        return cls._raw(
            tuple(tuple(value if i == j else zero for j in range(n)) for i in range(n)),
            ring,
        )

    @classmethod
    def from_blocks(cls, blocks) -> "Mat":
        """Assemble from a 2-d grid of matrices over one ring with matching
        edge sizes."""
        ring = blocks[0][0].ring
        widths = [b.cols for b in blocks[0]]
        out = []
        for brow in blocks:
            _check_block_rings(brow, ring)
            if [b.cols for b in brow] != widths:
                raise ShapeError("block column widths differ")
            h = brow[0].rows
            if any(b.rows != h for b in brow):
                raise ShapeError("block row heights differ")
            out.extend(sum(r, ()) for r in zip(*(b.entries for b in brow)))
        return cls._raw(tuple(out), ring)

    @classmethod
    def block_diag(cls, blocks) -> "Mat":
        ring = blocks[0].ring
        _check_block_rings(blocks, ring)
        m = sum(b.cols for b in blocks)
        zero = ring.zero()
        out = []
        j = 0
        for b in blocks:
            left, right = (zero,) * j, (zero,) * (m - j - b.cols)
            out.extend(left + r + right for r in b.entries)
            j += b.cols
        return cls._raw(tuple(out), ring)

    # -- basics

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ring is other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring.TAG, self.entries))

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not e for r in self.entries for e in r)

    def _check_ring(self, other):
        if self.ring is not other.ring:
            raise RingTagError(f"mixed rings: {self.ring.TAG} vs {other.ring.TAG}")

    def _entrywise(self, other, op):
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"entry-wise {op.__name__}: shape mismatch")
        return Mat._raw(
            tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            self.ring,
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return Mat._raw(
            tuple(tuple(-e for e in r) for r in self.entries), self.ring
        )

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return Mat(
                [[e * other for e in r] for r in self.entries], self.ring
            )
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"product shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        if self.ring is PolyInt:
            return Mat._raw(_kronecker_matmul(self.entries, other.entries), PolyInt)
        if self.ring is PolyF2:
            return Mat._raw(_f2_matmul(self.entries, other.entries, other.cols), PolyF2)
        bt = list(zip(*other.entries))
        zero = self.ring.zero()
        out = []
        for r in self.entries:
            row = []
            for c in bt:
                acc = zero
                for a, b in zip(r, c):
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return Mat._raw(tuple(out), self.ring)

    def __rmul__(self, other):
        return Mat([[other * e for e in r] for r in self.entries], self.ring)

    def transpose(self) -> "Mat":
        return Mat._raw(
            tuple(zip(*self.entries)) if self.entries else (), self.ring
        )

    def conj_t(self) -> "Mat":
        """Conjugate-transpose: involution entry-wise, then transpose."""
        return Mat._raw(
            tuple(tuple(e.conj() for e in r) for r in zip(*self.entries))
            if self.entries
            else (),
            self.ring,
        )

    def map_entries(self, fn, ring) -> "Mat":
        return Mat([[fn(e) for e in r] for r in self.entries], ring)

    # The ring maps below return canonical entries, so they skip coercion.

    def mod2(self) -> "Mat":
        if self.ring is PolyInt:
            fn = PolyInt.mod2
        elif self.ring is C2Poly:
            fn = apply_k
        else:
            return self
        return Mat._raw(tuple(tuple(map(fn, r)) for r in self.entries), PolyF2)

    def i_minus(self) -> "Mat":
        return self._eval_t(-1)

    def i_plus(self) -> "Mat":
        return self._eval_t(1)

    def _eval_t(self, sign: int) -> "Mat":
        """Entry-wise T -> sign*1 of a Z[C2][x] matrix."""
        if self.ring is not C2Poly:
            raise RingTagError(f"T-evaluation needs a Z[C2][x] matrix, not {self.ring.TAG}")
        return Mat._raw(
            tuple(tuple(apply_i(sign, e) for e in r) for r in self.entries), PolyInt
        )

    def to_c2(self) -> "Mat":
        if self.ring is C2Poly:
            return self
        if self.ring is PolyInt:
            return self.map_entries(C2Poly.from_polyint, C2Poly)
        raise RingTagError("no canonical embedding of F2[x] into Z[C2][x]")

    def submatrix(self, drop_row: int, drop_col: int) -> "Mat":
        return Mat._raw(
            tuple(
                r[:drop_col] + r[drop_col + 1:]
                for i, r in enumerate(self.entries)
                if i != drop_row
            ),
            self.ring,
        )

    def det(self):
        """Determinant.

        Up to 2x2 by the expansion formula.  Above that, Z[x] and F2[x] use
        fraction-free Bareiss elimination.  Z[C2][x] has zero divisors, so
        its determinant is assembled by pullback_inverse from the
        determinants of the two T-evaluations: both are ring maps of the
        pullback square, so they commute with det.
        """
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        n, ent = self.rows, self.entries
        if n == 0:
            return self.ring.one()
        if n == 1:
            return ent[0][0]
        if n == 2:
            return ent[0][0] * ent[1][1] - ent[0][1] * ent[1][0]
        if self.ring is C2Poly:
            return pullback_inverse(
                *(_bareiss([[apply_i(s, e) for e in r] for r in ent], PolyInt) for s in (-1, 1))
            )
        return _bareiss([list(r) for r in ent], self.ring)

    def adjugate(self) -> "Mat":
        """adj(A) with A * adj(A) = det(A) * Id."""
        if not self.is_square():
            raise ShapeError("adjugate of a non-square matrix")
        n, ent = self.rows, self.entries
        if n == 0:
            return self
        if n == 1:
            return Mat._raw(((self.ring.one(),),), self.ring)
        if n == 2:
            (a, b), (c, d) = ent
            return Mat._raw(((d, -b), (-c, a)), self.ring)
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = self.submatrix(i, j).det()
                out[j][i] = minor if (i + j) % 2 == 0 else -minor
        return Mat._raw(tuple(map(tuple, out)), self.ring)

    def inverse_unimodular(self) -> "Mat":
        """Inverse of a matrix whose determinant is a ring unit."""
        d = self.det()
        return self.adjugate() * d.unit_inverse()

    def is_unimodular(self) -> bool:
        return self.is_square() and self.det().is_unit()

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"Mat[{self.ring.TAG}]{format_matrix(self)}"


def _kronecker_matmul(a, b):
    """Row tuples of the product of Z[x] matrices given by their row tuples.

    Every entry of both factors is packed once, at one slot width for the
    whole product; each dot product is accumulated as one Python int and
    unpacked once.
    """
    polys = [p.coeffs for r in a for p in r], [p.coeffs for r in b for p in r]
    la, lb = (max(map(len, ps), default=0) for ps in polys)
    ma, mb = (max((abs(c) for cs in ps for c in cs), default=0) for ps in polys)
    k = _slot_bits(len(b), la, lb, ma, mb)
    m = la + lb - 1
    pb = list(zip(*[[_pack(p.coeffs, k) for p in r] for r in b]))
    zero = PolyInt(())
    out = []
    for r in a:
        pr = [_pack(p.coeffs, k) for p in r]
        row = []
        for col in pb:
            z = sum(map(operator.mul, pr, col))
            row.append(PolyInt(_unpack(z, k, m)) if z else zero)
        out.append(tuple(row))
    return tuple(out)


def _f2_matmul(a, b, cols):
    """Row tuples of the product of F2[x] matrices given by their row tuples
    (b has `cols` columns).

    Each row of b is packed into one int, slot j holding entry j's bits.  A
    product of an entry of a and one of b has at most la + lb - 1 bits (la,
    lb the longest entries), so at that slot width a shifted row never
    spills into the next slot, and XOR has no carries: row i of the product
    is the XOR of b's packed rows, each shifted by the set bits of a[i][k].
    Each output entry is unpacked once.
    """
    la = max((p.bits for r in a for p in r), default=0).bit_length()
    lb = max((p.bits for r in b for p in r), default=0).bit_length()
    w = max(la + lb - 1, 1)
    packed = []
    for r in b:
        z = 0
        for p in reversed(r):
            z = (z << w) | p.bits
        packed.append(z)
    mask = (1 << w) - 1
    zero = PolyF2(0)
    out = []
    for r in a:
        acc = 0
        for p, z in zip(r, packed):
            bits = p.bits
            while bits:
                if bits & 1:
                    acc ^= z
                bits >>= 1
                z <<= 1
        row = []
        for _ in range(cols):
            v = acc & mask
            row.append(PolyF2(v) if v else zero)
            acc >>= w
        out.append(tuple(row))
    return tuple(out)


def _pivot_row(a, k):
    """Index of a row at or below k with a nonzero entry in column k,
    preferring k itself; None if there is none."""
    if a[k][k]:
        return k
    return next((i for i in range(k + 1, len(a)) if a[i][k]), None)


def _bareiss_row(ri, rk, k, prev):
    """One Bareiss update of row ri against pivot row rk at column k:
    ri[j] <- (rk[k]*ri[j] - ri[k]*rk[j]) / prev for j > k.  Column k of ri
    is left as it was; no later step reads it."""
    piv, f = rk[k], ri[k]
    for j in range(k + 1, len(rk)):
        v = ri[j] * piv
        if f and rk[j]:
            v = v - f * rk[j]
        ri[j] = v.exact_div(prev) if prev is not None else v


def _bareiss(a, ring):
    """Determinant of the square list-of-lists a over an integral domain
    (Z[x] or F2[x]) by Bareiss elimination; a is overwritten.

    After step k every entry below and right of the pivot is a (k+2)-minor
    of the input, so each division by the previous pivot is exact.
    E. H. Bareiss, Math. Comp. 22 (1968).
    """
    n = len(a)
    negate, prev = False, None
    for k in range(n - 1):
        p = _pivot_row(a, k)
        if p is None:
            return ring.zero()
        if p != k:
            a[k], a[p] = a[p], a[k]
            negate = not negate
        rk = a[k]
        for ri in a[k + 1:]:
            _bareiss_row(ri, rk, k, prev)
        prev = rk[k]
    d = a[n - 1][n - 1]
    return -d if negate else d


def solve_right(a: Mat, b: Mat) -> Mat:
    """Solve A * X = B exactly over Z[x] by fraction-free Gauss-Jordan
    elimination on [A | B].

    Every row other than the pivot row takes the Bareiss update, so after
    the last step the left block is d * Id (d = +-det A) and the right block
    is d * A^{-1} B.  A with no pivot in some column is singular
    (PrecondError); a right block not exactly divisible by d means the
    composite is not defined over the ring (NonDivisibleError).
    """
    if a.ring is not PolyInt or b.ring is not PolyInt:
        raise RingTagError("solve_right works over Z[x]")
    if not a.is_square():
        raise ShapeError("solve_right needs a square left-hand side")
    if a.rows != b.rows:
        raise ShapeError("solve_right shape mismatch")
    n = a.rows
    m = [list(ra + rb) for ra, rb in zip(a.entries, b.entries)]
    prev = None
    for k in range(n):
        p = _pivot_row(m, k)
        if p is None:
            raise PrecondError("singular matrix in solve_right")
        m[k], m[p] = m[p], m[k]
        rk = m[k]
        for i, ri in enumerate(m):
            if i != k:
                _bareiss_row(ri, rk, k, prev)
        prev = rk[k]
    return Mat._raw(tuple(tuple(e.exact_div(prev) for e in r[n:]) for r in m), PolyInt)


# ---------------------------------------------------------------------------
# Text grammar


_TERM_SPLIT = re.compile(r"(?=[+-])")


def parse_poly(text: str, ring):
    """Parse the term grammar into a polynomial of the given ring class."""
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ParseError("empty polynomial text")
    if s in ("0", "+0", "-0"):
        return ring.zero()
    terms = [t for t in _TERM_SPLIT.split(s) if t]
    acc = ring.zero()
    for term in terms:
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = -1
            term = term[1:]
        if not term:
            raise ParseError(f"dangling sign in {text!r}")
        coeff, has_t, exp = 1, False, 0
        for factor in term.split("*"):
            if not factor:
                raise ParseError(f"empty factor in {text!r}")
            if factor == "T":
                if has_t:
                    raise ParseError(f"repeated T in term {term!r}")
                has_t = True
            elif factor[0] == "x":
                if factor == "x":
                    exp += 1
                elif factor[1] == "^":
                    exp += _natural(factor[2:], text)
                else:
                    raise ParseError(f"bad factor {factor!r}")
            else:
                coeff *= _natural(factor, text)
        coeff *= sign
        if exp > MAX_EXPONENT:
            raise ParseError(f"exponent {exp} is above the cap {MAX_EXPONENT}")
        if has_t and ring is not C2Poly:
            raise RingTagError(f"T is not an element of {ring.TAG}")
        if ring is C2Poly:
            part = C2Poly.from_parts(
                PolyInt.x_power(exp, 0 if has_t else coeff),
                PolyInt.x_power(exp, coeff if has_t else 0),
            )
        elif ring is PolyInt:
            part = PolyInt.x_power(exp, coeff)
        else:
            part = PolyF2.x_power(exp, coeff & 1)
        acc = acc + part
    return acc


def _natural(digits: str, text: str) -> int:
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"expected a number, got {digits!r} in {text!r}")
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int-conversion limit
        raise ParseError(f"a {len(digits)}-digit number is too long") from None


def _fmt_term(c: int, k: int, t: bool) -> str:
    body = []
    if abs(c) != 1 or (k == 0 and not t):
        body.append(str(abs(c)))
    if t:
        body.append("T")
    if k == 1:
        body.append("x")
    elif k > 1:
        body.append(f"x^{k}")
    return ("-" if c < 0 else "+") + "*".join(body)


def format_poly(p) -> str:
    """Canonical text form, ascending exponent; within an exponent the
    T-free part precedes the T part."""
    terms = []
    if isinstance(p, C2Poly):
        la, lb = p.a.coeffs, p.b.coeffs
        for k in range(max(len(la), len(lb))):
            m = la[k] if k < len(la) else 0
            n = lb[k] if k < len(lb) else 0
            if m:
                terms.append(_fmt_term(m, k, False))
            if n:
                terms.append(_fmt_term(n, k, True))
    elif isinstance(p, PolyInt):
        for k, c in enumerate(p.coeffs):
            if c:
                terms.append(_fmt_term(c, k, False))
    elif isinstance(p, PolyF2):
        for k in range(p.bits.bit_length()):
            if (p.bits >> k) & 1:
                terms.append(_fmt_term(1, k, False))
    else:
        raise RingTagError(f"cannot format {p!r}")
    if not terms:
        return "0"
    out = "".join(terms)
    return out[1:] if out[0] == "+" else out


def parse_matrix(text: str, ring) -> Mat:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("matrix text must be wrapped in [...]")
    body = s[1:-1].strip()
    if not body:
        return Mat.zeros(0, 0, ring)
    row_texts = body.split(";")
    if len(row_texts) > MAX_DIM or any(r.count(",") >= MAX_DIM for r in row_texts):
        raise ParseError(f"a matrix has at most {MAX_DIM} rows and {MAX_DIM} columns")
    rows = [[parse_poly(e, ring) for e in row.split(",")] for row in row_texts]
    return Mat(rows, ring)


def format_matrix(m: Mat) -> str:
    return (
        "["
        + ";".join(",".join(format_poly(e) for e in row) for row in m.entries)
        + "]"
    )
