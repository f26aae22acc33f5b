"""Exact arithmetic for the three coefficient rings and their matrices.

The three rings are polynomial rings with involution:

    Z[x]      -- integer polynomials, class PolyInt
    F2[x]     -- binary polynomials, class PolyF2 (stored as a bitmask)
    Z[C2][x]  -- polynomials with coefficients m + n*T, T^2 = 1, class C2Poly
                 (stored by its two pullback legs, T -> -1 and T -> +1)

The involution is the identity on all three (T is its own inverse and x is
fixed), so conjugate-transpose of a matrix is plain transpose; the hooks are
kept explicit so every formula reads like the matrix identity it checks.
Matrices hold their entries as integers (see the Matrices section).

Ring homomorphisms of the pullback square are provided as functions:
apply_i(sign, .) substitutes T -> sign*1, apply_j reduces mod 2, and
pullback_pair / pullback_inverse realise the isomorphism of Z[C2][x] with
the fibre product of two copies of Z[x] over F2[x].  A C2Poly stores that
pair, and a Z[C2][x] matrix one plane of values per leg, read by i_minus/i_plus.

Polynomials are immutable and canonical (no trailing zero coefficients), so
equality is structural.  The text grammar used by the CLI lives here too:
terms ``c``, ``c*x^k``, ``x^k``, ``T``, ``c*T*x^k`` joined by ``+``/``-``,
matrices written ``[a,b;c,d]``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re

NEG_INF = float("-inf")  # degree of the zero polynomial

# Input size caps, checked before anything is built.
MAX_EXPONENT = 1024  # largest x-exponent parse_poly accepts or subs_power makes
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


def _pack(coeffs, k: int) -> int:
    """The value at x = 2^k of the coefficient tuple (Horner with shifts)."""
    z = 0
    for c in reversed(coeffs):
        z = (z << k) + c
    return z


def _unpack(z: int, k: int) -> tuple:
    """The coefficients of the polynomial whose value at x = 2^k is z, lowest
    first and with no trailing zeros, when each fits a signed k-bit slot.  A
    slot of at least 2^(k-1) stands for a negative coefficient and borrows
    one from the next slot."""
    mask, half, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    out = []
    while z:
        c = z & mask
        z >>= k
        if c >= half:
            c -= full
            z += 1
        out.append(c)
    return tuple(out)


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
        return hash(self.coeffs)

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
        out = [0] * (_check_subs_power(n, max(self.degree(), 0)) + 1)
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


def _check_subs_power(n: int, degree: int) -> int:
    """The degree n * degree after x -> x^n, checked against the cap."""
    if n <= 0:
        raise PrecondError("power substitution needs n > 0")
    if n * degree > MAX_EXPONENT:
        raise PrecondError(f"x -> x^{n} would make degree {n * degree}, above the cap {MAX_EXPONENT}")
    return n * degree


def _as_polyint(v) -> PolyInt:
    if isinstance(v, PolyInt):
        return v
    if isinstance(v, int):
        return PolyInt((v,))
    raise RingTagError(f"cannot coerce {v!r} into Z[x]")


# ---------------------------------------------------------------------------
# F2[x], stored as an integer bitmask (bit k = coefficient of x^k)


def clmul(a: int, b: int) -> int:
    """Carry-less product of two bitmasks: their product in F2[x].  One
    shifted copy of the denser operand is XORed in per set bit of the
    sparser one."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)  # b shifted to the set bit's position
        a ^= low
    return out


def cl_divmod(a: int, b: int):
    """Quotient and remainder of bitmasks in F2[x]; b is nonzero."""
    q, db = 0, b.bit_length()
    s = a.bit_length() - db
    while s >= 0:
        q |= 1 << s
        a ^= b << s
        s = a.bit_length() - db
    return q, a


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
        return hash(self.bits)

    def __add__(self, other):
        other = _as_polyf2(other)
        return PolyF2(self.bits ^ other.bits)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return PolyF2(clmul(self.bits, _as_polyf2(other).bits))

    __rmul__ = __mul__

    def conj(self):
        return self

    def is_unit(self) -> bool:
        return self.bits == 1

    def subs_power(self, n: int) -> "PolyF2":
        _check_subs_power(n, max(self.degree(), 0))
        out, a, i = 0, self.bits, 0
        while a:
            if a & 1:
                out |= 1 << (n * i)
            a >>= 1
            i += 1
        return PolyF2(out)

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


# ---------------------------------------------------------------------------
# Z[C2] and Z[C2][x]


class C2Poly:
    """Polynomial over Z[C2], stored by its two pullback legs: u, the value
    at T -> -1, and v, the value at T -> +1, integer polynomials with
    u = v mod 2.

    Z[C2][x] is the fibre product of two copies of Z[x] over F2[x], so each
    ring operation is the same operation on both legs, and a product is two
    Z[x] products.  The a + b*T form is derived: a = (u + v)/2 and
    b = (v - u)/2.  An element of Z[x] holds one PolyInt as both legs.
    C2Poly(u, v) checks that the legs agree mod 2; from_parts builds the
    element a + b*T.
    """

    __slots__ = ("u", "v")
    TAG = "Z[C2][x]"

    def __init__(self, u: PolyInt, v: PolyInt):
        """The element with legs u and v; NotInImageError unless u = v mod 2."""
        if any(c % 2 for c in (v - u).coeffs):
            raise NotInImageError(f"({u}, {v}) do not agree mod 2")
        _SET_U(self, u)
        _SET_V(self, v)

    def __setattr__(self, *a):
        raise AttributeError("C2Poly is immutable")

    @classmethod
    def from_parts(cls, a: PolyInt, b: PolyInt) -> "C2Poly":
        """The element a + b*T."""
        return _c2(a, a) if not b else _c2(a - b, a + b)

    @classmethod
    def from_polyint(cls, p: PolyInt) -> "C2Poly":
        return _c2(p, p)

    @classmethod
    def from_int(cls, n: int) -> "C2Poly":
        return cls.from_polyint(PolyInt((n,)))

    @classmethod
    def zero(cls) -> "C2Poly":
        return cls.from_int(0)

    @classmethod
    def one(cls) -> "C2Poly":
        return cls.from_int(1)

    @classmethod
    def t(cls) -> "C2Poly":
        return _c2(PolyInt((-1,)), PolyInt((1,)))

    # u + v and v - u are even, so halving keeps the top coefficient nonzero
    @property
    def a(self) -> PolyInt:
        """The T-free part (u + v)/2."""
        return PolyInt._raw(tuple(c // 2 for c in (self.u + self.v).coeffs))

    @property
    def b(self) -> PolyInt:
        """The coefficient (v - u)/2 of T."""
        return PolyInt._raw(tuple(c // 2 for c in (self.v - self.u).coeffs))

    def degree(self):
        return max(self.u.degree(), self.v.degree())

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __eq__(self, other):
        return isinstance(other, C2Poly) and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u.coeffs, self.v.coeffs))

    def __add__(self, other):
        other = _as_c2poly(other)
        u = self.u + other.u
        return _c2(u, u if self.u is self.v and other.u is other.v else self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        u = -self.u
        return _c2(u, u if self.u is self.v else -self.v)

    def __sub__(self, other):
        other = _as_c2poly(other)
        u = self.u - other.u
        return _c2(u, u if self.u is self.v and other.u is other.v else self.v - other.v)

    def __rsub__(self, other):
        return _as_c2poly(other) - self

    def __mul__(self, other):
        other = _as_c2poly(other)
        u = self.u * other.u
        return _c2(u, u if self.u is self.v and other.u is other.v else self.v * other.v)

    __rmul__ = __mul__

    def conj(self):
        return self

    def is_unit(self) -> bool:
        """Units of Z[C2][x] are +-1 and +-T: both legs are constants +-1."""
        return self.u.is_unit() and self.v.is_unit()

    def is_unit_mod2(self) -> bool:
        """Unit detection in F2[C2][x].

        Writing the mod-2 image as alpha(x) + beta(x)*s with s = 1 + T
        (s^2 = 0 in characteristic 2), the element is a unit iff alpha = 1;
        here alpha = (a + b) mod 2, the reduction of v.
        """
        return self.v.is_unit_mod2()

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
        return (self - other).is_even()

    def is_even(self) -> bool:
        """Whether self = 2*(c + d*T): its u leg is even and its legs agree
        mod 4."""
        u, v = self.u, self.v
        return not any(c % 2 for c in u.coeffs) and (u is v or not any(c % 4 for c in (v - u).coeffs))

    def subs_power(self, n: int) -> "C2Poly":
        return _c2(self.u.subs_power(n), self.v.subs_power(n))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"C2Poly({format_poly(self)})"


_SET_U, _SET_V = C2Poly.u.__set__, C2Poly.v.__set__


def _c2(u: PolyInt, v: PolyInt) -> C2Poly:
    """Internal fast path: C2Poly(u, v) for legs the caller knows agree
    mod 2, unchecked."""
    p = object.__new__(C2Poly)
    _SET_U(p, u)
    _SET_V(p, v)
    return p


def _as_c2poly(v) -> C2Poly:
    if isinstance(v, C2Poly):
        return v
    if isinstance(v, int):
        return C2Poly.from_int(v)
    if isinstance(v, PolyInt):
        return C2Poly.from_polyint(v)
    raise RingTagError(f"cannot coerce {v!r} into Z[C2][x]")


ONE_MINUS_T = _c2(PolyInt((2,)), PolyInt(()))

_COERCIONS = {PolyInt: _as_polyint, PolyF2: _as_polyf2, C2Poly: _as_c2poly}
_ONES = {ring: ring.one() for ring in _COERCIONS}  # Mat.scalar tags an identity with one of these


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
    """Substitute T -> sign * 1 (sign is +1 or -1): one of the stored legs."""
    if sign == -1:
        return p.u
    if sign == 1:
        return p.v
    raise PrecondError("sign must be +1 or -1")


def apply_j(p: PolyInt) -> PolyF2:
    """Reduce coefficients mod 2 (the same map on both square legs)."""
    return p.mod2()


def apply_k(p: C2Poly) -> PolyF2:
    """The diagonal composite: mod-2 reduction after either T-evaluation."""
    return p.u.mod2()


def pullback_pair(p: C2Poly):
    """(T -> -1 image, T -> +1 image); a ring isomorphism onto the pairs
    of integer polynomials that agree mod 2."""
    return (p.u, p.v)


def pullback_inverse(u: PolyInt, v: PolyInt) -> C2Poly:
    """Inverse of pullback_pair on pairs with u = v mod 2."""
    return C2Poly(u, v)


# ---------------------------------------------------------------------------
# Matrices
#
# A matrix holds its entries as integers.  Over F2[x] an entry is its
# bitmask.  Over Z[x] it is its value at x = 2^k (Kronecker substitution,
# as above), with one slot width k for the matrix, a bound B on the
# absolute values of all its coefficients and a bound L on the entries'
# lengths, and B < 2^(k-1) always.  Under that invariant a value determines
# its polynomial, so equality at one k is equality of integers; and
# evaluation is a ring map, so the ring operations are integer operations.
# A sum has bound B1 + B2; a product of inner dimension n has bound
# n * min(L1, L2) * B1 * B2.  An operation whose bound reaches 2^(k-1)
# repacks its operands at a wider k, taking their bounds from the exact
# coefficients it unpacks; otherwise an entry is unpacked only when it is
# read.  A Z[C2][x] matrix holds _data = (rows at T -> -1, rows at T -> +1)
# under one k, B and L for both planes (one row tuple twice when T-free);
# the T-evaluations are ring maps, so each operation is one kernel call on
# both planes that builds one matrix, and i_minus and i_plus view a plane.

MIN_SLOT_BITS = 64  # the narrowest slot width a Z[x] matrix is packed at

_chain = itertools.chain.from_iterable


class Mat:
    """Dense matrix over one of the three rings.

    `entries` and indexing give ring elements, made on demand from the
    integers the matrix holds (k, bound and length are 0 over F2[x]).  The
    involution is the identity on all three rings, so conj_t is the
    transpose.

    A square matrix made by Mat.scalar (identity, square zeros), or a
    T-evaluation of one, keeps its value in _scalar, and no other matrix
    has one, so a product with it is a scaling of the other factor (the
    other factor itself when the value is one) and its conj_t is itself.
    Equality and hashing ignore the tag.
    """

    __slots__ = ("ring", "rows", "cols", "_data", "k", "bound", "length", "_scalar")

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
        rows = tuple(tuple(coerce(e) for e in r) for r in rows)  # RingTagError on a foreign entry
        n = len(rows)
        if ring is PolyF2:
            _new(ring, n, w, tuple(tuple([p.bits for p in r]) for r in rows), m=self)
        elif ring is PolyInt:
            _new(ring, n, w, *_packed([[p.coeffs for p in r] for r in rows]), self)
        else:
            crows = [[e.u.coeffs for e in r] for r in rows]
            if any(e.u is not e.v for r in rows for e in r):
                crows += [[e.v.coeffs for e in r] for r in rows]
            data, k, bound, length = _packed(crows)
            _new(ring, n, w, _split(data, n), k, bound, length, self)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    # -- constructors

    @classmethod
    def from_bits(cls, rows, cols: int) -> "Mat":
        """The F2[x] matrix with rows of bitmasks (PolyF2.bits)."""
        return _new(PolyF2, len(rows), cols, tuple(map(tuple, rows)))

    @classmethod
    def from_coeffs(cls, crows, cols: int) -> "Mat":
        """The Z[x] matrix with rows of coefficient tuples (PolyInt.coeffs:
        lowest first, no trailing zeros)."""
        return _new(PolyInt, len(crows), cols, *_packed(crows))

    @classmethod
    def from_legs(cls, u: "Mat", v: "Mat") -> "Mat":
        """The Z[C2][x] matrix with legs u (T -> -1) and v (T -> +1), Z[x]
        matrices that the caller knows agree mod 2 (pullback_matrix checks
        it): their rows at the wider of their slot widths are its planes."""
        k = max(u.k, v.k)
        (du, bu, lu), (dv, bv, lv) = _at_width(u, k), _at_width(v, k)
        return _new(C2Poly, u.rows, u.cols, (du, du if u is v else dv), k, max(bu, bv), max(lu, lv))

    @classmethod
    def identity(cls, n: int, ring) -> "Mat":
        return cls.scalar(n, ring.one(), ring)

    @classmethod
    def zeros(cls, r: int, c: int, ring) -> "Mat":
        return cls.scalar(r, ring.zero(), ring, c)

    @classmethod
    def scalar(cls, n: int, value, ring, cols=None) -> "Mat":
        """value * Id, n x n (n x cols if cols is given); tagged with value
        when square."""
        value = _coercion(ring)(value)
        cols = n if cols is None else cols
        if ring is PolyF2:
            zs, k, bound, length = (value.bits,), 0, 0, 0
        else:
            legs = (value,) if ring is PolyInt else (value.u,) if value.u is value.v else (value.u, value.v)
            data, k, bound, length = _packed([[leg.coeffs] for leg in legs])
            zs = [z for (z,) in data]
        planes = [tuple([tuple([z if i == j else 0 for j in range(cols)]) for i in range(n)]) for z in zs]
        m = _new(ring, n, cols, (planes[0], planes[-1]) if ring is C2Poly else planes[0], k, bound, length)
        if n == cols:
            _SET_SCALAR(m, _ONES[ring] if value == _ONES[ring] else value)
        return m

    @classmethod
    def from_blocks(cls, blocks) -> "Mat":
        """Assemble from a 2-d grid of matrices over one ring with matching
        edge sizes."""
        ring = blocks[0][0].ring
        widths = [b.cols for b in blocks[0]]
        for brow in blocks:
            _check_block_rings(brow, ring)
            if [b.cols for b in brow] != widths:
                raise ShapeError("block column widths differ")
            if any(b.rows != brow[0].rows for b in brow):
                raise ShapeError("block row heights differ")
        return _from_blocks(blocks)

    @classmethod
    def block_diag(cls, blocks) -> "Mat":
        _check_block_rings(blocks, blocks[0].ring)
        return _block_diag(blocks)

    # -- basics

    @property
    def entries(self):
        if self.ring is C2Poly:
            eu, ev = _planes(C2Poly, lambda d: [[*map(self._entry, r)] for r in d], self._data)
            return tuple(tuple(map(_c2, ru, rv)) for ru, rv in zip(eu, ev))
        return tuple(tuple(map(self._entry, r)) for r in self._data)

    @property
    def bits(self):
        """The rows of an F2[x] matrix as bitmasks (PolyF2.bits)."""
        if self.ring is not PolyF2:
            raise RingTagError(f"bitmask rows belong to F2[x] matrices, not {self.ring.TAG}")
        return self._data

    def _entry(self, z: int):
        return PolyF2(z) if self.ring is PolyF2 else PolyInt._raw(_unpack(z, self.k))

    def __getitem__(self, rc):
        i, j = rc
        if self.ring is C2Poly:
            return _c2(*_planes(C2Poly, lambda d: self._entry(d[i][j]), self._data))
        return self._entry(self._data[i][j])

    def __eq__(self, other):
        if self is other:
            return True
        if not (
            isinstance(other, Mat)
            and self.ring is other.ring
            and (self.rows, self.cols) == (other.rows, other.cols)
        ):
            return False
        k = max(self.k, other.k)
        return _at_width(self, k)[0] == _at_width(other, k)[0]

    def __hash__(self):
        return hash((self.ring.TAG, self.cols, self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        planes = self._data if self.ring is C2Poly else (self._data,)
        return not any([any(r) for d in planes for r in d])

    def _check_ring(self, other):
        if self.ring is not other.ring:
            raise RingTagError(f"mixed rings: {self.ring.TAG} vs {other.ring.TAG}")

    def _entrywise(self, other, op):
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"entry-wise {op.__name__}: shape mismatch")
        if self.ring is PolyF2:
            data = tuple(tuple(map(operator.xor, r1, r2)) for r1, r2 in zip(self._data, other._data))
            return _map_data(self, data)
        return _zx_add(self, other, op)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        if self.ring is PolyF2:
            return self
        neg = _planes(self.ring, lambda d: tuple([tuple([-z for z in r]) for r in d]), self._data)
        return _map_data(self, neg)

    def __mul__(self, other):
        if not isinstance(other, Mat):  # a scalar of the ring (or coercible into it)
            return _scale(self, _coercion(self.ring)(other))
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"product shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        one = _ONES[self.ring]
        if one is self._scalar or one is other._scalar:  # an identity factor: the other one
            return self if other._scalar is one else other
        s, m = self._scalar, other
        if s is None:
            s, m = other._scalar, self
        if s is not None:  # a scalar matrix times m, which has the product's shape
            return _scale(m, s)
        if self.ring is PolyF2:
            rows = f2_matmul_bits(self._data, other._data, other.cols)
            return Mat.from_bits(rows, other.cols)
        return _zx_mul(self, other)

    __rmul__ = __mul__  # the rings are commutative

    def conj_t(self) -> "Mat":
        """Conjugate-transpose, which is the transpose."""
        if self._scalar is not None:
            return self
        cols = self.cols
        data = _planes(self.ring, lambda d: tuple(zip(*d)) if d else ((),) * cols, self._data)
        return _new(self.ring, cols, self.rows, data, self.k, self.bound, self.length)

    def mod2(self) -> "Mat":
        if self.ring is PolyF2:
            return self
        data, k, n = self._data[0] if self.ring is C2Poly else self._data, self.k, self.length
        if n <= 1:
            return Mat.from_bits([[z & 1 for z in r] for r in data], self.cols)
        offset = _parity_offset(k, n)
        rows = [[_slot_parities(z + offset, k) if z else 0 for z in r] for r in data]
        return Mat.from_bits(rows, self.cols)

    def lift_bits(self) -> "Mat":
        """The Z[x] matrix with the 0/1 coefficients of this F2[x] matrix:
        a bitmask's value at x = 2^k is its bits spread k apart."""
        data = self.bits
        rows = tuple(tuple([b if b < 2 else spread_bits(b, MIN_SLOT_BITS) for b in r]) for r in data)
        n = f2_bit_length(data)
        return _new(PolyInt, self.rows, self.cols, rows, MIN_SLOT_BITS, min(n, 1), n)

    def i_minus(self) -> "Mat":
        return self._leg(0)

    def i_plus(self) -> "Mat":
        return self._leg(1)

    def _leg(self, i: int) -> "Mat":
        """T -> -1 (plane 0) or T -> +1 (plane 1) of a Z[C2][x] matrix, as
        a Z[x] matrix over the plane (a scalar tag goes with it)."""
        if self.ring is not C2Poly:
            raise RingTagError(f"T-evaluation needs a Z[C2][x] matrix, not {self.ring.TAG}")
        m = _new(PolyInt, self.rows, self.cols, self._data[i], self.k, self.bound, self.length)
        if self._scalar is not None:
            s = apply_i(2 * i - 1, self._scalar)
            _SET_SCALAR(m, _ONES[PolyInt] if s == _ONES[PolyInt] else s)
        return m

    def to_c2(self) -> "Mat":
        if self.ring is C2Poly:
            return self
        if self.ring is PolyInt:
            data = self._data
            return _new(C2Poly, self.rows, self.cols, (data, data), self.k, self.bound, self.length)
        raise RingTagError("no canonical embedding of F2[x] into Z[C2][x]")

    def det(self):
        """Determinant.

        Over Z[x] and F2[x] the product of the determinants of the
        diagonal blocks the matrix splits into (_plane_det): a 1x1 block is
        its entry, a 2x2 block is the expansion formula on the packed
        values (over Z[x] when the bound fits the slot width), and a larger
        block goes through fraction-free Bareiss elimination on packed
        integers.  Z[C2][x] has zero divisors, so its determinant is read
        off the planes: both T-evaluations are ring maps, so they commute
        with det, and the legs of det are the planes' determinants.
        """
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        return _det(self)

    def adjugate(self) -> "Mat":
        """adj(A) with A * adj(A) = det(A) * Id, in closed form up to 2x2;
        larger matrices raise ShapeError."""
        if not self.is_square():
            raise ShapeError("adjugate of a non-square matrix")
        n = self.rows
        if n > 2:
            raise ShapeError("the adjugate is formed up to 2x2 only")
        if n < 2:
            return self if n == 0 else Mat.identity(1, self.ring)
        s = 1 if self.ring is PolyF2 else -1  # -1 = 1 in F2[x]; a bitmask is not negated
        adj = _planes(self.ring, lambda d: ((d[1][1], s * d[0][1]), (s * d[1][0], d[0][0])), self._data)
        return _map_data(self, adj)

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"Mat[{self.ring.TAG}]{format_matrix(self)}"


_SET_RING, _SET_ROWS, _SET_COLS, _SET_DATA, _SET_K, _SET_BOUND, _SET_LENGTH, _SET_SCALAR = (
    getattr(Mat, s).__set__ for s in Mat.__slots__
)


def _new(ring, rows, cols, data, k=0, bound=0, length=0, m=None) -> Mat:
    """The untagged matrix with these fields (set on m if it is given)."""
    m = object.__new__(Mat) if m is None else m
    _SET_RING(m, ring)
    _SET_ROWS(m, rows)
    _SET_COLS(m, cols)
    _SET_DATA(m, data)
    _SET_K(m, k)
    _SET_BOUND(m, bound)
    _SET_LENGTH(m, length)
    _SET_SCALAR(m, None)
    return m


def _packed(crows, k: int = 0):
    """(data, k, bound, length) of the Z[x] matrix with rows of coefficient
    tuples crows, at the narrowest slot width of at least k (and of at
    least MIN_SLOT_BITS) its coefficients allow."""
    flat = [*_chain(crows)]
    coeffs = [*_chain(flat)]
    bound = max(max(coeffs), -min(coeffs)) if coeffs else 0
    k = max(k, MIN_SLOT_BITS, bound.bit_length() + 1)
    # a constant is its own value at every width
    data = tuple([tuple([_pack(cs, k) if len(cs) > 1 else cs[0] if cs else 0 for cs in r]) for r in crows])
    return data, k, bound, max(map(len, flat)) if flat else 0


def _coeff_rows(rows, k: int):
    """The coefficient tuples of Z[x] entries held at slot width k, by rows."""
    return [[_unpack(z, k) for z in r] for r in rows]


def _at_width(m: Mat, k: int):
    """(data, bound, length) of the matrix m at slot width k >= m.k.  Zero
    and constant entries have the same value at every width (and F2[x]
    matrices have k = 0); others are repacked (both planes in one pass), so
    their bound and length come out exact."""
    if k == m.k or m.length <= 1:
        return m._data, m.bound, m.length
    rows = m._data if m.ring is PolyInt else m._data[0] if m._data[0] is m._data[1] else _chain(m._data)
    data, _, bound, length = _packed(_coeff_rows(rows, m.k), k)
    return (data if m.ring is PolyInt else _split(data, m.rows)), bound, length


def _split(data, n: int):
    """The planes of a Z[C2][x] matrix with n rows from rows of values
    packed one plane under the other, or one plane when it is T-free."""
    return (data, data) if len(data) == n else (data[:n], data[n:])


def _width(bound: int, k: int) -> int:
    """k if a result with coefficient bound `bound` fits it, else a wider
    slot width: at least doubled, so that chains of products repack
    rarely."""
    return k if bound.bit_length() < k else max(bound.bit_length() + 1, 2 * k)


def _map_data(m: Mat, data) -> Mat:
    """A matrix of m's shape, ring and bounds holding data."""
    return _new(m.ring, m.rows, m.cols, data, m.k, m.bound, m.length)


def _planes(ring, fn, *args):
    """fn(*args) over Z[x] and F2[x].  Over Z[C2][x] each arg is a pair (of
    planes, or of per-plane values) and so is the result, fn on the firsts
    and on the seconds: once when each pair is one object twice."""
    if ring is not C2Poly:
        return fn(*args)
    firsts, seconds = zip(*args)
    u = fn(*firsts)
    return u, u if all(map(operator.is_, firsts, seconds)) else fn(*seconds)


def _zx_add(a: Mat, b: Mat, op) -> Mat:
    """a + b or a - b (op) over Z[x] or Z[C2][x]."""
    k = _width(a.bound + b.bound, max(a.k, b.k))
    (da, ba, la), (db, bb, lb) = _at_width(a, k), _at_width(b, k)
    data = _planes(a.ring, lambda x, y: tuple([tuple(map(op, rx, ry)) for rx, ry in zip(x, y)]), da, db)
    return _new(a.ring, a.rows, a.cols, data, k, ba + bb, max(la, lb))


def _zx_mul(a: Mat, b: Mat) -> Mat:
    """a * b over Z[x] or Z[C2][x]: each entry of a plane is one integer
    dot product."""
    k = _width(a.cols * min(a.length, b.length) * a.bound * b.bound, max(a.k, b.k))
    (da, ba, la), (db, bb, lb) = _at_width(a, k), _at_width(b, k)

    def mul(x, y):
        cols = tuple(zip(*y)) if y else ((),) * b.cols
        return tuple([tuple([sum(map(operator.mul, r, c)) for c in cols]) for r in x])

    data = _planes(a.ring, mul, da, db)
    length = la + lb - 1 if la and lb else 0
    return _new(a.ring, a.rows, b.cols, data, k, a.cols * min(la, lb) * ba * bb, length)


def _scale(m: Mat, s) -> Mat:
    """m * s for an element s of m's ring (over Z[C2][x], plane by plane by
    the legs of s)."""
    if m.ring is PolyF2:
        return _map_data(m, tuple(tuple([clmul(z, s.bits) for z in r]) for r in m._data))
    cu, cv = (s.u.coeffs, s.v.coeffs) if m.ring is C2Poly else (s.coeffs, s.coeffs)
    top, ls = max(map(abs, cu + cv), default=0), max(len(cu), len(cv))
    k = _width(min(m.length, ls) * m.bound * top, m.k)
    data, bound, length = _at_width(m, k)
    zu = cu[0] if len(cu) == 1 else _pack(cu, k)  # a constant is its own value
    zv = zu if cv is cu else cv[0] if len(cv) == 1 else _pack(cv, k)
    z = (zu, zv) if m.ring is C2Poly else zu
    data = _planes(m.ring, lambda d, c: tuple([tuple([e * c for e in r]) for r in d]), data, z)
    length, bound = length + ls - 1 if length and ls else 0, min(length, ls) * bound * top
    return _new(m.ring, m.rows, m.cols, data, k, bound, length)


def _from_blocks(grid) -> Mat:
    """Mat.from_blocks, at the widest slot width of the blocks."""
    k = max(b.k for row in grid for b in row)
    packed = [[_at_width(b, k) for b in row] for row in grid]

    def join(*datas):
        it = iter(datas)
        return tuple(sum(r, ()) for row in grid for r in zip(*[next(it) for _ in row]))

    flat = [p for row in packed for p in row]
    data = _planes(grid[0][0].ring, join, *[p[0] for p in flat])
    rows, cols = sum(row[0].rows for row in grid), sum(b.cols for b in grid[0])
    return _new(grid[0][0].ring, rows, cols, data, k, max(p[1] for p in flat), max(p[2] for p in flat))


def _block_diag(blocks) -> Mat:
    """Mat.block_diag, at the widest slot width of the blocks."""
    k, n = max(b.k for b in blocks), sum(b.cols for b in blocks)
    packed = [_at_width(b, k) for b in blocks]

    def diag(*datas):
        out, j = [], 0
        for b, data in zip(blocks, datas):
            out.extend((0,) * j + r + (0,) * (n - j - b.cols) for r in data)
            j += b.cols
        return tuple(out)

    data = _planes(blocks[0].ring, diag, *[p[0] for p in packed])
    bound, length = max(p[1] for p in packed), max(p[2] for p in packed)
    return _new(blocks[0].ring, sum(b.rows for b in blocks), n, data, k, bound, length)


def _parity_offset(k: int, n: int) -> int:
    """2^(k-1) in each of n slots of k bits.  Added to a value of a Z[x]
    entry of length <= n at slot width k it leaves no borrows, so the parity
    of coefficient i is then bit i*k."""
    return ((1 << (k * n)) - 1) // ((1 << k) - 1) << (k - 1)


def _slot_parities(w: int, k: int) -> int:
    """The bits i*k of w > 0, as the bitmask with bit i."""
    s = format(w, "b")
    return int(s[(len(s) - 1) % k::k], 2)


def all_even(values, k: int, n: int) -> bool:
    """Whether every coefficient of the Z[x] entries with these values at
    x = 2^k (of length <= n) is even: bit i*k is coefficient i's parity
    once _parity_offset is added."""
    offset = _parity_offset(k, max(n, 1))
    ones = offset >> (k - 1)
    return not any([(z + offset) & ones for z in values])


def pullback_matrix(u: Mat, v: Mat) -> Mat:
    """The Z[C2][x] matrix with legs u (T -> -1) and v (T -> +1): the
    inverse of (i_minus, i_plus) on pairs of Z[x] matrices that agree
    mod 2 (NotInImageError otherwise)."""
    if u.ring is not PolyInt or v.ring is not PolyInt:
        raise RingTagError("the legs of a Z[C2][x] matrix are Z[x] matrices")
    # u = v mod 2 when every coefficient of u - v is even, read off the
    # packed values without unpacking
    d = u - v
    if not all_even(_chain(d._data), d.k, d.length):
        odd = [(i, j) for i, r in enumerate(d.mod2().bits) for j, e in enumerate(r) if e]
        raise NotInImageError(f"({u[odd[0]]}, {v[odd[0]]}) at {odd[0]} do not agree mod 2")
    return Mat.from_legs(u, v)


def f2_bit_length(rows) -> int:
    """The bit length of the longest entry in rows of bitmasks (0 when
    there are no entries)."""
    return max(map(max, rows)).bit_length() if rows and rows[0] else 0


def spread_bits(b: int, k: int) -> int:
    """The value at x = 2^k of the bitmask b >= 0, its bits spread k apart:
    a table of the 256 bytes spread k apart, one entry ORed in per byte."""
    table, step = _spread_table(k), 8 * k
    out = shift = 0
    while b:
        out |= table[b & 255] << shift
        b >>= 8
        shift += step
    return out


@functools.lru_cache(maxsize=8)
def _spread_table(k: int) -> tuple:
    return tuple([sum(1 << i * k for i in range(8) if v >> i & 1) for v in range(256)])


def f2_pack(row, w: int) -> int:
    """A row of bitmasks, none longer than w bits, as one int whose slot j
    (bits j*w to j*w + w - 1) holds entry j."""
    z = 0
    for v in reversed(row):
        z = (z << w) | v
    return z


def f2_dot(row, packed) -> int:
    """The XOR of the carry-less products row[k] * packed[k]."""
    acc = 0
    for v, z in itertools.compress(zip(row, packed), row):
        acc ^= z if v == 1 else clmul(v, z)
    return acc


def f2_matmul_bits(a, b, cols):
    """Rows of the product of F2[x] matrices given by rows of bitmasks (b
    has `cols` columns), as lists of bitmasks.

    Each row of b is packed into one int (f2_pack).  A product of an entry
    of a and one of b has at most la + lb - 1 bits (la, lb the longest
    entries), so at that slot width a shifted row never spills into the
    next slot, and XOR has no carries: row i of the product is the XOR of
    the carry-less products a[i][k] * (packed row k of b).  Each output
    entry is unpacked once.
    """
    w = max(f2_bit_length(a) + f2_bit_length(b) - 1, 1)
    packed = [f2_pack(r, w) for r in b]
    mask = (1 << w) - 1
    out = []
    for r in a:
        acc = f2_dot(r, packed)
        row = []
        for _ in range(cols):
            row.append(acc & mask)
            acc >>= w
        out.append(row)
    return out


# Exact elimination runs on integers.  Over F2[x] an entry is its bitmask.
# Over Z[x] it is its value at x = 2^k (Kronecker substitution, as for the
# products above): evaluation is a ring map, so every Bareiss division stays
# exact over Z, and every intermediate of fraction-free elimination on a
# matrix is (up to sign) one of its minors.  A minor's coefficients are at
# most the product over its rows of the rows' coefficient L1 norms, so with
# k one bit wider than the product over all rows of max(1, L1 norm) every
# intermediate is a polynomial in signed k-bit slots: it is zero exactly
# when its value is, and only the results are unpacked.


def _zx_pack_rows(crows):
    """(k, int rows): Z[x] rows of coefficient tuples packed at x = 2^k, k
    from the minor bound above."""
    bound = 1
    for r in crows:
        bound *= max(1, sum([abs(c) for cs in r for c in cs]))
    k = bound.bit_length() + 1
    return k, [[_pack(cs, k) for cs in r] for r in crows]


def _zx_row(ri, rk, k, prev):
    """One Bareiss update of the packed Z[x] row ri against the pivot row
    rk at column k: ri[j] <- (rk[k]*ri[j] - ri[k]*rk[j]) / prev for j > k.
    Column k of ri is left as it was; no later step reads it."""
    piv, f = rk[k], ri[k]
    vals = [x * piv - f * y for x, y in zip(ri[k + 1:], rk[k + 1:])]
    if prev != 1:
        qr = [divmod(v, prev) for v in vals]
        if any([r for _, r in qr]):
            raise NonDivisibleError("a Bareiss division left a remainder")
        vals = [q for q, _ in qr]
    ri[k + 1:] = vals


def _f2_row(ri, rk, k, prev):
    """_zx_row over F2[x], on bitmasks."""
    piv, f = rk[k], ri[k]
    vals = [clmul(x, piv) ^ clmul(f, y) for x, y in zip(ri[k + 1:], rk[k + 1:])]
    if prev != 1:
        qr = [cl_divmod(v, prev) for v in vals]
        if any([r for _, r in qr]):
            raise NonDivisibleError("a Bareiss division left a remainder")
        vals = [q for q, _ in qr]
    ri[k + 1:] = vals


def _eliminate(m, n, jordan, row_update):
    """Fraction-free elimination of the first n columns of the int rows m
    (n of them), in place.  E. H. Bareiss, Math. Comp. 22 (1968).

    Each step takes the first row at or below the diagonal with a nonzero
    entry in its column as pivot row.  Returns (sign, d): the sign of the
    row permutation and the last pivot, which is sign * det of the left
    n x n block; None if some column has no pivot (the block is singular).
    With jordan, rows above each pivot are cleared too (Gauss-Jordan), which
    leaves the left block d * Id and the rest d * A^{-1} * (the rest).
    """
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return None
            m[k], m[p] = m[p], m[k]
            sign = -sign
        rk = m[k]
        for i in range(0 if jordan else k + 1, n):
            if i != k:
                row_update(m[i], rk, k, prev)
        prev = rk[k]
    return sign, prev


def _det(m: Mat):
    """Determinant of a square matrix (over Z[C2][x], legs from its planes)."""
    d = _planes(m.ring, functools.partial(_plane_det, m), m._data)
    return _c2(*d) if m.ring is C2Poly else d


def _plane_det(m: Mat, data):
    """Determinant of m's rows of ints data (over Z[C2][x], a plane): the
    product of the determinants of its diagonal blocks between the cuts c
    at which the blocks [:c, c:] and [c:, :c] are zero (contiguous, so with
    no sign).  One scan finds the cuts; it stops at the first row or column
    that reaches the last one, since no cut can follow.  A matrix up to 2x2
    is taken whole."""
    n = m.rows
    if n <= 2:
        return _block_det(m, data)
    d, start, reach, idx = None, 0, 0, range(n)
    for i, col in enumerate(zip(*data)):
        reach = max(reach, i, *itertools.compress(idx, data[i]), *itertools.compress(idx, col))
        if i < reach < n - 1:
            continue
        end = reach + 1  # a cut at i + 1, or none before n
        b = _block_det(m, [r[start:end] for r in data[start:end]])
        d = b if d is None else d * b
        if end == n:
            return d
        start = end


def _block_det(m: Mat, blk):
    """Determinant of blk, a square block of m's rows of ints: its entry
    at 1x1, ad - bc at 2x2 (over Z[x] when m's bound fits its slot width),
    by Bareiss elimination otherwise."""
    n, k, f2 = len(blk), m.k, m.ring is PolyF2
    if n == 2 and (f2 or (2 * m.length * m.bound**2).bit_length() < k):
        (a, b), (c, e) = blk
        z = clmul(a, e) ^ clmul(b, c) if f2 else a * e - b * c
    elif n <= 1:
        z = blk[0][0] if n else 1
    elif f2:
        res = _eliminate([list(r) for r in blk], n, False, _f2_row)
        z = res[1] if res else 0
    else:
        k, rows = _zx_pack_rows([[_unpack(w, k) for w in r] for r in blk])
        res = _eliminate(rows, n, False, _zx_row)
        z = res[0] * res[1] if res else 0
    return PolyF2(z) if f2 else PolyInt._raw(_unpack(z, k))


def _solve(a: Mat, b: Mat) -> Mat:
    """X with A * X = B over Z[x] (A square), by fraction-free Gauss-Jordan
    on [A | B] packed at x = 2^k: d * X is read off the right block and
    divided by d.  PrecondError if A is singular, NonDivisibleError if X is
    not over Z[x]."""
    n = a.rows
    k, m = _zx_pack_rows([ra + rb for ra, rb in zip(_coeff_rows(a._data, a.k), _coeff_rows(b._data, b.k))])
    res = _eliminate(m, n, True, _zx_row)
    if res is None:
        raise PrecondError("singular matrix")
    d = PolyInt._raw(_unpack(res[1], k))
    quotients = [[PolyInt._raw(_unpack(z, k)).exact_div(d).coeffs for z in r[n:]] for r in m]
    return Mat.from_coeffs(quotients, b.cols)


def solve_right(a: Mat, b: Mat) -> Mat:
    """Solve A * X = B exactly over Z[x] by fraction-free Gauss-Jordan
    elimination on [A | B] (_solve).

    A with no pivot in some column is singular (PrecondError); a right block
    not exactly divisible by d = +-det A means the composite is not defined
    over the ring (NonDivisibleError).
    """
    if a.ring is not PolyInt or b.ring is not PolyInt:
        raise RingTagError("solve_right works over Z[x]")
    if not a.is_square():
        raise ShapeError("solve_right needs a square left-hand side")
    if a.rows != b.rows:
        raise ShapeError("solve_right shape mismatch")
    return _solve(a, b)


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
        for k, (m, n) in enumerate(itertools.zip_longest(p.a.coeffs, p.b.coeffs, fillvalue=0)):
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
