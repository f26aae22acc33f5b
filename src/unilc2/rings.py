"""Exact arithmetic for the three coefficient rings and their matrices.

The three rings are polynomial rings with involution:

    Z[x]      -- integer polynomials, class PolyInt
    F2[x]     -- binary polynomials, class PolyF2 (stored as a bitmask)
    Z[C2][x]  -- polynomials with coefficients m + n*T, T^2 = 1, class C2Poly
                 (stored by its two pullback legs, T -> -1 and T -> +1)

The involution is the identity on all three (T is its own inverse and x is
fixed), so conjugate-transpose of a matrix is plain transpose; the hooks are
kept explicit so every formula reads like the matrix identity it checks.

Ring homomorphisms of the pullback square are provided as functions:
apply_i(sign, .) substitutes T -> sign*1, apply_j reduces mod 2, and
pullback_pair / pullback_inverse realise the isomorphism of Z[C2][x] with
the fibre product of two copies of Z[x] over F2[x].  A C2Poly stores that
pair, so the T-evaluations read a field.

Polynomials are immutable and canonical (no trailing zero coefficients), so
equality is structural.  The text grammar used by the CLI lives here too:
terms ``c``, ``c*x^k``, ``x^k``, ``T``, ``c*T*x^k`` joined by ``+``/``-``,
matrices written ``[a,b;c,d]``.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass

NEG_INF = float("-inf")  # degree of the zero polynomial

# A PolyInt product with an operand of at most this many coefficients runs
# the schoolbook loop; longer pairs go through Kronecker substitution, which
# wins from length 8 on (measured crossover).
SCHOOLBOOK_MAX_LEN = 7

# A Z[x] matrix product of inner dimension at most this runs entry-wise;
# wider ones go through Kronecker substitution (measured crossover: at 2
# entry-wise is 1.8x faster, at 4 they tie, at 6 Kronecker is 3x faster).
ENTRYWISE_MAX_INNER = 2

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


def _slot_bits(inner, la, lb, ma, mb) -> int:
    return (inner * min(la, lb) * ma * mb).bit_length() + 1


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
        out = [0] * (len(a) + len(b) - 1)
        _add_product(out, a, b)
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


def _add_product(out: list, a: tuple, b: tuple):
    """out += a * b for nonempty coefficient tuples (out has room): the
    schoolbook loop, or Kronecker substitution when both are longer than
    SCHOOLBOOK_MAX_LEN."""
    if len(a) > SCHOOLBOOK_MAX_LEN and len(b) > SCHOOLBOOK_MAX_LEN:
        k = _slot_bits(1, len(a), len(b), max(map(abs, a)), max(map(abs, b)))
        for i, c in enumerate(_unpack(_pack(a, k) * _pack(b, k), k)):
            out[i] += c
        return
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj


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
        out ^= b * low  # b shifted to the set bit's position
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
        return PolyF2(clmul(self.bits, _as_polyf2(other).bits))

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
        _check_subs_power(n, max(self.degree(), 0))
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
    q, r = cl_divmod(a.bits, b.bits)
    return PolyF2(q), PolyF2(r)


# ---------------------------------------------------------------------------
# Z[C2] and Z[C2][x]


@dataclass(frozen=True)
class C2Elt:
    """Group-ring coefficient m + n*T (T^2 = 1), as C2Poly.coeffs lists them."""

    m: int = 0
    n: int = 0


class C2Poly:
    """Polynomial over Z[C2], stored by its two pullback legs: u, the value
    at T -> -1, and v, the value at T -> +1, integer polynomials with
    u = v mod 2.

    Z[C2][x] is the fibre product of two copies of Z[x] over F2[x], so each
    ring operation is the same operation on both legs, and a product is two
    Z[x] products.  The a + b*T form is derived: a = (u + v)/2 and
    b = (v - u)/2.  An element of Z[x] holds one PolyInt as both legs.
    """

    __slots__ = ("u", "v")
    TAG = "Z[C2][x]"

    def __init__(self, coeffs=()):
        """From Z[C2] coefficients, each an int or a C2Elt, lowest first."""
        cs = [c if isinstance(c, C2Elt) else C2Elt(c) for c in coeffs]
        a, b = PolyInt([c.m for c in cs]), PolyInt([c.n for c in cs])
        _SET_U(self, a - b)
        _SET_V(self, a + b)

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

    @property
    def coeffs(self):
        return tuple(
            C2Elt(m, n) for m, n in itertools.zip_longest(self.a.coeffs, self.b.coeffs, fillvalue=0)
        )

    def degree(self):
        return max(self.u.degree(), self.v.degree())

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __eq__(self, other):
        return isinstance(other, C2Poly) and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash(("C2Poly", self.u.coeffs, self.v.coeffs))

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

    def unit_inverse(self):
        if not self.is_unit():
            raise PrecondError(f"{self} is not a unit in Z[C2][x]")
        return self  # (+-1)^2 = 1 and (+-T)^2 = 1

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
    """Internal fast path: the element with legs u and v (u = v mod 2)."""
    p = object.__new__(C2Poly)
    _SET_U(p, u)
    _SET_V(p, v)
    return p


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


ONE_MINUS_T = _c2(PolyInt((2,)), PolyInt(()))

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
    if any(c % 2 for c in (v - u).coeffs):
        raise NotInImageError(f"({u}, {v}) do not agree mod 2")
    return _c2(u, v)


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
    def _raw(cls, rows, ring, cols: int) -> "Mat":
        """Internal fast path: entries already canonical for the ring, and
        the column count (which a matrix with no rows cannot show)."""
        self = cls.__new__(cls)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "ring", ring)
        return self

    @classmethod
    def identity(cls, n: int, ring) -> "Mat":
        return cls.scalar(n, ring.one(), ring)

    @classmethod
    def zeros(cls, r: int, c: int, ring) -> "Mat":
        return cls._raw(((ring.zero(),) * c,) * r, ring, c)

    @classmethod
    def scalar(cls, n: int, value, ring) -> "Mat":
        value, zero = _coercion(ring)(value), ring.zero()
        return cls._raw(
            tuple(tuple(value if i == j else zero for j in range(n)) for i in range(n)),
            ring,
            n,
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
        return cls._raw(tuple(out), ring, sum(widths))

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
        return cls._raw(tuple(out), ring, m)

    # -- basics

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ring is other.ring
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring.TAG, self.cols, self.entries))

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
            self.cols,
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return Mat._raw(
            tuple(tuple(-e for e in r) for r in self.entries), self.ring, self.cols
        )

    def __mul__(self, other):
        if not isinstance(other, Mat):  # entry * scalar stays in the ring or raises
            return Mat._raw(
                tuple(tuple(e * other for e in r) for r in self.entries), self.ring, self.cols
            )
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"product shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        a, b, cols = self.entries, other.entries, other.cols
        if self.ring is PolyInt:
            return Mat._raw(_zx_matmul(a, b, cols), PolyInt, cols)
        if self.ring is PolyF2:
            bits = f2_matmul_bits([[p.bits for p in r] for r in a], [[p.bits for p in r] for r in b], cols)
            return Mat._raw(tuple(tuple(map(PolyF2, r)) for r in bits), PolyF2, cols)
        # Z[C2][x]: one Z[x] product per pullback leg, and only one when
        # both factors are T-free (equal legs)
        au, bu, av, bv = _legs(a, "u"), _legs(b, "u"), _legs(a, "v"), _legs(b, "v")
        u = _zx_matmul(au, bu, cols)
        v = u if au == av and bu == bv else _zx_matmul(av, bv, cols)
        return Mat._raw(_from_legs(u, v), C2Poly, cols)

    def __rmul__(self, other):
        return self.map_entries(lambda e: other * e, self.ring)

    def conj_t(self) -> "Mat":
        """Conjugate-transpose: involution entry-wise, then transpose."""
        cols = zip(*self.entries) if self.entries else ((),) * self.cols
        return Mat._raw(tuple(tuple(e.conj() for e in r) for r in cols), self.ring, self.rows)

    def map_entries(self, fn, ring) -> "Mat":
        coerce = _coercion(ring)
        return Mat._raw(tuple(tuple(coerce(fn(e)) for e in r) for r in self.entries), ring, self.cols)

    # The ring maps below return canonical entries, so they skip coercion.

    def mod2(self) -> "Mat":
        if self.ring is PolyF2:
            return self
        rows = _legs(self.entries, "u") if self.ring is C2Poly else self.entries
        return Mat._raw(tuple(tuple(map(PolyInt.mod2, r)) for r in rows), PolyF2, self.cols)

    def i_minus(self) -> "Mat":
        return self._leg("u")

    def i_plus(self) -> "Mat":
        return self._leg("v")

    def _leg(self, name: str) -> "Mat":
        """Entry-wise T -> -1 ("u") or T -> +1 ("v") of a Z[C2][x] matrix."""
        if self.ring is not C2Poly:
            raise RingTagError(f"T-evaluation needs a Z[C2][x] matrix, not {self.ring.TAG}")
        return Mat._raw(_legs(self.entries, name), PolyInt, self.cols)

    def to_c2(self) -> "Mat":
        if self.ring is C2Poly:
            return self
        if self.ring is PolyInt:
            return self.map_entries(C2Poly.from_polyint, C2Poly)
        raise RingTagError("no canonical embedding of F2[x] into Z[C2][x]")

    def det(self):
        """Determinant.

        Up to 2x2 by the expansion formula.  Above that, Z[x] and F2[x] use
        fraction-free Bareiss elimination on packed integers (_det).
        Z[C2][x] has zero divisors, so its determinant is the pair of the
        determinants of its two legs: both T-evaluations are ring maps, so
        they commute with det.
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
        if self.ring is not C2Poly:
            return _det(ent, self.ring)
        lu, lv = _legs(ent, "u"), _legs(ent, "v")
        u = _det(lu, PolyInt)
        return _c2(u, u if lu == lv else _det(lv, PolyInt))

    def adjugate(self) -> "Mat":
        """adj(A) with A * adj(A) = det(A) * Id, in closed form up to 2x2.
        Larger systems are solved by elimination (solve_right,
        inverse_unimodular) instead."""
        if not self.is_square():
            raise ShapeError("adjugate of a non-square matrix")
        n, ent = self.rows, self.entries
        if n > 2:
            raise ShapeError("the adjugate is formed up to 2x2 only")
        if n == 0:
            return self
        if n == 1:
            return Mat._raw(((self.ring.one(),),), self.ring, 1)
        (a, b), (c, d) = ent
        return Mat._raw(((d, -b), (-c, a)), self.ring, 2)

    def inverse_unimodular(self) -> "Mat":
        """Inverse of a matrix whose determinant is a ring unit (PrecondError
        otherwise).  Up to 2x2 the adjugate over the unit determinant;
        above that A * X = Id is solved by elimination, over Z[C2][x] on
        each leg."""
        if not self.is_square() or self.rows <= 2:
            return self.adjugate() * self.det().unit_inverse()
        ident, ent = Mat.identity(self.rows, self.ring).entries, self.entries
        try:
            if self.ring is not C2Poly:
                return _solve(ent, ident, self.ring, self.rows)
            one = _legs(ident, "u")
            lu, lv = _legs(ent, "u"), _legs(ent, "v")
            u = _solve(lu, one, PolyInt, self.rows).entries
            v = u if lu == lv else _solve(lv, one, PolyInt, self.rows).entries
        except NonDivisibleError:  # the determinant is not a unit
            raise PrecondError("the determinant is not a unit") from None
        return Mat._raw(_from_legs(u, v), C2Poly, self.rows)

    def is_unimodular(self) -> bool:
        return self.is_square() and self.det().is_unit()

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"Mat[{self.ring.TAG}]{format_matrix(self)}"


def _legs(rows, name: str):
    """Row tuples of one leg ("u" or "v") of Z[C2][x] row tuples."""
    if name == "u":
        return tuple([tuple([e.u for e in r]) for r in rows])
    return tuple([tuple([e.v for e in r]) for r in rows])


def _from_legs(u, v):
    """Z[C2][x] row tuples from the row tuples of their two legs."""
    return tuple(tuple(map(_c2, ru, rv)) for ru, rv in zip(u, v))


def _zx_matmul(a, b, cols):
    """Row tuples of the product of Z[x] matrices given by their row tuples
    (b has `cols` columns).

    Up to inner dimension ENTRYWISE_MAX_INNER each entry sums its products
    of nonzero factors in one coefficient list; wider products use
    Kronecker substitution, whose packing costs more than a short sum."""
    if len(b) > ENTRYWISE_MAX_INNER:
        return _kronecker_matmul(a, b)
    bcols = list(zip(*[[p.coeffs for p in r] for r in b])) if b else [()] * cols
    zero = PolyInt(())
    out = []
    for r in a:
        rc = [p.coeffs for p in r]
        row = []
        for col in bcols:
            acc = []
            for x, y in zip(rc, col):
                if x and y:
                    acc += [0] * (len(x) + len(y) - 1 - len(acc))
                    _add_product(acc, x, y)
            while acc and not acc[-1]:
                acc.pop()
            row.append(PolyInt._raw(tuple(acc)) if acc else zero)
        out.append(tuple(row))
    return tuple(out)


def _kronecker_matmul(a, b):
    """Row tuples of the product of Z[x] matrices given by their row tuples
    (b has at least one row).

    Every entry of both factors is packed once, at one slot width for the
    whole product; each dot product is accumulated as one Python int and
    unpacked once.
    """
    polys = [p.coeffs for r in a for p in r], [p.coeffs for r in b for p in r]
    la, lb = (max(map(len, ps), default=0) for ps in polys)
    ma, mb = (max((abs(c) for cs in ps for c in cs), default=0) for ps in polys)
    k = _slot_bits(len(b), la, lb, ma, mb)
    pb = list(zip(*[[_pack(p.coeffs, k) for p in r] for r in b]))
    out = []
    for r in a:
        pr = [_pack(p.coeffs, k) for p in r]
        out.append(tuple(PolyInt._raw(_unpack(sum(map(operator.mul, pr, col)), k)) for col in pb))
    return tuple(out)


def f2_matmul_bits(a, b, cols):
    """Rows of the product of F2[x] matrices given by rows of bitmasks (b
    has `cols` columns), as lists of bitmasks.

    Each row of b is packed into one int, slot j holding entry j's bits.  A
    product of an entry of a and one of b has at most la + lb - 1 bits (la,
    lb the longest entries), so at that slot width a shifted row never
    spills into the next slot, and XOR has no carries: row i of the product
    is the XOR of the carry-less products a[i][k] * (packed row k of b).
    Each output entry is unpacked once.
    """
    la = max((v for r in a for v in r), default=0).bit_length()
    lb = max((v for r in b for v in r), default=0).bit_length()
    w = max(la + lb - 1, 1)
    packed = []
    for r in b:
        z = 0
        for v in reversed(r):
            z = (z << w) | v
        packed.append(z)
    mask = (1 << w) - 1
    out = []
    for r in a:
        acc = 0
        for v, z in zip(r, packed):
            if v:
                acc ^= clmul(v, z)
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


def _zx_pack_rows(rows):
    """(k, int rows): Z[x] row tuples packed at x = 2^k, k from the minor
    bound above."""
    bound = 1
    for r in rows:
        bound *= max(1, sum([abs(c) for p in r for c in p.coeffs]))
    k = bound.bit_length() + 1
    return k, [[_pack(p.coeffs, k) for p in r] for r in rows]


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


def _det(rows, ring):
    """Determinant of a square Z[x] or F2[x] matrix given by its row tuples."""
    if ring is PolyF2:
        res = _eliminate([[p.bits for p in r] for r in rows], len(rows), False, _f2_row)
        return PolyF2(res[1]) if res else PolyF2(0)
    k, m = _zx_pack_rows(rows)
    res = _eliminate(m, len(m), False, _zx_row)
    return PolyInt._raw(_unpack(res[0] * res[1], k)) if res else PolyInt(())


def _solve(a, b, ring, cols):
    """X with A * X = B over Z[x] or F2[x] (A square, both given by row
    tuples, B with `cols` columns), by fraction-free Gauss-Jordan on
    [A | B]: d * X is read off the right block and divided by d.
    PrecondError if A is singular, NonDivisibleError if X is not over the
    ring."""
    n = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    if ring is PolyF2:
        m, row_update, unpack = [[p.bits for p in r] for r in rows], _f2_row, PolyF2
    else:
        k, m = _zx_pack_rows(rows)
        row_update = _zx_row

        def unpack(z):
            return PolyInt._raw(_unpack(z, k))

    res = _eliminate(m, n, True, row_update)
    if res is None:
        raise PrecondError("singular matrix")
    d = unpack(res[1])
    return Mat._raw(tuple(tuple(unpack(z).exact_div(d) for z in r[n:]) for r in m), ring, cols)


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
    return _solve(a.entries, b.entries, PolyInt, b.cols)


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
        for k, c in enumerate(p.coeffs):
            if c.m:
                terms.append(_fmt_term(c.m, k, False))
            if c.n:
                terms.append(_fmt_term(c.n, k, True))
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
