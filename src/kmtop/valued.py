"""Exact scalars in a field K with a discrete valuation normalized so ω(ϖ) = 1.

Both field kinds are fractions over a Euclidean ring R in which ϖ is prime,
and both keep a raw value as a triple (v, num, den) meaning ϖ^v·num/den, with
num and den coprime in R and ϖ dividing neither, so that ω is v and ϖ enters
no gcd.  Raw values are immutable and canonical, so equality is structural
and every operation is pure.  ω(0) is the tag ``INFINITY``, never an int.

* ``PAdicField(p)`` -- K = Q with the p-adic valuation, R = Z, ϖ = p; den > 0,
  and zero is (0, 0, 1).
* ``RationalFunctionField(q)`` -- K = F_q(t) (q prime) with the order-at-zero
  valuation, R = F_q[t], ϖ = t; num and den are coefficient tuples, den
  monic, and zero is (0, (), (1,)).

``ValuedScalar`` pairs a field with a raw value and never looks inside the
raw value: every operation is delegated to the field.  Both are records
(``record.Record``): a field records only its prime ``char``, also the
residue characteristic, since its class is its kind, and holds no scalar.
The ``Field`` base checks the prime, and provides ``spec_string()``,
``scalar(value)``, ``zero()``, ``one()`` and ``uniformizer()`` (ϖ^1).
``scalar`` is the one coercion point, and every scalar operation hands it
any operand but a scalar of its own field object: it builds a scalar from an
int (or a p-adic Fraction) and raises ``FieldMismatch`` for another field's
scalar.  ``exact_int``, the one int guard, takes a field's prime, the
exponents of ``**`` and ``pi_power`` and the generators' integer arguments;
``nonzero`` is the generators' ``ValidationError`` for a zero scalar, and
``check_same`` the one ``FieldMismatch`` for values of two fields.

``Field`` also holds the one kernel on raw values, written over R: ``_add``,
``_mul``, ``_inv`` (a nonzero), ``_pow(a, k)`` (k != 0, a nonzero when
k < 0), ``_val_from_one`` (ω(a − 1), read without building a − 1),
``_canonical(num, den)`` (the one reduction of a built fraction), ``_is_zero``
and ``_val``.  A field kind is a ``Field`` subclass that provides

* its ring: ``ONE_R``, ``_rsum``, ``_rmul``, ``_rgcd``, ``_rquo`` (the exact
  quotient by a gcd), ``_rpow`` (e ≥ 1), ``_elt`` (a ring element from what
  ``_canonical`` is given), ``_shift(x, k)`` (x·ϖ^k), ``_strip(x)`` ((k,
  x/ϖ^k) for the largest k, x nonzero), ``_unit(v, num, den)`` (den made
  positive or monic) and ``_ord_sub(a, b)`` (ω(a − b), without a − b);
* ``_neg(a)``, ``_format(a)``, ``_number(value)`` (the raw value of a Python
  number, never a bool), ``_equals_number(a, x)`` and ``_hash(a)`` (``==``
  with an int or a Fraction, and the hash), ``pi_power(n)`` (ϖ^n, the one
  place a kind builds it), ``sample_unit(rng)`` and ``degree(s)`` (the size
  that a power's cost grows with);
* class attributes ``kind`` (the ``--field`` prefix), ``prime_name`` (the
  prime's name in messages), ``uniformizer_name`` (the name of ϖ in the
  scalar grammar), and the raw values ``ZERO`` and ``ONE``, which ``is_one``
  reads without building a scalar.

F_q[t]'s operations and the module's ``_prem``, ``_pgcd``, ``_pscale`` and
``_pneg`` take trimmed coefficient tuples over F_p, p prime: entries in
[0, p), no trailing zero, () for zero.  They return exact-size trimmed
tuples.  Over a prime p a product of nonzero leading coefficients is
nonzero, so a product, a quotient and a nonzero scaling need no trim; only
remainders and sums of operands of one length do.  Division takes only what
its caller uses: ``_pgcd`` the remainders (``_prem``), and the callers that
divide by a gcd the quotient (``_rquo``), which takes the monic divisor
``_pgcd`` gives.  A product by 1 may return the other operand itself, and
``_rgcd`` of a constant is (1,) with no ``_pgcd``.
Results are built as ``tuple([...])``, never ``tuple(genexpr)``: CPython
allocates a tuple built from a generator from a length guess and resizes it
afterwards, and built that way the kernels' tuples raised the verify-fq peak
RSS by about 12% and the traced peak of Python allocations threefold.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from itertools import zip_longest

from .record import Record

INFINITY = math.inf
_DIGIT_RUN = re.compile("[0-9]+")


def check_digits(text: str) -> str:
    """text, if int() converts its every run of digits: ValueError naming the
    longest run and the limit otherwise, where int() would name the
    interpreter setting sys.set_int_max_str_digits (0 for no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        longest = max(map(len, _DIGIT_RUN.findall(text)), default=0)
        if longest > limit:
            raise ValueError(f"a number of {longest} digits exceeds the limit of {limit} digits")
    return text


def exact_str(x) -> str:
    """str of an int or a Fraction: ValueError naming the digit limit when it
    has more digits than str() converts, where str() would name the
    interpreter setting sys.set_int_max_str_digits."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a result of more than {limit} digits exceeds the limit "
                         f"of {limit} digits") from None


def exact_fraction(x) -> Fraction:
    """An int or a Fraction as a Fraction; TypeError otherwise, a bool included."""
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact rational: {x!r}")
    return Fraction(x)


def exact_int(x) -> int:
    """x, if it is an int; TypeError otherwise, a bool included."""
    if type(x) is not int:
        raise TypeError(f"not an integer: {x!r}")
    return x


class DivisionByZero(ZeroDivisionError):
    pass


class FieldMismatch(TypeError):
    pass


class ValidationError(ValueError):
    pass


def nonzero(s: "ValuedScalar", what: str) -> "ValuedScalar":
    """s, if it is not zero; ValidationError naming what needs it otherwise."""
    if s.is_zero():
        raise ValidationError(f"zero scalar where nonzero required ({what})")
    return s


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# The largest p or q of a field, so that trial division takes milliseconds.
MAX_PRIME = 2 ** 31 - 1


def _prime_arg(n: int, name: str) -> None:
    """ValueError, naming the prime name, unless n is a prime at most MAX_PRIME."""
    if n > MAX_PRIME:
        raise ValueError(f"{name} = {n} is above the limit 2^31 - 1")
    if not _is_prime(n):
        raise ValueError(f"only prime {name} is supported, got {n}")


def _nth_prime_to(p: int, i: int) -> int:
    """The i-th (from 0) positive integer not divisible by p."""
    return i // (p - 1) * p + i % (p - 1) + 1


# ---------------------------------------------------------------------------
# Dense polynomials over F_p, as tuples of ints in [0, p).  () is zero.

def _ptrim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pneg(a, p):
    return tuple([(-x) % p for x in a])


def _pscale(a, s, p):
    """s·a for s ≠ 0 mod p: the leading coefficient stays nonzero."""
    return tuple([(x * s) % p for x in a])


def _prem(a, b, p):
    """The remainder of a by b ≠ 0."""
    lb = len(b)
    if len(a) < lb:
        return a
    if lb == 2:
        # b = b0 + b1·t: the remainder is a(r) at the root r = −b0/b1, by Horner
        r = -b[0] * pow(b[1], -1, p) % p
        x = 0
        for c in reversed(a):
            x = (x * r + c) % p
        return (x,) if x else ()
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - lb, -1, -1):
        coeff = (a[i + lb - 1] * inv_lead) % p
        if coeff:
            # the top term cancels by the choice of coeff; the rest are
            # reduced when they become the top term, or at the end
            for j in range(lb - 1):
                a[i + j] -= coeff * b[j]
    return _ptrim([x % p for x in a[:lb - 1]])


def _pgcd(a, b, p):
    """The monic gcd; (1,) as soon as a remainder is a nonzero constant."""
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, _prem(a, b, p)
    if a and a[-1] != 1:
        a = _pscale(a, pow(a[-1], -1, p), p)
    return a


def _pformat(a) -> str:
    """Render a polynomial so it re-parses under the scalar grammar."""
    if not a:
        return "0"
    terms = []
    for i, x in enumerate(a):
        if x == 0:
            continue
        if i == 0:
            terms.append(str(x))
        elif i == 1:
            terms.append("t" if x == 1 else f"{x}*t")
        else:
            terms.append(f"t^{i}" if x == 1 else f"{x}*t^{i}")
    return "+".join(terms)


def _fq_pair(raw):
    """A raw (v, num, den) as one reduced fraction of polynomials: (t^v·num,
    den), or (num, t^−v·den) when v < 0."""
    v, num, den = raw
    return ((0,) * v + num, den) if v >= 0 else (num, (0,) * -v + den)


# ---------------------------------------------------------------------------


class Field(Record):
    """Base of the field kinds, a record of one field, the prime ``char``,
    and the one kernel on raw values; the module docstring lists what it
    provides and what a kind implements."""

    __slots__ = ("char",)
    kind: str
    char: int
    prime_name: str
    uniformizer_name: str

    def __post_init__(self):
        _prime_arg(exact_int(self.char), self.prime_name)

    def spec_string(self) -> str:
        return f"{self.kind}:{self.char}"

    def scalar(self, value) -> "ValuedScalar":
        if isinstance(value, ValuedScalar):
            if value.field is not self:
                self.check_same(value.field)
            return value
        return ValuedScalar(self, self._number(value))

    def check_same(self, other: "Field") -> None:
        """FieldMismatch naming both fields, unless other is this field."""
        if other is not self and other != self:
            raise FieldMismatch(f"mixed fields: {self.spec_string()} vs {other.spec_string()}")

    def zero(self) -> "ValuedScalar":
        return ValuedScalar(self, self.ZERO)

    def one(self) -> "ValuedScalar":
        return ValuedScalar(self, self.ONE)

    def uniformizer(self) -> "ValuedScalar":
        return self.pi_power(1)

    # raw ops on (v, num, den) triples, num falsy iff zero.  Operands are
    # canonical, so a sum or a product cancels only what two reduced fractions
    # can share (Henrici's reduced-fraction arithmetic, as in Fraction), and
    # ϖ, prime to every num and den, enters no gcd; R's 1 enters no gcd or product.
    def _is_zero(self, raw) -> bool:
        return not raw[1]

    def _val(self, raw):
        return raw[0] if raw[1] else INFINITY

    def _canonical(self, num, den):
        """The raw value of num/den, ring elements (F_q(t): coefficient
        sequences with entries in [0, q)); the one reduction of a fraction."""
        num, den = self._elt(num), self._elt(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return self.ZERO
        (i, num), (j, den) = self._strip(num), self._strip(den)
        g = self._rgcd(num, den)
        if g != self.ONE_R:
            num, den = self._rquo(num, g), self._rquo(den, g)
        return self._unit(i - j, num, den)

    def _add(self, a, b):
        (v1, n1, d1), (v2, n2, d2) = a, b
        if not n1:
            return b
        if not n2:
            return a
        if v1 > v2:
            (v1, n1, d1), (v2, n2, d2) = b, a
        if v2 > v1:
            # ϖ^v1·(n1/d1 + ϖ^(v2−v1)·n2/d2): the second fraction is still
            # reduced, and ϖ does not divide the sum's numerator
            n2 = self._shift(n2, v2 - v1)
        one, rmul, rquo = self.ONE_R, self._rmul, self._rquo
        # d1 = g·e1, d2 = g·e2: the sum is (n1·e2 + n2·e1)/(g·e1·e2), and
        # only factors of g can cancel: a prime dividing e1 but not g
        # divides neither n1 nor e2, so not the numerator (and so for e2)
        g = one if d1 == one or d2 == one else self._rgcd(d1, d2)
        e1, e2 = (d1, d2) if g == one else (rquo(d1, g), rquo(d2, g))
        num = self._rsum(n1 if e2 == one else rmul(n1, e2), n2 if e1 == one else rmul(n2, e1))
        if not num:
            return self.ZERO
        if v1 == v2:
            # at equal valuations the numerator can gain a power of ϖ
            k, num = self._strip(num)
            v1 += k
        if g != one:
            g2 = self._rgcd(num, g)
            if g2 != one:
                num, d2 = rquo(num, g2), rquo(d2, g2)
        return (v1, num, d2 if e1 == one else e1 if d2 == one else rmul(e1, d2))

    def _mul(self, a, b):
        (v1, n1, d1), (v2, n2, d2) = a, b
        if not n1 or not n2:
            return self.ZERO
        one, rmul = self.ONE_R, self._rmul
        # n1/d1 and n2/d2 are reduced, so only n1 with d2 and n2 with d1 can cancel
        if d2 != one:
            g = self._rgcd(n1, d2)
            if g != one:
                n1, d2 = self._rquo(n1, g), self._rquo(d2, g)
        if d1 != one:
            g = self._rgcd(n2, d1)
            if g != one:
                n2, d1 = self._rquo(n2, g), self._rquo(d1, g)
        num = n2 if n1 == one else n1 if n2 == one else rmul(n1, n2)
        den = d2 if d1 == one else d1 if d2 == one else rmul(d1, d2)
        return (v1 + v2, num, den)

    def _inv(self, a):
        # a reduced fraction inverts to a reduced one: no gcd, only _unit
        v, num, den = a
        return self._unit(-v, den, num)

    def _pow(self, a, k: int):
        # the powers of coprime num and den stay coprime and prime to ϖ, and
        # a positive or monic den^e stays so: no gcd.  0^e is ZERO itself
        v, num, den = a if k > 0 else self._inv(a)
        e = abs(k)
        return (v * e, self._rpow(num, e), self._rpow(den, e))

    def _val_from_one(self, raw):
        # 0 − 1 and a v > 0 minus 1 are units; at v < 0 the −1 does not reach
        # ϖ^v.  At v = 0, x − 1 = (num − den)/den with ϖ prime to den.
        v, num, den = raw
        if v or not num:
            return min(v, 0)
        return self._ord_sub(num, den)


class PAdicField(Field):
    """Q with the p-adic valuation; ϖ = p, R = Z.

    A raw value is a triple (v, num, den) of ints meaning p^v·num/den: p
    divides neither num nor den, den > 0 and gcd(num, den) = 1.  The ring
    operations are builtins, which bind no self and so add no Python frame."""

    __slots__ = ()
    kind = prime_name = uniformizer_name = "p"
    ZERO, ONE, ONE_R = (0, 0, 1), (0, 1, 1), 1
    _rsum, _rmul, _rquo, _rpow = operator.add, operator.mul, operator.floordiv, pow
    _rgcd, _elt = math.gcd, operator.index

    def _shift(self, x, k):
        return x * self.char ** k

    def _strip(self, x):
        p, k = self.char, 0
        while x % p == 0:
            x //= p
            k += 1
        return k, x

    def _unit(self, v, num, den):
        return (v, num, den) if den > 0 else (v, -num, -den)

    def _ord_sub(self, a, b):
        return self._strip(a - b)[0] if a != b else INFINITY

    def _number(self, value):
        # a Fraction is reduced: only the powers of p are taken out
        x = exact_fraction(value)
        num, den = x.numerator, x.denominator
        if not num:
            return self.ZERO
        (i, num), (j, den) = self._strip(num), self._strip(den)
        return (i - j, num, den)

    def pi_power(self, n: int) -> "ValuedScalar":
        return ValuedScalar(self, (exact_int(n), 1, 1))

    def degree(self, s: "ValuedScalar") -> int:
        """0: a rational has no degree for a power's cost to grow with."""
        return 0

    def sample_unit(self, rng) -> "ValuedScalar":
        """rng.choice of [k in [1, 4p) prime to p] + [−1, −2] over [k in
        [1, 2p] prime to p], with each index drawn as rng.choice draws it."""
        p = self.char
        i = rng.randrange(4 * p - 2)
        num = _nth_prime_to(p, i) if i < 4 * p - 4 else 4 * p - 5 - i
        while num % p == 0:
            num = rng.randrange(1, 4 * p)
        den = _nth_prime_to(p, rng.randrange(2 * p - 2))
        # both draws are prime to p: only their gcd is taken out
        g = math.gcd(num, den)
        return ValuedScalar(self, (0, num // g, den // g))

    def _neg(self, a):
        v, num, den = a
        return (v, -num, den)

    def _fraction(self, raw) -> Fraction:
        """raw as a Fraction, which prints, compares and hashes it."""
        v, num, den = raw
        p = self.char
        return Fraction(num * p ** v, den) if v >= 0 else Fraction(num, den * p ** -v)

    def _format(self, raw) -> str:
        return exact_str(self._fraction(raw))

    def _equals_number(self, raw, x) -> bool:
        return self._fraction(raw) == x

    def _hash(self, raw) -> int:
        return hash(self._fraction(raw))


class RationalFunctionField(Field):
    """F_q(t), q prime, with the order-at-zero valuation; ϖ = t, R = F_q[t].

    A raw value is a triple (v, num, den) meaning t^v·num/den: num and den
    are coefficient tuples over F_q with nonzero constant terms, coprime, and
    den is monic; zero is ``ZERO``.  Prime powers q = p^k, k > 1 are
    rejected (coefficient arithmetic is plain F_p here).
    """

    __slots__ = ()
    kind, prime_name, uniformizer_name = "fq", "q", "t"
    ZERO, ONE, ONE_R = (0, (), (1,)), (0, (1,), (1,)), (1,)

    def _rsum(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        p = self.char
        c = [(x + y) % p for x, y in zip(a, b)]
        if len(a) == len(b):
            return _ptrim(c)
        # the longer operand's leading coefficient survives: nothing to trim
        c += a[len(b):]
        return tuple(c)

    def _rmul(self, a, b):
        if not a or not b:
            return ()
        p = self.char
        if len(a) == 1 or len(b) == 1:
            (s,), c = (a, b) if len(a) == 1 else (b, a)
            return c if s == 1 else _pscale(c, s, p)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        # the leading coefficient a[-1]·b[-1] is nonzero mod p: nothing to trim
        return tuple([c % p for c in out])

    def _rgcd(self, a, b):
        # a constant operand, such as c in every c·t^k, shares nothing
        return (1,) if len(a) == 1 or len(b) == 1 else _pgcd(a, b, self.char)

    def _rquo(self, a, b):
        """a/b for a monic b dividing a: the remainder, 0, is not formed."""
        lb = len(b)
        if len(a) == lb:
            # a is an associate of b: a constant quotient
            return (a[-1],)
        p = self.char
        a = list(a)
        q = [0] * (len(a) - lb + 1)
        for i in range(len(a) - lb, -1, -1):
            coeff = a[i + lb - 1] % p
            if coeff:
                q[i] = coeff
                for j in range(lb - 1):
                    a[i + j] -= coeff * b[j]
        # q[-1] = a[-1] is nonzero: nothing to trim
        return tuple(q)

    def _rpow(self, a, e):
        """a^e for e ≥ 1, by repeated squaring; 1^e is 1."""
        if e == 1 or a == (1,):
            return a
        half = self._rpow(self._rmul(a, a), e >> 1)
        return self._rmul(half, a) if e & 1 else half

    def _elt(self, c):
        return _ptrim(list(c))

    def _shift(self, x, k):
        return (0,) * k + x

    def _strip(self, x):
        k = 0
        while not x[k]:
            k += 1
        return k, x[k:]

    def _unit(self, v, num, den):
        lead = den[-1]
        if lead == 1:
            return (v, num, den)
        inv = pow(lead, -1, self.char)
        return (v, _pscale(num, inv, self.char), _pscale(den, inv, self.char))

    def _ord_sub(self, a, b):
        # den(0) ≠ 0: the first index where a and b differ, the shorter zero-padded
        for i, (x, y) in enumerate(zip_longest(a, b, fillvalue=0)):
            if x != y:
                return i
        return INFINITY

    def _number(self, value):
        c = exact_int(value) % self.char
        return (0, (c,), (1,)) if c else self.ZERO

    def pi_power(self, n: int) -> "ValuedScalar":
        """t^n is the raw (n, (1,), (1,)) itself: no powering needed."""
        return ValuedScalar(self, (exact_int(n), (1,), (1,)))

    def degree(self, s: "ValuedScalar") -> int:
        """The larger of the numerator and denominator degrees of t^v·num/den
        written as one fraction of polynomials."""
        num, den = _fq_pair(s.raw)
        return max(len(num), len(den)) - 1

    def sample_unit(self, rng) -> "ValuedScalar":
        q = self.char
        deg = rng.randrange(0, 3)
        num = [rng.randrange(q) for _ in range(deg + 1)]
        num[0] = rng.randrange(1, q)
        den = [1]
        if rng.random() < 0.4:
            den = [rng.randrange(1, q), rng.randrange(q)]
        # every draw is already in [0, q): no mod-q pass
        return ValuedScalar(self, self._canonical(num, den))

    def _neg(self, a):
        v, num, den = a
        return (v, _pneg(num, self.char), den)

    def _format(self, raw) -> str:
        num, den = _fq_pair(raw)
        if den == (1,):
            return _pformat(num)
        num_s = _pformat(num)
        if "+" in num_s:
            num_s = f"({num_s})"
        den_s = _pformat(den)
        if "+" in den_s or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def _equals_number(self, raw, x) -> bool:
        # ints are reduced mod q, so 1 and 1 + q would both equal one()
        return False

    _hash = staticmethod(hash)


class ValuedScalar(Record):
    """An exact element of K carrying its field; canonical and immutable.
    ``ValuedScalar(field, raw)``, the trusted build of every operation's result,
    takes a canonical raw value unchecked: ``ValuedScalar(PAdicField(3), 3)``
    builds, and its ``valuation()`` raises TypeError.  ``Field.scalar`` checks."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw):
        _set_field(self, field)
        _set_raw(self, raw)

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        f = self.field
        if other.__class__ is not ValuedScalar or other.field is not f:
            other = f.scalar(other)
        return ValuedScalar(f, f._add(self.raw, other.raw))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return ValuedScalar(f, f._neg(self.raw))

    def __sub__(self, other):
        return self + -self.field.scalar(other)

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not ValuedScalar or other.field is not f:
            other = f.scalar(other)
        return ValuedScalar(f, f._mul(self.raw, other.raw))

    __rmul__ = __mul__

    def inv(self) -> "ValuedScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        f = self.field
        return ValuedScalar(f, f._inv(self.raw))

    def __truediv__(self, other):
        return self * self.field.scalar(other).inv()

    def __pow__(self, k: int):
        f = self.field
        if exact_int(k) == 0:
            return f.one()
        if k < 0 and self.is_zero():
            raise DivisionByZero("inverse of zero")
        return ValuedScalar(f, f._pow(self.raw, k))

    # predicates and views ---------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, ValuedScalar):
            return ((other.field is self.field or other.field == self.field)
                    and self.raw == other.raw)
        if isinstance(other, (int, Fraction)):
            # the field decides: a p-adic scalar equals the same number and
            # hashes like it, an F_q(t) scalar equals no Python number
            return self.field._equals_number(self.raw, other)
        return NotImplemented

    def __hash__(self):
        return self.field._hash(self.raw)

    def is_zero(self) -> bool:
        return self.field._is_zero(self.raw)

    def is_one(self) -> bool:
        return self.raw == self.field.ONE

    def valuation(self):
        """ω(x): an integer, or INFINITY iff x = 0."""
        return self.field._val(self.raw)

    def valuation_from_one(self):
        """ω(x − 1), without building x − 1: INFINITY iff x = 1."""
        return self.field._val_from_one(self.raw)

    def __str__(self):
        return self.field._format(self.raw)

    def __repr__(self):
        return f"<{self} @ {self.field.spec_string()}>"


_set_field, _set_raw = ValuedScalar._setters

_KINDS = {cls.kind: cls for cls in (PAdicField, RationalFunctionField)}


def parse_field(text: str) -> Field:
    """Parse a --field flag value: ``p:<prime>`` or ``fq:<prime>``."""
    kind, _, arg = text.partition(":")
    if not arg.isascii() or not arg.isdigit():
        raise ValueError(f"bad field spec {text!r}; expected p:<prime> or fq:<prime>")
    if kind not in _KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    return _KINDS[kind](int(check_digits(arg)))
