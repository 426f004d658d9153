"""Exact scalars in a field K with a discrete valuation normalized so ω(ϖ) = 1.

Two field kinds are supported:

* ``PAdicField(p)`` -- K = Q with the p-adic valuation, ϖ = p, O = rationals
  with no p in the denominator.  Raw values are ``Fraction``, and the raw
  ops are its own operators.
* ``RationalFunctionField(q)`` -- K = F_q(t) (q prime) with the order-at-zero
  valuation, ϖ = t, O = ratios whose denominator is a unit at t = 0.  Raw
  values are triples (v, num, den) meaning t^v·num/den, with num and den
  coefficient tuples over F_q that have nonzero constant terms.  ω is v, and
  t enters no gcd: a product by c·t^k (every ϖ-power) only scales the other
  numerator, and a sum shifts one numerator by a power of t.

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
``nonzero`` is the generators' ``ValidationError`` for a zero scalar.  A
field kind is a ``Field`` subclass that provides

* raw-value methods ``_add(a, b)``, ``_neg(a)``, ``_mul(a, b)``, ``_inv(a)``
  (a nonzero), ``_pow(a, k)`` (k != 0, a nonzero when k < 0),
  ``_is_zero(a)``, ``_val(a)``, ``_val_from_one(a)`` (ω(a − 1), read from
  a without building a − 1), ``_format(a)`` and ``_number(value)`` (the raw
  value of a Python number, never a bool);
* ``pi_power(n)`` (ϖ^n, the one place a kind builds it), ``sample_unit(rng)``
  and ``degree(s)`` (the size that a power's cost grows with);
* class attributes ``kind`` (the ``--field`` prefix), ``prime_name`` (the
  prime's name in messages), ``uniformizer_name`` (the name of ϖ in the
  scalar grammar), and the raw values ``ZERO`` and ``ONE``, which ``is_one``
  reads without building a scalar.

Raw values are immutable and kept in canonical form (rationals in lowest
terms; polynomial ratios reduced with monic denominator and the powers of t
taken out), so equality is structural and every operation is pure.  ω(0) is
the distinguished tag ``INFINITY``, never an integer sentinel.

The F_q(t) kernels (``_padd``, ``_pmul``, ``_ppow``, ``_prem``, ``_pquo``,
``_pgcd`` and ``_pscale``) take trimmed coefficient tuples over F_p, p prime:
entries in [0, p), no trailing zero, () for zero.  They return exact-size
trimmed tuples.  Over a prime p a product of nonzero leading coefficients is
nonzero, so a product, a quotient and a nonzero scaling need no trim; only
remainders and sums of operands of one length do.  Division takes only what
its caller uses: ``_pgcd`` the remainders (``_prem``), and the callers that
divide by a gcd the quotient (``_pquo``), which takes the monic divisor
``_pgcd`` gives.  A kernel may return an operand itself (a product by 1),
and the callers in ``RationalFunctionField`` skip the call where an operand
they pick is 1.
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


def _padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    c = [(x + y) % p for x, y in zip(a, b)]
    if len(a) == len(b):
        return _ptrim(c)
    # the longer operand's leading coefficient survives: nothing to trim
    c += a[len(b):]
    return tuple(c)


def _pneg(a, p):
    return tuple([(-x) % p for x in a])


def _pscale(a, s, p):
    """s·a for s ≠ 0 mod p: the leading coefficient stays nonzero."""
    return tuple([(x * s) % p for x in a])


def _pmul(a, b, p):
    if not a or not b:
        return ()
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


def _ppow(a, e, p):
    """a^e for e ≥ 1, by repeated squaring; 1^e is 1."""
    if e == 1 or a == (1,):
        return a
    half = _ppow(_pmul(a, a, p), e >> 1, p)
    return _pmul(half, a, p) if e & 1 else half


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


def _pquo(a, b, p):
    """a/b for a monic b dividing a: the remainder, 0, is not formed."""
    lb = len(b)
    if len(a) == lb:
        # a is an associate of b: a constant quotient
        return (a[-1],)
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


def _pgcd(a, b, p):
    """The monic gcd; (1,) as soon as a remainder is a nonzero constant."""
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, _prem(a, b, p)
    if a and a[-1] != 1:
        a = _pscale(a, pow(a[-1], -1, p), p)
    return a


def _pord(a) -> int:
    for i, x in enumerate(a):
        if x:
            return i
    raise ValueError("zero polynomial has no order")


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
    """Base of the field kinds, a record of one field, the prime ``char``;
    the module docstring lists what it provides and what a kind implements."""

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
            if value.field is not self and value.field != self:
                raise FieldMismatch(
                    f"mixed fields: {self.spec_string()} vs {value.field.spec_string()}")
            return value
        return ValuedScalar(self, self._number(value))

    def zero(self) -> "ValuedScalar":
        return ValuedScalar(self, self.ZERO)

    def one(self) -> "ValuedScalar":
        return ValuedScalar(self, self.ONE)

    def uniformizer(self) -> "ValuedScalar":
        return self.pi_power(1)


class PAdicField(Field):
    """Q with the p-adic valuation; ϖ = p."""

    __slots__ = ()
    kind = prime_name = uniformizer_name = "p"
    ZERO, ONE = Fraction(0), Fraction(1)

    _number = staticmethod(exact_fraction)

    def pi_power(self, n: int) -> "ValuedScalar":
        return ValuedScalar(self, Fraction(self.char) ** exact_int(n))

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
        return self.scalar(Fraction(num, den))

    # raw ops: Fraction's own operators (a Fraction is falsy iff it is 0)
    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _mul = staticmethod(operator.mul)
    _pow = staticmethod(operator.pow)
    _is_zero = staticmethod(operator.not_)

    def _inv(self, a: Fraction) -> Fraction:
        return 1 / a

    def _val(self, raw: Fraction):
        if raw == 0:
            return INFINITY
        return self._ratio_val(raw.numerator, raw.denominator)

    def _val_from_one(self, raw: Fraction):
        # x − 1 = (n − d)/d
        n, d = raw.numerator, raw.denominator
        return INFINITY if n == d else self._ratio_val(n - d, d)

    def _ratio_val(self, n: int, d: int) -> int:
        """ω(n/d) = ω_p(n) − ω_p(d) for nonzero integers n and d."""
        v, p = 0, self.char
        while n % p == 0:
            n //= p
            v += 1
        while d % p == 0:
            d //= p
            v -= 1
        return v

    _format = staticmethod(exact_str)


class RationalFunctionField(Field):
    """F_q(t), q prime, with the order-at-zero valuation; ϖ = t.

    A raw value is a triple (v, num, den) meaning t^v·num/den: num and den
    are coefficient tuples over F_q with nonzero constant terms, coprime, and
    den is monic; zero is ``ZERO``.  Prime powers q = p^k, k > 1 are
    rejected (coefficient arithmetic is plain F_p here).
    """

    __slots__ = ()
    kind, prime_name, uniformizer_name = "fq", "q", "t"
    ZERO, ONE = (0, (), (1,)), (0, (1,), (1,))

    def _canonical(self, num, den):
        """The raw value of num/den, coefficient sequences (tuples or lists)
        with entries in [0, q): the one reduction of a built fraction."""
        num = _ptrim(list(num))
        den = _ptrim(list(den))
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return self.ZERO
        i, j = _pord(num), _pord(den)
        num, den = num[i:], den[j:]
        g = _pgcd(num, den, self.char) if len(den) > 1 else (1,)    # a constant den: no gcd
        if len(g) > 1:
            num = _pquo(num, g, self.char)
            den = _pquo(den, g, self.char)
        lead = den[-1]
        if lead != 1:
            inv = pow(lead, -1, self.char)
            num = _pscale(num, inv, self.char)
            den = _pscale(den, inv, self.char)
        return (i - j, num, den)

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

    # raw ops on (v, num, den) triples.  Operands are canonical, so _add and
    # _mul need no _canonical: they cancel only the factors two reduced
    # fractions can share (Henrici's reduced-fraction arithmetic, as in
    # Fraction).  t is prime to every num and den, so a power of t never
    # enters a gcd: a product by c·t^k, whose num is (c,) and den (1,), only
    # scales the other numerator.  Denominators stay monic, since _pgcd
    # returns monic gcds.
    def _add(self, a, b):
        (v1, n1, d1), (v2, n2, d2) = a, b
        if not n1:
            return b
        if not n2:
            return a
        if v1 > v2:
            (v1, n1, d1), (v2, n2, d2) = b, a
        if v2 > v1:
            # t^v1·(n1/d1 + t^(v2−v1)·n2/d2): the second fraction is still
            # reduced, and the sum's numerator has the nonzero constant term
            # of n1·e2 below
            n2 = (0,) * (v2 - v1) + n2
        q = self.char
        # d1 = g·e1, d2 = g·e2: the sum is (n1·e2 + n2·e1)/(g·e1·e2), and
        # only factors of g can cancel: a prime dividing e1 but not g
        # divides neither n1 nor e2, so not the numerator (and so for e2)
        g = (1,) if d1 == (1,) or d2 == (1,) else _pgcd(d1, d2, q)
        e1, e2 = (d1, d2) if g == (1,) else (_pquo(d1, g, q), _pquo(d2, g, q))
        num = _padd(n1 if e2 == (1,) else _pmul(n1, e2, q),
                    n2 if e1 == (1,) else _pmul(n2, e1, q), q)
        if not num:
            return self.ZERO
        if not num[0]:
            # equal valuations whose constant terms cancelled
            k = _pord(num)
            v1, num = v1 + k, num[k:]
        if g != (1,):
            g2 = _pgcd(num, g, q)
            if g2 != (1,):
                num, d2 = _pquo(num, g2, q), _pquo(d2, g2, q)
        return (v1, num, d2 if e1 == (1,) else e1 if d2 == (1,) else _pmul(e1, d2, q))

    def _neg(self, a):
        v, num, den = a
        return (v, _pneg(num, self.char), den)

    def _mul(self, a, b):
        (v1, n1, d1), (v2, n2, d2) = a, b
        if not n1 or not n2:
            return self.ZERO
        q = self.char
        # c·t^k is a unit times a power of t: c·n/d is reduced, d stays monic
        if len(n1) == 1 and d1 == (1,):
            return (v1 + v2, n2 if n1[0] == 1 else _pscale(n2, n1[0], q), d2)
        if len(n2) == 1 and d2 == (1,):
            return (v1 + v2, n1 if n2[0] == 1 else _pscale(n1, n2[0], q), d1)
        # n1/d1 and n2/d2 are reduced, so only n1 with d2 and n2 with d1 can cancel
        if d2 != (1,):
            g = _pgcd(n1, d2, q)
            if g != (1,):
                n1, d2 = _pquo(n1, g, q), _pquo(d2, g, q)
        if d1 != (1,):
            g = _pgcd(n2, d1, q)
            if g != (1,):
                n2, d1 = _pquo(n2, g, q), _pquo(d1, g, q)
        num = n2 if n1 == (1,) else n1 if n2 == (1,) else _pmul(n1, n2, q)
        den = d2 if d1 == (1,) else d1 if d2 == (1,) else _pmul(d1, d2, q)
        return (v1 + v2, num, den)

    def _inv(self, a):
        # a reduced fraction inverts to a reduced one: no gcd, only a monic
        # denominator
        v, num, den = a
        inv = pow(num[-1], -1, self.char)
        return (-v, _pscale(den, inv, self.char), _pscale(num, inv, self.char))

    def _pow(self, a, k: int):
        # the powers of a reduced fraction's num and den stay coprime, den^e
        # stays monic and num^e keeps a nonzero constant term: no gcd.  0^e
        # is ZERO itself, since _ppow((), e) is ()
        v, num, den = a if k > 0 else self._inv(a)
        e = abs(k)
        return (v * e, _ppow(num, e, self.char), _ppow(den, e, self.char))

    def _is_zero(self, a) -> bool:
        return not a[1]

    def _val(self, raw):
        return raw[0] if raw[1] else INFINITY

    def _val_from_one(self, raw):
        # 0 − 1 and a v > 0 minus 1 are units; at v < 0 the −1 does not reach
        # t^v.  At v = 0, x − 1 = (num − den)/den with den(0) ≠ 0, so ω is the
        # first index where num and den differ, the shorter padded with zeros.
        v, num, den = raw
        if v or not num:
            return min(v, 0)
        for i, (a, b) in enumerate(zip_longest(num, den, fillvalue=0)):
            if a != b:
                return i
        return INFINITY

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


class ValuedScalar(Record):
    """An exact element of K carrying its field; canonical and immutable."""

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
            # A Fraction raw (p-adic) equals the same number and hashes like
            # it; a polynomial-pair raw (F_q(t)) equals no Python number.
            return self.raw == other
        return NotImplemented

    def __hash__(self):
        return hash(self.raw)

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
