"""Shared element-expression grammar for the CLI and the harness.

    element   := factor factor ...          (juxtaposition = product)
    factor    := generator | '(' element ')'
    generator := NAME | NAME '(' arguments ')'
    point     := 'point' '(' element ',' rational ')'
    scalar    := sum over INT, 't', '+', '-', '*', '/', '^', parentheses

GENERATORS is the one place a generator is defined: per target (SL2 or
affine) it gives each name its argument shape and its constructor.  The
parser reads the arguments, print_expr writes them and build constructs the
element, all from that entry.

The ';' separator keeps exponent arguments apart from rational scalars.  In
scalar position the name 't' is the uniformizer variable of F_q(t) fields; in
factor position it is the translation torus generator -- arity disambiguates.
"""

from __future__ import annotations

from fractions import Fraction

from . import affine, sl2
from .record import Record
from .valued import Field, ValuedScalar


class ExprSyntaxError(ValueError):
    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"syntax error at {position}: expected {expected}")


class ValidationError(ValueError):
    pass


SL2 = "sl2"
AFFINE = "affine"
TREEPOINT = "treepoint"

# Largest |k| accepted in a scalar power x^k, checked before the power is
# computed: F_q(t) powers cost time quadratic in k, p-adic ones grow without
# bound.  A power of a power counts the product of the two exponents, and a
# power of an F_q(t) base counts |k| times the base's degree.
MAX_EXPONENT = 1000


def _nonzero(s: ValuedScalar, what: str) -> ValuedScalar:
    if s.is_zero():
        raise ValidationError(f"zero scalar where nonzero required ({what})")
    return s


# GENERATORS[target][name] = (shape, constructor).  A shape spells the
# arguments in order, 'i' an integer and 's' a scalar, with the separator
# between two of them; the constructor takes the field and the arguments.
GENERATORS = {
    SL2: {
        "xp": ("s", lambda field, c: sl2.x_plus(c)),
        "xm": ("s", lambda field, c: sl2.x_minus(c)),
        "diag": ("s", lambda field, f: sl2.diag_torus(_nonzero(f, "diag"))),
        "w": ("", sl2.weyl_w),
    },
    AFFINE: {
        "xp": ("i;s", affine.aff_x_plus),
        "xm": ("i;s", affine.aff_x_minus),
        "t": ("i,i", affine.aff_t_mu),
        "torus": ("s;s", lambda field, f, z: affine.aff_torus(_nonzero(f, "torus"),
                                                              _nonzero(z, "torus"))),
        "s0": ("", affine.aff_s0),
        "s1": ("", affine.aff_s1),
    },
}


def _template(name: str, shape: str) -> str:
    """print_expr's format string for a generator, e.g. "xp({}; {})"."""
    if not shape:
        return name
    return name + "(" + "".join("{}" if ch in "is" else ch + " " for ch in shape) + ")"


# Templates by generator name and argument count: the count tells the SL2
# xp(s) from the affine xp(i; s).
_TEMPLATES = {(name, sum(ch in "is" for ch in shape)): _template(name, shape)
              for table in GENERATORS.values() for name, (shape, _) in table.items()}


class Gen(Record):
    __slots__ = ("kind", "args")
    kind: str
    args: tuple


class Product(Record):
    __slots__ = ("factors",)
    factors: tuple


class Point(Record):
    __slots__ = ("elt", "y")
    elt: Product
    y: Fraction


# --- tokenizer --------------------------------------------------------------

_PUNCT = "();,+-*/^"


def _tokenize(src: str):
    toks = []  # (kind, value, pos)
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(("int", int(src[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(i, f"a token (got {ch!r})")
    toks.append(("end", None, len(src)))
    return toks


class _Parser:
    def __init__(self, src: str, field: Field):
        self.toks = _tokenize(src)
        self.pos = 0
        self.field = field
        self.power = 1      # the largest product of nested exponents read so far

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(tok[2], kind)
        self.pos += 1
        return tok

    def expect_end(self):
        if self.peek()[0] != "end":
            raise ExprSyntaxError(self.peek()[2], "end of input")

    # scalar sub-grammar -----------------------------------------------------
    def scalar(self) -> ValuedScalar:
        value = self.scalar_term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.scalar_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def scalar_term(self) -> ValuedScalar:
        value = self.scalar_unary()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.scalar_unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ValidationError("division by zero in scalar")
                value = value / rhs
        return value

    def scalar_unary(self) -> ValuedScalar:
        if self.peek()[0] == "-":
            self.take()
            return -self.scalar_unary()
        return self.scalar_atom()

    def scalar_atom(self) -> ValuedScalar:
        kind, value, pos = self.peek()
        inner = 1       # the largest product of nested exponents in the base
        if kind == "int":
            self.take()
            base = self.field.scalar(value)
        elif kind == "name" and value == "t":
            self.take()
            if self.field.uniformizer_name != "t":
                raise ValidationError("variable t only exists in fq fields")
            base = self.field.uniformizer()
        elif kind == "(":
            self.take()
            outer, self.power = self.power, 1
            base = self.scalar()
            self.take(")")
            inner, self.power = self.power, outer
        else:
            raise ExprSyntaxError(pos, "a scalar")
        exp = 1
        if self.peek()[0] == "^":
            self.take()
            exp = self.integer()
            if inner * abs(exp) > MAX_EXPONENT:
                what = exp if inner == 1 else f"{inner * abs(exp)} of nested powers"
                raise ValidationError(f"exponent {what} exceeds the limit of {MAX_EXPONENT}")
            degree = self.field.degree(base)
            if degree * abs(exp) > MAX_EXPONENT:
                raise ValidationError(f"exponent {exp} of a degree-{degree} base exceeds "
                                      f"the limit of {MAX_EXPONENT}")
            if exp < 0 and base.is_zero():
                raise ValidationError("zero to a negative power")
            base = base ** exp
        self.power = max(self.power, inner * abs(exp))
        return base

    def integer(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        return sign * self.take("int")[1]

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek()[0] == "/":
            self.take()
            den = self.take("int")[1]
            if den == 0:
                raise ValidationError("zero denominator in rational")
            return Fraction(num, den)
        return Fraction(num)

    # element grammar ----------------------------------------------------------
    def product(self, target: str) -> Product:
        factors = [self.factor(target)]
        while self.peek()[0] in ("name", "("):
            factors.append(self.factor(target))
        return Product(tuple(factors))

    def factor(self, target: str):
        kind, value, pos = self.peek()
        if kind == "(":
            self.take()
            inner = self.product(target)
            self.take(")")
            return inner
        if kind != "name":
            raise ExprSyntaxError(pos, "a generator name")
        table = GENERATORS[target]
        if value not in table:
            raise ExprSyntaxError(pos, f"one of {sorted(table)}")
        self.take()
        shape = table[value][0]
        if not shape:
            return Gen(value, ())
        self.take("(")
        args = []
        for ch in shape:
            if ch == "i":
                args.append(self.integer())
            elif ch == "s":
                args.append(self.scalar())
            else:
                self.take(ch)
        self.take(")")
        return Gen(value, tuple(args))

    def point(self) -> Point:
        kind, value, pos = self.peek()
        if kind != "name" or value != "point":
            raise ExprSyntaxError(pos, "point(...)")
        self.take()
        self.take("(")
        elt = self.product(SL2)
        self.take(",")
        y = self.rational()
        self.take(")")
        return Point(elt, y)


# --- construction -----------------------------------------------------------

def build(node, target: str, field: Field, _built: dict | None = None):
    """The element a node names: an SL2Elt or AffElt for target SL2 or
    AFFINE, a TreePoint for a Point.  Products multiply in the node's
    grouping; _built maps each Gen built so far in this call to its element,
    so an equal Gen is not built again."""
    if _built is None:
        _built = {}
    if isinstance(node, Point):
        return sl2.TreePoint.make(build(node.elt, SL2, field, _built), node.y)
    if isinstance(node, Product):
        factors = iter(node.factors)    # the grammar gives a product at least one
        out = build(next(factors), target, field, _built)
        for f in factors:
            out = out * build(f, target, field, _built)
        return out
    elt = _built.get(node)
    if elt is None:
        elt = _built[node] = GENERATORS[target][node.kind][1](field, *node.args)
    return elt


def parse_element(src: str, target: str, field: Field):
    """Parse and construct; returns (ast, element) per the target grammar."""
    p = _Parser(src, field)
    ast = p.point() if target == TREEPOINT else p.product(target)
    p.expect_end()
    return ast, build(ast, target, field)


def parse_auto(src: str, field: Field):
    """Resolve the target from the expression shape: SL2, affine, or point."""
    stripped = src.lstrip()
    if stripped.startswith("point"):
        ast, elt = parse_element(src, TREEPOINT, field)
        return TREEPOINT, ast, elt
    errors = []
    for target in (SL2, AFFINE):
        try:
            ast, elt = parse_element(src, target, field)
            return target, ast, elt
        except ExprSyntaxError as exc:
            # without its traceback: frames -> errors -> exc would be a
            # cycle holding the failed parse until the next gc
            errors.append(exc.with_traceback(None))
    raise max(errors, key=lambda e: e.position)


# --- printing ---------------------------------------------------------------

def print_expr(node) -> str:
    if isinstance(node, Point):
        return f"point({print_expr(node.elt)}, {node.y})"
    if isinstance(node, Product):
        return " ".join(
            f"({print_expr(f)})" if isinstance(f, Product) else print_expr(f)
            for f in node.factors)
    return _TEMPLATES[node.kind, len(node.args)].format(*node.args)
