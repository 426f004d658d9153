"""Shared element-expression grammar for the CLI and the harness.

    element   := factor factor ...          (juxtaposition = product)
    factor    := generator | '(' element ')'
    generator := NAME | NAME '(' arguments ')'
    point     := 'point' '(' element ',' rational ')'
    scalar    := sum over INT, 't', '+', '-', '*', '/', '^', parentheses

GENERATORS is the one place a generator is defined: per target (SL2 or
affine) it gives each name its argument shape and names its constructor,
ctor(field, *args), which checks the arguments.  The parser reads them,
checking only syntax and work limits, print_expr writes them and build
constructs the element, all from that entry.  SPECS gives each target its
subgroup spec class, for `member --spec` and the harness's censuses.

The ';' separator keeps exponent arguments apart from rational scalars.  In
scalar position the name 't' is the uniformizer variable of F_q(t) fields; in
factor position it is the translation torus generator -- arity disambiguates.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import affine, sl2
from .record import Record
from .valued import Field, ValidationError, ValuedScalar, check_digits


class ExprSyntaxError(ValueError):
    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"syntax error at {position}: expected {expected}")


SL2 = "sl2"
AFFINE = "affine"
TREEPOINT = "treepoint"

# Largest |k| accepted in a scalar power x^k, checked before the power is
# computed: F_q(t) powers cost time quadratic in k, p-adic ones grow without
# bound.  A power of a power counts the product of the two exponents, and a
# power of an F_q(t) base counts |k| times the base's degree.  The integer
# arguments of a generator, t(l, n) and the loop exponent k of xp(k; c) and
# xm(k; c), have the same limit: t(l, n) builds ϖ^-l and ϖ^-n.  So do the
# powers f^2m and z^n of the char command.
MAX_EXPONENT = 1000


def check_power(base: ValuedScalar, k: int, nesting: int = 1):
    """ValidationError unless base^k, inside powers whose exponents multiply
    to nesting, is within MAX_EXPONENT: |k|·nesting and |k|·degree(base)."""
    if nesting * abs(k) > MAX_EXPONENT:
        what = k if nesting == 1 else f"{nesting * abs(k)} of nested powers"
        raise ValidationError(f"exponent {what} exceeds the limit of {MAX_EXPONENT}")
    degree = base.field.degree(base)
    if degree * abs(k) > MAX_EXPONENT:
        raise ValidationError(f"exponent {k} of a degree-{degree} base exceeds "
                              f"the limit of {MAX_EXPONENT}")


# GENERATORS[target][name] = (shape, constructor).  A shape spells the
# arguments in order, 'i' an integer and 's' a scalar, with the separator
# between two of them; the constructor, ctor(field, *args), checks them.
GENERATORS = {
    SL2: {
        "xp": ("s", sl2.x_plus),
        "xm": ("s", sl2.x_minus),
        "diag": ("s", sl2.diag_torus),
        "w": ("", sl2.weyl_w),
    },
    AFFINE: {
        "xp": ("i;s", affine.aff_x_plus),
        "xm": ("i;s", affine.aff_x_minus),
        "t": ("i,i", affine.aff_t_mu),
        "torus": ("s;s", affine.aff_torus),
        "s0": ("", affine.aff_s0),
        "s1": ("", affine.aff_s1),
    },
}


# SPECS[target]: the subgroup spec class of the target's elements, with its kind table.
SPECS = {SL2: sl2.SL2SubgroupSpec, AFFINE: affine.AffSubgroupSpec}


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
# One alternative per token class, tried in order, and every character
# matches one.  re's \s is str.isspace() and \w is str.isalnum() or "_": a
# name is a letter and then letters, digits or "_", and a \w run that starts
# with anything else (_, ², ٣, ½) is no token.  Integers are ASCII 0-9 only.
_TOKEN = re.compile(rf"[{re.escape(_PUNCT)}]|[0-9]+|\s+|\w+|.")


def _tokenize(src: str):
    toks = []  # (kind, value, pos)
    i = 0
    for text in _TOKEN.findall(src):
        ch = text[0]
        if ch in _PUNCT:
            toks.append((ch, ch, i))
        elif "0" <= ch <= "9":
            toks.append(("int", int(check_digits(text)), i))
        elif ch.isalpha():
            toks.append(("name", text, i))
        elif not ch.isspace():
            raise ExprSyntaxError(i, f"a token (got {ch!r})")
        i += len(text)
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
            check_power(base, exp, inner)
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
                k = self.integer()
                if abs(k) > MAX_EXPONENT:
                    raise ValidationError(f"{value} argument {k} exceeds the limit "
                                          f"of {MAX_EXPONENT}")
                args.append(k)
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

def build(node, target: str, field: Field):
    """The element a node names: an SL2Elt or AffElt for target SL2 or
    AFFINE, a TreePoint for a Point.  Products multiply in the node's
    grouping."""
    if isinstance(node, Point):
        return sl2.TreePoint(build(node.elt, SL2, field), node.y)
    if isinstance(node, Product):
        factors = iter(node.factors)    # the grammar gives a product at least one
        out = build(next(factors), target, field)
        for f in factors:
            out = out * build(f, target, field)
        return out
    return GENERATORS[target][node.kind][1](field, *node.args)


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


# str of a node, and so f"{node}", is its text: a node can be kept and printed
# only where its text is read
Gen.__str__ = Product.__str__ = Point.__str__ = print_expr
