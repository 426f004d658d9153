"""Shared element-expression grammar for the CLI and the harness.

    element   := factor factor ...          (juxtaposition = product)
    factor    := 'xp' '(' scalar ')'                      [SL2]
               | 'xm' '(' scalar ')'                      [SL2]
               | 'diag' '(' scalar ')' | 'w'              [SL2]
               | 'xp' '(' int ';' scalar ')'              [affine]
               | 'xm' '(' int ';' scalar ')'              [affine]
               | 't' '(' int ',' int ')'                  [affine]
               | 'torus' '(' scalar ';' scalar ')'        [affine]
               | 's0' | 's1'                              [affine]
               | '(' element ')'
    point     := 'point' '(' element ',' rational ')'
    scalar    := sum over INT, 't', '+', '-', '*', '/', '^', parentheses

The ';' separator keeps exponent arguments apart from rational scalars.  In
scalar position the name 't' is the uniformizer variable of F_q(t) fields; in
factor position it is the translation torus generator -- arity disambiguates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import affine, sl2
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
# computed: F_q(t) powers cost time quadratic in k, p-adic ones grow without bound.
MAX_EXPONENT = 1000

_SL2_KINDS = {"xp": 1, "xm": 1, "diag": 1, "w": 0}
_AFF_KINDS = {"xp": 2, "xm": 2, "t": 2, "torus": 2, "s0": 0, "s1": 0}


@dataclass(frozen=True)
class Gen:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Point:
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
            base = self.scalar()
            self.take(")")
        else:
            raise ExprSyntaxError(pos, "a scalar")
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            exp = sign * self.take("int")[1]
            if abs(exp) > MAX_EXPONENT:
                raise ValidationError(f"exponent {exp} exceeds the limit of {MAX_EXPONENT}")
            if exp < 0 and base.is_zero():
                raise ValidationError("zero to a negative power")
            base = base ** exp
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
        table = _SL2_KINDS if target == SL2 else _AFF_KINDS
        if value not in table:
            raise ExprSyntaxError(pos, f"one of {sorted(table)}")
        self.take()
        name = value
        if table[name] == 0:
            return Gen(name, ())
        self.take("(")
        if target == SL2:
            arg = self.scalar()
            self.take(")")
            return Gen(name, (arg,))
        if name in ("xp", "xm"):
            k = self.integer()
            self.take(";")
            c = self.scalar()
            self.take(")")
            return Gen(name, (k, c))
        if name == "t":
            ell = self.integer()
            self.take(",")
            n = self.integer()
            self.take(")")
            return Gen(name, (ell, n))
        # torus(f; z)
        f = self.scalar()
        self.take(";")
        z = self.scalar()
        self.take(")")
        return Gen(name, (f, z))

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

def _nonzero(s: ValuedScalar, what: str) -> ValuedScalar:
    if s.is_zero():
        raise ValidationError(f"zero scalar where nonzero required ({what})")
    return s


def build_sl2(node, field: Field) -> sl2.SL2Elt:
    if isinstance(node, Product):
        out = sl2.identity(field)
        for f in node.factors:
            out = out * build_sl2(f, field)
        return out
    kind, args = node.kind, node.args
    if kind == "xp":
        return sl2.x_plus(args[0])
    if kind == "xm":
        return sl2.x_minus(args[0])
    if kind == "diag":
        return sl2.diag_torus(_nonzero(args[0], "diag"))
    return sl2.weyl_w(field)


def build_affine(node, field: Field) -> affine.AffElt:
    if isinstance(node, Product):
        out = affine.aff_identity(field)
        for f in node.factors:
            out = out * build_affine(f, field)
        return out
    kind, args = node.kind, node.args
    if kind == "xp":
        return affine.aff_x_plus(field, args[0], args[1])
    if kind == "xm":
        return affine.aff_x_minus(field, args[0], args[1])
    if kind == "t":
        return affine.aff_t_mu(field, args[0], args[1])
    if kind == "torus":
        return affine.aff_torus(_nonzero(args[0], "torus"), _nonzero(args[1], "torus"))
    if kind == "s0":
        return affine.aff_s0(field)
    return affine.aff_s1(field)


def parse_element(src: str, target: str, field: Field):
    """Parse and construct; returns (ast, element) per the target grammar."""
    p = _Parser(src, field)
    if target == TREEPOINT:
        ast = p.point()
        p.expect_end()
        return ast, sl2.TreePoint.make(build_sl2(ast.elt, field), ast.y)
    ast = p.product(target)
    p.expect_end()
    if target == SL2:
        return ast, build_sl2(ast, field)
    return ast, build_affine(ast, field)


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
            errors.append(exc)
    raise max(errors, key=lambda e: e.position)


# --- printing ---------------------------------------------------------------

def print_expr(node) -> str:
    if isinstance(node, Point):
        return f"point({print_expr(node.elt)}, {node.y})"
    if isinstance(node, Product):
        return " ".join(
            f"({print_expr(f)})" if isinstance(f, Product) else print_expr(f)
            for f in node.factors)
    kind, args = node.kind, node.args
    if not args:
        return kind
    rendered = []
    for a in args:
        rendered.append(str(a))
    if kind in ("xp", "xm") and len(args) == 2:
        return f"{kind}({rendered[0]}; {rendered[1]})"
    if kind == "torus":
        return f"torus({rendered[0]}; {rendered[1]})"
    if kind == "t":
        return f"t({rendered[0]}, {rendered[1]})"
    return f"{kind}({rendered[0]})"
