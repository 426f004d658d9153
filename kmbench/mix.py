"""Seeded one-shot command mix for the cli-mix workload, on the field p:3.

Commands are written in the README grammar from Fraction arithmetic alone,
and each carries an answer known by construction (a group law or a closed
form), never one computed by kmtop.  A program change can therefore move
neither the inputs nor the answers.

The composition of a pass is fixed: the same number of commands of each kind,
the same word lengths, kp-witness depths and root heights for every seed.
Only the scalars, exponents and the order change with the seed, so the cost
of a pass varies little with the seed the benchmark is given.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

P = 3
FIELD = f"p:{P}"

# (kind, commands per pass); 1000 commands in all.
COMPOSITION = (
    ("member-hn", 150),
    ("member-kerpi", 150),
    ("member-vform", 100),
    ("retract", 150),
    ("nu", 100),
    ("char", 100),
    ("decompose", 100),
    ("roots", 130),
    ("kp-witness", 20),
)
# kp-witness is O(depth^2) and the slowest command, so it sets cmd_p99_ms.
# The 10th-slowest command of a pass (its p99) falls inside the group of 14
# at depth 56, so a few slow commands of another kind do not move it.
KP_DEPTHS = (56,) * 14 + (24, 24, 32, 32, 40, 40)
ROOT_HEIGHTS = tuple(range(1, 22))


class Command:
    __slots__ = ("kind", "argv", "expected")

    def __init__(self, kind: str, argv: list[str], expected):
        self.kind = kind
        self.argv = argv
        self.expected = expected


def valuation(x: Fraction) -> int:
    """The 3-adic valuation of a nonzero rational."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % P == 0:
        num //= P
        v += 1
    while den % P == 0:
        den //= P
        v -= 1
    return v


def _unit(rng: random.Random) -> Fraction:
    num = rng.choice([k for k in range(1, 25) if k % P])
    den = rng.choice([k for k in range(1, 12) if k % P])
    return Fraction(rng.choice((1, -1)) * num, den)


def _with_valuation(rng: random.Random, v: int) -> Fraction:
    return _unit(rng) * Fraction(P) ** v


def _at_least(rng: random.Random, low: int) -> Fraction:
    return _with_valuation(rng, low + rng.randrange(0, 4))


def _fmt(rng: random.Random, x: Fraction) -> str:
    """A scalar literal; sometimes as unit*3^v to reach the ^ operator."""
    if x and rng.random() < 0.3:
        v = valuation(x)
        if v:
            unit = x / Fraction(P) ** v
            return f"({unit})*{P}^{v}"
    return str(x)


def _one_plus(rng: random.Random, low: int) -> Fraction:
    return 1 + _at_least(rng, low)


def _gen(rng: random.Random, kind: str, k: int, c: Fraction) -> str:
    return f"{kind}({k}; {_fmt(rng, c)})"


def _member_argv(spec: str, expr: str) -> list[str]:
    return ["--json", "member", "--field", FIELD, "--spec", spec, expr]


def _filtration_word(rng: random.Random, n: int, length: int, ring: bool) -> list[str]:
    """Generators of ker π_n (ring=False) or of H_n (ring=True, where the
    coefficient at u^k also needs ω ≥ n·|k|)."""
    factors = []
    for _ in range(length):
        if rng.random() < 0.2:
            f, z = _one_plus(rng, n), _one_plus(rng, n)
            factors.append(f"torus({_fmt(rng, f)}; {_fmt(rng, z)})")
        else:
            k = rng.randint(-3, 3)
            low = n * max(1, abs(k)) if ring else n
            factors.append(_gen(rng, rng.choice(("xp", "xm")), k, _at_least(rng, low)))
    return factors


def _filtration_member(rng: random.Random, j: int, ring: bool) -> Command:
    """Both subgroups are groups, so a word of members is a member, and a word
    with exactly one non-member factor is not.  For ker π_n that factor has
    ω(c) = n − 1 at u^0; for H_n it lies in ker π_n but has ω(c) = n·|k| − 1
    at u^k, |k| ≥ 2, so only the ring bound excludes it."""
    n = 1 + j % 2
    factors = _filtration_word(rng, n, 8 + j % 5, ring)
    inside = j % 4 != 3
    if not inside:
        k = rng.choice((-3, -2, 2, 3)) if ring else 0
        c = _with_valuation(rng, n * abs(k) - 1 if ring else n - 1)
        factors.insert(rng.randrange(len(factors) + 1), _gen(rng, rng.choice(("xp", "xm")), k, c))
    spec = f"hn:{n}" if ring else f"kerpi:{n}"
    kind = "member-hn" if ring else "member-kerpi"
    return Command(kind, _member_argv(spec, " ".join(factors)), inside)


def _member_vform(rng: random.Random, j: int) -> Command:
    """u_+ · u_- · t with u_± products of t_{∓nλ}-conjugated generators that
    are unipotent at u = 0 (resp. u = ∞), λ = å∨ + 3d, and t ∈ T_{2n}."""
    n = 1 + j % 2
    down, up = f"t(-{n}, -{3 * n})", f"t({n}, {3 * n})"
    words = []
    for _ in range(2 + j % 2):
        if rng.random() < 0.6:
            g = _gen(rng, "xp", rng.randrange(0, 3), _at_least(rng, 0))
        else:
            g = _gen(rng, "xm", rng.randrange(1, 3), _at_least(rng, 0))
        words.append(f"{down} {g} {up}")
    for _ in range(2 + (j // 2) % 2):
        if rng.random() < 0.6:
            g = _gen(rng, "xm", -rng.randrange(0, 3), _at_least(rng, 0))
        else:
            g = _gen(rng, "xp", -rng.randrange(1, 3), _at_least(rng, 0))
        words.append(f"{up} {g} {down}")
    f, z = _one_plus(rng, 2 * n), _one_plus(rng, 2 * n)
    words.append(f"torus({_fmt(rng, f)}; {_fmt(rng, z)})")
    return Command("member-vform", _member_argv(f"vform:{n}", " ".join(words)), True)


def _retract(rng: random.Random, j: int) -> Command:
    """point(x_-(c), y) retracts to min(ω(c) − y, y)."""
    c = _with_valuation(rng, rng.randint(-4, 6))
    y = Fraction(rng.randint(-12, 12), 2)
    argv = ["--json", "retract", "--field", FIELD, f"point(xm({_fmt(rng, c)}), {y})"]
    return Command("retract", argv, min(valuation(c) - y, y))


def _nu(rng: random.Random, j: int) -> Command:
    """ν of a product of translations t(l, n) is the sum of the (l, n)."""
    pairs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6 + j % 7)]
    expr = " ".join(f"t({l}, {n})" for l, n in pairs)
    expected = [sum(l for l, _ in pairs), sum(n for _, n in pairs)]
    return Command("nu", ["--json", "nu", "--field", FIELD, expr], expected)


def _char(rng: random.Random, j: int) -> Command:
    """m·å + n·δ on a product of tori (f_i; z_i) is (Πf_i)^{2m}·(Πz_i)^n."""
    f_total, z_total = Fraction(1), Fraction(1)
    factors = []
    for _ in range(2 + j % 3):
        f = _with_valuation(rng, rng.randint(-2, 2))
        z = _with_valuation(rng, rng.randint(-2, 2))
        f_total *= f
        z_total *= z
        factors.append(f"torus({_fmt(rng, f)}; {_fmt(rng, z)})")
    m, n = rng.randint(-3, 3), rng.randint(-3, 3)
    argv = ["--json", "char", "--field", FIELD, str(m), str(n), " ".join(factors)]
    return Command("char", argv, f_total ** (2 * m) * z_total ** n)


def _decompose(rng: random.Random, j: int) -> Command:
    """g = x_+(b)·x_-(c)·diag(d) = ((1+bc)d, b/d; cd, 1/d): the triangular
    factors are (b, c, d) and the Birkhoff ones β = b, diag(d), γ = c·d²."""
    b = Fraction(0) if rng.random() < 0.1 else _with_valuation(rng, rng.randint(-3, 3))
    c = Fraction(0) if rng.random() < 0.1 else _with_valuation(rng, rng.randint(-3, 3))
    d = _with_valuation(rng, rng.randint(-3, 3))
    expr = f"xp({_fmt(rng, b)}) xm({_fmt(rng, c)}) diag({_fmt(rng, d)})"
    expected = {"triangular": (b, c, d),
                "birkhoff": (b, f"[[{d}, 0], [0, {1 / d}]]", c * d * d)}
    return Command("decompose", ["--json", "decompose", "--field", FIELD, expr], expected)


def affine_sl2_roots(height: int) -> dict[tuple[int, int], int]:
    """Real roots of affine SL2 with |ht| ≤ height, in (α_0, α_1) coordinates:
    ±(k, k+1) and ±(k+1, k) for k ≥ 0, of height ±(2k+1)."""
    out = {}
    for k in range(0, (height + 1) // 2):
        for root in ((k, k + 1), (k + 1, k)):
            out[root] = 2 * k + 1
            out[(-root[0], -root[1])] = -(2 * k + 1)
    return out


def _roots(rng: random.Random, j: int) -> Command:
    height = ROOT_HEIGHTS[j % len(ROOT_HEIGHTS)]
    argv = ["--json", "roots", "--system", "affine-sl2", "--height", str(height)]
    return Command("roots", argv, affine_sl2_roots(height))


def kp_expected(n: int, depth: int):
    """Heights 1, 3, 5, ... and the least i with n·h < h!, h = 2i − 1."""
    heights = [2 * i - 1 for i in range(1, depth + 1)]
    witness = next((i for i, h in enumerate(heights, start=1) if n * h < factorial(h)), None)
    return heights, witness


def _kp_witness(rng: random.Random, j: int) -> Command:
    depth = KP_DEPTHS[j % len(KP_DEPTHS)]
    n = rng.randint(1, 10 ** rng.randint(1, 18))
    argv = ["--json", "kp-witness", "-n", str(n), "--depth", str(depth)]
    return Command("kp-witness", argv, kp_expected(n, depth))


_BUILDERS = {
    "member-hn": lambda rng, j: _filtration_member(rng, j, ring=True),
    "member-kerpi": lambda rng, j: _filtration_member(rng, j, ring=False),
    "member-vform": _member_vform,
    "retract": _retract,
    "nu": _nu,
    "char": _char,
    "decompose": _decompose,
    "roots": _roots,
    "kp-witness": _kp_witness,
}


def generate(seed: int) -> list[Command]:
    """One pass of the mix; the same seed gives the same commands."""
    rng = random.Random(f"cli-mix:{seed}")
    commands = [_BUILDERS[kind](rng, j) for kind, count in COMPOSITION for j in range(count)]
    rng.shuffle(commands)
    return commands


def check(cmd: Command, doc: dict) -> bool:
    """True when the --json document of one command carries the known answer."""
    if doc.get("schema") != 1:
        return False
    want = cmd.expected
    kind = cmd.kind
    if kind.startswith("member-"):
        return doc["member"] is want and bool(doc["violations"]) is not want
    if kind == "retract":
        return Fraction(doc["coordinate"]) == want
    if kind == "nu":
        return doc["vector"] == want
    if kind == "char":
        return Fraction(doc["value"]) == want
    if kind == "decompose":
        tri, bk = doc["triangular"], doc["birkhoff"]
        b, c, d = want["triangular"]
        beta, monomial, gamma = want["birkhoff"]
        return (tri is not None
                and (Fraction(tri["b"]), Fraction(tri["c"]), Fraction(tri["delta"])) == (b, c, d)
                and Fraction(bk["beta"]) == beta and bk["monomial"] == monomial
                and Fraction(bk["gamma"]) == gamma)
    if kind == "roots":
        got = {tuple(r["coords"]): r["height"] for r in doc["roots"]}
        return doc["count"] == len(want) and got == want
    if kind == "kp-witness":
        heights, witness = want
        return doc["heights"] == heights and doc["witness_index"] == witness
    raise ValueError(f"unknown command kind {kind!r}")
