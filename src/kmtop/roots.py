"""Root generating systems, Weyl action on the apartment, real roots, Tits cone.

Coordinates: cocharacter-side vectors (points of A = Y⊗Q) are tuples in the
fixed basis of Y; character-side vectors are tuples in the dual basis, so
χ(v) is a plain dot product.  Roots as elements of the root lattice
Q = ⊕Zα_i are integer tuples indexed by I.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .record import Record
from .valued import check_digits, exact_fraction, exact_int

RootVec = tuple[int, ...]
ApartmentVec = tuple[Fraction, ...]


class NotGCM(ValueError):
    def __init__(self, axiom: str, position: tuple[int, int]):
        self.axiom = axiom
        self.position = position
        super().__init__(f"Kac-Moody axiom ({axiom}) fails at {position}")


def validate_km(rows) -> tuple[tuple[int, ...], ...]:
    """The rows as a tuple of integer tuples, after checking the generalized
    Cartan axioms; name the violated one on failure."""
    entries = tuple(tuple(exact_int(x) for x in row) for row in rows)
    size = len(entries)
    if any(len(row) != size for row in entries):
        raise ValueError("matrix must be square")
    for i in range(size):
        if entries[i][i] != 2:
            raise NotGCM("i", (i, i))
        for j in range(size):
            if i != j and entries[i][j] > 0:
                raise NotGCM("ii", (i, j))
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise NotGCM("iii", (i, j))
    return entries


class RootGenSys(Record):
    """A Kac-Moody matrix with simple roots/coroots in dual coordinates.

    ``simple_roots[i]`` is α_i as a linear form (dual-basis coordinates),
    ``simple_coroots[i]`` is α_i∨ as a Y-vector.  Freeness of either family
    is not required (the affine SL2 system has non-free coroots).
    """

    __slots__ = ("matrix", "rank", "simple_roots", "simple_coroots")
    matrix: tuple[tuple[int, ...], ...]
    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    simple_coroots: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size, roots, coroots = len(self.matrix), self.simple_roots, self.simple_coroots
        if len(roots) != size or len(coroots) != size:
            raise ValueError(f"{len(roots)} simple roots and {len(coroots)} coroots "
                             f"for a {size}x{size} Cartan matrix")
        if any(len(v) != self.rank for v in roots + coroots):
            raise ValueError(f"every simple root and coroot needs rank = {self.rank} entries")
        for i, cov in enumerate(self.simple_coroots):
            for j, root in enumerate(self.simple_roots):
                if eval_pairing(root, cov) != self.matrix[i][j]:
                    raise ValueError(
                        f"pairing alpha_{j}(alpha_{i}^) != a[{i}][{j}]")

    def apartment_vec(self, coords) -> ApartmentVec:
        v = tuple(exact_fraction(c) for c in coords)
        if len(v) != self.rank:
            raise ValueError("dimension mismatch")
        return v


def eval_pairing(chi, v):
    """χ(v) for a character-side χ and a cocharacter-side v, exactly; the
    lengths are checked where vectors enter (RootGenSys, apartment_vec)."""
    return sum(a * b for a, b in zip(chi, v))


def height(beta: RootVec) -> int:
    return sum(beta)


def reflect(system: RootGenSys, i: int, v) -> ApartmentVec:
    """r_i.v = v − α_i(v)·α_i∨."""
    c = eval_pairing(system.simple_roots[i], v)
    return tuple(x - c * w for x, w in zip(v, system.simple_coroots[i]))


def co_reflect(system: RootGenSys, i: int, beta: RootVec) -> RootVec:
    """Dual action on Q-coordinates: β − β(α_i∨)·α_i, β(α_i∨) = Σ_j β_j a_ij."""
    pairing = sum(b * system.matrix[i][j] for j, b in enumerate(beta))
    out = list(beta)
    out[i] -= pairing
    return tuple(out)


# Most roots real_roots_up_to_height returns.  Hyperbolic systems have
# exponentially many roots in the height (a rank-3 one has 211710 up to height
# 10000), so the limit bounds the time and memory of a call.
MAX_ROOTS = 20000


def real_roots_up_to_height(system: RootGenSys, max_height: int) -> frozenset[RootVec]:
    """All real roots β with |ht(β)| ≤ max_height; ValueError once more than
    MAX_ROOTS are found.

    Breadth-first closure of {±α_i} under the simple co-reflections, pruning
    outside the height window; valid because every positive real root has a
    descent path of real roots to a simple root with weakly smaller heights.
    """
    if max_height < 1:
        raise ValueError("height bound must be >= 1")
    n = len(system.matrix)
    seeds = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                img = co_reflect(system, i, beta)
                if img not in seen and abs(height(img)) <= max_height:
                    seen.add(img)
                    nxt.append(img)
            if len(seen) > MAX_ROOTS:
                raise ValueError(f"more than {MAX_ROOTS} roots up to height {max_height}")
        frontier = nxt
    return frozenset(seen)


class TitsClassification(Record):
    __slots__ = ("word", "zero_set")
    word: tuple[int, ...]
    zero_set: frozenset[int]


# Largest max_steps tits_classify accepts: a step costs about 50 µs, so the
# limit bounds a call to under a second.
MAX_STEPS = 10000


def tits_classify(system: RootGenSys, v, max_steps: int):
    """Descend v into the closed fundamental chamber, or give up.

    While some α_i(current) < 0 apply r_i for the least such i. On success
    returns TitsClassification(word, J) with v ∈ w.F̄ for w = r_{word[0]}
    r_{word[1]} ... and J the wall set; returns None (NotClassified) once
    max_steps reflections are spent -- points outside the Tits cone never
    terminate the descent.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if max_steps > MAX_STEPS:
        raise ValueError(f"max_steps {max_steps} exceeds the limit of {MAX_STEPS}")
    cur = system.apartment_vec(v)
    word = []
    while True:
        values = [eval_pairing(a, cur) for a in system.simple_roots]
        neg = next((i for i, val in enumerate(values) if val < 0), None)
        if neg is None:
            zero = frozenset(i for i, val in enumerate(values) if val == 0)
            return TitsClassification(tuple(word), zero)
        if len(word) == max_steps:
            return None
        cur = reflect(system, neg, cur)
        word.append(neg)


# ---------------------------------------------------------------------------
# Built-in systems and fixture files.

# SL2: X-basis the fundamental weight, å = 2·weight, Y = Z·å∨.
A1 = RootGenSys(validate_km([[2]]), 1, ((2,),), ((1,),))

# Affine SL2 lattices X = Zå ⊕ Zδ, Y = Zå∨ ⊕ Zd, non-free coroots.  In the
# (å∨, d)-dual coordinates: α_0 = δ − å = (−2, 1), α_1 = å = (2, 0),
# α_0∨ = −å∨, α_1∨ = å∨.
AFFINE_SL2 = RootGenSys(validate_km([[2, -2], [-2, 2]]), 2,
                        ((-2, 1), (2, 0)), ((-1, 0), (1, 0)))

BUILTIN_SYSTEMS = {"a1": A1, "affine-sl2": AFFINE_SL2}


def system_from_fixture(data: dict) -> RootGenSys:
    try:
        return RootGenSys(
            validate_km(data["cartan"]),
            exact_int(data["rank"]),
            tuple(tuple(exact_int(x) for x in r) for r in data["simple_roots"]),
            tuple(tuple(exact_int(x) for x in r) for r in data["simple_coroots"]),
        )
    except KeyError as exc:
        raise ValueError(f"fixture is missing field {exc.args[0]!r}") from exc
    except TypeError as exc:    # a field, or the document, of the wrong JSON type
        raise ValueError(f"malformed fixture: {exc}") from None


def load_system(name_or_path: str) -> RootGenSys:
    """Resolve --system: a built-in name or a JSON fixture file path."""
    if name_or_path in BUILTIN_SYSTEMS:
        return BUILTIN_SYSTEMS[name_or_path]
    try:
        with open(name_or_path) as fh:
            # an integer past int()'s digit limit is named as check_digits does
            data = json.load(fh, parse_int=lambda text: int(check_digits(text)))
    except OSError as exc:      # an unreadable fixture is a bad input
        raise ValueError(str(exc)) from None
    return system_from_fixture(data)
