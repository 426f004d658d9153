"""Reproducible randomized samplers and named verification suites.

Each suite is bound to one algebraic statement and reports machine-readable
pass/fail with the sampled inputs of every failing trial.  Determinism: every
trial draws from a substream seeded by (seed, label), so identical configs
produce byte-identical reports; failures are listed in trial order.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import affine, roots, sl2
from .exprs import AFFINE, GENERATORS, SL2, SPECS, Gen, Point, Product, build
from .record import Record
from .valued import INFINITY, Field, ValuedScalar, exact_int


class UnknownSuite(KeyError):
    pass


# Fixed sampler shape, echoed in every report's config block.  VALUATION_RANGE
# is the valuation window of generic scalars.  LAURENT_SUPPORT and WORD_LENGTH
# are echoed values that both report digests pin; only sample_sl2_generic
# reads one (1 to WORD_LENGTH − 1 letters).  The affine samplers draw 1-4
# letters with exponents in ±2 (sample_aff_word) or ±3 (sample_aff_hn), and
# sample_aff_vform 2-6 one-root factors with exponents in ±2.
VALUATION_RANGE = (-3, 6)
LAURENT_SUPPORT = 6
WORD_LENGTH = 8

# Largest trial count a config accepts: verify --suite all takes about 2.3 ms
# a trial on fq:3 (one process per run, medians of 5, x86_64, 2 vCPU, CPython
# 3.11.7: 0.50 s at trials 200, 2.34 s at trials 1000), so the limit bounds a
# run to about 25 s.  README's --trials paragraph gives the same figures.
MAX_TRIALS = 10000


class SamplerConfig(Record):
    __slots__ = ("field", "seed", "trials")
    field: Field
    seed: int
    trials: int

    def __post_init__(self):
        if not isinstance(self.field, Field):     # a spec string would fail as a trial
            raise TypeError(f"not a Field: {self.field!r}")
        exact_int(self.seed)
        exact_int(self.trials)      # a bool would be 1 trial, echoed as true
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {self.trials}")

    def rng(self, label) -> random.Random:
        return random.Random(f"{self.seed}:{label}")

    def echo(self) -> dict:
        return {
            "field": self.field.spec_string(),
            "seed": self.seed,
            "valuation_range": list(VALUATION_RANGE),
            "laurent_support": LAURENT_SUPPORT,
            "word_length": WORD_LENGTH,
            "trials": self.trials,
        }


class Failure(Record):
    __slots__ = ("trial", "inputs", "expected", "got")
    trial: int
    inputs: str
    expected: str
    got: str

    def as_dict(self):
        return {"trial": self.trial, "inputs": self.inputs,
                "expected": self.expected, "got": self.got}


class SuiteReport(Record):
    __slots__ = ("suite", "trials", "failures", "elapsed", "skipped")
    suite: str
    trials: int
    failures: tuple[Failure, ...]
    elapsed: float
    skipped: str

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "not-applicable"
        return "pass" if not self.failures else "fail"

    def as_dict(self, include_elapsed=False):
        out = {
            "suite": self.suite,
            "trials": self.trials,
            "verdict": self.verdict,
            "failures": [f.as_dict() for f in self.failures],
        }
        if self.skipped:
            out["reason"] = self.skipped
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


# ---------------------------------------------------------------------------
# Scalar and element samplers.  Every element sampler returns (expression node,
# element) and its output passes its defining predicate by construction.  The
# element equals build(node), so its text, str(node), always parses back to it;
# it is rendered only where a failure reports it.  sample_aff_vform builds each
# conjugate t·x_β(k; c)·t⁻¹ as x_β(k; c·β(t)), β(t) = eval_char(β, t) on a torus
# and ϖ^{−⟨β, μ⟩} on t_μ; test_harness.py::test_sample_expressions_replay checks it.

def _made(node, target: str, field: Field):
    """(node, built element) of an expression node."""
    return node, build(node, target, field)


def sample_unit(rng: random.Random, field: Field) -> ValuedScalar:
    return field.sample_unit(rng)


def sample_scalar(rng: random.Random, field: Field, vrange, allow_zero=True) -> ValuedScalar:
    if allow_zero and rng.random() < 0.08:
        return field.zero()
    v = rng.randint(vrange[0], vrange[1])
    return sample_unit(rng, field) * field.pi_power(v)


def sample_scalar_min_val(rng: random.Random, field: Field, low: int) -> ValuedScalar:
    """A unit times ϖ^v, v drawn from low to low + 3."""
    return sample_unit(rng, field) * field.pi_power(low + rng.randrange(0, 4))


def sample_sl2_generic(rng: random.Random, cfg: SamplerConfig):
    field = cfg.field
    length = rng.randrange(1, WORD_LENGTH)
    factors = []
    for _ in range(length):
        kind = rng.choice(["xp", "xm", "diag", "w"])
        if kind == "w":
            factors.append(Gen("w", ()))
        else:
            c = sample_scalar(rng, field, VALUATION_RANGE, allow_zero=kind != "diag")
            factors.append(Gen(kind, (c,)))
    return _made(Product(tuple(factors)), SL2, field)


def sample_sl2_kerpi(rng: random.Random, cfg: SamplerConfig, n: int):
    return _sample_upt(rng, cfg.field, (n, n, n))


def sample_sl2_vlambda(rng: random.Random, cfg: SamplerConfig, n: int):
    return _sample_upt(rng, cfg.field, sl2.vlambda_levels(n))


def _sample_upt(rng: random.Random, field: Field, levels):
    """x_+(b)·x_-(c)·diag(δ) with ω(b), ω(c) and ω(δ − 1) at least levels."""
    b, c, d = (sample_scalar_min_val(rng, field, level) for level in levels)
    return _made(Product((Gen("xp", (b,)), Gen("xm", (c,)), Gen("diag", (field.one() + d,)))),
                 SL2, field)


def sample_sl2_torus(rng: random.Random, cfg: SamplerConfig):
    s = sample_scalar(rng, cfg.field, (-2, 4), allow_zero=False)
    if rng.random() < 0.5:
        s = cfg.field.one() + sample_scalar_min_val(rng, cfg.field, rng.randrange(1, 5))
    return _made(Gen("diag", (s,)), SL2, cfg.field)


def sample_tree_point(rng: random.Random, cfg: SamplerConfig):
    node, g = sample_sl2_generic(rng, cfg)
    y = Fraction(rng.randint(2 * VALUATION_RANGE[0], 2 * VALUATION_RANGE[1]), 2)
    return Point(node, y), sl2.TreePoint(g, y)


def sample_aff_word(rng: random.Random, cfg: SamplerConfig):
    field = cfg.field
    length = rng.randrange(1, 5)
    factors = []
    for _ in range(length):
        kind = rng.choice(["xp", "xm", "t", "torus", "s0", "s1"])
        if kind in ("xp", "xm"):
            k = rng.randint(-2, 2)
            args = (k, sample_scalar(rng, field, (-2, 4)))
        elif kind == "t":
            args = (rng.randint(-1, 1), rng.randint(-1, 1))
        elif kind == "torus":
            f = sample_scalar(rng, field, (-1, 2), allow_zero=False)
            args = (f, sample_scalar(rng, field, (-1, 2), allow_zero=False))
        else:
            args = ()
        factors.append(Gen(kind, args))
    return _made(Product(tuple(factors)), AFFINE, field)


def sample_aff_hn(rng: random.Random, cfg: SamplerConfig, n: int):
    """Products of x_±(k, c) with ω(c) ≥ n·max(1, |k|) and T_n tori: all in H_n."""
    field = cfg.field
    length = rng.randrange(1, 5)
    factors = []
    for _ in range(length):
        if rng.random() < 0.2:
            f = field.one() + sample_scalar_min_val(rng, field, n)
            z = field.one() + sample_scalar_min_val(rng, field, n)
            factors.append(Gen("torus", (f, z)))
        else:
            kind = rng.choice(["xp", "xm"])
            k = rng.randint(-3, 3)
            factors.append(Gen(kind, (k, sample_scalar_min_val(rng, field, n * max(1, abs(k))))))
    return _made(Product(tuple(factors)), AFFINE, field)


def sample_aff_torus(rng: random.Random, cfg: SamplerConfig):
    field = cfg.field
    f = sample_scalar(rng, field, (-2, 3), allow_zero=False)
    z = sample_scalar(rng, field, (-2, 3), allow_zero=False)
    if rng.random() < 0.5:
        f = field.one() + sample_scalar_min_val(rng, field, rng.randrange(1, 4))
    if rng.random() < 0.5:
        z = field.one() + sample_scalar_min_val(rng, field, rng.randrange(1, 4))
    return _made(Gen("torus", (f, z)), AFFINE, field)


def sample_aff_vform(rng: random.Random, cfg: SamplerConfig, n: int):
    """u_+ · u_- · t with u_± built from one-root generators conjugated by
    t_{∓nλ} (λ = affine.LAMBDA): a deliberate under-approximation of the sets.
    A conjugate t_μ·x_β(k; c)·t_μ⁻¹, β = ±å + kδ = (±2, k) and μ the t node's
    args, is built with no product as x_β(k; c·ϖ^{−⟨β, μ⟩}), ϖ^{−⟨β, μ⟩} being
    eval_char(β, t_μ) (see affine.entry_root); its node stays t x(k; c) t⁻¹."""
    field = cfg.field
    shift, unshift = (Gen("t", tuple(s * n * x for x in affine.LAMBDA)) for s in (1, -1))

    def part(sign, left, right):
        """1-3 factors left·x·right: u_+ for sign 1, x = x_+(k) with k ≥ 0 or
        x_-(k) with k ≥ 1; u_- for sign −1, its mirror x_-(−k) or x_+(−k).
        Returns the factors' nodes, to print, and their product."""
        near, far = ("xp", "xm") if sign > 0 else ("xm", "xp")
        nodes, product = [], None
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.6:
                kind, k = near, sign * rng.randrange(0, 3)
            else:
                kind, k = far, sign * rng.randrange(1, 3)
            c = sample_scalar_min_val(rng, field, 0)
            nodes += (left, Gen(kind, (k, c)), right)
            beta = affine.entry_root(*((0, 1) if kind == "xp" else (1, 0)), k)
            y = c * field.pi_power(-roots.eval_pairing(beta, left.args))
            lxr = GENERATORS[AFFINE][kind][1](field, k, y)
            product = lxr if product is None else product * lxr
        return nodes, product

    plus_nodes, u_plus = part(1, unshift, shift)
    minus_nodes, u_minus = part(-1, shift, unshift)
    f = field.one() + sample_scalar_min_val(rng, field, affine.VFORM_TORUS * n)
    z = field.one() + sample_scalar_min_val(rng, field, affine.VFORM_TORUS * n)
    torus = Gen("torus", (f, z))
    # built as u_+ · u_- · torus; its node is flat
    return (Product((*plus_nodes, *minus_nodes, torus)),
            u_plus * u_minus * build(torus, AFFINE, field))


# ---------------------------------------------------------------------------
# Suites.  A suite is a generator over its trials: it yields one item per
# counted trial, None when the check held or (inputs, expected, got) when it
# failed, each of the three a str or a value whose str is its text (an
# expression node is rendered only then).  It may return one more (inputs,
# expected, got) for a check that is not a trial, numbered like the last
# trial, and raises NotApplicable before its first trial when the field lacks
# what its witness needs.  Failures are numbered by the 1-based index of
# their trial.  Any other exception ends the suite with one more trial,
# failed, that names the exception.

class NotApplicable(Exception):
    pass


SUITES: dict = {}


def _suite(name, *args):
    """Register a trial generator, called as trials(cfg, *args), as suite name."""
    def deco(trials):
        SUITES[name] = lambda cfg: _tally(trials(cfg, *args))
        return trials
    return deco


def _tally(trials) -> tuple[int, tuple[Failure, ...], str]:
    """Run a suite's trials: (trial count, failures, not-applicable reason)."""
    count, failures = 0, []
    try:
        while True:
            outcome = next(trials)
            count += 1
            if outcome is not None:
                failures.append(Failure(count, *map(str, outcome)))
    except StopIteration as stop:
        if stop.value is not None:
            failures.append(Failure(count, *map(str, stop.value)))
    except NotApplicable as exc:
        return 0, (), str(exc)
    except Exception as exc:    # a suite that raises fails, and only itself
        count += 1
        failures.append(Failure(count, "the trial raised", "no exception",
                                f"{type(exc).__name__}: {exc}"))
    return count, tuple(failures), ""


def _draws(cfg: SamplerConfig, label: str, levels=(None,), per_level: int | None = None):
    """(n, i, rng) for trial i at each level n, per_level (default cfg.trials)
    trials a level; rng is seeded by label:n:i, or label:i without a level."""
    for n in levels:
        for i in range(cfg.trials if per_level is None else per_level):
            yield n, i, cfg.rng(f"{label}:{i}" if n is None else f"{label}:{n}:{i}")


def run_suite(name: str, cfg: SamplerConfig) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuite(name)
    start = time.perf_counter()
    trials, failures, skipped = SUITES[name](cfg)
    return SuiteReport(name, trials, failures, time.perf_counter() - start, skipped)


def run_suites(names, cfg: SamplerConfig) -> list[SuiteReport]:
    return [run_suite(name, cfg) for name in names]


def all_suite_names() -> list[str]:
    return sorted(SUITES)


@_suite("commutation")
def _commutation(cfg: SamplerConfig):
    """x_-(b)·x_+(a) = x_+(a r^{-1})·diag(r^{-1}, r)·x_-(b r^{-1}) with
    r = 1 + ab, plus the form with the torus moved right."""
    field = cfg.field
    for _, _, rng in _draws(cfg, "commutation"):
        a = sample_scalar(rng, field, VALUATION_RANGE)
        b = sample_scalar(rng, field, VALUATION_RANGE)
        r = field.one() + a * b
        if r.is_zero():
            yield None
            continue
        lhs = sl2.x_minus(b) * sl2.x_plus(a)
        rinv = r.inv()
        form1 = sl2.x_plus(a * rinv) * sl2.diag_torus(rinv) * sl2.x_minus(b * rinv)
        form2 = sl2.x_plus(a * rinv) * sl2.x_minus(b * r) * sl2.diag_torus(rinv)
        yield (None if lhs == form1 and lhs == form2
               else (f"a={a}, b={b}", str(lhs), f"form1={form1}, form2={form2}"))


@_suite("uut-uniqueness")
def _uut(cfg: SamplerConfig):
    field = cfg.field
    for _, _, rng in _draws(cfg, "uut"):
        b = sample_scalar(rng, field, VALUATION_RANGE)
        c = sample_scalar(rng, field, VALUATION_RANGE)
        d = sample_scalar(rng, field, VALUATION_RANGE, allow_zero=False)
        got = sl2.upt_decompose(sl2.compose_upt(b, c, d))
        yield (None if got == (b, c, d)
               else (f"b={b}, c={c}, δ={d}", f"({b}, {c}, {d})", str(tuple(map(str, got)))))


@_suite("kerpi-sl2")
def _kerpi_sl2(cfg: SamplerConfig):
    """Entry congruences agree with the product form, n ≤ 3, both directions;
    even trials sample ker π_n itself, odd ones a generic element."""
    for n, i, rng in _draws(cfg, "kerpi", (1, 2, 3)):
        in_kernel = i % 2 == 0
        expr, g = sample_sl2_kerpi(rng, cfg, n) if in_kernel else sample_sl2_generic(rng, cfg)
        cong = g in sl2.SL2SubgroupSpec("kerpi", n)
        prod = sl2.kerpi_product_member(g, n)
        yield (None if cong == prod and (cong or not in_kernel)
               else (f"n={n}: {expr}", "congruence == product-form",
                     f"congruence={cong}, product={prod}"))


@_suite("hn-closure", "hncl", "sample_aff_hn", AFFINE, "hn")
def _closure(cfg: SamplerConfig, label, sampler, target, kind):
    """The sampled set at levels 1 and 2 is closed under products and
    inverses: H_n, or vlambda:n for rank1-refinement.  When nothing escaped,
    g·g⁻¹ = 1 is asked too: a wrong inverse can stay in the set, as one
    taking u ← z·u for u ← z⁻¹·u stays in H_n."""
    sample = globals()[sampler]     # looked up per run, so a wrapped sampler is called
    for n, _, rng in _draws(cfg, label, (1, 2), max(1, cfg.trials // 2)):
        spec = SPECS[target](kind, n)
        e1, g = sample(rng, cfg, n)
        e2, h = sample(rng, cfg, n)
        g_inv = g.inverse()
        escaped = [what for what, x in (("product", g * h), ("inverse", g_inv))
                   if x not in spec]
        if escaped:
            failed = f"product and inverse in {kind}:{n}", " and ".join(escaped) + " escaped"
        elif not (g * g_inv).is_identity():
            failed = "g·g⁻¹ = 1", "g·g⁻¹ ≠ 1"
        else:
            yield None
            continue
        yield f"n={n}: ({e1})·({e2})", *failed


@_suite("rank1-refinement")
def _rank1_refinement(cfg: SamplerConfig):
    """vlambda:n = x_+(ω≥2n)·x_-(ω≥2n)·T_{4n} is closed (see _closure), and a
    census after the last trial pins its torus level: diag(1+ϖ^4n) lies in
    vlambda:n and diag(1+ϖ^(4n−1)) does not, n = 1, 2.  Closure alone cannot
    see the level, as the set is closed for T_{kn} at every k ≤ 4."""
    yield from _closure(cfg, "rank1", "sample_sl2_vlambda", SL2, "vlambda")
    pi, one = cfg.field.uniformizer(), cfg.field.one()
    return _census(cfg.field, SL2, "vlambda census",
                   "diag(1+ϖ^4n) in vlambda:n, diag(1+ϖ^(4n-1)) out",
                   [(Gen("diag", (one + pi ** (4 * n - e),)), "vlambda", n, e == 0)
                    for n in (1, 2) for e in (0, 1)])


def _census(field: Field, target: str, name: str, expected: str, checks):
    """The failure (name, expected, got) of a census, or None when it holds:
    got is "{expr} {not }in {kind}[:{level}]" for each (node, kind, level,
    want) whose target element's membership is not want, joined by "; ";
    level is None for a kind without an argument."""
    wrong = []
    for node, kind, level, want in checks:
        expr, g = _made(node, target, field)
        if (g in SPECS[target](kind, level)) != want:
            spec = kind if level is None else f"{kind}:{level}"
            wrong.append(f"{expr} {'not ' if want else ''}in {spec}")
    return (name, expected, "; ".join(wrong)) if wrong else None


@_suite("v-in-h")
def _v_in_h(cfg: SamplerConfig):
    """Sampled λ-segment subgroup elements all land in H_n (n ≤ 2).  A census
    after the last trial asks vform:n of elements at its bounds and one step
    past them: at λ = å∨ + 3d, x_-(1; c) has bound ⟨−å + δ, nλ⟩ = n, and
    the torus factor lies in T_2n."""
    for n, _, rng in _draws(cfg, "vinh", (1, 2)):
        expr, g = sample_aff_vform(rng, cfg, n)
        viol = affine.AffSubgroupSpec("hn", n).violations(g)
        yield (f"n={n}: {expr}", "member of H_n", "; ".join(viol)) if viol else None
    pi, one = cfg.field.uniformizer(), cfg.field.one()
    return _census(cfg.field, AFFINE, "vform census",
                   "x_-(1; ϖ^n) and T_2n on the vform:n bounds", [
        check for n in (1, 2) for check in (
            (Gen("xm", (1, pi ** n)), "vform", n, True),
            (Gen("xm", (1, pi ** n)), "hn", n + 1, False),
            (Gen("xm", (1, pi ** (n - 1))), "vform", n, False),
            (Gen("torus", (one + pi ** (2 * n), one + pi ** (2 * n))), "vform", n, True),
            (Gen("torus", (one + pi ** (2 * n - 1), one + pi ** (2 * n))), "vform", n, False))])


@_suite("h2n-in-v")
def _h2n_in_v(cfg: SamplerConfig):
    """Conjugating H_{2n} by t_{-nλ'} (λ' = affine.LAMBDA_PRIME) multiplies
    each coefficient by ϖ^{⟨β, nλ'⟩}, β its root; the suite checks the shifted
    bounds ω ≥ 2n·max(1,|k|) + ⟨β, nλ'⟩ and z ∈ O^×."""
    mus = {n: tuple(n * x for x in affine.LAMBDA_PRIME) for n in (1, 2)}
    t_conj = {n: affine.aff_t_mu(cfg.field, *(-x for x in mu)) for n, mu in mus.items()}
    for n, _, rng in _draws(cfg, "h2nv", (1, 2), max(1, cfg.trials // 2)):
        expr, g = sample_aff_hn(rng, cfg, 2 * n)
        h = t_conj[n].conj(g)
        bad = [] if h.z.valuation() == 0 else ["z not a unit"]
        bad.extend(affine.entry_violations(h.m, lambda r, c, k: (
            2 * n * max(1, abs(k)) + roots.eval_pairing(affine.entry_root(r, c, k), mus[n]))))
        yield (f"n={n}: {expr}", "shifted valuation bounds", "; ".join(bad)) if bad else None


def conj_generator_list(field: Field):
    """The fixed 12-element list of conjugators for the invariance suite."""
    pi, one = field.uniformizer(), field.one()
    gens = [Gen("xp", (0, one)), Gen("xp", (0, pi.inv())), Gen("xp", (1, one)),
            Gen("xp", (-1, one)), Gen("xm", (0, pi.inv())), Gen("xm", (1, one)),
            Gen("xm", (-1, one)), Gen("s0", ()), Gen("s1", ()), Gen("t", (1, 0)),
            Gen("t", (0, 1)), Gen("torus", (pi, pi))]
    return [_made(g, AFFINE, field) for g in gens]


@_suite("conj-invariance")
def _conj_invariance(cfg: SamplerConfig):
    """For each conjugator g and n = 1, 2, at m = affine.conj_bound(g, n):
    every sampled conjugate g·h·g⁻¹, h ∈ H_m, lies in H_n; and, when m ≥ 2,
    some x_±(k; ϖ^((m−1)·max(1,|k|))), k ∈ {−1, 0, 1}, lies in H_{m−1} and
    has a conjugate outside H_n, so no smaller m would do."""
    field = cfg.field
    samples: dict = {}      # m -> the samples of H_m, shared by every (g, n)
    witnesses: dict = {}    # m -> the witnesses that lie in H_{m−1}, likewise
    for expr, g in conj_generator_list(field):
        g_inv = g.inverse()
        for n in (1, 2):
            m, spec = affine.conj_bound(g, n), affine.AffSubgroupSpec("hn", n)
            if m not in samples:
                samples[m] = [sample_aff_hn(rng, cfg, m) for _, _, rng in _draws(cfg, "conj", (m,))]
                if m >= 2:
                    below = affine.AffSubgroupSpec("hn", m - 1)
                    witnesses[m] = [
                        w for make in (affine.aff_x_plus, affine.aff_x_minus) for k in (-1, 0, 1)
                        if (w := make(field, k, field.pi_power((m - 1) * max(1, abs(k))))) in below]
            bad = [f"g·({e})·g⁻¹ not in H_{n}" for e, h in samples[m]
                   if g * h * g_inv not in spec][:1]
            if m >= 2 and not any(g * w * g_inv not in spec for w in witnesses[m]):
                bad.append(f"no witness in H_{m - 1} escapes H_{n}")
            yield (f"g={expr}, n={n}", f"g·H_m·g⁻¹ in H_{n} at m = {m}, exactly",
                   "; ".join(bad)) if bad else None


@_suite("hausdorff")
def _hausdorff(cfg: SamplerConfig):
    """Every sampled non-identity element escapes H_n at a computable level
    n_escape, and lies in H_{n_escape − 1} when that level is at least 1."""
    for _, _, rng in _draws(cfg, "hausdorff"):
        expr, g = sample_aff_word(rng, cfg)
        if g.is_identity():
            yield None
            continue
        candidates = []
        vz = g.z.valuation_from_one()
        if vz != INFINITY:
            candidates.append(max(1, int(vz) + 1))
        for _, _, k, v in affine.deviation(g.m):
            candidates.append(max(1, int(v // max(1, abs(k))) + 1) if v >= 0 else 1)
        n_escape = min(candidates)
        if g in affine.AffSubgroupSpec("hn", n_escape):
            yield expr, f"escape by n = {n_escape}", "still inside"
        elif n_escape >= 2 and g not in affine.AffSubgroupSpec("hn", n_escape - 1):
            yield expr, f"inside H_{n_escape - 1}", "escaped"
        else:
            yield None


@_suite("center-separation")
def _center_separation(cfg: SamplerConfig):
    """(−I, 1) is central-integral and fixes every test point but is not in
    ker π_1: the witness separating the two topologies.  Needs residue
    characteristic ≠ 2.  A census after the last trial pins the test-point
    level: torus(1; 1+ϖ) has ω(α0(t) − 1) = 1, so it is not in tnphi:2, and
    torus(1; 1+ϖ^2) is.  It also pins the center: torus(ϖ; 1) has f^2 ≠ 1
    and torus(1; 1+ϖ) has z ≠ 1, so neither is in center or centero."""
    field = cfg.field
    if field.char == 2:
        raise NotApplicable("witness needs p != 2 (-1 ≡ 1 mod 2)" if field.uniformizer_name == "p"
                            else "witness needs odd residue characteristic")
    expr, minus_i = _made(Gen("torus", (-field.one(), field.one())), AFFINE, field)
    checks = [
        ("passes CenterO", minus_i in affine.AffSubgroupSpec("centero")),
        ("fails KerPi(1)", minus_i not in affine.AffSubgroupSpec("kerpi", 1)),
    ]
    for i in (0, 1):
        level = affine.fix_level(minus_i, i)
        checks.extend((f"fixes test point i={i}, n={n}", level >= n) for n in range(1, 11))
    for what, ok in checks:
        yield None if ok else (expr, what, "false")
    pi, one = field.uniformizer(), field.one()
    return _census(field, AFFINE, "tnphi and center census",
                   "torus(1; 1+ϖ) out of tnphi:2, torus(1; 1+ϖ^2) in it; "
                   "torus(ϖ; 1) and torus(1; 1+ϖ) out of center and centero", (
                       (Gen("torus", (one, one + pi)), "tnphi", 2, False),
                       (Gen("torus", (one, one + pi ** 2)), "tnphi", 2, True),
                       *((Gen("torus", parts), kind, None, False)
                         for parts in ((pi, one), (one, one + pi))
                         for kind in ("center", "centero"))))


@_suite("coset-count")
def _coset_count(cfg: SamplerConfig):
    """Exhibits ≥ 10 pairwise-distinct H_2-cosets inside H_1 among x_-(k, ϖ^j);
    each element is a trial, the census is checked after the last."""
    field = cfg.field
    spec1 = affine.AffSubgroupSpec("hn", 1)
    spec2 = affine.AffSubgroupSpec("hn", 2)
    reps: list[affine.AffElt] = []
    for k in range(-3, 4):
        for j in range(max(1, abs(k)), 2 * max(1, abs(k))):
            expr, g = _made(Gen("xm", (k, field.pi_power(j))), AFFINE, field)
            if g not in spec1:
                yield expr, "in H_1", "outside"
                continue
            if all(r.inverse() * g not in spec2 for r in reps):
                reps.append(g)
            yield None
    if len(reps) < 10:
        return "coset census", ">= 10 distinct H_2-cosets", str(len(reps))


@_suite("tree-retraction")
def _tree_retraction(cfg: SamplerConfig):
    field = cfg.field
    pi = field.uniformizer()
    closed_cases = [(Gen("xm", (pi,)), Fraction(1), Fraction(0)),
                    (Gen("xp", (field.zero(),)), Fraction(1, 4), Fraction(1, 4)),
                    (Gen("xp", (field.zero(),)), Fraction(-2), Fraction(-2))]
    for gen, y, want in closed_cases:
        expr, p = _made(Point(Product((gen,)), y), SL2, field)
        got = sl2.tree_retract(p)
        yield None if got == want else (expr, str(want), str(got))
    for _, _, rng in _draws(cfg, "retract"):
        expr, p = sample_tree_point(rng, cfg)
        got = sl2.tree_retract(p)
        oracle = _retract_oracle(p)
        yield None if oracle is not None and got == oracle else (expr, str(oracle), str(got))


def _retract_oracle(p: sl2.TreePoint):
    """Candidate scan over half-integers with solvable-unipotent checks,
    independent of the closed-form valuation formula: y' is a candidate when
    some x_+(c0)·p_{y'} equals p, i.e. h = x_+(-c0)·g maps p_y to p_{y'}.
    The four bounds of sl2.apartment_violations on h, read for y', bound 2y'
    to one interval per h, so each h's valuations are taken once."""
    g, y = p.g, p.y
    vals = [v for v in (e.valuation() for e in g.entries()) if v != INFINITY]
    width = int(max(abs(v) for v in vals)) + int(abs(y)) + 2
    c_options = [g.field.zero()]
    if not g.c.is_zero():
        c_options.append(g.a / g.c)
    if not g.d.is_zero():
        c_options.append(g.b / g.d)
    intervals = []
    for c0 in c_options:
        a, b, c, d = (e.valuation() for e in (sl2.x_plus(-c0) * g).entries())
        # ω(a) ≥ y − y', ω(b) ≥ −(y' + y), ω(c) ≥ y' + y, ω(d) ≥ y' − y;
        # a zero entry (ω = ∞) leaves its end open
        intervals.append((2 * max(y - a, -y - b), 2 * min(c - y, d + y)))
    candidates = [Fraction(twice, 2) for twice in range(-2 * width, 2 * width + 1)
                  if any(lo <= twice <= hi for lo, hi in intervals)]
    if len(candidates) != 1:
        return None
    return candidates[0]


@_suite("fix-criterion")
def _fix_criterion(cfg: SamplerConfig):
    """For SL2 tori, ω(α(t)−1) ≥ n iff t fixes the point x_+(ϖ^{-n})·0."""
    field = cfg.field
    bases = {n: sl2.tree_act(sl2.x_plus(field.pi_power(-n)), sl2.apartment_point(field, 0))
             for n in range(1, 5)}
    for _, _, rng in _draws(cfg, "fixcrit"):
        expr, t = sample_sl2_torus(rng, cfg)
        s = t.a
        for n, base in bases.items():
            valuation_side = (s * s).valuation_from_one() >= n
            geometric_side = sl2.tree_point_equal(sl2.tree_act(t, base), base)
            yield (None if valuation_side == geometric_side
                   else (f"{expr}, n={n}", f"criterion={valuation_side}",
                         f"geometric={geometric_side}"))
