"""Per-layer tracing by wrapping kmtop's functions from outside the package.

Wrappers are assigned to module, class and table attributes only while an
``installed`` block is open, and the originals are put back when it closes,
so an untraced run imports and runs the package unmodified.

Two kinds of wrapper:

* counters, for the scalar layer (``valued``): about a million calls per
  verify run, where a timed span on each would distort every other layer;
* spans, for everything else: a span's self time is its duration minus the
  time covered by the spans it encloses.  Counted calls inside a span are
  part of that span's self time.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict
from functools import partial

from kmtop import affine, cli, exprs, harness, roots, sl2, valued

_SAMPLERS = ("sample_unit", "sample_scalar", "sample_scalar_min_val",
             "sample_sl2_generic", "sample_sl2_kerpi", "sample_sl2_vlambda",
             "sample_sl2_torus", "sample_tree_point", "sample_aff_word",
             "sample_aff_hn", "sample_aff_torus", "sample_aff_vform")

# (owner, attribute, layer name); owners are modules, classes or dicts.
_COUNTED = (
    (valued.ValuedScalar, "__mul__", "valued.mul"),
    (valued.ValuedScalar, "__rmul__", "valued.mul"),
    (valued.ValuedScalar, "__add__", "valued.add"),
    (valued.ValuedScalar, "__radd__", "valued.add"),
    (valued.ValuedScalar, "inv", "valued.inv"),
    (valued.ValuedScalar, "valuation", "valued.valuation"),
    (valued.PAdicField, "__eq__", "valued.field_eq"),
    (valued.RationalFunctionField, "__eq__", "valued.field_eq"),
    (valued.RationalFunctionField, "_canonical", "valued.canonical"),
    (affine.AffElt, "inverse", "affine.inverse"),
    (affine.AffElt, "conj", "affine.conj"),
    (affine.AffElt, "__post_init__", "affine.elt_built"),
    (sl2.SL2Elt, "__post_init__", "sl2.elt_built"),
)

_SPANS = (
    (affine.AffElt, "__mul__", "affine.mul"),
    (affine.LaurentPoly, "__mul__", "affine.laurent_mul"),
    (affine, "aff_violations", "affine.member"),
    (affine, "vform_violations", "affine.vform"),
    (sl2.SL2Elt, "__mul__", "sl2.mul"),
    (sl2, "sl2_violations", "sl2.member"),
    (sl2, "kerpi_product_member", "sl2.member"),
    (sl2, "tree_point_equal", "sl2.tree"),
    (sl2, "tree_act", "sl2.tree"),
    (sl2, "tree_retract", "sl2.tree"),
    (harness, "_retract_oracle", "harness.oracle"),
    (exprs, "parse_element", "exprs.parse"),
    (cli, "main", "cli.main"),
    (affine, "kp_witness", "roots.kp_witness"),
    (roots, "real_roots_up_to_height", "roots.real_roots"),
    *((harness, name, "harness.sampler") for name in _SAMPLERS),
    *((harness.SUITES, name, f"harness.suite.{name}") for name in sorted(harness.SUITES)),
    *((cli._COMMANDS, name, f"cli.{name}") for name in sorted(cli._COMMANDS)),
)


def _get(owner, attr):
    return owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Call counts, span durations and self times, kept in memory."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.gcd_useful = 0
        self.missing: list[str] = []
        self._open: list[float] = []   # child time of each open span

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def gcd(self, fn):
        """_pgcd, also counting the gcds that found a common factor."""
        def wrapper(*args):
            self.calls["valued.gcd"] += 1
            g = fn(*args)
            if g != (1,):
                self.gcd_useful += 1
            return g
        return wrapper

    def span(self, name, fn):
        calls, open_spans = self.calls, self._open
        durations = self.durations[name]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                durations.append(elapsed)
        return wrapper

    def p50_ms(self, name) -> float:
        d = self.durations.get(name)
        return statistics.median(d) * 1000 if d else 0.0


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function for the duration of the block.  A function
    the package no longer has is listed in tracer.missing, and its layer
    reads 0, so a refactor of kmtop does not stop the traced run."""
    plan = ([(owner, attr, partial(tracer.counted, name)) for owner, attr, name in _COUNTED]
            + [(owner, attr, partial(tracer.span, name)) for owner, attr, name in _SPANS]
            + [(valued, "_pgcd", tracer.gcd)])
    saved = []
    try:
        for owner, attr, wrap in plan:
            original = _get(owner, attr)
            if original is None:
                tracer.missing.append(attr)
                continue
            saved.append((owner, attr, original))
            _set(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)


CLI_COMMANDS = ("member", "retract", "nu", "char", "decompose", "roots",
                "kp-witness", "verify")


def layer_metrics(t: Tracer, trials: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit)."""
    c = t.calls
    out: dict[str, tuple[float, str]] = {}

    def count(name):
        out[name] = (c[name.rsplit(".", 1)[0]], "count")

    for op in ("mul", "add", "inv", "valuation", "field_eq", "canonical", "gcd"):
        count(f"valued.{op}.calls")
    out["valued.gcd.useful_ratio"] = (t.gcd_useful / c["valued.gcd"] if c["valued.gcd"] else 0.0,
                                      "ratio")
    for name in ("affine.mul", "affine.laurent_mul", "affine.member", "affine.vform",
                 "sl2.mul", "sl2.member", "sl2.tree", "harness.sampler", "harness.oracle",
                 "exprs.parse", "cli.main"):
        count(f"{name}.calls")
        out[f"{name}.self_s"] = (t.self_s[name], "s")
    for name in ("affine.inverse", "affine.conj", "affine.elt_built", "sl2.elt_built",
                 "roots.kp_witness", "roots.real_roots"):
        count(f"{name}.calls")
    out["roots.kp_witness.s"] = (t.total_s["roots.kp_witness"], "s")
    out["roots.real_roots.s"] = (t.total_s["roots.real_roots"], "s")
    for suite in sorted(harness.SUITES):
        out[f"harness.suite.{suite}.s"] = (t.total_s[f"harness.suite.{suite}"], "s")
    out["harness.trials"] = (trials, "count")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.p50_ms"] = (t.p50_ms(f"cli.{command}"), "ms")
    return out
