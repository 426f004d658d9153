"""Command-line front end.

Exit codes: 0 success/pass, 1 usage error or failed write of the output,
2 validation error, 3 suite failure.  Default output is plain text with no
timestamps, so identical invocations are byte-identical; --json switches to
the documented schema (top-level "schema": 1) and --timing adds elapsed
seconds to verify output.

Each command is declared once, by the @_command decorator on its handler:
its name, one-line help and arguments.  That declaration puts the handler
into _COMMANDS and gives build_parser() the command's subparser, in
declaration order; --json output names the command from the parsed
arguments.  build_parser() builds the argument parser once per process, on
the first call of main, and parse_args leaves the parser as it found it, so
one parser serves every call.  The verification harness
is imported only by the verify command, so the other commands never load it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import affine, exprs, roots, sl2
from .valued import check_digits, exact_str, parse_field

USAGE_ERROR = 1
WRITE_FAILURE = 1
VALIDATION_ERROR = 2
SUITE_FAILURE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int(text: str) -> int:
    """The type of every integer option: ASCII digits after an optional '-'.
    int() alone also takes other scripts' digits (int("٣") is 3), '+', '_'
    and surrounding space."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"      # argparse names the type in "invalid int value: ..."


def _arg(*flags, **options):
    """One argument of a command: the arguments of an add_argument call."""
    return flags, options


FIELD = _arg("--field", default="p:3", help="p:<prime> or fq:<prime> (default p:3)")
EXPR = _arg("expr")

# Each command's handler by name, in the order the commands are declared.
# main looks the handler up on every call, so a wrapper put here is called.
_COMMANDS: dict = {}
_DECLARED: list = []    # (name, help, arguments) of each command, in that order


def _command(name: str, help_text: str, *arguments):
    """Declare the decorated handler as command name, with its one-line
    help and its arguments, each made by _arg."""
    def register(handler):
        _COMMANDS[name] = handler
        _DECLARED.append((name, help_text, arguments))
        return handler
    return register


@functools.cache
def build_parser() -> _Parser:
    top = _Parser(prog="kmtop", description=__doc__.splitlines()[0])
    top.add_argument("--json", action="store_true", help="structured output")
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text, arguments in _DECLARED:
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return top


def _emit(args, payload: dict, text_lines: list[str]):
    if args.json:
        print(json.dumps({"schema": 1, "command": args.command, **payload}, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _element(args, target: str):
    """The element of args.expr in target's grammar, over the field of
    args.field: the field is checked first."""
    return exprs.parse_element(args.expr, target, parse_field(args.field))[1]


def _parse_spec(text: str):
    """(kind, argument) of a --spec: the argument is an int when it is all
    ASCII digits, else its text, or None when absent; the spec class checks it.
    Its numbers are checked for length here, so that a long a/b is not
    reported as no rational."""
    name, _, arg = text.partition(":")
    name = name.lower()
    if not any(name in spec.KINDS for spec in exprs.SPECS.values()):
        raise exprs.ValidationError(f"unknown subgroup spec {name!r}")
    check_digits(arg)
    return name, int(arg) if arg.isascii() and arg.isdecimal() else arg or None


def _fraction(text: str, what: str) -> Fraction:
    try:
        return sl2.parse_rational(text)
    except ZeroDivisionError:
        raise exprs.ValidationError(f"{what} has a zero denominator") from None
    except ValueError as exc:
        raise exprs.ValidationError(f"{what}: {exc}") from None


@_command("roots", "list real roots up to a height bound",
          _arg("--system", default="affine-sl2", help="a1 | affine-sl2 | fixture path"),
          _arg("--height", type=_int, required=True))
def cmd_roots(args):
    system = roots.load_system(args.system)
    found = sorted(roots.real_roots_up_to_height(system, args.height),
                   key=lambda b: (roots.height(b), b))
    lines = [f"{b} ht={roots.height(b)}" for b in found]
    lines.append(f"total: {len(found)}")
    _emit(args, {"roots": [{"coords": list(b), "height": roots.height(b)} for b in found],
                 "count": len(found)}, lines)
    return 0


@_command("char", "evaluate m·å + n·δ on an affine torus element",
          FIELD, _arg("m", type=_int), _arg("n", type=_int), EXPR)
def cmd_char(args):
    elt = _element(args, exprs.AFFINE)
    for base, k in zip(affine.torus_parts(elt), (2 * args.m, args.n)):
        exprs.check_power(base, k)      # before eval_char computes the powers
    value = affine.eval_char((2 * args.m, args.n), elt)     # m·å + n·δ in dual coordinates
    _emit(args, {"value": str(value)}, [str(value)])
    return 0


@_command("mul", "multiply an element expression", FIELD, EXPR)
def cmd_mul(args):
    target, _, elt = exprs.parse_auto(args.expr, parse_field(args.field))
    _emit(args, {"target": target, "element": str(elt)}, [str(elt)])
    return 0


@_command("member", "subgroup membership for an element", FIELD,
          _arg("--spec", required=True, help="<name>[:<n>], e.g. hn:2, kerpi:1, centerO"), EXPR)
def cmd_member(args):
    field = parse_field(args.field)
    name, arg = _parse_spec(args.spec)
    target, _, elt = exprs.parse_auto(args.expr, field)
    spec = exprs.SPECS.get(target)
    if spec is None:
        raise exprs.ValidationError("member does not apply to tree points")
    violations = spec(name, arg).violations(elt)
    ok = not violations
    lines = ["true" if ok else "false"]
    lines.extend(f"  violated: {v}" for v in violations)
    _emit(args, {"member": ok, "violations": violations}, lines)
    return 0


@_command("decompose", "triangular and Birkhoff decompositions (SL2)", FIELD, EXPR)
def cmd_decompose(args):
    elt = _element(args, exprs.SL2)
    payload = {}
    lines = []
    try:
        b, c, d = sl2.upt_decompose(elt)
        payload["triangular"] = {"b": str(b), "c": str(c), "delta": str(d)}
        lines.append(f"triangular: b={b} c={c} delta={d}")
    except sl2.NotInBigCell:
        payload["triangular"] = None
        lines.append("triangular: not in the big cell")
    beta, n, gamma = sl2.birkhoff_decompose(elt)
    payload["birkhoff"] = {"beta": str(beta), "monomial": str(n), "gamma": str(gamma)}
    lines.append(f"birkhoff: beta={beta} monomial={n} gamma={gamma}")
    _emit(args, payload, lines)
    return 0


@_command("retract", "retraction of a tree point onto the apartment",
          FIELD, _arg("expr", help="point(<sl2 expr>, y)"))
def cmd_retract(args):
    y = exact_str(sl2.tree_retract(_element(args, exprs.TREEPOINT)))
    _emit(args, {"coordinate": y}, [y])
    return 0


@_command("fix-interval", "apartment fixed set of an SL2 element", FIELD, EXPR)
def cmd_fix_interval(args):
    interval = sl2.fixed_interval(_element(args, exprs.SL2))
    if interval is None or interval == (None, None):
        word = "empty" if interval is None else "all"
        _emit(args, {"interval": word}, [word])
        return 0
    lo, hi = interval
    text = f"[{'-inf' if lo is None else lo}, {'+inf' if hi is None else hi}]"
    _emit(args, {"interval": {"lo": None if lo is None else str(lo),
                              "hi": None if hi is None else str(hi)}}, [text])
    return 0


@_command("nu", "translation vector of an affine torus element", FIELD, EXPR)
def cmd_nu(args):
    x, y = affine.nu_translation(_element(args, exprs.AFFINE))
    _emit(args, {"vector": [x, y]}, [f"({x}, {y})"])
    return 0


@_command("kp-witness", "escape witness for the colimit topology",
          _arg("-n", type=_int, required=True, dest="level"),
          _arg("--depth", type=_int, default=12))
def cmd_kp_witness(args):
    betas, witness = affine.kp_witness(args.level, args.depth)
    lines = [f"beta[{i + 1}] = {b} ht={h}" for i, (b, h) in enumerate(betas)]
    lines.append(f"witness: {witness if witness is not None else 'not found'}")
    _emit(args, {"heights": [h for _, h in betas], "witness_index": witness}, lines)
    return 0


@_command("verify", "run verification suites", FIELD,
          _arg("--suite", default="all", help="suite name or 'all'"),
          _arg("--seed", type=_int, default=42),
          _arg("--trials", type=_int, default=500),
          _arg("--timing", action="store_true", help="include elapsed seconds"))
def cmd_verify(args):
    from . import harness
    field = parse_field(args.field)
    try:
        cfg = harness.SamplerConfig(field, args.seed, args.trials)
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None
    names = harness.all_suite_names() if args.suite == "all" else [args.suite]
    try:
        reports = harness.run_suites(names, cfg)
    except harness.UnknownSuite as exc:
        raise UsageError(f"unknown suite {exc.args[0]!r}") from exc
    lines = []
    for r in reports:
        lines.append(f"{r.suite}: {r.verdict} ({r.trials} trials)")
        if r.skipped:
            lines.append(f"  not applicable: {r.skipped}")
        for f in r.failures[:10]:
            lines.append(f"  trial {f.trial}: {f.inputs} expected {f.expected} got {f.got}")
        if args.timing:
            lines.append(f"  elapsed: {r.elapsed:.2f}s")
    failed = [r for r in reports if r.verdict == "fail"]
    lines.append(f"suites: {len(reports)}, failed: {len(failed)}")
    _emit(args, {"config": cfg.echo(),
                 "suites": [r.as_dict(include_elapsed=args.timing) for r in reports],
                 "verdict": "fail" if failed else "pass"}, lines)
    return SUITE_FAILURE if failed else 0


@_command("tits", "Tits-cone classification of an apartment vector",
          _arg("--system", default="affine-sl2"),
          _arg("--max-steps", type=_int, default=64),
          _arg("--coords", required=True, help="comma-separated rationals, e.g. 1,3"))
def cmd_tits(args):
    system = roots.load_system(args.system)
    coords = [_fraction(c, "--coords") for c in args.coords.split(",")]
    result = roots.tits_classify(system, coords, args.max_steps)
    if result is None:
        _emit(args, {"classified": False}, ["not classified"])
        return 0
    _emit(args, {"classified": True, "word": list(result.word), "walls": sorted(result.zero_set)},
          [f"word: {''.join(f'r{i}' for i in result.word) or 'e'}",
           f"walls: {sorted(result.zero_set)}"])
    return 0


def _discard_stdout():
    """Point a file-backed stdout at os.devnull, so that the output still
    buffered after a failed write is dropped instead of failing again when
    the interpreter flushes stdout on exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):   # not a file: nothing to drop
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()      # a failed write shows here, not at exit
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:   # every validation error of the package is one
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except OSError as exc:      # a fixture that cannot be read is a ValueError
        _discard_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return WRITE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
