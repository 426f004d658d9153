"""The benchmark's tracer still finds every name it wraps, and its command
mix still gets its known answers.

kmbench/layers.py wraps kmtop functions by name and reads 0 for a layer
whose function is gone, so a refactor that deletes or renames a traced name
would otherwise zero a per-layer metric without failing anything.
kmbench/mix.py carries an answer for each cli-mix command, so a change that
breaks one fails here, not first in a benchmark run.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from kmtop import affine, cli, harness, valued

KMBENCH = Path(__file__).resolve().parent.parent / "kmbench"


def _kmbench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave kmbench/ untouched
    spec = importlib.util.spec_from_file_location(f"kmbench_{name}", KMBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it(monkeypatch):
    layers = _kmbench(monkeypatch, "layers")
    originals = (affine.AffElt.__mul__, harness.sample_aff_vform, cli._COMMANDS["tits"])
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert affine.AffElt.__mul__ is not originals[0]
    assert tracer.missing == []
    assert (affine.AffElt.__mul__, harness.sample_aff_vform, cli._COMMANDS["tits"]) == originals


def test_tracer_counts_every_gcd(monkeypatch):
    """The tracer counts valued.gcd by wrapping the module attribute
    valued._pgcd, so a kernel that called _pgcd through a local alias would
    lower that count without doing less work.  A profiler that sees every
    call of _pgcd's code object must agree with it."""
    layers = _kmbench(monkeypatch, "layers")
    code = valued._pgcd.__code__
    profiled = 0

    def profile(frame, event, arg):
        nonlocal profiled
        if event == "call" and frame.f_code is code:
            profiled += 1

    tracer = layers.Tracer()
    with layers.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            assert cli.main(["verify", "--field", "fq:3", "--trials", "2"]) == 0
        finally:
            sys.setprofile(None)
    assert profiled > 0 and tracer.calls["valued.gcd"] == profiled


def test_cli_mix_pass_gets_every_known_answer(monkeypatch):
    """One pass of the cli-mix workload through cli.main, each command
    exiting 0 with the answer mix.py built it with."""
    mix = _kmbench(monkeypatch, "mix")
    wrong = []
    for cmd in mix.generate(1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(cmd.argv)
        if code != 0 or not mix.check(cmd, json.loads(out.getvalue())):
            wrong.append(cmd.argv)
    assert wrong == []
