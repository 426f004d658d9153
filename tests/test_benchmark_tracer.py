"""The benchmark's per-layer tracer still finds every name it wraps.

kmbench/layers.py wraps kmtop functions by name and reads 0 for a layer
whose function is gone, so a refactor that deletes or renames a traced name
would otherwise zero a per-layer metric without failing anything.
"""

import importlib.util
import sys
from pathlib import Path

from kmtop import affine, cli, harness

LAYERS = Path(__file__).resolve().parent.parent / "kmbench" / "layers.py"


def test_tracer_wraps_every_name_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave kmbench/ untouched
    spec = importlib.util.spec_from_file_location("kmbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    originals = (affine.AffElt.__mul__, harness.sample_aff_vform, cli._COMMANDS["tits"])
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert affine.AffElt.__mul__ is not originals[0]
    assert tracer.missing == []
    assert (affine.AffElt.__mul__, harness.sample_aff_vform, cli._COMMANDS["tits"]) == originals
