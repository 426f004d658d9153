"""One SHA-256 over the outputs of 4024 CLI runs, to show that a change keeps
every output byte.

    PYTHONPATH=src python tests/output_digest.py

Runs, in order and in-process through kmtop.cli.main:

* for seeds 1 and 2, each argv of kmbench/mix.py's generate(seed), then the
  same argv without --json;
* for the fields p:2, p:3, p:5, fq:2, fq:3, fq:5 and seeds 7 and 42,
  `verify --suite all --field F --seed S --trials 30` as text, then with
  --json prepended.

The repr of (argv, stdout, stderr, exit code) of every run is fed into one
hash.  Prints the number of runs and the hex digest; equal lines before and
after a change mean equal outputs.  The file is not named test_*, so pytest
does not collect it; tests/test_cli.py runs its digest() and pins the line.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

from kmtop import cli

KMBENCH = Path(__file__).resolve().parent.parent / "kmbench"
FIELDS = ("p:2", "p:3", "p:5", "fq:2", "fq:3", "fq:5")


def _mix():
    """kmbench/mix.py, loaded without writing bytecode into kmbench/."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("kmbench_mix", KMBENCH / "mix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def argvs():
    mix = _mix()
    for seed in (1, 2):
        for cmd in mix.generate(seed):
            yield cmd.argv
            yield [a for a in cmd.argv if a != "--json"]
    for field in FIELDS:
        for seed in (7, 42):
            argv = ["verify", "--suite", "all", "--field", field, "--seed", str(seed),
                    "--trials", "30"]
            yield argv
            yield ["--json", *argv]


def digest() -> tuple[int, str]:
    """(number of runs, hex digest) of the runs argvs() lists."""
    sha = hashlib.sha256()
    runs = 0
    for argv in argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        sha.update(repr((argv, out.getvalue(), err.getvalue(), code)).encode())
        runs += 1
    return runs, sha.hexdigest()


def main() -> int:
    print(*digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
