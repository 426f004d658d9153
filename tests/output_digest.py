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

output_digest_index.txt, next to this file, holds one line per run: its
number and the first 16 hex digits of the SHA-256 of that repr.  When the
outputs differ from it, the script (and the test) name the changed runs and
the argvs of the first 10, so a re-record shows which commands changed.

    PYTHONPATH=src python tests/output_digest.py --record

rewrites the index from the current outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from itertools import zip_longest
from pathlib import Path

from kmtop import cli

KMBENCH = Path(__file__).resolve().parent.parent / "kmbench"
INDEX = Path(__file__).with_name("output_digest_index.txt")
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


def digest() -> tuple[str, list[tuple[list[str], str]]]:
    """The line "runs hexdigest" for the runs argvs() lists, and each run's
    argv with its 16-hex hash, in order."""
    sha = hashlib.sha256()
    runs = []
    for argv in argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        blob = repr((argv, out.getvalue(), err.getvalue(), code)).encode()
        sha.update(blob)
        runs.append((argv, hashlib.sha256(blob).hexdigest()[:16]))
    return f"{len(runs)} {sha.hexdigest()}", runs


def index_lines(runs) -> list[str]:
    return [f"{number} {run_hash}" for number, (_, run_hash) in enumerate(runs, 1)]


def changes(runs) -> str:
    """'' if every run's hash is the index's; else the numbers of the runs
    that differ (or that only one side has) and the argvs of the first 10."""
    old = INDEX.read_text().splitlines()
    new = index_lines(runs)
    changed = [number for number, pair in enumerate(zip_longest(old, new), 1)
               if pair[0] != pair[1]]
    if not changed:
        return ""
    lines = [f"{len(changed)} runs differ from {INDEX.name} ({len(new)} runs now, "
             f"{len(old)} indexed): {' '.join(map(str, changed))}"]
    for number in changed[:10]:
        argv = " ".join(runs[number - 1][0]) if number <= len(runs) else "(no such run now)"
        lines.append(f"  run {number}: {argv}")
    return "\n".join(lines)


def main(args) -> int:
    line, runs = digest()
    print(line)
    if args == ["--record"]:
        INDEX.write_text("".join(f"{entry}\n" for entry in index_lines(runs)))
        return 0
    report = changes(runs)
    if report:
        print(report, file=sys.stderr)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
