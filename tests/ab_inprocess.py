"""Size a speed change in one process: verify calls of two kmtop source trees,
alternated on the same seeds.

    python tests/ab_inprocess.py OLD_SRC NEW_SRC [--count 300]

OLD_SRC and NEW_SRC are `src` directories, e.g. the working tree's and that
of a `git archive` of the parent commit unpacked elsewhere.  Each is loaded
under its own package name (kmtop_old, kmtop_new), so both live in one
interpreter and see the same machine state.  For each of --count seeds S
from 7000 on, both run `--json verify --suite all --field fq:3 --seed S
--trials 20` through cli.main, the old tree first on even seeds and the new
one first on odd seeds.  Their stdout, stderr and exit codes must be
identical: the script stops at the first seed where they are not.  It prints
each tree's median call time with its first and third quartiles, the gap
between the medians beside the old tree's quartile spread, the median of the
per-seed ratios new/old and on how many seeds the new tree was faster: the
figures that a claimed gain is read by (the new tree faster on nine tenths of
the seeds, and a median gap larger than the old tree's quartile spread).

A ratio measured here sizes a change before the benchmark is run; it does not
replace the benchmark's alternating pairs, which run each commit in its own
process.  The file is not named test_*, so pytest does not collect it;
tests/test_cli.py runs its compare() on a few seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

FIELD, FIRST_SEED, TRIALS = "fq:3", 7000, 20


def load_cli(src: str, name: str):
    """The cli module of the kmtop package under src, imported as `name`."""
    package = Path(src).resolve() / "kmtop"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed_call(cli, argv) -> tuple[tuple, float]:
    """((stdout, stderr, exit code), seconds) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return (out.getvalue(), err.getvalue(), code), elapsed


def compare(old_cli, new_cli, seeds) -> tuple[list, list]:
    """Per-seed call times (old, new), alternating which tree runs first;
    raises AssertionError at the first seed whose outputs differ."""
    old_s, new_s = [], []
    for seed in seeds:
        argv = ["--json", "verify", "--suite", "all", "--field", FIELD,
                "--seed", str(seed), "--trials", str(TRIALS)]
        order = ((old_cli, old_s), (new_cli, new_s))
        outputs = {}
        for cli, times in (order if seed % 2 == 0 else order[::-1]):
            outputs[cli], elapsed = timed_call(cli, argv)
            times.append(elapsed)
        assert outputs[old_cli] == outputs[new_cli], f"outputs differ at seed {seed}"
    return old_s, new_s


def main(args) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--count", type=int, default=300)
    opts = parser.parse_args(args)
    sys.dont_write_bytecode = True               # leave both trees as they are
    old_cli = load_cli(opts.old_src, "kmtop_old")
    new_cli = load_cli(opts.new_src, "kmtop_new")
    seeds = range(FIRST_SEED, FIRST_SEED + opts.count)
    try:
        old_s, new_s = compare(old_cli, new_cli, seeds)
    except AssertionError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(summary(seeds, old_s, new_s))
    return 0


def summary(seeds, old_s, new_s) -> str:
    """The report of a finished compare(): quartiles by the inclusive method,
    times in ms."""
    ratios = [n / o for o, n in zip(old_s, new_s)]
    wins = sum(r < 1 for r in ratios)
    (o1, o2, o3), (n1, n2, n3) = (
        [q * 1e3 for q in statistics.quantiles(s, n=4, method="inclusive")]
        for s in (old_s, new_s))
    return "\n".join((
        f"{FIELD}, trials {TRIALS}, seeds {seeds.start}-{seeds.stop - 1}: "
        f"{len(ratios)} calls per tree, identical outputs",
        f"call time, median [q1, q3]: old {o2:.1f} ms [{o1:.1f}, {o3:.1f}], "
        f"new {n2:.1f} ms [{n1:.1f}, {n3:.1f}]",
        f"median gap old-new {o2 - n2:.2f} ms; old quartile spread {o3 - o1:.2f} ms",
        f"median ratio new/old {statistics.median(ratios):.4f}; "
        f"new faster on {wins} of {len(ratios)} seeds"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
