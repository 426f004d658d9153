"""Size a speed change in one process: the calls of a benchmark workload on
two kmtop source trees, alternated on the same seeds.

    python tests/ab_inprocess.py OLD_SRC NEW_SRC
        [--workload verify-fq|verify-p3|cli-mix] [--count N]

OLD_SRC and NEW_SRC are `src` directories, e.g. the working tree's and that
of a `git archive` of the parent commit unpacked elsewhere.  Each is loaded
under its own package name (kmtop_old, kmtop_new), so both live in one
interpreter and see the same machine state.  For each of --count seeds S
from the workload's first seed on, both trees run one timed unit through
cli.main, the old tree first on even seeds and the new one first on odd
seeds:

  verify-fq   (default, seeds from 7000, count 300) one call of `--json
              verify --suite all --field fq:3 --seed S --trials 20`;
  verify-p3   the same call on the field p:3;
  cli-mix     (seeds from 1, count 20) one whole pass of kmbench/mix.py's
              generate(S), 1000 one-shot commands on p:3.

Every command's stdout, stderr and exit code must be identical on the two
trees: the script stops at the first seed where a command's are not and
names the command.  It prints each tree's median time per unit with its
first and third quartiles, the gap between the medians beside the old
tree's quartile spread, the median of the per-seed ratios new/old and on how
many seeds the new tree was faster: the figures that a claimed gain is read
by (the new tree faster on nine tenths of the seeds, and a median gap larger
than the old tree's quartile spread).

A ratio measured here sizes a change before the benchmark is run; it does not
replace the benchmark's alternating pairs, which run each commit in its own
process.  The file is not named test_*, so pytest does not collect it;
tests/test_cli.py runs its compare() on a few seeds of each workload.
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

TRIALS = 20
KMBENCH = Path(__file__).resolve().parent.parent / "kmbench"


def verify_workload(field: str) -> tuple:
    """A WORKLOADS entry: one verify call on field per seed."""
    def argvs(seed: int) -> list[list[str]]:
        return [["--json", "verify", "--suite", "all", "--field", field,
                 "--seed", str(seed), "--trials", str(TRIALS)]]
    return argvs, 7000, 300, "call", "calls", f"{field}, trials {TRIALS}"


def mix_argvs(seed: int) -> list[list[str]]:
    """The argvs of kmbench/mix.py's pass at seed, loaded without writing
    bytecode into kmbench/."""
    if "kmbench_mix" not in sys.modules:
        spec = importlib.util.spec_from_file_location("kmbench_mix", KMBENCH / "mix.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules["kmbench_mix"] = module
    return [cmd.argv for cmd in sys.modules["kmbench_mix"].generate(seed)]


# name: (argvs of the unit timed at a seed, first seed, default count, the
# unit's name and plural, what the summary's first line says of the workload)
WORKLOADS = {
    "verify-fq": verify_workload("fq:3"),
    "verify-p3": verify_workload("p:3"),
    "cli-mix": (mix_argvs, 1, 20, "pass", "passes", "cli-mix on p:3"),
}


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


def timed_unit(cli, argvs) -> tuple[list, float]:
    """(each argv's outputs, total seconds in cli.main) of one run of argvs."""
    outputs, total = [], 0.0
    for argv in argvs:
        output, elapsed = timed_call(cli, argv)
        outputs.append(output)
        total += elapsed
    return outputs, total


def compare(old_cli, new_cli, seeds, workload="verify-fq", commands=None) -> tuple[list, list]:
    """Per-seed unit times (old, new), alternating which tree runs first;
    raises AssertionError at the first seed where a command's outputs
    differ.  commands, if given, keeps only that many argvs of each unit."""
    unit_argvs = WORKLOADS[workload][0]
    old_s, new_s = [], []
    for seed in seeds:
        argvs = unit_argvs(seed)[:commands]
        order = ((old_cli, old_s), (new_cli, new_s))
        outputs = {}
        for cli, times in (order if seed % 2 == 0 else order[::-1]):
            outputs[cli], elapsed = timed_unit(cli, argvs)
            times.append(elapsed)
        for i, (old, new) in enumerate(zip(outputs[old_cli], outputs[new_cli])):
            assert old == new, f"outputs differ at seed {seed}, command {i}: {argvs[i]}"
    return old_s, new_s


def main(args) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), default="verify-fq")
    parser.add_argument("--count", type=int)
    opts = parser.parse_args(args)
    sys.dont_write_bytecode = True               # leave both trees as they are
    old_cli = load_cli(opts.old_src, "kmtop_old")
    new_cli = load_cli(opts.new_src, "kmtop_new")
    _, first, count, *_ = WORKLOADS[opts.workload]
    seeds = range(first, first + (opts.count or count))
    try:
        old_s, new_s = compare(old_cli, new_cli, seeds, opts.workload)
    except AssertionError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(summary(seeds, old_s, new_s, opts.workload))
    return 0


def summary(seeds, old_s, new_s, workload="verify-fq") -> str:
    """The report of a finished compare(): quartiles by the inclusive method,
    times in ms."""
    *_, unit, units, title = WORKLOADS[workload]
    ratios = [n / o for o, n in zip(old_s, new_s)]
    wins = sum(r < 1 for r in ratios)
    (o1, o2, o3), (n1, n2, n3) = (
        [q * 1e3 for q in statistics.quantiles(s, n=4, method="inclusive")]
        for s in (old_s, new_s))
    return "\n".join((
        f"{title}, seeds {seeds.start}-{seeds.stop - 1}: "
        f"{len(ratios)} {units} per tree, identical outputs",
        f"{unit} time, median [q1, q3]: old {o2:.1f} ms [{o1:.1f}, {o3:.1f}], "
        f"new {n2:.1f} ms [{n1:.1f}, {n3:.1f}]",
        f"median gap old-new {o2 - n2:.2f} ms; old quartile spread {o3 - o1:.2f} ms",
        f"median ratio new/old {statistics.median(ratios):.4f}; "
        f"new faster on {wins} of {len(ratios)} seeds"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
