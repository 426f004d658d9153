"""The kmtop benchmark.

    python3 kmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: kmtop is imported from ./src, unmodified.
Every workload is a closed loop with one client, in one process and one
thread.  It calls kmtop.cli.main(argv) in-process with stdout captured and
checks every output:

  verify-fq     `verify --suite all --json` on fq:3 (the F_q(t) polynomial
                kernel under the product layers)
  cli-mix       passes over 1000 one-shot commands on p:3 (see mix.py)

With --trace 0 the workload runs for --seconds and the end-to-end metrics
are reported.  With --trace 1 a fixed amount of it (one verify call, or one
pass of the mix) runs twice untraced and then twice traced (see layers.py),
and the per-layer metrics are reported; the counts of the two traced passes
must be identical.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import mix

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

TRIALS = 20
FIELDS = {"verify-fq": "fq:3", "cli-mix": "p:3"}
SUITES = ("center-separation", "commutation", "conj-invariance", "coset-count",
          "fix-criterion", "h2n-in-v", "hausdorff", "hn-closure", "kerpi-sl2",
          "rank1-refinement", "tree-retraction", "uut-uniqueness", "v-in-h")
PASS_SIZE = sum(count for _, count in mix.COMPOSITION)
SETUP_RUNS = 15
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); import kmtop.cli; "
              "kmtop.cli.parse_field({field!r}); print(time.monotonic())")


def import_cli():
    """kmtop.cli from ./src, or exit 1 when the checkout has no source."""
    if not os.path.isfile(os.path.join(SRC, "kmtop", "cli.py")):
        sys.exit("kmbench: src/kmtop/cli.py not found; run from the repository root")
    sys.path.insert(0, SRC)
    from kmtop import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"kmbench: kmtop was imported from {cli.__file__}, not from ./src")
    return cli


def measure_setup(field: str) -> float:
    """Median seconds from starting a fresh interpreter to kmtop.cli imported
    and the field parsed, after one unmeasured start that warms the caches."""
    code = SETUP_CODE.format(field=field)
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"kmbench: set-up failed:\n{done.stderr}")
        if i:
            times.append(float(done.stdout) - start)
    return statistics.median(times)


class Runner:
    """Calls the CLI in-process and tallies operations and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.error_shown = False

    def call(self, argv: list[str]) -> tuple[int | None, str, float]:
        """(exit code or None on an exception, stdout, seconds in cli.main)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a traceback fails this operation, not the run
                rc = None
                if not self.error_shown:
                    self.error_shown = True
                    print(f"kmbench: {argv!r} raised\n{traceback.format_exc()}",
                          file=sys.__stderr__)
            elapsed = time.perf_counter() - start
        return rc, out.getvalue(), elapsed

    def tally(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed


# --- verify-* ---------------------------------------------------------------

def verify_argv(field: str, seed: int) -> list[str]:
    return ["--json", "verify", "--suite", "all", "--field", field,
            "--seed", str(seed), "--trials", str(TRIALS)]


def verify_failures(rc, text: str, field: str, seed: int) -> tuple[int, dict | None]:
    """Failed suites in one report, and the report.  A suite fails on a fail
    verdict, on not-applicable (every suite applies on fq:3), on a
    pass with no trials, or when missing; all fail when the report is unusable."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return len(SUITES), None
    config = doc.get("config", {})
    if (rc not in (0, 3) or doc.get("schema") != 1 or config.get("field") != field
            or config.get("seed") != seed or config.get("trials") != TRIALS):
        return len(SUITES), None
    by_name = {s["suite"]: s for s in doc["suites"]}
    bad = sum(1 for name in SUITES
              if name not in by_name or by_name[name]["verdict"] != "pass"
              or by_name[name]["trials"] < 1 or by_name[name]["failures"])
    return bad, doc


def verify_once(runner: Runner, field: str, seed: int) -> tuple[float, int]:
    """One checked verify call: (seconds, trials reported)."""
    rc, text, elapsed = runner.call(verify_argv(field, seed))
    bad, doc = verify_failures(rc, text, field, seed)
    runner.tally(len(SUITES), bad)
    return elapsed, sum(s["trials"] for s in doc["suites"]) if doc else 0


def verify_reference(runner: Runner, field: str):
    """The report at the reference seed must match its recorded SHA-256
    byte for byte; this call also warms the process up before timing."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    seed = ref["seed"]
    rc, text, _ = runner.call(verify_argv(field, seed))
    bad, _ = verify_failures(rc, text, field, seed)
    digest = hashlib.sha256(text.encode()).hexdigest()
    runner.tally(len(SUITES) + 1, bad + (digest != ref["verify_sha256"][field]))


def timed_verify(runner: Runner, field: str, seed: int, seconds: float):
    """Verify calls until `seconds` pass; call i draws from seed·1000 + i, so a
    run's median averages over many inputs.  Returns the per-call seconds."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(verify_once(runner, field, seed * 1000 + len(samples))[0])
    return samples


# --- cli-mix ----------------------------------------------------------------

def run_pass(runner: Runner, commands, samples: list[float],
             deadline: float = math.inf) -> float | None:
    """One checked pass over the commands: its seconds in cli.main, or None
    when the deadline cut it short."""
    total = 0.0
    for cmd in commands:
        if time.perf_counter() >= deadline:
            return None
        rc, text, elapsed = runner.call(cmd.argv)
        samples.append(elapsed)
        total += elapsed
        try:
            ok = rc == 0 and mix.check(cmd, json.loads(text))
        except (ValueError, KeyError, TypeError):
            ok = False
        runner.tally(1, not ok)
    return total


def timed_mix(runner: Runner, commands, seconds: float):
    """Passes for `seconds`, the first always whole: (seconds per whole pass,
    seconds per call in call order, so call i ran command i % len(commands))."""
    run_pass(runner, commands[:100], [])   # warm-up, checked but not timed
    deadline = time.perf_counter() + seconds
    samples: list[float] = []
    passes = [run_pass(runner, commands, samples)]
    while (total := run_pass(runner, commands, samples, deadline)) is not None:
        passes.append(total)
    return passes, samples


# --- reporting --------------------------------------------------------------

def command_latencies(samples: list[float], pass_size: int) -> list[float]:
    """Each command's mean seconds over the times it ran in the run.  A
    machine stall hits one call of a command, so the mean over the passes
    keeps it from setting a percentile on its own."""
    return [statistics.fmean(samples[i::pass_size]) for i in range(min(pass_size, len(samples)))]


def p99(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def environment(args, workload_note: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **workload_note,
            "machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "nproc": len(os.sched_getaffinity(0)),
            "python": f"{platform.python_implementation()} {platform.python_version()}"}


def end_to_end(args, runner: Runner, field: str) -> dict:
    setup = measure_setup(field)
    if args.workload == "cli-mix":
        passes, samples = timed_mix(runner, mix.generate(args.seed), args.seconds)
        latencies = command_latencies(samples, PASS_SIZE)
        verdict = sum(latencies)
        print(f"verdict = one pass of {PASS_SIZE} commands, the sum of their latencies; "
              f"passes: {len(passes)}; calls timed: {len(samples)}; cmd_p50/p99 over "
              f"{len(latencies)} commands, each its mean over its calls")
    else:
        verify_reference(runner, field)
        samples = latencies = timed_verify(runner, field, args.seed, args.seconds)
        verdict = statistics.median(samples)
        print(f"verdict = one verify call, the median; command = one verify call; "
              f"calls timed: {len(samples)}; cmd_p50/p99 over {len(latencies)} calls")
    return {
        "setup_s": (setup, "s"),
        "verdict_s": (verdict, "s"),
        "cmd_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "cmd_p99_ms": (p99(latencies) * 1000, "ms"),
        "cmds_per_s": (len(samples) / sum(samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(args, runner: Runner, field: str) -> dict:
    import layers   # imports kmtop, so only after import_cli; untraced runs skip it
    if args.workload == "cli-mix":
        commands = mix.generate(args.seed)

        def work():
            return run_pass(runner, commands, []), 0
    else:
        verify_reference(runner, field)

        def work():
            return verify_once(runner, field, args.seed)
    untraced = [work()[0] for _ in range(2)]
    traced = []
    for _ in range(2):
        tracer = layers.Tracer()
        with layers.installed(tracer):
            wall, trials = work()
        traced.append((tracer, wall))
    (first, _), (second, _) = traced
    if second.missing:
        print(f"not traced, missing from kmtop: {', '.join(second.missing)}")
    same = first.calls == second.calls and first.gcd_useful == second.gcd_useful
    if not same:
        print("kmbench: the two traced passes counted differently", file=sys.stderr)
    runner.tally(1, not same)
    base = statistics.median(untraced)
    traced_s = statistics.median(wall for _, wall in traced)
    out = layers.layer_metrics(second, trials)
    out["trace.untraced_s"] = (base, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_ratio"] = (traced_s / base, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FIELDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    runner = Runner(import_cli())
    field = FIELDS[args.workload]
    note = ({"trials": TRIALS, "field": field} if args.workload != "cli-mix"
            else {"field": field, "commands_per_pass": PASS_SIZE})
    print("env: " + json.dumps(environment(args, note), sort_keys=True))
    metrics = (per_layer if args.trace else end_to_end)(args, runner, field)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_frac: {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} failed of {runner.attempted} operations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
