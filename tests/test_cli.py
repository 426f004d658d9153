import gc
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import kmtop
from kmtop import affine, sl2
from kmtop.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_count(capsys):
    code, out, _ = run(capsys, "roots", "--system", "affine-sl2", "--height", "3")
    assert code == 0
    assert "total: 8" in out


def test_roots_json_schema(capsys):
    code, out, _ = run(capsys, "--json", "roots", "--system", "a1", "--height", "4")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["count"] == 2


def test_member_center_witness(capsys):
    code, out, _ = run(capsys, "member", "--field", "p:3", "--spec", "centerO", "s1 s1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "member", "--field", "p:3", "--spec", "kerpi:1", "s1 s1")
    assert code == 0 and out.splitlines()[0] == "false"
    assert "violated" in out


def test_member_group_dispatch(capsys):
    code, out, _ = run(capsys, "member", "--field", "p:3", "--spec", "hn:1", "xp(1; 3)")
    assert code == 0 and out.strip() == "true"
    code, _, err = run(capsys, "member", "--field", "p:3", "--spec", "hn:1", "xp(3)")
    assert code == 2 and "does not apply" in err


def test_mul_and_char(capsys):
    code, out, _ = run(capsys, "mul", "--field", "p:3", "xp(1; 1/3) t(1,0)")
    assert code == 0 and "u" in out
    code, out, _ = run(capsys, "char", "--field", "p:3", "1", "0", "torus(3; 1)")
    assert code == 0 and out.strip() == "9"


def test_decompose_retract_fix_nu(capsys):
    code, out, _ = run(capsys, "decompose", "--field", "p:3", "xp(3) xm(3)")
    assert code == 0 and "triangular: b=3 c=3 delta=1" in out
    code, out, _ = run(capsys, "retract", "--field", "p:3", "point(xm(3), 1)")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "fix-interval", "--field", "p:3", "xp(27)")
    assert code == 0 and out.strip() == "[-3/2, +inf]"
    code, out, _ = run(capsys, "nu", "--field", "p:3", "t(1, 0)")
    assert code == 0 and out.strip() == "(1, 0)"


def test_kp_witness(capsys):
    code, out, _ = run(capsys, "kp-witness", "-n", "2", "--depth", "6")
    assert code == 0 and "witness: 3" in out


def test_char_and_nu_reject_non_torus_cleanly(capsys):
    code, _, err = run(capsys, "nu", "--field", "p:3", "xp(1; 1)")
    assert code == 2 and "torus" in err.lower()
    code, _, err = run(capsys, "char", "--field", "p:3", "1", "0", "diag(2)")
    assert code == 2
    code, _, err = run(capsys, "nu", "--field", "p:3", "w")
    assert code == 2


def test_tits_command(capsys):
    code, out, _ = run(capsys, "tits", "--system", "affine-sl2", "--coords=1,3")
    assert code == 0 and "word: e" in out
    code, out, _ = run(capsys, "tits", "--system", "affine-sl2",
                       "--max-steps", "40", "--coords=0,-1")
    assert code == 0 and "not classified" in out


def test_verify_pass_and_json_agree(capsys):
    code, text_out, _ = run(capsys, "verify", "--suite", "commutation",
                            "--field", "p:5", "--trials", "60")
    assert code == 0 and "commutation: pass" in text_out
    code, json_out, _ = run(capsys, "--json", "verify", "--suite", "commutation",
                            "--field", "p:5", "--trials", "60")
    payload = json.loads(json_out)
    assert code == 0
    assert payload["schema"] == 1
    assert payload["verdict"] == "pass"
    assert payload["suites"][0]["suite"] == "commutation"
    assert payload["suites"][0]["verdict"] == "pass"


def test_verify_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "uut-uniqueness", "--trials", "40")
    _, out2, _ = run(capsys, "verify", "--suite", "uut-uniqueness", "--trials", "40")
    assert out1 == out2
    # --timing adds a line, so it is opt-in only
    _, out3, _ = run(capsys, "verify", "--suite", "uut-uniqueness", "--trials", "40",
                     "--timing")
    assert "elapsed" in out3


def test_exit_codes(capsys):
    code, _, err = run(capsys, "verify", "--suite", "no-such")
    assert code == 1 and "unknown suite" in err
    code, _, err = run(capsys, "member", "--spec", "kerpi:1", "diag(0)")
    assert code == 2
    code, _, err = run(capsys, "retract", "point(xm(3/1")
    assert code == 2 and "syntax" in err
    code, _, _ = run(capsys, "nope")
    assert code == 1


def test_suite_failure_exit_code_path():
    # aggregation maps a failing report to exit 3 (no shipped suite fails,
    # so exercise the mapping directly)
    from kmtop import harness
    from kmtop.cli import SUITE_FAILURE
    report = harness.SuiteReport("demo", 1, (harness.Failure(0, "x", "a", "b"),), 0.0, "")
    assert report.verdict == "fail"
    assert SUITE_FAILURE == 3


def test_a_suite_that_raises_fails_only_itself(capsys, monkeypatch):
    """With conj_bound one too small, conj-invariance draws torus(1 + c)
    with c = −1 at m = 0, and building it raises: that suite fails, naming
    the exception, and every other suite is still run and reported."""
    bound = affine.conj_bound
    monkeypatch.setattr(affine, "conj_bound", lambda g, n: bound(g, n) - 1)
    code, out, _ = run(capsys, "--json", "verify", "--suite", "all", "--field", "p:3",
                       "--trials", "20")
    suites = {s["suite"]: s for s in json.loads(out)["suites"]}
    assert code == 3 and len(suites) == 13
    assert [name for name, s in suites.items() if s["verdict"] != "pass"] == ["conj-invariance"]
    [failure] = suites["conj-invariance"]["failures"]
    assert failure["trial"] == suites["conj-invariance"]["trials"]
    assert failure["got"] == "ValidationError: zero scalar where nonzero required (torus)"


def test_field_commands_leave_no_cyclic_garbage(capsys):
    """A field holds no scalar, so the field and scalars of a command are
    freed by reference counting, not left in a cycle for the cyclic gc."""
    from kmtop.valued import Field, ValuedScalar
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for field in ("p:3", "fq:3"):
            assert run(capsys, "member", "--field", field, "--spec", "hn:1", "xp(1; 1)")[0] == 0
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage if isinstance(o, (Field, ValuedScalar))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert left == []


def test_field_validation_exit(capsys):
    code, _, err = run(capsys, "mul", "--field", "p:4", "xp(1)")
    assert code == 2 and "prime" in err


def test_verify_skipped_suite_still_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "center-separation",
                       "--field", "p:2", "--trials", "5")
    assert code == 0
    assert "not-applicable" in out


def test_roots_from_fixture_file(capsys, tmp_path):
    fixture = tmp_path / "aff.json"
    fixture.write_text(json.dumps({
        "cartan": [[2, -2], [-2, 2]],
        "rank": 2,
        "simple_roots": [[-2, 1], [2, 0]],
        "simple_coroots": [[-1, 0], [1, 0]],
    }))
    code, out, _ = run(capsys, "roots", "--system", str(fixture), "--height", "3")
    assert code == 0 and "total: 8" in out
    code, _, err = run(capsys, "roots", "--system", str(tmp_path / "nope.json"),
                       "--height", "3")
    assert code == 2


_AFF_FIXTURE = {"cartan": [[2, -2], [-2, 2]], "rank": 2,
                "simple_roots": [[-2, 1], [2, 0]], "simple_coroots": [[-1, 0], [1, 0]]}

def _write_fixture(path, case):
    """Write a fixture document to path: a str as it is, else as JSON."""
    path.write_text(case if isinstance(case, str) else json.dumps(case))
    return str(path)


def _fixture_text(**fields) -> str:
    """The affine fixture as JSON text, with each named field's value given as
    its JSON text."""
    return json.dumps(_AFF_FIXTURE)[:-1] + "".join(f', "{k}": {v}' for k, v in fields.items()) + "}"


# Each a fixture document (written to a file and passed as --system; a str is
# the file's text) or an argv: every one is a bad input, refused with exit 2
# and one error line.  A fixture number must be a JSON integer, not a number
# int() would make one of.
MALFORMED_INPUTS = {
    "roots not a list": {**_AFF_FIXTURE, "simple_roots": 5},
    "not an object": [1, 2],
    "three roots, 2x2 matrix": {**_AFF_FIXTURE, "simple_roots": [[-2, 1], [2, 0], [0, 0]]},
    "1x2 matrix": {"cartan": [[2, -1]], "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    "one root and coroot, 2x2 matrix": {**_AFF_FIXTURE, "simple_roots": [[-2, 1]],
                                         "simple_coroots": [[-1, 0]]},
    "vectors of 3 and 1 entries at rank 2": {**_AFF_FIXTURE, "simple_roots": [[-2, 1, 0], [2]]},
    "superscript digit": ("mul", "xp(²)"),
    "Arabic-Indic digit": ("mul", "xp(٣)"),
    "Arabic-Indic level": ("member", "--spec", "hn:٣", "xp(1; 3)"),
    "Arabic-Indic field prime": ("mul", "--field", "p:٣", "xp(3)"),
    "cartan entry 2.7": {**_AFF_FIXTURE, "cartan": [[2.7, -2], [-2, 2]]},
    "cartan entry text": {**_AFF_FIXTURE, "cartan": [["2", -2], [-2, 2]]},
    "cartan entry true": {**_AFF_FIXTURE, "cartan": [[True, -2], [-2, 2]]},
    "rank true": {**_AFF_FIXTURE, "rank": True},
    "root entry true": {**_AFF_FIXTURE, "simple_roots": [[-2, True], [2, 0]]},
    "coroot entry 1.0": {**_AFF_FIXTURE, "simple_coroots": [[-1, 0], [1.0, 0]]},
    "cartan entry 1e999": _fixture_text(cartan="[[1e999, -2], [-2, 2]]"),
    "coroot entry past the digit limit": _fixture_text(simple_coroots=f"[[-1, 0], [{'1' * 5000}, 0]]"),
}


@pytest.mark.parametrize("name", MALFORMED_INPUTS)
def test_malformed_input_exits_2_with_one_error_line(capsys, tmp_path, name):
    case = MALFORMED_INPUTS[name]
    if isinstance(case, tuple):
        argv = case
    else:
        argv = ("roots", "--system", _write_fixture(tmp_path / "system.json", case), "--height", "2")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_fixture_numbers_must_be_json_integers(capsys, tmp_path):
    """A non-integer is named, where int() took 2.7 as 2, "2" as 2 and true as
    1, and 1e999 ended in an OverflowError traceback; an integer past the
    digit limit is named with its digit count, as check_digits names it."""
    limit = sys.get_int_max_str_digits()
    for name, message in (
            ("cartan entry 2.7", "malformed fixture: not an integer: 2.7"),
            ("cartan entry text", "malformed fixture: not an integer: '2'"),
            ("cartan entry true", "malformed fixture: not an integer: True"),
            ("cartan entry 1e999", "malformed fixture: not an integer: inf"),
            ("coroot entry past the digit limit",
             f"a number of 5000 digits exceeds the limit of {limit} digits")):
        fixture = _write_fixture(tmp_path / "system.json", MALFORMED_INPUTS[name])
        code, _, err = run(capsys, "roots", "--system", fixture, "--height", "2")
        assert (code, err) == (2, f"error: {message}\n")


# Commands whose code path no other test takes, with what they print and exit.
UNREACHED_PATHS = (
    (("decompose", "w"), 0,
     "triangular: not in the big cell\nbirkhoff: beta=0 monomial=[[0, -1], [1, 0]] gamma=0\n", ""),
    (("fix-interval", "diag(1/3)"), 0, "empty\n", ""),
    (("fix-interval", "diag(2)"), 0, "all\n", ""),
    (("kp-witness", "-n", "0"), 2, "", "error: n and depth must be >= 1\n"),
    (("member", "--spec", "hn:1", "point(w, 0)"), 2, "", "error: member does not apply to tree points\n"),
    (("member", "--spec", "tn:1", "s0 s1"), 0,
     "false\n  violated: not a torus element: diagonal is not a constant pair (f, 1/f)\n", ""),
    (("mul", "w )"), 2, "", "error: syntax error at 2: expected end of input\n"),
    (("mul", "diag(0)"), 2, "", "error: zero scalar where nonzero required (diag)\n"),
    (("mul", "torus(0; 1)"), 2, "", "error: zero scalar where nonzero required (torus)\n"),
    (("mul", "torus(1; 0)"), 2, "", "error: zero scalar where nonzero required (torus)\n"),
    (("mul", "xp(1/0)"), 2, "", "error: division by zero in scalar\n"),
    (("mul", "xp(0^-1)"), 2, "", "error: zero to a negative power\n"),
    (("mul", "xp(+)"), 2, "", "error: syntax error at 3: expected a scalar\n"),
    (("mul", "1"), 2, "", "error: syntax error at 0: expected a generator name\n"),
    (("retract", "xp(1)"), 2, "", "error: syntax error at 0: expected point(...)\n"),
    (("roots", "--height", "0"), 2, "", "error: height bound must be >= 1\n"),
    (("tits", "--coords", "1,3", "--max-steps", "0"), 2, "", "error: max_steps must be >= 1\n"),
    (("tits", "--coords", "1,3,5"), 2, "", "error: dimension mismatch\n"),
)


@pytest.mark.parametrize("argv,code,out,err", UNREACHED_PATHS,
                         ids=[" ".join(argv) for argv, *_ in UNREACHED_PATHS])
def test_otherwise_unreached_cli_paths(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


def test_mul_prints_a_tree_point_in_expression_notation(capsys):
    code, out, _ = run(capsys, "mul", "point(xm(3), 1/2)")
    assert code == 0 and out == "point([[1, 0], [3, 1]], 1/2)\n"
    code, out, _ = run(capsys, "--json", "mul", "point(xm(3), 1/2)")
    doc = json.loads(out)
    assert doc["target"] == "treepoint" and doc["element"] == "point([[1, 0], [3, 1]], 1/2)"


def test_verify_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-5"):
        code, out, err = run(capsys, "verify", "--suite", "commutation", "--trials", trials)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "--trials" in err


def test_verify_trials_are_capped(capsys, monkeypatch):
    from kmtop import harness
    started = []
    monkeypatch.setattr(harness, "run_suites", lambda names, cfg: started.append(names))
    over = harness.MAX_TRIALS + 1
    code, out, err = run(capsys, "verify", "--suite", "all", "--trials", str(over))
    assert code == 1 and out == "" and started == []
    assert err == f"usage error: --trials must be at most {harness.MAX_TRIALS}, got {over}\n"


def test_verify_one_trial_checks_every_level(capsys):
    # these suites run trials // 2 per level; one trial must still check each level
    for suite in ("hn-closure", "rank1-refinement", "h2n-in-v"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--trials", "1")
        assert code == 0 and out.splitlines()[0] == f"{suite}: pass (2 trials)"
        _, out, _ = run(capsys, "verify", "--suite", suite, "--trials", "4")
        assert out.splitlines()[0] == f"{suite}: pass (4 trials)"


def test_zero_denominator_is_a_validation_error(capsys):
    for argv in (("member", "--spec", "fixpoint:1/0", "xp(1)"),
                 ("retract", "point(xp(1), 1/0)"),
                 ("tits", "--coords", "1/0,1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "zero denominator" in err


# SHA-256 of `verify --suite all --seed 42 --trials 8`, recorded before the
# suites were rewritten as trial generators: a report may not change a byte.
VERIFY_DIGESTS = {
    ("p:2", False): "25a4a887f19f17829fc7ceaad331eaa3cd13ea915cd50d4367f34f5ea1d581b1",
    ("p:2", True): "985935965d974dff8531b3ea366fcaffc6625863b4770c491c1aa11b2df8f79d",
    ("p:3", False): "bc84b103161fe039a6e1b519d6395daf107d47e8279462a7c51fcf7635501917",
    ("p:3", True): "f2189baf585c16b9157bbb5d1011858d4bc2dd612508db8971a43cbaab0ef296",
    ("fq:2", False): "8e6b59faa336d54b2d99a45d5b0364f1fe67054597634dd327d21eb08bcf76ee",
    ("fq:2", True): "fe52f838b68aeead6ee34087789e8f7949c680cf81f3e123f7a959f2e9998dda",
    ("fq:3", False): "bc84b103161fe039a6e1b519d6395daf107d47e8279462a7c51fcf7635501917",
    ("fq:3", True): "fe266852b48ba5ca12505107a8e4c0bb2df2cc14fb6c85059a635424277b3760",
}


@pytest.mark.parametrize("field,as_json", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(capsys, field, as_json):
    argv = ["verify", "--suite", "all", "--field", field, "--seed", "42", "--trials", "8"]
    code, out, _ = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[field, as_json]


def test_failing_suite_numbers_and_lists_its_failures(capsys, monkeypatch):
    retract = sl2.tree_retract
    monkeypatch.setattr(sl2, "tree_retract", lambda p: retract(p) + 1)
    argv = ("verify", "--suite", "tree-retraction", "--trials", "12")
    code, text, _ = run(capsys, *argv)
    assert code == 3
    assert text.splitlines()[0] == "tree-retraction: fail (15 trials)"
    assert len([line for line in text.splitlines() if line.startswith("  trial ")]) == 10
    code, out, _ = run(capsys, "--json", *argv)
    suite = json.loads(out)["suites"][0]
    assert code == 3 and suite["verdict"] == "fail" and suite["trials"] == 15
    # every trial fails, each once, numbered 1..trials in order
    assert [f["trial"] for f in suite["failures"]] == list(range(1, 16))


def test_closure_failure_says_what_escaped(capsys, monkeypatch):
    argv = ("--json", "verify", "--suite", "hn-closure", "--trials", "4")
    with monkeypatch.context() as m:
        m.setattr(affine.AffElt, "inverse", lambda g: affine.aff_t_mu(g.field, 1, 0))
        code, out, _ = run(capsys, *argv)
    failures = json.loads(out)["suites"][0]["failures"]
    assert code == 3 and [f["trial"] for f in failures] == [1, 2, 3, 4]
    assert {f["got"] for f in failures} == {"inverse escaped"}
    assert {f["expected"] for f in failures} == {"product and inverse in hn:1",
                                                 "product and inverse in hn:2"}
    monkeypatch.setattr(affine, "aff_violations", lambda g, spec: ["forced"])
    code, out, _ = run(capsys, *argv)
    failures = json.loads(out)["suites"][0]["failures"]
    assert code == 3 and {f["got"] for f in failures} == {"product and inverse escaped"}


def test_member_accepts_every_table_kind(capsys):
    args = {sl2.LEVEL: ":2", sl2.RATIONAL: ":1/2", None: ""}
    groups = ((sl2.SL2SubgroupSpec, "diag(2)"), (affine.AffSubgroupSpec, "s1 s1"))
    for (spec, expr), (other, other_expr) in zip(groups, groups[::-1]):
        for kind, (want, _) in spec.KINDS.items():
            code, out, err = run(capsys, "member", "--spec", kind + args[want], expr)
            assert code == 0 and out.splitlines()[0] in ("true", "false"), (kind, err)
            if want is not None:
                code, out, err = run(capsys, "member", "--spec", kind, expr)
                example = f"{kind}:2" if want == sl2.LEVEL else f"{kind}:1/2"
                needs = "a level" if want == sl2.LEVEL else "a rational"
                assert code == 2 and out == ""
                assert err.splitlines() == [f"error: spec {kind!r} needs {needs}, e.g. {example}"]
            if kind not in other.KINDS:
                code, out, err = run(capsys, "member", "--spec", kind + args[want], other_expr)
                assert code == 2 and out == ""
                assert err.splitlines() == [
                    f"error: spec {kind!r} does not apply to {other.GROUP} elements"]
    code, _, err = run(capsys, "member", "--spec", "nope:1", "xp(")
    assert code == 2 and "unknown subgroup spec" in err


def test_member_hn_reports_each_coefficient_once(capsys):
    # ker π_2's bound and H_2's ring bound both fail at this one coefficient
    code, out, _ = run(capsys, "member", "--spec", "hn:2", "xm(1; 3)")
    assert code == 0
    assert out.splitlines() == ["false", "  violated: entry (2,1) u^1: ω = 1 < 2"]


def test_torus_kinds_answer_false_on_non_torus_elements(capsys):
    for kind in ("tn:1", "tnphi:1", "center", "centero"):
        code, out, err = run(capsys, "member", "--spec", kind, "xp(0; 1)")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "false", "  violated: not a torus element: off-diagonal entries present"]


def test_no_argument_spec_rejects_an_argument(capsys):
    for spec, expr in (("center:xyz", "s1 s1"), ("centerO:1", "s1 s1"),
                       ("tnunits:-7", "diag(2)"), ("bigcellO:0", "diag(2)")):
        code, out, err = run(capsys, "member", "--spec", spec, expr)
        name = spec.partition(":")[0].lower()
        assert code == 2 and out == "", spec
        assert err.splitlines() == [f"error: spec {name!r} takes no argument"]
    code, out, _ = run(capsys, "member", "--spec", "center", "s1 s1")
    assert code == 0 and out.strip() == "true"


def test_field_size_does_not_set_the_cost(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "mul", "--field", "fq:10000019", "xp(1)")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out.strip() == "[[1, 1], [0, 1]]"
    for field in ("p:1000000000000000003", "fq:1000000000000000003", "p:2147483648"):
        start = time.perf_counter()
        code, out, err = run(capsys, "mul", "--field", field, "xp(1)")
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "2^31 - 1" in err
    code, out, _ = run(capsys, "mul", "--field", "p:2147483647", "xp(1)")
    assert code == 0 and out.strip() == "[[1, 1], [0, 1]]"


def test_kp_witness_deep_word_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "kp-witness", "-n", "1000000", "--depth", "3000")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out.splitlines()[-2:] == ["beta[3000] = (2999, 3000) ht=5999",
                                                   "witness: 6"]


def test_vform_over_function_field_is_fast(capsys):
    """A 16-letter fq:3 vform draw whose largest u-exponent is 5: the dense
    linear solves this replaced took over 30 s of CPU on it."""
    word = ("t(-2, -6) xp(2; 1) t(2, 6) t(-2, -6) xm(2; 2*t^2) t(2, 6) "
            "t(-2, -6) xp(1; 1/(2+t)) t(2, 6) t(2, 6) xm(-2; t^3+2*t^4) t(-2, -6) "
            "t(2, 6) xm(0; (1+2*t)/(1+t)) t(-2, -6) torus(1+2*t^5+t^6; 1+t^5)")
    start = time.perf_counter()
    code, out, _ = run(capsys, "member", "--field", "fq:3", "--spec", "vform:1", word)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out.strip() == "true"


def test_rational_text_has_a_work_budget(capsys):
    """Fraction(text) would build 10^e for an exponent e (25 s for
    fixpoint:1e16000000); a spec argument and --coords take an integer, a/b
    or a finite decimal, and refuse an exponent at once."""
    for argv in (("member", "--field", "p:3", "--spec", "fixpoint:1e1000000", "diag(2)"),
                 ("member", "--field", "p:3", "--spec", "fixpoint:1e16000000", "diag(2)"),
                 ("tits", "--coords", "1e4000000,1")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
    for arg in ("1/2", "-3", "0.25"):
        code, out, _ = run(capsys, "member", "--field", "p:3", "--spec", f"fixpoint:{arg}",
                           "diag(2)")
        assert code == 0 and out.strip() in ("true", "false")
    assert sl2.parse_rational(" -7/2 ") == sl2.parse_rational("-3.5") == Fraction(-7, 2)
    for bad in ("1e3", "1E3", "1/2/3", "1 / 2", "/2", ".", "", "0x10", "1/-2"):
        with pytest.raises(ValueError):
            sl2.parse_rational(bad)


# SHA-256 of the concatenated `tits` outputs (text, and `--json`) for these
# coordinates, recorded before the Weyl-element matrices were removed: the
# words, the wall sets and the unclassified points may not change a byte.
TITS_COORDS = {
    "affine-sl2": ("0,0", "1,1", "-3,1", "5,1", "1/2,1", "7/3,2", "-10,1", "-100,1", "4,1",
                   "1,0", "3,-1"),
    "a1": ("1", "-2", "0", "1/3", "-5/2"),
}
TITS_DIGESTS = {
    ("affine-sl2", False): "ca9516e319085d9c3d99e40cd278d7d3dad1f60fec4bc76516b87ba695b0d548",
    ("affine-sl2", True): "da171d35712d509273c89f7dd1afd2765198f8f68516ac146a0cbb16c8986ea3",
    ("a1", False): "3b754ff9d66cc3ebdf4bc4805607e7f130b08b09027e3f165d72a4bf19c8745e",
    ("a1", True): "f46a049c77e20e567af70e4defc11f7798012dbb2a324edc186e5774cf3667bf",
}


@pytest.mark.parametrize("system,as_json", sorted(TITS_DIGESTS))
def test_tits_output_digest(capsys, system, as_json):
    text = ""
    for coords in TITS_COORDS[system]:
        code, out, _ = run(capsys, *(["--json"] if as_json else []),
                           "tits", "--system", system, f"--coords={coords}")
        assert code == 0
        text += out
    assert text.count("not classified" if not as_json else '"classified": false') == \
        (3 if system == "affine-sl2" else 0)
    assert hashlib.sha256(text.encode()).hexdigest() == TITS_DIGESTS[system, as_json]


# SHA-256 of the concatenated `member --json --spec vform:n` outputs on p:3
# for these words, first recorded before the u_+ and u_- pattern rules were
# folded into one: every violation message keeps its text and its order.
# Re-recorded when the pattern violations took the wording "ω = v < bound"
# of every other failed bound; deleting " = v" from each gives the first
# recording's text.
VFORM_WORDS = ("xp(0; 1)", "xm(0; 1)", "xp(1; 1)", "xm(1; 1)", "xp(-1; 1)", "xm(-1; 1)",
               "s1", "s0", "xp(2; 3) xm(-1; 1)", "t(1, 3) xm(0; 1) t(-1, -3)",
               "xm(2; 1/3) xp(-2; 27)", "xp(1; 9) xm(-1; 3) torus(4; 10)",
               "xm(1; 1) xp(0; 1)", "xp(-1; 1) xm(0; 1)",
               "xm(1; 27) xp(0; 9) xp(-1; 9) xm(0; 27)")
VFORM_DIGESTS = {
    1: "49ebca8ba0269fa56ccfad24753980cb07634902ef46bff826c5c7da54e3021d",
    2: "a07b0472c18c4f028419b20d1cc2efc355fea8eb0804d1c81ce847de56bf7230",
}


@pytest.mark.parametrize("level", sorted(VFORM_DIGESTS))
def test_member_vform_output_digest(capsys, level):
    text = ""
    for word in VFORM_WORDS:
        code, out, _ = run(capsys, "--json", "member", "--spec", f"vform:{level}", word)
        assert code == 0
        text += out
    assert "u_+ entry" in text and "u_- entry" in text
    assert hashlib.sha256(text.encode()).hexdigest() == VFORM_DIGESTS[level]


def test_unreadable_fixture_is_a_validation_error(capsys, tmp_path):
    # reading a --system fixture fails as a bad input: exit 2, the OS message
    for path in (tmp_path / "nope.json", tmp_path):
        code, out, err = run(capsys, "roots", "--system", str(path), "--height", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: [Errno ")
        assert str(path) in err and "cannot write output" not in err


def _python(*args, timeout=60, **kwargs):
    """Run a fresh interpreter that imports kmtop from this tree."""
    src = os.path.dirname(os.path.dirname(kmtop.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout, **kwargs)


def _kmtop(*argv, stdout, timeout=60):
    """Run the CLI in a fresh interpreter; (exit code, stderr text)."""
    done = _python("-m", "kmtop.cli", *argv, stdout=stdout, stderr=subprocess.PIPE,
                   timeout=timeout)
    return done.returncode, done.stderr.decode()


def test_failed_write_exits_one_without_traceback():
    """A write of the output that fails is not a bad input: one line, exit 1,
    and no second report when the interpreter flushes stdout on exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)                   # every write to the pipe is a broken pipe
    try:
        code, err = _kmtop("roots", "--height", "30", stdout=write_end)
    finally:
        os.close(write_end)
    assert code == 1 and err == "error: cannot write output: [Errno 32] Broken pipe\n"
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full to fill")
    with open("/dev/full", "wb") as full:
        code, err = _kmtop("verify", "--suite", "commutation", "--trials", "3", stdout=full)
    assert code == 1
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"


def test_failed_write_in_process(capsys, monkeypatch):
    class Full:
        def write(self, _):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

    monkeypatch.setattr("sys.stdout", Full())
    code = main(["roots", "--height", "3"])
    err = capsys.readouterr().err
    assert code == 1 and err == "error: cannot write output: [Errno 28] No space left on device\n"


# A power of a 16-factor product of degree 48: the power's result has degree
# 48000, which the exponent limit alone let through.
PRODUCT_POWER = "xp((" + "*".join(["(1+t+2*t*t+t*t*t)"] * 16) + ")^1000)"


def test_exponent_budget_is_checked_before_the_power(capsys):
    """|k| > 1000 in x^k is a validation error before x^k is computed;
    (1+t)^200000 alone took over 20 s.  Nested powers count the product of
    their exponents: ((1+t)^1000)^1000 ran past 15 s.  An F_q(t) base counts
    |k| times its degree."""
    start = time.perf_counter()
    for field, expr in (("fq:3", "xp((1+t)^200000)"), ("fq:3", "xp(t^-200000)"),
                        ("p:3", "xp(3^200000)"), ("p:3", "xp(3^1001)"),
                        ("fq:3", "xp(((1+t)^1000)^1000)"), ("fq:5", PRODUCT_POWER),
                        ("fq:3", "xp((1+t+t*t)^1000)"), ("fq:3", "xp((1+t+t^2)^1000)")):
        code, out, err = run(capsys, "mul", "--field", field, expr)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: exponent ")
        assert "exceeds the limit of 1000" in err
    assert time.perf_counter() - start < 1.0
    for field, expr in (("fq:3", "xp((1+t)^1000)"), ("p:3", "xp(3^-1000)"),
                        ("fq:3", "xp(((1+t)^10)^100)")):
        code, _, _ = run(capsys, "mul", "--field", field, expr)
        assert code == 0


def test_degree_budget_message(capsys):
    code, _, err = run(capsys, "mul", "--field", "fq:5", PRODUCT_POWER)
    assert code == 2
    assert err == "error: exponent 1000 of a degree-48 base exceeds the limit of 1000\n"


def test_char_powers_have_a_work_budget(capsys):
    """char m n computes f^2m·z^n; the exponent budget of the parser is
    checked first, so char 1000000 0 on fq:3, which ran past 100 s, ends at
    once.  A degree-d base counts |k|·d."""
    start = time.perf_counter()
    for field, argv, message in (
            ("fq:3", ("1000000", "0", "torus(1+t; 1)"), "exponent 2000000 exceeds"),
            ("p:3", ("0", "-1001", "torus(2; 3)"), "exponent -1001 exceeds"),
            ("fq:3", ("300", "0", "torus(1+t^2; 1)"), "exponent 600 of a degree-2 base exceeds")):
        code, out, err = run(capsys, "char", "--field", field, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message} the limit of 1000\n"
    assert time.perf_counter() - start < 1.0
    code, out, _ = run(capsys, "char", "--field", "fq:3", "500", "1000", "torus(1+t; t)")
    assert code == 0 and out.startswith("t^1000+t^1001+")       # (1+t)^1000·t^1000


# One argv per place an integer literal is converted: the tokenizer (in an
# expression and in a point's rational), a --spec level or rational, a
# rational --coords entry and a --field prime.
LONG_NUMBER = "1" * 5000
LONG_LITERALS = (
    ("mul", f"xp({LONG_NUMBER})"),
    ("member", "--spec", f"hn:{LONG_NUMBER}", "xp(1; 1)"),
    ("mul", f"point(xp(1), {LONG_NUMBER}/2)"),
    ("member", "--spec", f"fixpoint:{LONG_NUMBER}", "xp(1)"),
    ("member", "--spec", f"fixpoint:{LONG_NUMBER}/2", "xp(1)"),
    ("tits", "--coords", f"{LONG_NUMBER},1"),
    ("mul", "--field", f"p:{LONG_NUMBER}", "xp(1)"),
)


@pytest.mark.parametrize("argv", LONG_LITERALS, ids=["expr", "spec", "point", "fixpoint",
                                                     "fixpoint-ratio", "coords", "field"])
def test_integer_literals_past_the_digit_limit_are_named(capsys, argv):
    """int() refuses more than sys.get_int_max_str_digits() digits with a
    message naming an interpreter setting; the input is refused first, with
    the digit count and the limit."""
    code, out, err = run(capsys, *argv)
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert err.endswith(f"a number of 5000 digits exceeds the limit of {limit} digits\n"), err


def test_the_digit_limit_counts_each_number_apart(capsys):
    """The limit is int()'s, per run of digits: a/b of 3000 digits each is
    6001 characters, and both parts convert."""
    half = "1" * 3000
    assert run(capsys, "member", "--spec", f"fixpoint:{half}/{half}", "xp(1)")[:2] == (0, "true\n")
    assert run(capsys, "tits", "--coords", f"{half}/{half},3")[:2] == (0, "word: e\nwalls: []\n")


@pytest.mark.parametrize("expr", ["xp(" + "7" * 3000 + "*" + "7" * 3000 + ")",
                                  "t(1000, 1000) " * 100], ids=["product", "word"])
def test_a_result_past_the_digit_limit_is_named(capsys, expr):
    """Each literal is under the limit, but the result is not: printing it
    is refused with the limit, where str() would name the interpreter
    setting sys.set_int_max_str_digits."""
    code, out, err = run(capsys, "mul", "--field", "p:3", expr)
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == ""
    assert err == f"error: a result of more than {limit} digits exceeds the limit of {limit} digits\n"


@pytest.mark.parametrize("expr", ["point(diag(1/3), {nines})", "point(diag(3) xm(1), -{nines})"],
                         ids=["positive", "negative"])
def test_a_retraction_past_the_digit_limit_is_named(capsys, expr):
    """y has as many digits as the limit allows, and the coordinate, 1 + y
    (resp. −1 + y), one more: it is refused with the limit, where str()
    would name the interpreter setting."""
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "retract", expr.format(nines="9" * limit))
    assert code == 2 and out == ""
    assert err == f"error: a result of more than {limit} digits exceeds the limit of {limit} digits\n"


@pytest.mark.parametrize("kind,expr", [("fixpoint", "w"), ("hn", "xp(2; 1)"), ("vform", "xp(0; 1)")],
                         ids=["fixpoint", "hn", "vform"])
def test_a_violated_bound_past_the_digit_limit_is_named(capsys, kind, expr):
    """The level y or n has as many digits as the limit allows, and the
    violated bound one more: w fails fixpoint:y at ω(c) = 0 < 2y, xp(2; 1)
    fails hn:n at its u^2 coefficient, ω = 0 < 2n, and xp(0; 1) fails vform:n
    at u_+'s u^0 coefficient, ω = 0 < ⟨å, nλ⟩ = 2n."""
    limit = sys.get_int_max_str_digits()
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, *json_flag, "member", "--spec", f"{kind}:{'9' * limit}", expr)
        assert code == 2 and out == ""
        assert err == f"error: a result of more than {limit} digits exceeds the limit of {limit} digits\n"


NINES_400 = int("9" * 400)
NINES_4299 = int("9" * 4299)


@pytest.mark.parametrize("expr,coordinate", [
    (f"point(xp(1/3), {NINES_400})", NINES_400),
    (f"point(w, {NINES_4299})", -NINES_4299),
    (f"point(diag(1/3), {NINES_4299})", 10 ** 4299),
], ids=["c=0", "d=0", "c=0-limit"])
def test_retract_takes_a_coordinate_of_any_length(capsys, expr, coordinate):
    """A zero bottom-row entry bounds nothing: the retraction is read from
    the other entry alone, exactly, where ω(0) − y used to overflow a float."""
    code, out, err = run(capsys, "retract", expr)
    assert (code, err) == (0, "")
    assert out == f"{coordinate}\n"


# One row per wording of a failed valuation bound, as `member` printed them
# before the checks were shared by sl2.bound_violations, and the vform
# pattern and tnphi bounds, which print the valuation as the others do:
# (field, spec, expression, violations), no violation meaning a member.
VIOLATION_WORDINGS = (
    ('p:3', 'kerpi:2', 'xp(3) diag(4)', ('ω(a-1) = 1 < 2', 'ω(b) = 1 < 2', 'ω(d-1) = 1 < 2')),
    ('p:3', 'kerpi:1', 'xp(1/3) xm(1)', ('ω(a-1) = -1 < 1', 'ω(b) = -1 < 1', 'ω(c) = 0 < 1')),
    ('p:3', 'kerpi:3', 'diag(10)', ('ω(a-1) = 2 < 3', 'ω(d-1) = 2 < 3')),
    ('p:3', 'tn:2', 'diag(4)', ('ω(δ-1) = 1 < 2',)),
    ('p:3', 'tn:1', 'diag(2)', ('ω(δ-1) = 0 < 1',)),
    ('p:3', 'tnunits', 'diag(3)', ('ω(δ) = 1 != 0',)),
    ('p:3', 'tn:1', 'xp(1)', ('not diagonal',)),
    ('p:3', 'vlambda:1', 'xp(1/3) xm(1)', ('ω(b) = -1 < 2', 'ω(c) = 0 < 2')),
    ('p:3', 'vlambda:2', 'xp(9) xm(27) diag(4)', ('ω(b) = 2 < 4', 'ω(c) = 3 < 4', 'ω(δ-1) = 1 < 8')),
    ('p:3', 'vlambda:1', 'w', ('not in the big cell',)),
    ('p:3', 'fixpoint:1/2', 'w', ('ω(c) = 0 < 1',)),
    ('p:3', 'fixpoint:-3/2', 'xp(1)', ('ω(b) = 0 < 3',)),
    ('p:3', 'fixpoint:1/3', 'diag(1/3)', ('ω(a) = -1 < 0',)),
    ('p:3', 'fixpoint:0', 'xp(1/3) xm(1/3)', ('ω(a) = -2 < 0', 'ω(b) = -1 < 0', 'ω(c) = -1 < 0')),
    ('p:3', 'fixpoint:1/3', 'w', ('ω(c) = 0 < 2/3',)),
    ('p:3', 'fixpoint:-1/4', 'xp(1)', ('ω(b) = 0 < 1/2',)),
    ('p:3', 'kerpi:1', 'xp(3)', ()),
    ('p:3', 'bigcello', 'xp(1/3) xm(1/9)', ('ω(b) = -1 < 0', 'ω(c) = -2 < 0')),
    ('p:3', 'bigcello', 'diag(3)', ('ω(δ) = 1 != 0',)),
    ('p:3', 'bigcello', 'w', ('not in the big cell',)),
    ('p:3', 'tn:2', 'torus(4; 4)', ('ω(f-1) = 1 < 2', 'ω(z-1) = 1 < 2')),
    ('p:3', 'tn:1', 'torus(2; 1)', ('ω(f-1) = 0 < 1',)),
    ('p:3', 'tnphi:2', 'torus(1; 4)', ('ω(α0(t)-1) = 1 < 2',)),
    ('p:3', 'tnphi:2', 'torus(2; 1)', ('ω(α0(t)-1) = 1 < 2', 'ω(α1(t)-1) = 1 < 2')),
    ('p:3', 'kerpi:2', 'xp(0; 3) torus(1; 4)', ('entry (1,2) u^0: ω = 1 < 2', 'ω(z-1) = 1 < 2')),
    ('p:3', 'kerpi:1', 'xm(1; 1/3)', ('entry (2,1) u^1: ω = -1 < 1',)),
    ('p:3', 'hn:1', 'xp(2; 3) torus(1; 2)', ('entry (1,2) u^2: ω = 1 < 2', 'ω(z-1) = 0 < 1')),
    ('p:3', 'hn:2', 'xm(-1; 9) t(1, 0)', ('entry (1,1) u^0: ω = -1 < 2', 'entry (2,1) u^-1: ω = 1 < 2', 'entry (2,2) u^0: ω = 0 < 2')),
    ('p:3', 'vform:1', 'torus(1; 4)', ('ω(z-1) = 1 < 2',)),
    ('p:3', 'vform:1', 'torus(4; 1)', ('torus factor: ω(f-1) = 1 < 2',)),
    ('p:3', 'vform:1', 'xp(0; 1/3)', ('u_+ entry (1,2) u^0: ω = -1 < 2',)),
    ('p:3', 'vform:1', 'xm(-1; 1)', ('u_- entry (2,1) u^-1: ω = 0 < 5',)),
    ('fq:3', 'kerpi:2', 'xp(t) diag(1+t)', ('ω(a-1) = 1 < 2', 'ω(b) = 1 < 2', 'ω(d-1) = 1 < 2')),
    ('fq:3', 'kerpi:1', 'xp(1/t) xm(1)', ('ω(a-1) = -1 < 1', 'ω(b) = -1 < 1', 'ω(c) = 0 < 1')),
    ('fq:3', 'tn:2', 'diag(1+t)', ('ω(δ-1) = 1 < 2',)),
    ('fq:3', 'tnunits', 'diag(t)', ('ω(δ) = 1 != 0',)),
    ('fq:3', 'vlambda:1', 'xp(1/t) xm(1)', ('ω(b) = -1 < 2', 'ω(c) = 0 < 2')),
    ('fq:3', 'vlambda:2', 'xp(t^2) xm(t^3) diag(1+t)', ('ω(b) = 2 < 4', 'ω(c) = 3 < 4', 'ω(δ-1) = 1 < 8')),
    ('fq:3', 'fixpoint:1/2', 'w', ('ω(c) = 0 < 1',)),
    ('fq:3', 'fixpoint:-3/2', 'xp(1)', ('ω(b) = 0 < 3',)),
    ('fq:3', 'fixpoint:1/3', 'diag(1/t)', ('ω(a) = -1 < 0',)),
    ('fq:3', 'bigcello', 'xp(1/t) xm(1/t^2)', ('ω(b) = -1 < 0', 'ω(c) = -2 < 0')),
    ('fq:3', 'bigcello', 'diag(t)', ('ω(δ) = 1 != 0',)),
    ('fq:3', 'fixpoint:1/3', 'w', ('ω(c) = 0 < 2/3',)),
    ('fq:3', 'tn:1', 'diag(1+t)', ()),
    ('fq:3', 'tn:2', 'torus(1+t; 1+t)', ('ω(f-1) = 1 < 2', 'ω(z-1) = 1 < 2')),
    ('fq:3', 'tn:1', 'torus(2; 1)', ('ω(f-1) = 0 < 1',)),
    ('fq:3', 'tnphi:3', 'torus(1+t^2; 1+t)', ('ω(α0(t)-1) = 1 < 3', 'ω(α1(t)-1) = 2 < 3')),
    ('fq:3', 'kerpi:2', 'xp(0; t) torus(1; 1+t)', ('entry (1,2) u^0: ω = 1 < 2', 'ω(z-1) = 1 < 2')),
    ('fq:3', 'hn:1', 'xp(2; t) torus(1; 2)', ('entry (1,2) u^2: ω = 1 < 2', 'ω(z-1) = 0 < 1')),
    ('fq:3', 'hn:2', 'xm(-1; t^2) t(1, 0)', ('entry (1,1) u^0: ω = -1 < 2', 'entry (2,1) u^-1: ω = 1 < 2', 'entry (2,2) u^0: ω = 0 < 2')),
    ('fq:3', 'vform:1', 'torus(1; 1+t)', ('ω(z-1) = 1 < 2',)),
    ('fq:3', 'vform:1', 'torus(1+t; 1)', ('torus factor: ω(f-1) = 1 < 2',)),
    ('fq:3', 'vform:1', 'xp(0; 1/t)', ('u_+ entry (1,2) u^0: ω = -1 < 2',)),
)


@pytest.mark.parametrize("field,spec,expr,violations", VIOLATION_WORDINGS,
                         ids=[f"{f} {s} {e}" for f, s, e, _ in VIOLATION_WORDINGS])
def test_violation_wordings(capsys, field, spec, expr, violations):
    argv = ("member", "--field", field, "--spec", spec, expr)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["false" if violations else "true",
                                *(f"  violated: {v}" for v in violations)]
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert json.loads(out) == {"schema": 1, "command": "member",
                               "member": not violations, "violations": list(violations)}


# A hyperbolic rank-3 system: 211710 roots up to height 10000, and the count
# grows exponentially with the height, past roots.MAX_ROOTS.
HYPERBOLIC_RANK3 = {"cartan": [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]], "rank": 3,
                    "simple_roots": [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]],
                    "simple_coroots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def test_roots_budget(capsys, tmp_path):
    fixture = tmp_path / "hyperbolic.json"
    fixture.write_text(json.dumps(HYPERBOLIC_RANK3))
    for height in (10000, 100000):
        code, out, err = run(capsys, "roots", "--system", str(fixture), "--height", str(height))
        assert code == 2 and out == ""
        assert err == f"error: more than 20000 roots up to height {height}\n"
    code, out, _ = run(capsys, "roots", "--system", str(fixture), "--height", "30")
    assert code == 0 and out.endswith("total: 246\n")
    code, out, _ = run(capsys, "roots", "--height", "4000")
    assert code == 0 and out.endswith("total: 8000\n")


def test_budgets_hold_in_a_fresh_interpreter(tmp_path):
    """The two budget inputs above, each in its own interpreter under a
    10 s timeout, so a budget that stops holding fails instead of hanging."""
    fixture = tmp_path / "hyperbolic.json"
    fixture.write_text(json.dumps(HYPERBOLIC_RANK3))
    for argv in (("mul", "--field", "fq:5", PRODUCT_POWER),
                 ("roots", "--system", str(fixture), "--height", "100000")):
        code, err = _kmtop(*argv, stdout=subprocess.DEVNULL, timeout=10)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_tits_max_steps_is_capped(capsys):
    """--max-steps above roots.MAX_STEPS is a validation error before any
    step; 10^8 steps ran past 20 s."""
    start = time.perf_counter()
    code, out, err = run(capsys, "tits", "--max-steps", "100000000",
                         "--coords=-1000000000,1")
    assert code == 2 and out == ""
    assert err == "error: max_steps 100000000 exceeds the limit of 10000\n"
    assert time.perf_counter() - start < 1.0
    code, out, _ = run(capsys, "tits", "--max-steps", "10000", "--coords=-1000000000,1")
    assert code == 0 and out == "not classified\n"


def test_kp_witness_depth_is_capped(capsys):
    """--depth above affine.MAX_DEPTH is a validation error before any step;
    the cost grows linearly (depth 100000 took 0.36 s and printed 3.8 MB)."""
    start = time.perf_counter()
    code, out, err = run(capsys, "kp-witness", "-n", "1", "--depth", "1000000000")
    assert code == 2 and out == ""
    assert err == "error: depth 1000000000 exceeds the limit of 10000\n"
    assert time.perf_counter() - start < 1.0
    code, out, _ = run(capsys, "kp-witness", "-n", "1", "--depth", str(affine.MAX_DEPTH))
    assert code == 0 and out.splitlines()[-2:] == ["beta[10000] = (9999, 10000) ht=19999",
                                                   "witness: 2"]


def test_generator_integer_arguments_are_capped(capsys):
    """|l|, |n| in t(l, n) and |k| in xp(k; c), xm(k; c) above
    exprs.MAX_EXPONENT are a validation error from the parser; t(10^7, 0)
    computed 3^(10^7) for 1.8 s and then failed to print it."""
    start = time.perf_counter()
    for expr, arg in (("t(10000000, 0)", "t argument 10000000"),
                      ("t(0, -1001)", "t argument -1001"),
                      ("xp(1001; 1)", "xp argument 1001"),
                      ("xp(1; 3) xm(-5000; 1)", "xm argument -5000")):
        code, out, err = run(capsys, "mul", expr)
        assert code == 2 and out == ""
        assert err == f"error: {arg} exceeds the limit of 1000\n"
    assert time.perf_counter() - start < 1.0
    for expr in ("t(1000, -1000)", "xp(-1000; 1) xm(1000; 1)"):
        code, _, _ = run(capsys, "mul", expr)
        assert code == 0


# Every integer option, each given the digits of another script or a form
# int() accepts beyond an optional '-' and ASCII digits.
NON_ASCII_INT_OPTIONS = (
    ("roots", "--height", "٣"),
    ("roots", "--height", "+3"),
    ("roots", "--height", "1_0"),
    ("char", "٢", "0", "t(1, 0)"),
    ("char", "1", "²", "t(1, 0)"),
    ("kp-witness", "-n", "٣"),
    ("kp-witness", "-n", "1", "--depth", "١٢"),
    ("verify", "--suite", "commutation", "--seed", "٤٢"),
    ("verify", "--suite", "commutation", "--trials", "٣"),
    ("tits", "--max-steps", "٦٤", "--coords", "1,3"),
)


@pytest.mark.parametrize("argv", NON_ASCII_INT_OPTIONS)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    """int("٣") is 3, so roots --height ٣ printed total: 8; every integer
    option now refuses such text as a usage error."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "invalid int value" in err, err


def test_integer_options_take_a_leading_minus(capsys):
    code, out, _ = run(capsys, "char", "-1", "0", "torus(3; 1)")
    assert code == 0 and out == "1/9\n"
    code, out, _ = run(capsys, "verify", "--suite", "commutation", "--seed=-5", "--trials", "2")
    assert code == 0 and out.startswith("commutation: pass")


# Each call sets something (a flag, a field, a usage or validation error)
# that the call after it must not see.
REUSE_SEQUENCE = (
    ("--json", "roots", "--height", "3"),
    ("roots", "--height", "3"),
    ("member", "--field", "fq:3", "--spec", "hn:1", "xp(1; t)"),
    ("member", "--spec", "hn:1", "xp(1; 3)"),
    ("frobnicate",),
    ("member", "xp(1; 3)"),
    ("mul", "xp(1; 3)"),
    ("kp-witness", "-n", "1", "--depth", "1000000000"),
    ("verify", "--suite", "hausdorff", "--trials", "2"),
)


def test_one_parser_per_process_leaks_no_state(capsys):
    """main parses every call of a process with one parser: each call of the
    sequence answers byte for byte as it does in a fresh interpreter."""
    for argv in REUSE_SEQUENCE:
        done = _python("-m", "kmtop.cli", *argv, capture_output=True, text=True)
        assert run(capsys, *argv) == (done.returncode, done.stdout, done.stderr), argv


IMPORT_THEN_VERIFY = """
import contextlib, hashlib, io, sys
before = set(sys.modules)
import kmtop.cli
loaded = {"kmtop.harness", "dataclasses"} & (set(sys.modules) - before)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = kmtop.cli.main(["verify", "--suite", "all", "--field", "p:3",
                           "--seed", "42", "--trials", "8"])
print(",".join(sorted(loaded)) or "-", code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
      "dataclasses" in sys.modules)
"""


def test_importing_the_cli_leaves_the_harness_to_verify():
    """Importing kmtop.cli loads neither the verification harness nor
    dataclasses; verify loads the harness, prints the digest-pinned report
    and still leaves dataclasses unloaded."""
    done = _python("-c", IMPORT_THEN_VERIFY, capture_output=True, text=True)
    assert done.stdout.split() == ["-", "0", VERIFY_DIGESTS["p:3", False], "False"], done.stderr


def test_verify_matches_the_benchmark_reference_digest(capsys):
    """The report the benchmark checks against kmbench/reference.json, so a
    change that would fail its correctness gate fails here first."""
    with open(os.path.join(os.path.dirname(__file__), "..", "kmbench", "reference.json")) as fh:
        ref = json.load(fh)
    for field, digest in ref["verify_sha256"].items():
        code, out, _ = run(capsys, "--json", "verify", "--suite", "all", "--field", field,
                           "--seed", str(ref["seed"]), "--trials", str(ref["trials"]))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# tests/output_digest.py's line: a change that means to alter an output
# re-records it and says why.
OUTPUT_DIGEST = "4024 4afb5e7333deaa8020d51497633919f98608b8ffc945ec4b4034de85bc24835c"


def test_output_digest_of_4024_runs(monkeypatch):
    """The hash of tests/output_digest.py over every cli-mix command of two
    seeds and verify on six fields, each as text and as JSON, in-process.
    Each run's hash is also compared with tests/output_digest_index.txt, so
    a failure names the runs whose outputs changed."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave kmbench/ untouched
    spec = importlib.util.spec_from_file_location(
        "output_digest", Path(__file__).with_name("output_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    line, runs = module.digest()
    report = module.changes(runs)
    assert not report, report
    assert line == OUTPUT_DIGEST


def test_ab_inprocess_alternates_two_trees_and_stops_on_a_difference(monkeypatch):
    """tests/ab_inprocess.py loads a src tree under a second package name,
    times both trees on every seed, refuses outputs that differ, and prints
    each tree's median call time between its first and third quartiles; its
    cli-mix mode times whole passes of the mix and names the first command
    whose outputs differ."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "ab_inprocess", Path(__file__).with_name("ab_inprocess.py"))
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    src = str(Path(__file__).resolve().parent.parent / "src")
    other = ab.load_cli(src, "kmtop_ab_twin")
    assert other.__name__ == "kmtop_ab_twin.cli" and other is not kmtop.cli
    old_s, new_s = ab.compare(kmtop.cli, other, range(2))
    assert len(old_s) == len(new_s) == 2 and min(old_s + new_s) > 0
    report = ab.summary(range(2), old_s, new_s)
    for name, times in (("old", old_s), ("new", new_s)):
        q1, q2, q3 = (f"{statistics.quantiles(times, n=4, method='inclusive')[i] * 1e3:.1f}"
                      for i in range(3))
        assert f"{name} {q2} ms [{q1}, {q3}]" in report
    assert "quartile spread" in report and "seeds 0-1: 2 calls per tree" in report

    class Louder:
        @staticmethod
        def main(argv):
            print("other bytes")
            return 0

    with pytest.raises(AssertionError, match="outputs differ at seed 0"):
        ab.compare(kmtop.cli, Louder, range(2))

    # cli-mix: the first commands of kmbench/mix.py's passes, timed as one unit
    old_s, new_s = ab.compare(kmtop.cli, other, range(1, 3), "cli-mix", commands=20)
    assert len(old_s) == len(new_s) == 2 and min(old_s + new_s) > 0
    report = ab.summary(range(1, 3), old_s, new_s, "cli-mix")
    assert report.startswith("cli-mix on p:3, seeds 1-2: 2 passes per tree, identical outputs")
    assert "\npass time, median [q1, q3]: old " in report
    argvs = ab.mix_argvs(1)
    assert len(argvs) == 1000 and all("--json" in argv for argv in argvs)

    class QuieterAtFive:
        @staticmethod
        def main(argv):
            return 0 if argv == argvs[5] else kmtop.cli.main(argv)

    with pytest.raises(AssertionError, match=r"outputs differ at seed 1, command 5: \["):
        ab.compare(kmtop.cli, QuieterAtFive, range(1, 2), "cli-mix", commands=20)


# Every help text and these usage errors, as kmtop prints them at 80 columns;
# tests/cli_usage.txt holds the text recorded before the command table was
# declared once, so the parser it builds may not change a byte.
USAGE_ARGVS = (
    ("--help",),
    *((name, "--help") for name in ("roots", "char", "mul", "member", "decompose", "retract",
                                    "fix-interval", "nu", "kp-witness", "verify", "tits")),
    ("frobnicate",),
    ("member", "xp(1; 3)"),
    ("kp-witness",),
    ("roots", "--height", "x"),
    ("tits",),
)


def _usage_transcript(capsys, argv) -> str:
    try:
        code = main(list(argv))
    except SystemExit as exc:       # --help prints and exits
        code = exc.code
    captured = capsys.readouterr()
    return (f"$ kmtop {' '.join(argv)}\n[exit {code}]\n"
            f"--- stdout\n{captured.out}--- stderr\n{captured.err}")


def test_help_and_usage_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = "".join(_usage_transcript(capsys, argv) for argv in USAGE_ARGVS)
    with open(os.path.join(os.path.dirname(__file__), "cli_usage.txt"), encoding="utf-8") as fh:
        assert got == fh.read()
