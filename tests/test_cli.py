import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import e8theta
from e8theta.cli import run
from e8theta.fixtures import FixedPoint, FixedPointFixture, IndexFlavor, save_fixture


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_e8_dims(capsys):
    code, out, _ = invoke(capsys, "e8", "dims", "--order", "3")
    assert code == 0
    assert out.strip() == "1 248 4124 34752"


def test_e8_theta_beta_zero(capsys):
    code, out, _ = invoke(capsys, "e8", "theta", "--order", "2")
    assert code == 0
    assert "240*q" in out


def test_e8_identity(capsys):
    code, out, _ = invoke(capsys, "e8", "identity", "--order", "2", "--random", "2")
    assert code == 0
    assert "pass" in out


def test_theta_expand(capsys):
    code, out, _ = invoke(capsys, "theta", "expand", "--kind", "theta3", "--order", "2")
    assert code == 0
    assert "q^(1/2)" in out


def test_theta_check(capsys):
    code, out, _ = invoke(capsys, "theta", "check", "--tol", "1e-9")
    assert code == 0
    # five Jacobi samples + 4 kinds x (T, S, two lattice shifts)
    assert out.count("Jacobi identity") == 5
    assert out.count("lattice") == 8
    assert "fail" not in out


def test_index_check_sphere(capsys):
    code, out, _ = invoke(capsys, "index", "check", "--fixture", "s2.json", "--order", "5")
    assert code == 0
    assert "VANISHING (branch i, n=-1): consistent" in out


def test_index_expand_single_point(capsys):
    code, out, _ = invoke(
        capsys, "index", "expand", "--fixture", "single_point", "--order", "1"
    )
    assert code == 0
    assert "w" in out


def test_index_transform_reports_resolution(capsys):
    code, out, _ = invoke(
        capsys, "index", "transform", "--fixture", "cp1_spinc", "--a", "2", "--b", "0"
    )
    assert code == 0
    assert "lattice law resolved: standard exponent" in out


def test_classify_cp2(capsys):
    code, out, _ = invoke(capsys, "classify", "--fixture", "cp2", "--order", "1")
    assert code == 0
    assert "INDETERMINATE" in out
    assert "no prediction" in out


def test_classify_flavor_override(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--fixture", "cp1_spinc", "--flavor", "J", "--order", "2"
    )
    assert code == 0
    assert "RIGID (branch ii, n=0): consistent" in out


def test_exit_codes_usage_errors(capsys, tmp_path):
    assert invoke(capsys, "nope")[0] == 2
    assert invoke(capsys, "index", "check", "--fixture", "missing_file.json")[0] == 2
    assert invoke(capsys, "e8", "theta", "--beta", "1,2")[0] == 2
    # options that nothing read are gone
    assert invoke(capsys, "e8", "dims", "--budget", "1000000")[0] == 2
    assert invoke(capsys, "index", "check", "--fixture", "s2", "--tol", "5")[0] == 2
    assert invoke(capsys, "index", "transform", "--fixture", "s2", "--order", "3")[0] == 2
    assert invoke(capsys, "theta", "check", "--order", "0")[0] == 2
    assert invoke(capsys, "theta", "expand", "--sum-form")[0] == 2
    # a tolerance or a count no check can use is a usage error, not a verdict
    for argv in (
        ("theta", "check", "--tol", "nan"),
        ("theta", "check", "--tol", "-1"),
        ("theta", "check", "--tol", "0"),
        ("theta", "check", "--tol", "inf"),
        ("index", "transform", "--fixture", "cp1_spinc", "--tol", "nan"),
        ("index", "transform", "--fixture", "cp1_spinc", "--tol", "-1"),
        ("e8", "identity", "--random", "-3"),
        ("e8", "identity", "--random", "2.5"),
        ("e8", "identity", "--random", "1001"),
    ):
        assert invoke(capsys, *argv)[0] == 2, argv
    for command in (("index", "check"), ("classify",)):
        code, _, err = invoke(capsys, *command, "--fixture", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")
    # a fixture beta entry past the bound is an input error naming the field
    wide = tmp_path / "wide_beta.json"
    wide.write_text('{"k": 1, "points": [{"alpha": [1], "beta": [31, 0, 0, 0, 0, 0, 0, 0]}]}')
    code, _, err = invoke(capsys, "index", "expand", "--fixture", str(wide))
    assert code == 2
    assert err.startswith("error:") and "points[0].beta" in err
    assert len(err.strip().splitlines()) == 1
    # every --order is bounded: above the bound (or below 0) the command
    # exits 2 with one line naming the bound
    for command, bound in (
        (("index", "expand", "--fixture", "s2"), 30),
        (("index", "check", "--fixture", "s2"), 30),
        (("classify", "--fixture", "s2"), 30),
        (("theta", "expand"), 200),
    ):
        for order in (bound + 1, 100000, -1):
            code, _, err = invoke(capsys, *command, "--order", str(order))
            assert code == 2, (command, order)
            assert err.startswith("error:") and f"0..{bound}" in err, err
            assert len(err.strip().splitlines()) == 1
    # a summand on a zero of theta(alpha t), an overflowing evaluation, or a
    # point that is not finite
    for point in (
        ("--t", "0"),
        ("--tau=1e-300j",),
        ("--t=-300j",),
        ("--t=nan",),
        ("--t=inf",),
        ("--tau=nanj",),
    ):
        code, _, err = invoke(capsys, "index", "transform", "--fixture", "cp1_spinc", *point)
        assert code == 2
        assert err.startswith("error:") and "t=" in err and "tau=" in err
        assert len(err.strip().splitlines()) == 1


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(e8theta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "e8theta.cli", "e8", "dims", "--order", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 248 4124"


def test_exit_code_e8_order_bound(capsys):
    for command in (("e8", "dims"), ("e8", "theta"), ("e8", "identity")):
        code, _, err = invoke(capsys, *command, "--order", "11")
        assert code == 2
        assert err.startswith("error:") and "10" in err


def test_verification_failure_exits_one(tmp_path, capsys):
    bad = FixedPointFixture(
        k=1,
        points=(FixedPoint((1,), 0), FixedPoint((2,), 0)),
        label="anomaly-inconsistent control",
    )
    path = tmp_path / "bad.json"
    save_fixture(bad, IndexFlavor.I_SERIES, path)
    code, out, _ = invoke(capsys, "index", "check", "--fixture", str(path), "--order", "1")
    assert code == 1
    assert "INDETERMINATE" in out


def test_json_reports_are_deterministic(capsys):
    code1, out1, _ = invoke(
        capsys, "--format", "json", "index", "check", "--fixture", "s2", "--order", "2"
    )
    code2, out2, _ = invoke(
        capsys, "--format", "json", "index", "check", "--fixture", "s2", "--order", "2"
    )
    assert code1 == code2 == 0
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', s)
    assert strip(out1) == strip(out2)
    payload = json.loads(out1)
    assert payload["command"] == "index check"
    assert payload["verdict"].startswith("VANISHING")
    assert {"order", "n", "k"} <= set(payload["meta"])
    for item in payload["items"]:
        assert {"name", "status"} <= set(item)


def test_json_meta_has_tolerance(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "theta", "check")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["tol"] == 1e-9


def test_theta_check_applies_the_stated_tolerance_to_every_item(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "theta", "check", "--tol", "1e-20")
    assert code == 1
    payload = json.loads(out)
    assert payload["meta"]["tol"] == 1e-20
    assert len(payload["items"]) == 21
    for item in payload["items"]:
        expected = "pass" if item["residual"] < 1e-20 else "fail"
        assert item["status"] == expected, item
    # the Jacobi residuals are ~1e-15, so none passes a tolerance of 1e-20
    jacobi = [i for i in payload["items"] if i["name"].startswith("Jacobi identity")]
    assert len(jacobi) == 5
    assert all(i["status"] == "fail" for i in jacobi)


def test_readme_commands_run(capsys):
    """Each `e8theta ...` line of README's "Command line" block exits 0 and
    prints the quoted output its comment promises, if any."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    ran = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if not argv:
            continue
        assert argv[0] == "e8theta", line
        code, out, err = invoke(capsys, *argv[1:])
        assert code == 0, (line, err)
        promised = re.search(r'"([^"]*)"', comment)
        if promised:
            assert promised.group(1) in out, (line, out)
        ran += 1
    assert ran >= 9


# each subcommand with the options it takes; "nope" and no subcommand at
# all are usage errors
_SUBCOMMANDS = {
    ("theta", "expand"): ("--kind", "--order"),
    ("theta", "check"): ("--tol",),
    ("e8", "theta"): ("--beta", "--order"),
    ("e8", "dims"): ("--order",),
    ("e8", "identity"): ("--beta", "--order", "--random", "--seed"),
    ("index", "expand"): ("--fixture", "--flavor", "--order"),
    ("index", "check"): ("--fixture", "--flavor", "--order"),
    ("index", "transform"): ("--fixture", "--flavor", "--tol", "--t", "--tau", "--a", "--b"),
    ("classify",): ("--fixture", "--flavor", "--order"),
    ("nope",): (),
    (): (),
}
_BAD_VALUES = (
    "nan", "inf", "1e308j", "x", "", "-1", "31", "201", "1001",
    "1,2,3,4,5,6,7,8,9", "missing_file.json",
)
_GOOD_VALUES = {
    "--format": ("text", "json"),
    "--kind": ("theta", "theta3"),
    "--order": ("0", "5"),
    "--tol": ("1e-9",),
    "--beta": ("1,0,0,0,0,0,0,0",),
    "--random": ("3",),
    "--seed": ("7",),
    "--fixture": ("s2", "cp2", "cp1_spinc", "single_point"),
    "--flavor": ("I", "J"),
    "--t": ("0.3+0.1j",),
    "--tau": ("1.1j",),
    "--a": ("2",),
    "--b": ("0",),
}
# bad values that some command would accept and run at a cost: `theta
# expand` takes --order up to 200 and `e8 identity` --random up to 1000
_COSTLY = {"--order": {"31"}, "--random": {"31", "201"}}


@st.composite
def _argv(draw):
    """A subcommand with mostly its own options, each given a good or a bad
    value; now and then a global option, a foreign option or a dangling one."""

    def option(name):
        values = _GOOD_VALUES[name]
        if draw(st.integers(0, 3)) == 3:
            values = tuple(v for v in _BAD_VALUES if v not in _COSTLY.get(name, ()))
        return [name, draw(st.sampled_from(values))]

    every = sorted(_GOOD_VALUES)
    command = draw(st.sampled_from(list(_SUBCOMMANDS)))
    own = _SUBCOMMANDS[command]
    argv = option("--format") if draw(st.booleans()) else []
    argv += command
    if "--fixture" in own and draw(st.integers(0, 3)):
        argv += option("--fixture")
    for name in draw(st.lists(st.sampled_from(own or every), max_size=3)):
        argv += option(name)
    if draw(st.integers(0, 4)) == 4:
        argv += option(draw(st.sampled_from(every)))
    if draw(st.integers(0, 4)) == 4:
        argv.append(draw(st.sampled_from(every)))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
def test_fuzzed_argv_exits_with_a_code_never_a_traceback(argv):
    """Any argv ends in 0, 1 or 2 without raising, and a 2 says why on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "error:" in err.getvalue(), argv
