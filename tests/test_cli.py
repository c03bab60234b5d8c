"""Command-line surface: output shapes, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quatgenus import cli, runner, selftest
from quatgenus.certificates import MAX_DEPTH, base_certificate, hoffmann_certificate
from quatgenus.cli import main
from quatgenus.forms import DiagonalForm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_symbol_examples(capsys):
    assert run_cli(capsys, "symbol", "-1", "-1", "inf") == (0, "-1\n", "")
    assert run_cli(capsys, "symbol", "-1", "-1", "2") == (0, "-1\n", "")
    assert run_cli(capsys, "symbol", "1", "7", "3") == (0, "1\n", "")


def test_symbol_malformed_place(capsys):
    code, _out, err = run_cli(capsys, "symbol", "1", "7", "4")
    assert code == 2
    assert "error:" in err
    # 399165290221 * 798330580441: a strong pseudoprime to every base 2..37
    code, out, err = run_cli(capsys, "symbol", "3", "5", "318665857834031151167461")
    assert (code, out) == (2, "")
    assert "not a prime" in err


def test_form_isotropic_text(capsys):
    code, out, _ = run_cli(capsys, "form", "isotropic", "1,1,1,-7")
    assert code == 0
    assert out == "anisotropic (fails at 2)\n"
    code, out, _ = run_cli(capsys, "form", "isotropic", "1,1,-2")
    assert code == 0
    assert out == "isotropic (witness [1, 1, 1])\n"


def test_form_isotropic_witness_search_is_bounded(capsys):
    # isotropic by the invariants, but the first zero lies past the table budget
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "form", "isotropic", "1,1,1,1,-999999937")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert out == (
        "isotropic (no isotropic vector with max-norm <= 100 "
        "within the search budget of 1048576 table entries)\n"
    )
    code, out, _ = run_cli(capsys, "form", "isotropic", "1,1,1,1,-999999937", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["isotropic"], payload["witness"]) == (True, None)
    assert "search budget of 1048576 table entries" in payload["search"]


def test_form_witt_split_search_is_bounded(capsys):
    # the split search runs out of its table budget and the splitting vector is
    # built; the three-dimensional kernel lies past the candidate budget: a typed failure
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "form", "witt", "1,1,1,1,-999999937")
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err.startswith("error: no anisotropic part of <1,1,1,1,-999999937> among 65536 ")


def test_form_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "form", "analyze", "-2,1,3,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert payload["determinant"] == -2
    assert payload["signature"] == [3, 1]
    assert payload["isotropic"] is False
    assert payload["failing_place"] == 3


def test_form_witt_text(capsys):
    code, out, _ = run_cli(capsys, "form", "witt", "1,1,1,1,-1,-1,-3,-3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "witt index: 2"
    assert lines[1] == "anisotropic part: <1,1,-3,-3>"


def test_form_witt_prints_a_witness_per_plane(capsys):
    # the last remainder, <3,-4515,1290>, has no zero of max-norm <= 200: that witness is built
    code, out, _ = run_cli(capsys, "form", "witt", "2,3,3,-7,-15,-2,10")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["witt index: 3", "anisotropic part: <42>"]
    witnesses = [json.loads(line.split(": ", 1)[1]) for line in lines[2:]]
    assert len(witnesses) == 3
    assert witnesses[:2] == [[1, 0, 0, 0, 0, 1, 0], [0, 1, 2, 1, 2]]
    x, y, z = witnesses[2]
    assert 3 * x * x - 4515 * y * y + 1290 * z * z == 0 and max(witnesses[2]) > 200


def test_form_witt_kernel_search_is_bounded(capsys):
    # the kernel <1000033> lies past the candidate budget: the search gives up, typed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "form", "witt", "1,1,-1000033")
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err.startswith("error: no anisotropic part of <1,1,-1000033> among 65536 ")
    # a pool of 418 classes runs out before the budget: still an input refusal
    code, _out, err = run_cli(capsys, "form", "witt", "61,-22,-73,86,-1")
    assert code == 2 and "could not realize the anisotropic part" in err


def test_form_rejects_zero_coefficient(capsys):
    code, _out, err = run_cli(capsys, "form", "analyze", "1,0,3")
    assert code == 2
    assert "error:" in err


def test_quat_compare_text(capsys):
    code, out, _ = run_cli(capsys, "quat", "compare", "-1,-1", "-1,-3")
    assert code == 0
    assert out == "not isomorphic; linked; distinguishing witness -2\n"
    code, out, _ = run_cli(capsys, "quat", "compare", "-1,-1", "-2,-1")
    assert code == 0
    assert out == "isomorphic; linked; no distinguishing witness\n"


# pairs whose 8-dimensional norm-form difference is slow to split: linkage reads its index
# from invariants
@pytest.mark.parametrize("first,second", [("-30,29", "-15,-29"), ("5,-30", "-15,-5")])
def test_quat_compare_eight_dimensional_split(capsys, first, second):
    code, out, _ = run_cli(capsys, "quat", "compare", first, second)
    assert (code, out) == (0, "not isomorphic; linked; distinguishing witness -1\n")


def test_quat_compare_split_is_precondition_error(capsys):
    code, _out, err = run_cli(capsys, "quat", "compare", "-1,-1", "1,5")
    assert code == 3
    assert "error:" in err


def test_quat_embeds(capsys):
    assert run_cli(capsys, "quat", "embeds", "-1,-1", "-2") == (0, "true\n", "")
    assert run_cli(capsys, "quat", "embeds", "-1,-1", "7") == (0, "false\n", "")


def test_quat_witness(capsys):
    code, out, _ = run_cli(capsys, "quat", "witness", "-1,-1", "-2,-5")
    assert code == 0
    assert "common subfield witness: -2" in out
    assert "distinguishing witness: -1" in out


@pytest.mark.parametrize("limit", ["0", "-5"])
@pytest.mark.parametrize("action", ["witness", "compare", "genus"])
def test_quat_limit_below_one_is_input_error(capsys, action, limit):
    code, out, err = run_cli(capsys, "quat", action, "-1,-1", "-1,-3", "--limit", limit)
    assert (code, out) == (2, "")
    assert err == f"error: witness limit must be positive; got {limit}\n"


@pytest.mark.parametrize("action", ["compare", "witness", "genus", "embeds"])
def test_quat_limit_below_one_is_refused_whatever_the_answer(capsys, action):
    # isomorphic algebras need no distinguishing witness, and embeds no witness at all
    second = "2" if action == "embeds" else "-2,-1"
    assert run_cli(capsys, "quat", action, "-1,-1", second, "--limit", "1")[0] == 0
    code, out, err = run_cli(capsys, "quat", action, "-1,-1", second, "--limit", "0")
    assert (code, out, err) == (2, "", "error: witness limit must be positive; got 0\n")


def test_quat_genus_json(capsys):
    code, out, _ = run_cli(
        capsys, "quat", "genus", "-1,-1", "-1,-3", "-1,-7", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    witnesses = {tuple(e["pair"]): e["witness"] for e in payload["entries"]}
    assert witnesses == {(0, 1): -2, (0, 2): -3, (1, 2): -2}


# every form and quat action in text and with --json, and refusals with exits 2
# and 3, each with the stdout, stderr and exit code it printed when recorded:
# a change to the command layer keeps these bytes
_RECORDED = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text("utf-8"))


@pytest.mark.parametrize("case", _RECORDED, ids=lambda case: " ".join(case["argv"]))
def test_form_and_quat_print_their_recorded_bytes(capsys, case):
    assert run_cli(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def test_tower_run_json_and_exit_codes(tmp_path, capsys):
    script = tmp_path / "worked.json"
    script.write_text(
        json.dumps(
            {
                "base": "rationals",
                "algebras": [[-1, -1], [-1, -3]],
                "steps": [{"kind": "pushing", "classes": [-2]}],
            }
        )
    )
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "tower", "run", str(script), "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "tower-report/1"
    assert report["replay"]["checked"] == report["replay"]["passed"]
    assert out_path.read_text() == out


WORKED_PUSHING = {
    "base": "rationals",
    "algebras": [[-1, -1], [-1, -3]],
    "steps": [{"kind": "pushing", "classes": [-2]}],
}


_ITER_REPORT = runner.iter_report


def _counted_renders(monkeypatch):
    """Route the renders through a wrapper; returns the list of reports rendered.

    cmd_tower imports iter_report from the runner when it runs, so the wrapper
    goes in the runner's binding, where render_report reads it too.
    """
    rendered = []

    def counted(report):
        rendered.append(report)
        return _ITER_REPORT(report)

    monkeypatch.setattr(runner, "iter_report", counted)
    return rendered


def test_tower_run_streams_one_render_to_out_and_stdout(tmp_path, capsys, monkeypatch):
    report, _code = runner.run_script_data(WORKED_PUSHING, runner.RunConfig())
    expected = runner.render_report(report)  # rendered before the count starts
    rendered = _counted_renders(monkeypatch)
    out_path = tmp_path / "report.json"
    argv = ("tower", "run", _write_script(tmp_path, WORKED_PUSHING), "--out", str(out_path))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out_path.read_bytes() == out.encode() == expected.encode()
    assert len(rendered) == 1
    # with a text summary on stdout, the one render goes to --out alone
    out_path.unlink()
    code, text, _ = run_cli(capsys, *argv, "--output", "text")
    assert code == 0 and text.startswith("base: rationals\n")
    assert out_path.read_text() == out
    assert len(rendered) == 2


class _FailingStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_tower_run_stdout_error_is_not_an_out_error(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "report.json"
    argv = ["tower", "run", _write_script(tmp_path, WORKED_PUSHING), "--out", str(out_path)]
    monkeypatch.setattr("sys.stdout", _FailingStdout())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 70
    assert err.startswith("error: internal: OSError(28, ")
    assert "cannot write report" not in err


def test_tower_run_isotropic_adjoin_is_input_error(tmp_path, capsys):
    script = tmp_path / "bad.json"
    script.write_text(
        json.dumps(
            {
                "base": "rationals",
                "algebras": [],
                "steps": [{"kind": "adjoin", "form": [1, -1]}],
            }
        )
    )
    code, _out, err = run_cli(capsys, "tower", "run", str(script))
    assert code == 2
    assert "isotropic" in err


@pytest.mark.parametrize(
    "script",
    [
        {"base": "rationals", "algebras": [],
         "steps": [{"kind": "adjoin", "form": {"symbolic": [{"sign": 1, "symbols": [1, "a"]}]}}]},
        {"base": {"abstract": {"symbols": ["a", "b"], "assumptions": [
            {"id": "x", "anisotropic": {"symbolic": [{"sign": 1, "symbols": [2, "a"]}]}}]}},
         "algebras": [{"symbols": ["a", "b"]}], "steps": []},
    ],
)
def test_tower_run_symbolic_class_of_the_wrong_types_is_input_error(tmp_path, capsys, script):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(script))
    code, out, err = run_cli(capsys, "tower", "run", str(path))
    assert (code, out) == (2, "")
    assert "not a symbolic class" in err


def test_tower_run_refuses_a_symbolic_binary_form(tmp_path, capsys):
    # adjoining <a,b> kills the class -ab, which no rule tracks: the old run
    # certified <1,c> anisotropic at level 2, where abc = -c makes it isotropic
    def form(*classes):
        return {"symbolic": [{"sign": sign, "symbols": symbols} for sign, symbols in classes]}

    forms = [form((1, ["a"]), (1, ["b"])), form((1, []), (-1, ["a", "b", "c"])),
             form((1, []), (1, ["c"]))]
    script = {
        "base": {"abstract": {"symbols": ["a", "b", "c"], "assumptions": [
            {"id": f"q{i}", "anisotropic": phi} for i, phi in enumerate(forms)]}},
        "algebras": [],
        "steps": [{"kind": "adjoin", "form": phi} for phi in forms],
    }
    code, out, err = run_cli(capsys, "tower", "run", _write_script(tmp_path, script))
    assert (code, out) == (2, "")
    assert err == (
        "error: refusing to adjoin <a,b>: a symbolic binary form kills a symbolic "
        "class that no certificate rule tracks\n"
    )


def test_tower_run_unknown_gate_is_truncation(tmp_path, capsys):
    script = tmp_path / "stuck.json"
    script.write_text(
        json.dumps(
            {
                "base": "rationals",
                "algebras": [],
                "steps": [
                    {"kind": "adjoin", "form": [1, 1, 1, 1]},
                    {"kind": "adjoin", "form": [-2, 1, 3, 3]},
                ],
            }
        )
    )
    code, _out, err = run_cli(capsys, "tower", "run", str(script))
    assert code == 4
    assert "error:" in err


def _write_script(tmp_path, data):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(data))
    return str(script)


def test_tower_run_left_unknown_prints_one_error_line(tmp_path, capsys):
    # the run completes and writes its report, with a required claim UNKNOWN
    script = _write_script(tmp_path, {
        "algebras": [[-1, -1]],
        "steps": [{"kind": "adjoin", "form": [1, 1]}, {"kind": "linking"}],
    })
    code, out, err = run_cli(capsys, "tower", "run", script)
    assert code == 4 and json.loads(out)["unknown_count"] == 1
    assert err == "error: 1 required claim(s) remained UNKNOWN\n"


def test_tower_run_split_family_member_is_precondition_error(tmp_path, capsys):
    script = _write_script(
        tmp_path,
        {"algebras": [[1, 5]], "steps": [{"kind": "iterate", "window": 6, "max_rounds": 1}]},
    )
    code, out, err = run_cli(capsys, "tower", "run", script)
    assert (code, out) == (3, "")
    assert "split" in err


def test_tower_run_isomorphic_family_pair_is_precondition_error(tmp_path, capsys):
    script = _write_script(
        tmp_path,
        {"algebras": [[-1, -1], [-2, -1]], "steps": [{"kind": "adjoin", "form": [1, 1, 1, 1, 1]}]},
    )
    code, out, err = run_cli(capsys, "tower", "run", script)
    assert (code, out) == (3, "")
    assert "isomorphic" in err


def test_tower_run_renders_a_report_at_the_depth_limit(tmp_path, capsys, monkeypatch):
    subject = DiagonalForm((-2, 1, 3, 3))
    cert = base_certificate(subject)
    for level in range(1, MAX_DEPTH):
        cert = hoffmann_certificate(cert, DiagonalForm((1, 1, 1, 1, 1)), level, 2)

    def run_deep(data, config):
        # the deepest path of a real report: an injectivity statement inside an
        # iterate round inside an alternating round
        statement = {"statement": {"certificate": cert.to_json()}}
        push = {"rounds": [{"step": {"injectivity": {"pair_forms": [statement]}}}]}
        report = {
            "replay": {"checked": MAX_DEPTH, "passed": MAX_DEPTH},
            "steps": [{"kind": "alternating-truncation", "rounds": [{"pushing": push}]}],
            "unknown_count": 0,
        }
        return report, 0

    def render_and_parse(report):
        pieces = list(_ITER_REPORT(report))
        assert json.loads("".join(pieces)) == report
        return iter(pieces)

    monkeypatch.setattr(runner, "run_script_data", run_deep)
    monkeypatch.setattr(runner, "iter_report", render_and_parse)
    code, out, err = run_cli(capsys, "tower", "run", _write_script(tmp_path, {}))
    assert (code, err) == (0, "")
    assert out.count('"rule": "R-HOFFMANN"') == MAX_DEPTH - 1


def test_internal_error_exits_70(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_symbol", broken)
    code, out, err = run_cli(capsys, "symbol", "1", "7", "3")
    assert (code, out) == (70, "")
    assert err == "error: internal: RuntimeError('boom\\nsecond line')\n"


def test_tower_run_into_a_closed_pipe_exits_141(tmp_path):
    script = {"base": "rationals", "algebras": [[-1, -1], [-1, -3], [-2, -5], [-1, -7]],
              "steps": [{"kind": "alternate", "rounds": 1, "max_rounds": 1, "window": 10}]}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # the report runs to 861,244 bytes, far past a pipe's buffer: the reader leaves first
    with subprocess.Popen(
        [sys.executable, "-m", "quatgenus", "tower", "run", _write_script(tmp_path, script)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as child:
        assert len(child.stdout.read(50)) == 50
        child.stdout.close()
        assert child.wait(timeout=60) == 141
        err = child.stderr.read().decode()
    assert "internal" not in err and "Traceback" not in err


def test_tower_run_missing_file(tmp_path, capsys):
    code, _out, err = run_cli(capsys, "tower", "run", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read script" in err


def test_tower_run_unwritable_out_is_input_error(tmp_path, capsys):
    script = tmp_path / "worked.json"
    script.write_text(json.dumps({"base": "rationals", "algebras": [[-1, -1]], "steps": []}))
    for out_path in (tmp_path / "missing" / "report.json", tmp_path):
        code, out, err = run_cli(capsys, "tower", "run", str(script), "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write report: ")


def test_tower_run_has_no_seed_or_height_bound_flag(tmp_path, capsys):
    script = tmp_path / "worked.json"
    script.write_text(json.dumps({"base": "rationals", "algebras": [[-1, -1]]}))
    # a script states each step's window and round budget: no flag sets a default
    for flag in ("--seed", "--height-bound", "--witness-window", "--max-levels"):
        code, out, err = run_cli(capsys, "tower", "run", str(script), flag, "1")
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 1" in err


def test_tower_run_too_deeply_nested_script_is_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, _out, err = run_cli(capsys, "tower", "run", str(deep))
    assert code == 2
    assert "nests too deeply" in err


def test_tower_text_summary(tmp_path, capsys, monkeypatch):
    rendered = _counted_renders(monkeypatch)
    script = tmp_path / "worked.json"
    script.write_text(
        json.dumps(
            {
                "base": "rationals",
                "algebras": [[-1, -1], [-1, -3]],
                "steps": [{"kind": "pushing", "classes": [-2]}],
            }
        )
    )
    code, out, _ = run_cli(capsys, "tower", "run", str(script), "--output", "text")
    assert code == 0
    assert "replay: 17/17" in out
    assert "unknown required claims: 0" in out
    assert rendered == []  # no JSON is rendered when nothing reads it


def test_tower_text_summary_names_adjoin_and_linking_steps(tmp_path, capsys):
    script = {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
              "steps": [{"kind": "adjoin", "form": [1, 1, 1, 1, 1]}, {"kind": "linking"}]}
    argv = ("tower", "run", _write_script(tmp_path, script), "--output", "text")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("steps: 2\nlevels: 1\nreplay: 6/6\nunknown required claims: 0\n"
                        "  adjoin [1, 1, 1, 1, 1]\n  linking adjoined=0\n")


def test_selftest_command(capsys):
    code, out, _ = run_cli(capsys, "selftest", "product-formula", "--trials", "50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite: product-formula"
    assert lines[1] == "result: PASS"
    assert "seconds" not in out


def test_selftest_without_trials_uses_the_suite_s_own_default(monkeypatch):
    calls = []
    monkeypatch.setitem(selftest.SUITES, "probe", lambda trials=7, seed=0: calls.append((trials, seed)))
    selftest.run_suite("probe", seed=3)
    selftest.run_suite("probe", 2, 3)
    assert calls == [(7, 3), (2, 3)]


def test_selftest_refuses_negative_trials(capsys):
    code, out, err = run_cli(capsys, "selftest", "product-formula", "--trials", "-5")
    assert code == 2
    assert "PASS" not in out and "trials" in err


def test_selftest_rejects_unknown_suite(capsys):
    code, _out, _err = run_cli(capsys, "selftest", "nonsense")
    assert code == 2


def test_output_is_deterministic(capsys, tmp_path):
    script = tmp_path / "worked.json"
    script.write_text(
        json.dumps(
            {
                "base": "rationals",
                "algebras": [[-1, -1], [-1, -3]],
                "steps": [{"kind": "iterate", "window": 10, "max_rounds": 3}],
            }
        )
    )
    invocations = [
        ("symbol", "-1", "-1", "2"),
        ("form", "analyze", "-2,1,3,3", "--json"),
        ("quat", "compare", "-1,-1", "-1,-3", "--json"),
        ("tower", "run", str(script)),
        ("selftest", "product-formula", "--trials", "25"),
    ]
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, argv


# integers of up to ten digits, and malformed tokens
integer = st.integers(min_value=-(10**9), max_value=10**9).map(str)
token = st.one_of(integer, st.sampled_from(["0", "1/0", "2.5", "x", "abc", ""]))
form_argv = st.builds(
    lambda action, entries, bound, flags: ["form", action, ",".join(entries), "--bound", bound]
    + flags,
    st.sampled_from(["analyze", "isotropic"]),
    st.one_of(st.lists(integer, min_size=1, max_size=6), st.lists(token, min_size=1, max_size=6)),
    st.sampled_from(["1", "3", "8", "0", "x"]),  # small, so a witness search stays short
    st.sampled_from([[], ["--json"]]),
)
# |c| <= 50 and at most four entries: ten-digit entries make Witt kernels that take seconds
small = st.integers(min_value=-50, max_value=50).map(str)
witt_argv = st.builds(
    lambda entries, flags: ["form", "witt", ",".join(entries)] + flags,
    st.lists(st.one_of(small, st.sampled_from(["1/0", "2.5", "x", ""])), min_size=1, max_size=4),
    st.sampled_from([[], ["--json"]]),
)
algebra = st.one_of(
    st.builds(lambda a, b: f"{a},{b}", small, small), st.builds(lambda a, b: f"{a},{b}", token, token)
)
quat_argv = st.builds(
    lambda action, first, second, rest, limit, flags: ["quat", action, first, second, *rest,
                                                       "--limit", limit] + flags,
    st.sampled_from(["compare", "embeds", "witness", "genus"]),
    algebra,
    st.one_of(algebra, small, token),  # embeds reads a class here
    st.lists(algebra, max_size=2),
    st.sampled_from(["1", "10", "100"]),
    st.sampled_from([[], ["--json"]]),
)
symbol_argv = st.builds(
    lambda a, b, place: ["symbol", a, b, place],
    token,
    token,
    st.one_of(st.sampled_from(["inf", "2", "3", "5", "7", "999999937"]), token),
)


@given(st.one_of(form_argv, witt_argv, symbol_argv))
@settings(max_examples=300, deadline=None)
def test_cli_answers_or_refuses_every_form_and_symbol_argv(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())


@given(quat_argv)
@settings(max_examples=100, deadline=None)
def test_cli_answers_or_refuses_every_quat_argv(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())


# tower scripts: one to three small algebras and short steps, each field
# malformed one time in eight; rounds and windows stay small, so a run is short
odd_value = st.sampled_from([True, None, "x", 2.5, [], {}, -1, 0, 10**6])


def _mostly(good, bad=odd_value):
    # bad on 7, not 0: small-integer draws favour 0
    return st.integers(min_value=0, max_value=7).flatmap(lambda i: bad if i == 7 else good)


tower_algebra = _mostly(st.sampled_from([[-1, -1], [-1, -3], [-2, -5], [3, -7], [-1, -7], [1, 5]]))
tower_step = st.fixed_dictionaries(
    {"kind": st.sampled_from(["pushing", "linking", "iterate", "alternate", "adjoin", "x"])},
    optional={
        "classes": _mostly(st.lists(st.integers(min_value=-10, max_value=10), max_size=3)),
        "window": _mostly(st.integers(min_value=1, max_value=6)),
        "rounds": _mostly(st.integers(min_value=0, max_value=2)),
        "max_rounds": _mostly(st.integers(min_value=0, max_value=3)),
        "form": _mostly(st.lists(st.integers(min_value=-7, max_value=7), max_size=5)),
    },
)
tower_script = _mostly(
    st.fixed_dictionaries(
        {
            "algebras": _mostly(st.lists(tower_algebra, min_size=1, max_size=3, unique_by=str)),
            "steps": _mostly(st.lists(tower_step, min_size=1, max_size=2)),
        },
        optional={"base": _mostly(st.just("rationals"))},
    ).map(json.dumps),
    st.sampled_from(["", "{", "[1,", "null", '"rationals"']),
)
tower_flags = st.lists(
    st.one_of(
        st.tuples(st.just("--output"), _mostly(st.sampled_from(["json", "text"]), st.just("yaml"))),
        st.tuples(st.just("--out"), _mostly(st.just("report.json"), st.just("missing/report.json"))),
    ),
    max_size=3,
)


@given(tower_script, tower_flags)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_answers_or_refuses_every_tower_run_argv(tmp_path, text, flags):
    script = tmp_path / "script.json"
    script.write_text(text)
    argv = ["tower", "run", str(script)]
    for flag, value in flags:
        argv += [flag, str(tmp_path / value) if flag == "--out" else value]
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4), (argv, text, code, err.getvalue())
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == (0 if code == 0 else 1), (argv, text, code, err.getvalue())
    assert elapsed < 10, (argv, text, elapsed)


# tower scripts whose base, algebras and steps hold any JSON, now and then
# nested thousands deep; integers stay small, so windows and rounds bound a run
class _Nested(NamedTuple):
    """A value wrapped `depth` times in the opener and its closing bracket."""

    depth: int
    opener: str
    inner: object


def _script_text(value: object) -> str:
    """JSON text for a drawn value; a _Nested value is written as text, since
    json.dumps recurses once per level."""
    if isinstance(value, _Nested):
        closer = "]" if value.opener == "[" else "}"
        return value.opener * value.depth + _script_text(value.inner) + closer * value.depth
    if isinstance(value, list):
        return "[" + ",".join(map(_script_text, value)) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_script_text(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)


_script_keys = st.sampled_from(
    ["abstract", "symbols", "assumptions", "id", "anisotropic", "symbolic", "sign", "kind", "form"]
)
_any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(["rationals", "a", "b", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_script_keys, inner, max_size=3),
    max_leaves=8,
)
_deep_json = st.builds(
    _Nested,
    st.integers(1, 5000),
    st.sampled_from(["[", '{"symbols":', '{"symbolic":', '{"abstract":']),
    _any_json,
)


def _or_any(good):
    return _mostly(good, st.one_of(_any_json, _deep_json))


_small = _or_any(st.integers(0, 3))
_script_step = _or_any(
    st.fixed_dictionaries(
        {
            "kind": _or_any(st.sampled_from(["pushing", "linking", "iterate", "alternate", "adjoin"])),
            "window": _small,
            "rounds": _small,
            "max_rounds": _small,
        },
        optional={"form": _any_json | _deep_json, "classes": _any_json | _deep_json},
    )
)
_script_algebra = _or_any(
    st.sampled_from([[-1, -1], [-1, -3], [-2, -5], [3, -7], {"symbols": ["a", "b"]},
                     {"symbols": ["b", "c"]}])
)
_script_base = _or_any(
    st.just("rationals")
    | st.fixed_dictionaries(
        {"abstract": st.fixed_dictionaries({"symbols": _or_any(st.just(["a", "b", "c"]))},
                                           optional={"assumptions": _any_json | _deep_json})}
    )
)
_any_script = st.fixed_dictionaries(
    {
        "base": _script_base,
        "algebras": _or_any(st.lists(_script_algebra, max_size=3)),
        "steps": _or_any(st.lists(_script_step, max_size=2)),
    }
)


@given(_any_script)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_tower_run_answers_or_refuses_any_script_json(tmp_path, script):
    path = tmp_path / "script.json"
    path.write_text(_script_text(script))
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(["tower", "run", str(path)])
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4), (script, code, err.getvalue())
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0) and len(err.getvalue().splitlines()) == len(errors), (
        script, code, err.getvalue())
    assert elapsed < 2, (script, elapsed)


_NEW_MODULES = """
import importlib, pkgutil, sys
before = set(sys.modules)
import quatgenus
for module in pkgutil.iter_modules(quatgenus.__path__):
    importlib.import_module("quatgenus." + module.name)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_the_package_imports_nothing_outside_the_standard_library():
    # pyproject.toml declares dependencies = []
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES], capture_output=True, text=True, env=env, check=True,
    )
    loaded = child.stdout.split()
    assert {"quatgenus.cli", "quatgenus.selftest", "quatgenus.tower"} <= set(loaded)
    outside = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "quatgenus"
    ]
    assert outside == []
