"""Command surface: formats, exit codes, and error channels."""
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from bipsand import Configuration, TopplingStallError, enumeration, model
from bipsand.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_recurrent_exits_zero(self, capsys):
        code, out, err = run(capsys, "check", "3,1,3,2,3;2,0,4,3", "--model", "ssm")
        assert code == 0
        assert out == "recurrent: true\nlevel: 1\n"

    def test_not_recurrent_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", "3,1,3,2,3;2,0,4,3", "--model", "asm")
        assert code == 1
        assert "recurrent: false" in out

    def test_json_payload_and_output(self, capsys):
        payload = json.dumps({"top": [0, 2, 2], "bottom": [2, 2, 3]})
        code, out, _ = run(capsys, "check", payload, "--model", "asm", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"model": "asm", "recurrent": True, "level": 2}

    def test_malformed_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "1,x;2", "--model", "asm")
        assert code == 2
        assert err.startswith("error:")

    def test_unstable_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "9;9", "--model", "asm")
        assert code == 2
        assert "stable" in err

    def test_missing_model_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "0;1"])
        assert exc.value.code == 2


class TestStabilize:
    def test_deterministic(self, capsys):
        code, out, _ = run(capsys, "stabilize", "2,1;0,2", "--model", "asm")
        assert code == 0
        assert out.splitlines() == ["1,0;2,1", "firings: 1,1;0,1"]

    def test_stochastic_seeded(self, capsys):
        code1, out1, _ = run(
            capsys, "stabilize", "2,1;0,2", "--model", "ssm", "--seed", "5"
        )
        code2, out2, _ = run(
            capsys, "stabilize", "2,1;0,2", "--model", "ssm", "--seed", "5"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_fields(self, capsys):
        code, out, _ = run(
            capsys, "stabilize", "2,1;0,2", "--model", "asm", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["configuration"] == {"top": [1, 0], "bottom": [2, 1]}
        assert doc["firings"] == {"top": [1, 1], "bottom": [0, 1]}

    def test_bad_probability(self, capsys):
        code, _, err = run(
            capsys, "stabilize", "2,1;0,2", "--model", "ssm", "--p", "0"
        )
        assert code == 2

    def test_probability_below_resolution(self, capsys):
        # every bit would be 0, so stabilization could never end
        code, out, err = run(
            capsys, "stabilize", "5;0", "--model", "ssm", "--p", "1e-300"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "2^-64" in err

    def test_readme_seeded_example(self, capsys):
        code, out, _ = run(
            capsys, "stabilize", "2,1;0,2", "--model", "ssm", "--seed", "5", "--p", "0.5"
        )
        assert code == 0
        assert out.splitlines() == ["1,0;1,2", "firings: 1,1;0,1"]


class TestSimulate:
    def test_histogram(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--model", "asm", "--m", "1", "--n", "1",
            "--steps", "10", "--seed", "2",
        )
        assert code == 0
        lines = out.splitlines()
        total = sum(int(line.split()[1]) for line in lines)
        assert total == 11

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--model", "ssm", "--m", "2", "--n", "2",
            "--steps", "20", "--seed", "3", "--format", "json",
        )
        doc = json.loads(out)
        assert sum(v["count"] for v in doc["visits"]) == 21

    def test_readme_example_is_pinned(self, capsys):
        # seeded ssm output is a public contract: README's example prints these 17 lines
        code, out, _ = run(capsys, "simulate", "--model", "ssm", "--m", "2", "--n", "2",
                           "--steps", "1000", "--seed", "7")
        assert (code, len(out.splitlines())) == (0, 17)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0dda3ce9eed89f563b672ac70d7d5632e1abe2d34340ac1985e5186e79334196")


class TestLevel:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "level", "0,2,2;2,2,3")
        assert (code, out) == (0, "2\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "level", "0,2,2;2,2,3", "--format", "json")
        assert json.loads(out) == {"level": 2}


class TestBiject:
    def test_to_motzkin(self, capsys):
        code, out, _ = run(capsys, "biject", "--to", "motzkin", "2,2,2,4,4;2,3,4,5,5")
        assert (code, out) == (0, "UUDeDUneD\n")

    def test_from_motzkin(self, capsys):
        code, out, _ = run(capsys, "biject", "--from", "motzkin", "UUDeDUneD")
        assert (code, out) == (0, "2,2,2,4,4;2,3,4,5,5\n")

    def test_ferrers_requires_model(self, capsys):
        code, _, err = run(capsys, "biject", "--to", "ferrers", "0,2,2;2,2,2")
        assert code == 2
        assert "--model" in err

    def test_ferrers_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "biject", "--to", "ferrers", "0,2,2;2,2,2", "--model", "ssm"
        )
        assert (code, out) == (0, "1,1,3|2,2,2\n")
        code, out, _ = run(
            capsys, "biject", "--from", "ferrers", "1,1,3|2,2,2", "--model", "ssm"
        )
        assert (code, out) == (0, "0,2,2;2,2,2\n")

    def test_polyomino_json(self, capsys):
        code, out, _ = run(
            capsys, "biject", "--to", "polyomino", "0,1,2,2;2,4,4",
            "--format", "json",
        )
        assert json.loads(out) == {"upper": "NENENEEE", "lower": "EEENEENN"}

    def test_from_polyomino(self, capsys):
        code, out, _ = run(
            capsys, "biject", "--from", "polyomino", "upper=NENENEEE;lower=EEENEENN"
        )
        assert (code, out) == (0, "0,1,2,2;2,4,4\n")

    def test_non_recurrent_input_exits_two(self, capsys):
        code, _, err = run(capsys, "biject", "--to", "motzkin", "0,2,2;2,2,2")
        assert code == 2

    def test_both_directions_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["biject", "--to", "motzkin", "--from", "ferrers", "x"])
        assert exc.value.code == 2


class TestDag:
    def test_summary_and_dot(self, capsys, tmp_path):
        target = tmp_path / "out.dot"
        code, out, _ = run(
            capsys, "dag", "--model", "ssm", "--m", "3", "--n", "3",
            "--dot", str(target),
        )
        assert code == 0
        assert "vertices: 16" in out
        text = target.read_text()
        assert text.startswith("digraph") and "color=red" in text

    def test_guard_exits_three(self, capsys):
        code, _, err = run(capsys, "dag", "--model", "ssm", "--m", "10", "--n", "10")
        assert code == 3
        assert err.startswith("error:")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "dag", "--model", "asm", "--m", "3", "--n", "3",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["vertices"] == 10


class TestEnumerate:
    def test_stable_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "1", "--n", "1")
        assert (code, out) == (0, "0;0\n0;1\n")

    def test_recurrent_requires_model(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "1", "--n", "1", "--recurrent")
        assert code == 2

    def test_recurrent_listing(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--m", "2", "--n", "2", "--recurrent",
            "--model", "asm", "--sorted",
        )
        assert code == 0
        # matches the polyomino count for the 3 x 2 bounding box
        assert len(out.splitlines()) == 6

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("stream", [[], ["--recurrent", "--model", "ssm"]],
                             ids=["stable", "recurrent"])
    def test_refusal_prints_nothing(self, capsys, stream, fmt):
        # 12^12 * 13^12 stable configurations: the guard refuses before any output
        code, out, err = run(capsys, "enumerate", "--m", "12", "--n", "12", *stream,
                             "--format", fmt)
        assert (code, out) == (3, "")
        assert err.startswith("error: enumeration of ")


class TestCensus:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "census", "--m", "2", "--n", "2", "--model", "asm")
        assert code == 0
        assert out.splitlines() == [
            "m,n,model,sorted,count,level_poly",
            "2,2,asm,false,12,7+4*q+1*q^2",
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "census", "--m", "3", "--n", "3", "--model", "ssm",
            "--sorted", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["count"] == 70
        assert doc["level_poly"].startswith("21+18*q")


# Exact stdout and exit code for every subcommand in both formats, as printed
# before the CLI shared one output helper; --dot paths are relative to tmp_path.
EXACT = [
    (["check", "3,1,3,2,3;2,0,4,3", "--model", "ssm"], 0, 'recurrent: true\nlevel: 1\n'),
    (
        ["check", "3,1,3,2,3;2,0,4,3", "--model", "asm", "--format", "json"],
        1, '{"level": 1, "model": "asm", "recurrent": false}\n',
    ),
    (["stabilize", "2,1;0,2", "--model", "ssm", "--seed", "5"], 0, '1,0;1,2\nfirings: 1,1;0,1\n'),
    (
        ["stabilize", "2,1;0,2", "--model", "asm", "--format", "json"],
        0,
        '{"configuration": {"bottom": [2, 1], "top": [1, 0]}, '
        '"firings": {"bottom": [0, 1], "top": [1, 1]}}\n',
    ),
    (
        ["simulate", "--model", "asm", "--m", "1", "--n", "2", "--steps", "6", "--seed", "2"],
        0, '0;0,0 1\n0;0,1 1\n0;1,1 2\n1;0,0 1\n1;0,1 1\n1;1,1 1\n',
    ),
    (
        ["simulate", "--model", "ssm", "--m", "1", "--n", "1", "--steps", "4", "--seed", "3",
         "--format", "json"],
        0,
        '{"visits": [{"bottom": [0], "count": 1, "top": [0]}, '
        '{"bottom": [1], "count": 4, "top": [0]}]}\n',
    ),
    (["level", "0,2,2;2,2,3"], 0, '2\n'),
    (["level", "0,2,2;2,2,3", "--format", "json"], 0, '{"level": 2}\n'),
    (["biject", "--to", "ferrers", "0,2,2;2,2,2", "--model", "ssm"], 0, '1,1,3|2,2,2\n'),
    (
        ["biject", "--to", "ferrers", "0,2,2;2,2,2", "--model", "ssm", "--format", "json"],
        0, '{"first": "1,1,3", "second": "2,2,2"}\n',
    ),
    (["biject", "--to", "polyomino", "0,1,2,2;2,4,4"], 0, 'upper=NENENEEE;lower=EEENEENN\n'),
    (
        ["biject", "--to", "motzkin", "2,2,2,4,4;2,3,4,5,5", "--format", "json"],
        0, '{"word": "UUDeDUneD"}\n',
    ),
    (
        ["biject", "--from", "polyomino", "upper=NENENEEE;lower=EEENEENN", "--format", "json"],
        0, '{"bottom": [2, 4, 4], "top": [0, 1, 2, 2]}\n',
    ),
    (["biject", "--from", "motzkin", "UUDeDUneD"], 0, '2,2,2,4,4;2,3,4,5,5\n'),
    (
        ["dag", "--model", "ssm", "--m", "2", "--n", "2", "--dot", "out.dot"],
        0, 'vertices: 4\nedges: 4\ndot written to out.dot\n',
    ),
    (
        ["dag", "--model", "asm", "--m", "2", "--n", "3", "--dot", "out.dot", "--format", "json"],
        0, '{"dot": "out.dot", "edges": 6, "model": "asm", "vertices": 6}\n',
    ),
    (["dag", "--model", "asm", "--m", "3", "--n", "3"], 0, 'vertices: 10\nedges: 12\n'),
    (["enumerate", "--m", "1", "--n", "1"], 0, '0;0\n0;1\n'),
    (
        ["enumerate", "--m", "1", "--n", "2", "--recurrent", "--model", "ssm", "--format", "json"],
        0,
        '{"configurations": [{"bottom": [1, 1], "top": [0]}, {"bottom": [0, 1], "top": [1]}, '
        '{"bottom": [1, 0], "top": [1]}, {"bottom": [1, 1], "top": [1]}]}\n',
    ),
    (
        ["census", "--m", "2", "--n", "2", "--model", "asm"],
        0, 'm,n,model,sorted,count,level_poly\n2,2,asm,false,12,7+4*q+1*q^2\n',
    ),
    (
        ["census", "--m", "2", "--n", "2", "--model", "ssm", "--sorted", "--format", "json"],
        0,
        '{"count": 7, "level_poly": "4+2*q+1*q^2", '
        '"m": 2, "model": "ssm", "n": 2, "sorted": true}\n',
    ),
]


@pytest.mark.parametrize("argv,want_code,want_out", EXACT)
def test_exact_output(capsys, tmp_path, monkeypatch, argv, want_code, want_out):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (want_code, want_out, "")
    if "--dot" in argv:
        assert (tmp_path / "out.dot").read_text().startswith("digraph ferrers {")


def test_unwritable_dot_exits_two(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.dot"
    code, out, err = run(
        capsys, "dag", "--model", "ssm", "--m", "2", "--n", "2", "--dot", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv,want", [
    (["check", '{"top": [1', "--model", "asm"], "bad JSON configuration: "),
    (
        ["check", '{"top": [1], "bottom": [0], "z": 1}', "--model", "asm"],
        "expected an object with 'top' and 'bottom' lists",
    ),
    (
        ["biject", "--from", "ferrers", "0,1|1", "--model", "ssm"],
        "paired diagrams must have the same number of rows",
    ),
    (["biject", "--from", "ferrers", "0,1", "--model", "ssm"], "expected 'ROWS|ROWS' with one '|', "),
    (["biject", "--from", "polyomino", "upper=;lower=E"], "paths must be nonempty"),
    (["biject", "--to", "polyomino", "0,5;0,0"], "configuration must be stable"),
])
def test_malformed_payload_exits_two(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + want)


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _spawn(argv, unbuffered, stdout):
    """bipsand.cli run on argv in a new interpreter, with stderr piped and
    PYTHONUNBUFFERED set to unbuffered."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
    return subprocess.Popen([sys.executable, "-m", "bipsand.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv,read", [
    (["enumerate", "--m", "4", "--n", "4"], lambda out: out.readline()),
    # the JSON listing is one 7.5 MB line: reading a whole line would drain it
    (["enumerate", "--m", "4", "--n", "4", "--format", "json"], lambda out: out.read(20)),
], ids=["text", "json"])
def test_reader_closing_the_pipe_early_exits_141(argv, read, unbuffered):
    proc = _spawn(argv, unbuffered, subprocess.PIPE)
    read(proc.stdout)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_output_into_a_closed_pipe_exits_141(unbuffered):
    # buffered, level's one line stays in stdout's buffer until main flushes it
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _spawn(["level", "0;0"], unbuffered, write_end)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_enumerate_json_streams(monkeypatch):
    # the first item must be written before the stream yields the second
    out = io.StringIO()
    written_before_second = []
    c = Configuration.from_vectors((0,), (1,))

    def stream(shape, sorted_only):
        yield c
        written_before_second.append(out.getvalue())
        yield c

    monkeypatch.setattr(enumeration, "enumerate_stable", stream)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "--m", "1", "--n", "1", "--format", "json"]) == 0
    item = c.to_json_dict()
    assert written_before_second == ['{"configurations": [' + json.dumps(item, sort_keys=True)]
    assert out.getvalue() == json.dumps({"configurations": [item, item]}, sort_keys=True) + "\n"


def test_stall_exits_one(capsys, monkeypatch):
    def stall(c, oracle):
        raise TopplingStallError("no stable state")

    monkeypatch.setattr(model, "stabilize_stochastic", stall)
    code, out, err = run(capsys, "stabilize", "2,1;0,2", "--model", "ssm")
    assert (code, out, err) == (1, "", "error: no stable state\n")


class TestMaxFirings:
    def test_tiny_p_stalls_within_the_budget(self, capsys):
        # without the budget this run would take hours (p just above 2^-64)
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "stabilize", "5;0", "--model", "ssm",
            "--p", "5.421010862427522e-20", "--max-firings", "1000",
        )
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: no stable state after 1000 firings on K0_{1,1}")

    def test_budget_large_enough_changes_nothing(self, capsys):
        plain = run(capsys, "stabilize", "4,0;0,3", "--model", "ssm", "--seed", "7")
        budget = run(capsys, "stabilize", "4,0;0,3", "--model", "ssm", "--seed", "7",
                     "--max-firings", "100000")
        assert plain == budget and plain[0] == 0

    def test_asm_refuses_a_budget(self, capsys):
        code, out, err = run(capsys, "stabilize", "5;0", "--model", "asm", "--max-firings", "10")
        assert (code, out) == (2, "")
        assert "--max-firings applies to --model ssm only" in err

    def test_negative_budget(self, capsys):
        code, _, err = run(capsys, "stabilize", "5;0", "--model", "ssm", "--max-firings", "-1")
        assert (code, err) == (2, "error: --max-firings must be >= 0\n")


def test_census_count_beyond_int64(capsys):
    code, out, _ = run(capsys, "census", "--m", "10", "--n", "10", "--model", "asm")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "23579476910000000000"


class TestSimulateMaxFirings:
    """simulate --max-firings: the budget stabilize takes, with its checks."""

    TINY_P = "5.421010862427522e-20"

    def test_tiny_p_stalls_within_the_budget(self, capsys):
        # without the budget each step would take hours
        t0 = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--model", "ssm", "--m", "1", "--n", "1",
                             "--steps", "3", "--p", self.TINY_P, "--max-firings", "1000")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: no stable state after 1000 firings on K0_{1,1}")

    def test_budget_large_enough_changes_nothing(self, capsys):
        argv = ["simulate", "--model", "ssm", "--m", "3", "--n", "3", "--steps", "100", "--seed", "4"]
        plain = run(capsys, *argv)
        assert run(capsys, *argv, "--max-firings", "100000") == plain and plain[0] == 0

    def test_asm_refuses_a_budget(self, capsys):
        code, out, err = run(capsys, "simulate", "--model", "asm", "--m", "1", "--n", "1",
                             "--steps", "3", "--max-firings", "10")
        assert (code, out) == (2, "")
        assert err == "error: --max-firings applies to --model ssm only: asm has no firing budget\n"

    def test_negative_budget(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", "ssm", "--m", "1", "--n", "1",
                           "--steps", "3", "--max-firings", "-1")
        assert (code, err) == (2, "error: --max-firings must be >= 0\n")
