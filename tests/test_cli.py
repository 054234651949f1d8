"""Command-line behaviour: output formats and exit codes."""

import errno
import io
import os
import re
import subprocess
import sys

import pytest

from conftest import DIVERGING_PATH, QUERIES_PATH, REPO, TRAIN_PATH
from zonereach import cli, explorer
from zonereach.formula import Formula

INSIDE = "go(Far.Up.u0.nil/true, In.Down.u0.nil/true)"
UNSAFE = "go(Far.Up.u0.nil/true, In.Up.u0.nil/true)"


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A standard input that holds ``data``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_verdict_lines_are_tab_separated(run):
    code, out, err = run(TRAIN_PATH, "--query", INSIDE, "--query", UNSAFE)
    assert code == cli.OK and err == ""
    assert out.splitlines() == [f"{INSIDE}\tTrue", f"{UNSAFE}\tFalse"]


def test_witness_line_follows_reachable_verdicts_only(run):
    code, out, _ = run(TRAIN_PATH, "--witness", "--query", INSIDE, "--query", UNSAFE)
    assert code == cli.OK
    lines = out.splitlines()
    assert lines[1] == "# witness: app lower down enter"
    assert len(lines) == 3  # no witness line after the False verdict


def test_empty_witness_is_marked(run):
    query = "go(Far.Up.u0.nil/true, Far.Up.u0.nil/true)"
    _, out, _ = run(TRAIN_PATH, "--witness", "--query", query)
    assert out.splitlines()[1] == "# witness: (empty)"


def test_stats_line_shape(run):
    code, out, _ = run(TRAIN_PATH, "--stats", "--query", UNSAFE)
    assert code == cli.OK
    assert re.fullmatch(r"# stats: stored=\d+ popped=\d+ subsumed=\d+ disabled=\d+ permuted=\d+ time=\d+\.\d\ds", out.splitlines()[1])


def test_query_file_skips_comments(run):
    code, out, _ = run(TRAIN_PATH, "--queries", QUERIES_PATH)
    assert code == cli.OK
    assert [line.split("\t")[1] for line in out.splitlines()] == ["True", "False"]


def test_stdin_queries_when_no_flag_given(run, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(f"// header\n{INSIDE}\n\n".encode()))
    code, out, _ = run(TRAIN_PATH)
    assert code == cli.OK
    assert out == f"{INSIDE}\tTrue\n"


def test_output_is_deterministic(run):
    first = run(TRAIN_PATH, "--witness", "--queries", QUERIES_PATH)
    second = run(TRAIN_PATH, "--witness", "--queries", QUERIES_PATH)
    assert first == second


def test_backend_and_order_flags_agree(run):
    for backend in ("dbm", "formula"):
        for order in ("dfs", "bfs"):
            code, out, _ = run(
                TRAIN_PATH, "--backend", backend, "--order", order, "--queries", QUERIES_PATH
            )
            assert code == cli.OK
            assert out.count("True") == 1 and out.count("False") == 1


def test_missing_spec_file(run, tmp_path):
    code, out, err = run(tmp_path / "absent.ta", "--query", INSIDE)
    assert code == cli.NO_FILE and out == "" and "cannot read" in err


def test_unparseable_spec(run, tmp_path):
    bad = tmp_path / "bad.ta"
    bad.write_text("this is not a specification\n")
    code, out, err = run(bad, "--query", INSIDE)
    assert code == cli.BAD_INPUT and out == ""
    assert str(bad) in err


def test_bad_query_reports_and_fails(run):
    code, _, err = run(TRAIN_PATH, "--query", "go(oops")
    assert code == cli.BAD_INPUT
    assert "go(oops" in err


def test_spec_that_is_not_utf8(run, tmp_path):
    bad = tmp_path / "utf16.ta"
    bad.write_bytes(b"\xff\xfen\x00e\x00t\x00")
    code, out, err = run(bad, "--query", INSIDE)
    assert code == cli.NO_FILE and out == ""
    assert err == f"zonereach: cannot read {bad}: not UTF-8 text\n"


def test_query_file_that_is_not_utf8(run, tmp_path):
    bad = tmp_path / "queries.txt"
    bad.write_bytes(b"\xff\xfeg\x00o\x00")
    code, out, err = run(TRAIN_PATH, "--queries", bad)
    assert code == cli.NO_FILE and out == ""
    assert err == f"zonereach: cannot read {bad}: not UTF-8 text\n"


def test_stdin_that_is_not_utf8(run, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(b"go(\xff)\n"))
    code, out, err = run(TRAIN_PATH)
    assert code == cli.NO_FILE and out == ""
    assert err == "zonereach: cannot read <stdin>: not UTF-8 text\n"


def test_closed_stdin_is_reported_not_a_traceback(run, monkeypatch):
    # a program started with standard input closed (``<&-``) sees None
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(TRAIN_PATH)
    assert code == cli.NO_FILE and out == ""
    assert err == f"zonereach: cannot read <stdin>: {os.strerror(errno.EBADF)}\n"


def test_stdin_is_utf8_whatever_the_locale_encoding():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONIOENCODING="ascii")
    for data, code, err in [(f"{INSIDE}\n".encode(), cli.OK, b""),
                            (b"go(\xff)\n", cli.NO_FILE,
                             b"zonereach: cannot read <stdin>: not UTF-8 text\n")]:
        done = subprocess.run([sys.executable, "-m", "zonereach", str(TRAIN_PATH)], input=data,
                              capture_output=True, env=env, cwd=REPO, timeout=60)
        assert (done.returncode, done.stderr) == (code, err)


def test_missing_query_file(run, tmp_path):
    absent = tmp_path / "absent.txt"
    code, out, err = run(TRAIN_PATH, "--queries", absent)
    assert code == cli.NO_FILE and out == ""
    assert err.startswith(f"zonereach: cannot read {absent}: ") and err.count("\n") == 1


def test_constant_near_the_bound_sentinel_is_refused(run, tmp_path):
    # 2 * c + 1 is past INF here, so the invariant used to read as no
    # bound and the target X > 7 * 10**17 was answered True
    huge = tmp_path / "huge.ta"
    huge.write_text(
        "specification huge\nClocks X nil\nStates s nil\nLabels a nil\nAutomata\n"
        "  ( Locations s nil\n    Labels a nil\n"
        "    Invariants s : X<=600000000000000000 ^ true nil\n"
        "    Transitions nil\n  ) .\n  nil\nend\n"
    )
    query = "go(s.nil/true, s.nil/X>700000000000000000 ^ true)"
    for flags in ((), ("--backend", "formula", "--no-extrapolate"), ("--selftest",)):
        code, out, err = run(huge, "--query", query, *flags)
        assert code == cli.BAD_INPUT and out == ""
        assert err.startswith(f"{huge}: constant 600000000000000000 exceeds ")
    query = "go(Far.Up.u0.nil/true, Far.Up.u0.nil/X>2000000000000 ^ true)"
    code, out, err = run(TRAIN_PATH, "--query", query)
    assert code == cli.BAD_INPUT and out == ""
    assert err.startswith(f"query {query!r}: line 1, col 40: constant 2000000000000 exceeds ")


def test_faithful_still_answers_the_bounded_system(run):
    code, out, _ = run(
        TRAIN_PATH, "--subsume", "equal", "--no-extrapolate", "--queries", QUERIES_PATH
    )
    assert code == cli.OK
    assert [line.split("\t")[1] for line in out.splitlines()] == ["True", "False"]


def test_limits_give_up_with_status_3(run):
    code, out, err = run(TRAIN_PATH, "--max-zones", 1, "--queries", QUERIES_PATH)
    assert code == cli.GAVE_UP
    assert "zone limit exceeded" in err
    assert out == ""  # both queries need search, so neither gets a verdict
    code, _, err = run(TRAIN_PATH, "--timeout", 0, "--query", UNSAFE)
    assert code == cli.GAVE_UP and "time limit exceeded" in err


def test_a_witness_that_does_not_replay_exactly_gives_up_with_status_3(run, monkeypatch):
    query = "go(s0.nil/x=0 ^ y=0 ^ true, s0.nil/x-y<0 ^ true)"  # diagonal: Extra_M
    code, out, _ = run(DIVERGING_PATH, "--query", query)
    assert code == cli.OK and out == f"{query}\tTrue\n"
    monkeypatch.setattr(explorer, "replay_witness", lambda *args: False)
    code, out, err = run(DIVERGING_PATH, "--query", query)
    assert code == cli.GAVE_UP and out == ""
    assert err == f"zonereach: {query}: witness does not replay exactly\n"


def test_negative_limits_are_rejected(run):
    code, out, err = run(TRAIN_PATH, "--max-zones", -3, "--query", UNSAFE)
    assert code == cli.BAD_INPUT and out == "" and "negative zone limit" in err
    code, out, err = run(TRAIN_PATH, "--timeout", -1, "--query", UNSAFE)
    assert code == cli.BAD_INPUT and out == "" and "negative time limit" in err
    code, out, err = run(TRAIN_PATH, "--timeout", "nan", "--query", UNSAFE)
    assert code == cli.BAD_INPUT and out == "" and "time limit nan is not a number" in err


def test_stats_line_follows_every_query_even_inconclusive(run):
    code, out, err = run(TRAIN_PATH, "--max-zones", 2, "--stats", "--queries", QUERIES_PATH)
    assert code == cli.GAVE_UP and err.count("zone limit exceeded") == 2
    lines = out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert re.fullmatch(r"# stats: stored=2 popped=\d+ subsumed=\d+ disabled=\d+ permuted=\d+ time=\d+\.\d\ds", line)


def test_the_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-m", "zonereach", "--help"],
                          capture_output=True, text=True, env=env, cwd=REPO, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: zonereach ")


def test_unknown_flag_exits_like_a_missing_file(run):
    with pytest.raises(SystemExit) as exc:
        cli.main([str(TRAIN_PATH), "--what"])
    assert exc.value.code == cli.NO_FILE


def test_selftest_reports_agreement(run):
    code, out, err = run(TRAIN_PATH, "--selftest", "--queries", QUERIES_PATH)
    assert code == cli.OK and err == ""
    assert out == "agree: 2/2\n"


def test_selftest_prints_a_stats_line_per_search(run):
    code, out, err = run(TRAIN_PATH, "--selftest", "--stats", "--queries", QUERIES_PATH)
    assert code == cli.OK and err == ""
    lines = out.splitlines()
    assert lines[-1] == "agree: 2/2"
    configs = [re.fullmatch(r"# stats: (\w+/\w+) stored=\d+ popped=\d+ subsumed=\d+ disabled=\d+ permuted=\d+ time=\d+\.\d\ds", line)
               for line in lines[:-1]]
    assert all(configs)
    assert [m.group(1) for m in configs] == ["dbm/dfs", "dbm/bfs", "formula/dfs", "formula/bfs"] * 2


def test_selftest_refuses_witness(run):
    code, out, err = run(TRAIN_PATH, "--selftest", "--witness", "--queries", QUERIES_PATH)
    assert code == cli.BAD_INPUT and out == ""
    assert "--witness" in err


def test_selftest_with_no_queries(run, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(b""))
    code, out, _ = run(TRAIN_PATH, "--selftest")
    assert code == cli.OK and out == "agree: 0/0\n"


def test_selftest_propagates_inconclusive(run):
    code, out, err = run(TRAIN_PATH, "--selftest", "--max-zones", 1, "--queries", QUERIES_PATH)
    assert code == cli.GAVE_UP and out == ""
    assert err.startswith("inconclusive: go(")


def test_selftest_flags_an_injected_backend_fault(run, monkeypatch):
    monkeypatch.setattr(Formula, "is_empty", lambda self: True)
    code, out, err = run(TRAIN_PATH, "--selftest", "--query", INSIDE)
    assert code == cli.DIVERGED and out == ""
    lines = err.splitlines()
    assert lines[0] == f"divergence: {INSIDE}"
    assert "  dbm/dfs: True" in lines and "  formula/dfs: False" in lines
