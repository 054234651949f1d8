"""The README's examples, run as written against the package in ``src/``.

The command-line example must print exactly the block the README shows
after it, and the library snippet must run.
"""

import os
import re
import shlex
import subprocess
import sys

from conftest import REPO

README = (REPO / "README.md").read_text(encoding="utf-8")


def fenced_blocks(section: str) -> list[tuple[str, str]]:
    """(language, body) of every fenced block under a ``##`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", body, re.DOTALL)


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, env=env, capture_output=True, text=True, timeout=60
    )


def test_command_line_example_prints_what_the_readme_shows():
    (lang, command), (_, shown) = fenced_blocks("Command line")[:2]
    assert lang == "sh"
    program, *argv = shlex.split(command)
    assert program == "zonereach"
    done = run_python("-m", "zonereach.cli", *argv)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == shown


def test_library_snippet_runs():
    (lang, snippet), = fenced_blocks("Library")
    assert lang == "python"
    done = run_python("-c", snippet)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"False \d+\n", done.stdout)


def test_stats_row_names_every_counter():
    row = next(line for line in README.splitlines() if line.startswith("| `--stats` |"))
    done = run_python("-m", "zonereach.cli", "specs/train_gate_controller.ta", "--stats",
                      "--query", "go(Far.Up.u0.nil/true, In.Up.u0.nil/true)")
    assert done.returncode == 0, done.stderr
    fields = re.findall(r"(\w+)=", done.stdout.splitlines()[-1])
    assert fields == ["stored", "popped", "subsumed", "disabled", "permuted", "time"]
    assert all(field in row for field in fields)
