"""Smoke tests: every demo script runs to completion without stderr output, and
the README's Python examples and CLI lines run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from randlr.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_python_blocks_run_in_order(capsys):
    # the quickstart shares one namespace across its blocks, as a reader pastes them
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["p"].feasible
    assert capsys.readouterr().err == ""


def test_readme_cli_lines_run_in_an_empty_directory(tmp_path, monkeypatch, capsys):
    # each `randlr` line of the CLI section in order, as a reader pastes them
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```bash\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("randlr ")]
    assert len(lines) == 8

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)
        code = main(argv[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), line
        json.loads(out, parse_constant=reject)
