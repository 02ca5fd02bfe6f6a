"""Tests for the command line front end."""

import json
import os
import subprocess
import sys

import pytest

import skyq
from skyq.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_clean_exit_zero(capsys):
    code, out, _ = run_cli(capsys, ["run", "--seed", "3", "--ops", "2000", "--pool", "8"])
    assert code == 0
    assert "ok" in out
    assert "ops=2000" in out


def test_run_every_clean_exit_zero(capsys):
    code, out, _ = run_cli(capsys, ["run", "--seed", "4", "--ops", "1500", "--pool", "8", "--every", "5"])
    assert code == 0
    assert "ok" in out
    assert "ops=1500" in out


def test_bench_emits_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bench", "--n", "500", "--queries", "40", "--updates", "40", "--seed", "9"],
    )
    assert code == 0
    doc = json.loads(out)
    for key in ("n", "b", "B", "epsilon", "ops", "reads", "writes",
                "mean_query_blocks", "mean_update_blocks"):
        assert key in doc
    assert doc["n"] == 500
    assert doc["reads"] > 0


def test_run_deterministic_in_process(capsys):
    a = run_cli(capsys, ["run", "--seed", "11", "--ops", "1200", "--pool", "8"])
    b = run_cli(capsys, ["run", "--seed", "11", "--ops", "1200", "--pool", "8"])
    assert a == b


def test_bench_deterministic_in_process(capsys):
    argv = ["bench", "--n", "400", "--queries", "30", "--updates", "30", "--seed", "2"]
    a = run_cli(capsys, argv)
    b = run_cli(capsys, argv)
    assert a == b


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_module_entry_point_runs():
    # the child imports the same skyq sources as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(skyq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "skyq.cli", "run", "--seed", "1", "--ops", "500", "--pool", "4"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
