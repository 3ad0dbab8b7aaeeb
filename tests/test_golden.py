"""Every pinned output of the command line: each ``golden.ROWS`` row, run in a
fresh interpreter (so each row starts its own scoring pool) and checked
byte for byte."""

import hashlib
import os
import shlex
import subprocess
import sys

import pytest

from golden import ROWS, child_env, deterministic_bytes


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_golden_row(row, tmp_path):
    argv = [arg.format(out=tmp_path) for arg in shlex.split(row.command)]
    proc = subprocess.run([sys.executable, "-m", "phasecode.cli", *argv], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True,
                          preexec_fn=_one_cpu if row.one_cpu else None)
    assert proc.returncode == 0, proc.stderr
    written = {path.name: path for path in tmp_path.iterdir()}
    assert sorted(written) == sorted({*row.lines, *row.sha256} - {"stdout"})
    for name, expected in row.lines.items():
        text = proc.stdout if name == "stdout" else written[name].read_text()
        assert [line for line in expected if line not in text.splitlines()] == [], name
    digests = {name: hashlib.sha256(deterministic_bytes(written[name])).hexdigest()
               for name in row.sha256}
    assert digests == row.sha256
