"""Every pinned output of the command line: each ``golden.ROWS`` row, run in a
fresh interpreter (so each row starts its own scoring pool), launched as its
variant and checked byte for byte."""

import hashlib
import os
import shlex
import subprocess
import sys

import pytest

from golden import BASELINE_SIMD, ONE_CPU, ROWS, child_env, deterministic_bytes


def baseline_simd_env() -> dict:
    """``child_env()`` with every SIMD feature numpy dispatches to on this CPU
    turned off (naming the baseline instead makes numpy abort at import)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("numpy does not list the SIMD features it dispatches to")
    features = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if not features:
        pytest.skip("numpy dispatches to no SIMD feature on this CPU")
    return {**child_env(), "NPY_DISABLE_CPU_FEATURES": " ".join(features)}


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_row_ids_are_unique():
    assert len({row.id for row in ROWS}) == len(ROWS)


def test_baseline_simd_reaches_the_child():
    env = baseline_simd_env()
    script = ("from numpy._core._multiarray_umath import __cpu_features__ as on\n"
              f"print([name for name in {env['NPY_DISABLE_CPU_FEATURES'].split()!r} if on[name]])")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_golden_row(row, tmp_path):
    argv = [arg.format(out=tmp_path) for arg in shlex.split(row.command)]
    env = baseline_simd_env() if row.variant == BASELINE_SIMD else child_env()
    proc = subprocess.run([sys.executable, "-m", "phasecode.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          preexec_fn=_one_cpu if row.variant == ONE_CPU else None)
    assert proc.returncode == 0, proc.stderr
    written = {path.name: path for path in tmp_path.iterdir()}
    assert sorted(written) == sorted({*row.lines, *row.sha256} - {"stdout"})
    for name, expected in row.lines.items():
        text = proc.stdout if name == "stdout" else written[name].read_text()
        assert [line for line in expected if line not in text.splitlines()] == [], name
    digests = {name: hashlib.sha256(deterministic_bytes(written[name])).hexdigest()
               for name in row.sha256}
    assert digests == row.sha256
