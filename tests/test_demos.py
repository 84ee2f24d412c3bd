"""Smoke test: every script in demos/ and README's quick start run to completion."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_readme_quick_start_runs(tmp_path):
    # The block imports training names from the package, which resolves
    # them on first use, and states the two optima in a comment.
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, flags=re.DOTALL)
    (stated,) = re.findall(r"# (\d\.\d+ vs \d\.\d+)", block)
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    p_thr, p_spec = (float(word) for word in proc.stdout.splitlines()[0].split())
    assert f"{p_thr:.4f} vs {p_spec:.4f}" == stated
    assert float(proc.stdout.splitlines()[1]) > 0.0
