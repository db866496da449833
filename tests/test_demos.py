"""Smoke runs of the quick demos. Demo 04 trains for about a minute and is
left out."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

CASES = [
    ("01_autodiff_basics.py", "tape ops: {'matmul': 2, 'relu': 1, 'sigmoid': 1, 'mul': 1, 'sum_all': 1}"),
    ("02_attention_and_fusion.py", "row sums: [1.]"),
    ("03_synthetic_clips.py", "disk round-trip bit-identical: True"),
]


@pytest.mark.parametrize("script,expected", CASES, ids=[c[0] for c in CASES])
def test_demo_runs(script, expected):
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout.splitlines()
