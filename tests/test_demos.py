"""The demo scripts run to the end and print their headline lines."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fault_diagnosis_demo():
    out = run_demo("fault_diagnosis_fusion.py")
    assert "m(A2)=0.3443  m(A3)=0.6557  m(A1,A2,A3)=0.0000  ->  decision A3" in out
    assert "uniform-weight fusion        m(A1)=0.9715" in out
    assert "iterative credible fusion    m(A1)=0.9974" in out
    assert "converged: True in 7 steps" in out
    assert out.rstrip().endswith("consistent!")


def test_iris_benchmark_demo():
    out = run_demo("iris_benchmark.py", "2")
    assert "iris: 150 records, 4 attributes" in out
    assert "Total             0.9556      0.9667      0.9444" in out
    assert "dcr          mean=0.9027  min=0.9000  max=0.9133  over 51 fractions" in out
    assert "murphy       mean=0.9139  min=0.9067  max=0.9333  over 51 fractions" in out
    assert "icef-pbagd   mean=0.9325  min=0.9267  max=0.9400  over 51 fractions" in out
    assert "iterative fusion vs plain combination: 0.9444 vs 0.9556" in out
