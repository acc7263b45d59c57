"""The benchmark's probe wraps wikivec names; a rename must fail here first."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_probe_installs_on_this_tree(tmp_path):
    # A traced probe wraps every coarse and per-layer name it times.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "benchmarks")]))
    script = ("import pathlib, probe; "
              f"probe.Probe('vector-eval', True, pathlib.Path({str(tmp_path)!r}))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
