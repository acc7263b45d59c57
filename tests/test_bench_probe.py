"""The benchmark's probe wraps wikivec names, and its spec builds CLI command
lines; a rename or a CLI change that breaks either must fail here first."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wikivec import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_spec():
    location = importlib.util.spec_from_file_location("bench_spec", ROOT / "benchmarks" / "spec.py")
    module = importlib.util.module_from_spec(location)
    location.loader.exec_module(module)
    return module


SPEC = _load_spec()


def test_benchmark_probe_installs_on_this_tree(tmp_path):
    # A traced probe wraps every coarse and per-layer name it times.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "benchmarks")]))
    script = ("import pathlib, probe; "
              f"probe.Probe('vector-eval', True, pathlib.Path({str(tmp_path)!r}))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", sorted(SPEC.WORKLOADS))
def test_benchmark_command_lines_parse_and_resolve(tmp_path, workload):
    # Parsing and resolving run no handler, so no input needs to exist.
    argvs = SPEC.commands(workload, tmp_path / "inputs", tmp_path / "out",
                          published_buckets=[1000, 4000, 8000])
    for argv in argvs:
        args = cli._build_parser().parse_args(argv)
        assert args.command in cli._COMMANDS
        cli._resolve_options(args)
    assert list(tmp_path.iterdir()) == []
