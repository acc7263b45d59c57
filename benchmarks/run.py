"""wikivec benchmark: one workload, one seed, one JSON line of results.

    python3 benchmarks/run.py --workload wiki-ingest --seed 1 --seconds 20 --trace 0

Run from the repository root.  Inputs are generated from the seed in this
process and cached under ``.bench_cache/`` (checked by digest on reuse); the
workload then runs in a fresh child process that imports wikivec from
``src/``, so the child's peak RSS is the program's alone.  ``--trace 1``
reports per-layer metrics instead of end-to-end ones, prints a per-layer
table and writes spans to ``.bench_runs/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spec  # noqa: E402

GEN_VERSION = 1
KEEP_CACHED = 3  # input sets kept per workload and size
TIMEOUT_S = 170
# One BLAS thread per process: the machine has two cores and the parallel
# workload runs two worker processes.
THREADS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")}


def _digests(folder: Path) -> dict[str, str]:
    out = {}
    for path in sorted(folder.rglob("*")):
        if path.is_file() and path.name != "digests.json":
            out[str(path.relative_to(folder))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def inputs_for(root: Path, workload: str, size: str, seed: int) -> Path:
    """Generated inputs for (workload, size, seed), reused when their digests hold."""
    params = spec.gen_params(workload, size)
    tag = hashlib.sha256(json.dumps([GEN_VERSION, params], sort_keys=True).encode()).hexdigest()
    base = root / ".bench_cache" / workload
    folder = base / f"{size}-seed{seed}-{tag[:12]}"
    stamp = folder / "digests.json"
    if stamp.exists() and json.loads(stamp.read_text()) == _digests(folder):
        os.utime(folder)
        return folder
    shutil.rmtree(folder, ignore_errors=True)
    gen.generate(params, seed, folder)
    stamp.write_text(json.dumps(_digests(folder)))
    cached = sorted((p for p in base.iterdir() if p.name.startswith(size + "-")),
                    key=lambda p: p.stat().st_mtime)
    for old in cached[:-KEEP_CACHED]:
        shutil.rmtree(old, ignore_errors=True)
    return folder


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: smallest inputs, one round (for the smoke test)")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "wikivec" / "cli.py").is_file():
        print(f"error: {root} holds no src/wikivec; run from the repository root",
              file=sys.stderr)
        return 2
    inputs = inputs_for(root, args.workload, args.size, args.seed)
    warmup = inputs_for(root, args.workload, "warmup", 0)
    work = root / ".bench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **THREADS_ENV,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--inputs", str(inputs), "--warmup", str(warmup), "--work", str(work),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=TIMEOUT_S,
                              text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
