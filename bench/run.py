"""Run one workload of the trendgraph benchmark and print its result.

    python3 bench/run.py --workload minibatch-300 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Standard output ends with a table of the metrics, the
run record as one JSON line (environment, seed, sample counts, failures),
and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Working files go
to ``.bench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import socket
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _openblas():
    """OpenBLAS build string and thread count, read from the library numpy loaded."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        try:
            get_config, get_threads = (lib.scipy_openblas_get_config64_,
                                       lib.scipy_openblas_get_num_threads64_)
        except AttributeError:
            continue
        get_config.restype = ctypes.c_char_p
        get_threads.restype = ctypes.c_int
        return get_config().decode(), get_threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy as np

    blas, threads = _openblas()
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _number(value):
    value = float(value)
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trendgraph" / "__init__.py").is_file():
        print(f"error: no trendgraph sources under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS before numpy loads; each workload runs in its own process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             ROOT / ".bench_work")
    except harness.BenchAbort as exc:
        print(f"error: {exc}; no result", file=sys.stderr)
        return 1

    record = {"environment": environment(), **result.record}
    rows = {**result.metrics, **result.ungated}
    for name, (value, unit) in rows.items():
        n = record["samples"].get(harness.SAMPLED_AS.get(name, name), {}).get("n")
        shown = "" if n is None else f"  (n={n})"
        print(f"{name:<36} {value:>16.6g} {unit:<9}{shown}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.ledger.attempted,
        "failed": result.ledger.failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
