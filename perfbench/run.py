#!/usr/bin/env python3
"""lavasim replay benchmark.

    python3 perfbench/run.py --workload small-pool-compare --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports lavasim from
``src/`` and writes only under ``perfbench/out/``.  It sets a workload up
several times (trace generation, TSV write and parse, empirical-model fit,
simulator construction), then replays the workload's configurations again
and again until ``--seconds`` have passed, in one process with no worker
pools.  Every replay's ``series.csv`` and ``summary.json`` are hashed
(SHA-256) and checked against the first repetition, against the digests
recorded in ``digests.json`` for this seed, and against occupancy recomputed
from the trace; a replay that raises or fails a check counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics, measured
with no tracing.  With ``--trace 1`` untraced and traced repetitions
alternate and the last line reports per-layer counts and self times from
``spans.py``.  The metrics are also printed one per line, with their units,
above it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class SourcesMissing(Exception):
    pass


def load_lavasim() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "lavasim" / "__init__.py").is_file():
        raise SourcesMissing(f"lavasim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import lavasim
    if Path(lavasim.__file__).resolve().parent != SRC / "lavasim":
        raise SourcesMissing(f"imported lavasim from {lavasim.__file__}, not {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description="lavasim replay benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_lavasim()
    except (SourcesMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
