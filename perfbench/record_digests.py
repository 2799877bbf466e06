#!/usr/bin/env python3
"""Record the replay digests that ``run.py`` checks outputs against.

    python3 perfbench/record_digests.py --seeds 0-11

Replays every workload once per seed, untraced, checks the outputs against
the trace, and stores the SHA-256 of each replay's ``series.csv`` followed by
``summary.json`` in ``perfbench/digests.json``.  Re-record only in a change
that means to alter simulated behaviour, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=parse_seeds, required=True, help="N or N-M")
    p.add_argument("--workloads", nargs="*", default=None)
    args = p.parse_args(argv)
    run.load_lavasim()
    import bench
    import verify
    import workloads

    digests = bench.load_digests()
    for name in args.workloads or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        out_dir = bench.OUT / name
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            prepared = workloads.setup(w, seed, str(out_dir))
            _, outputs = workloads.run_repetition(prepared, str(out_dir))
            for out in outputs:
                verify.check_series(out.series_path, prepared.trace, out.summary, w.hosts,
                                    workloads.HOST_CAPACITY.cpu_m, w.sim.sample_interval_s,
                                    w.sim.defrag.max_concurrent)
            digests.setdefault(name, {})[str(seed)] = {o.key: o.digest for o in outputs}
            print(f"{name} seed={seed} " +
                  " ".join(f"{o.key}={o.digest[:12]}" for o in outputs), flush=True)
    with open(bench.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
