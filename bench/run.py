"""melbert benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload synth-short --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload long-mixed --seed 1 --seconds 25 --trace 1 --out new.json
    python3 bench/run.py --compare old.json new.json

Human-readable lines (metrics with units and sample counts, input
properties, machine) come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed. ``--out``
merges the full record into a results file, which ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("synth-short", "long-mixed", "open-vocab")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="merge the full record into this results file")
    p.add_argument("--spans", type=Path, help="with --trace 1, write every span here as JSON lines")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                   help="print each metric's NEW/OLD ratio per workload and exit")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required unless --compare is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "melbert" / "__init__.py").is_file():
        print(f"error: melbert sources not found under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, so process CPU time is the caller's busy time; this
    # must be set before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare is not None:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        print(harness.compare(old, new))
        return 0

    budget = harness.Budget(seconds=args.seconds)
    try:
        record, ledger = harness.run_benchmark(
            args.workload, args.seed, budget, bool(args.trace), ROOT, spans_path=args.spans)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(harness.render(record))
    if args.out is not None:
        harness.save_record(args.out, record)
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
