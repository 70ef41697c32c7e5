"""Worker process for set-up and tokenizer-training samples.

    python3 bench/worker.py <workload> <seed> <corpus> <fit> <heldout> <vocab>

Prints one JSON line with the samples; ``harness.Run.fresh_process``
starts it once per measured round and waits for it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import harness
    import workloads

    name, seed, *sizes = argv
    samples = harness.fresh_process_samples(name, int(seed), workloads.Sizes(*map(int, sizes)))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
