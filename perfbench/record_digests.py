"""Record the sha256 of the barcode text for each workload seed.

Run from the repository root at the commit whose outputs are the
reference (the benchmark compares every timed solve against this table):

    python3 perfbench/record_digests.py [first_seed] [last_seed]

Only the pipeline workloads are recorded; manifold_dual is checked by
route agreement instead. Seeds missing from the table fall back to the
staged public-call route as reference (see run.py).
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from zzpers import compute_zigzag  # noqa: E402

from checks import text_digest  # noqa: E402
from workloads import WORKLOADS, make_filtration  # noqa: E402

TABLE = HERE / "digests.json"


def main(argv) -> int:
    first = int(argv[1]) if len(argv) > 1 else 0
    last = int(argv[2]) if len(argv) > 2 else 63
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    for w in WORKLOADS.values():
        if w.manifold:
            continue
        entries = table.setdefault(w.name, {})
        for seed in range(first, last + 1):
            f = make_filtration(w.full, seed)
            entries[str(seed)] = text_digest(compute_zigzag(f).barcode.to_text())
            del f
            gc.collect()
            print(w.name, seed, entries[str(seed)], flush=True)
            TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
