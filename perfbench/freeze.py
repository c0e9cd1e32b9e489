"""Write frozen.json: one probe item per workload, with its reference.

    python3 perfbench/freeze.py

The probe is item 0 of the default seed.  Its reference comes from
``reference.py`` and is accepted only where two independent routes
agree.  Later runs read probe and reference from the file, so every
commit is compared with the same numbers; rerun this only to change the
benchmark itself.
"""

import json
from pathlib import Path

from run import DEFAULT_SEED
from workloads import WORKLOADS, item_rng

if __name__ == "__main__":
    out = {}
    for name, wl in WORKLOADS.items():
        item = wl.make_item(item_rng(name, DEFAULT_SEED, 0))
        out[name] = {"item": item, "reference": wl.reference(item)}
    with open(Path(__file__).resolve().parent / "frozen.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
