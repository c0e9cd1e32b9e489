"""One setup measurement: import besseltau and run one item, in this process.

    python3 perfbench/setup_child.py <workload>

Prints {"scaled": s, "wall": s}.  Only the standard library is loaded
before the clock starts, so numpy, scipy and click count as setup.
"""

import json
import sys
import time
from pathlib import Path

from calib import Clock

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    with open(here / "frozen.json") as fh:
        item = json.load(fh)[sys.argv[1]]["item"]
    clock = Clock()
    # the import and each invocation are scaled by their own calibrations
    start = time.perf_counter()
    sys.path.insert(0, str(here.parent / "src"))
    from besseltau.cli import main
    from click.testing import CliRunner

    runner = CliRunner()
    spans = [time.perf_counter() - start]
    scaled = clock.scale(spans[0])
    for command, cfg in item["configs"]:
        start = time.perf_counter()
        runner.invoke(main, [command, "-c", "-"], input=json.dumps(cfg))
        spans.append(time.perf_counter() - start)
        scaled += clock.scale(spans[-1])
    print(json.dumps({"scaled": scaled, "wall": sum(spans)}))
