"""besseltau benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` it prints every end-to-end metric, with ``--trace 1``
every per-layer metric from a separately traced run; the last line of
stdout is one JSON object.  ``--workload all`` runs every workload both
ways in fresh processes and prints one table.  Details of each run go to
``.perfbench_out/``.  ``--write-spec`` regenerates BENCHMARK.json.
"""

import os

#: BLAS/OpenMP threads of every measured process, set before numpy loads:
#: the matrices here are at most 128 x 128, where threads only add noise
PINNED_THREADS = "1"
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from calib import Clock  # noqa: E402
import tracing  # noqa: E402
from workloads import PARAM_BOX, WORKLOADS, item_rng  # noqa: E402

#: seed of the frozen probe items in frozen.json
DEFAULT_SEED = 0
#: fresh interpreters timed per run for setup_s
SETUP_RUNS = 3
MIN_ITEMS = 3
RUN_SECONDS = 15

#: (name, unit, better, bound); the same on every workload.  Scaled item
#: times still spread 5-10% over seeds on the shared build machine, hence
#: the widest bound allowed for them.
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_ms_p50", "ms", "lower", 0.25),
    ("item_ms_tail", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("rel_err_digits", "digits", "higher", 0.25),
)


def load_program():
    """besseltau.cli.main from this checkout's src/, and a CLI runner."""
    if not (SRC / "besseltau" / "cli.py").is_file():
        sys.exit(f"no package source at {SRC}/besseltau")
    sys.path.insert(0, str(SRC))
    import besseltau.cli
    from click.testing import CliRunner

    if Path(besseltau.cli.__file__).resolve().parent != (SRC / "besseltau").resolve():
        sys.exit(f"besseltau was imported from {besseltau.cli.__file__}, not {SRC}")
    return besseltau.cli.main, CliRunner()


class Program:
    def __init__(self):
        self.main, self.runner = load_program()

    def run(self, item):
        """[(exit code, stdout)] and the wall time of each invocation."""
        outputs, times = [], []
        for command, cfg in item["configs"]:
            start = time.perf_counter()
            res = self.runner.invoke(self.main, [command, "-c", "-"], input=json.dumps(cfg))
            times.append(time.perf_counter() - start)
            outputs.append((res.exit_code, res.stdout))
        return outputs, times


def timed(program, item, clock):
    """(item, outputs, wall seconds, scaled seconds); each invocation is
    scaled by the calibrations on its own two sides."""
    outputs, times = program.run(item)
    return item, outputs, sum(times), sum(clock.scale(t) for t in times)


def frozen():
    with open(HERE / "frozen.json") as fh:
        return json.load(fh)


def time_setups(workload):
    """Scaled and wall seconds of fresh interpreters that import and run one item."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload]
    runs = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True, timeout=120)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return [r["scaled"] for r in runs], [r["wall"] for r in runs]


def run_items(program, wl, seed, first, seconds, results, clock):
    """Run fresh items from index ``first`` for ``seconds`` (at least MIN_ITEMS).

    Appends timed() per item.
    """
    start = time.perf_counter()
    index = first
    while True:
        results.append(timed(program, wl.make_item(item_rng(wl.name, seed, index)), clock))
        index += 1
        if time.perf_counter() - start >= seconds and index - first >= MIN_ITEMS:
            return index


def score_items(wl, results):
    scores, problems = [], []
    for item, outputs, *_ in results:
        try:
            ref = wl.reference(item)
        except reference.ReferenceError as exc:
            problems.append(str(exc))
            continue
        try:
            scores.append(wl.check(item, outputs, ref))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
    return scores, problems


def percentile(values, pct):
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def probe_check(program, wl):
    """Run the frozen probe item; check it and prove the check can fail."""
    probe = frozen()[wl.name]
    outputs, _ = program.run(probe["item"])
    score = wl.check(probe["item"], outputs, probe["reference"])
    undetected = [
        what
        for what, bad in wl.perturb(outputs).items()
        if wl.check(probe["item"], bad, probe["reference"]).ok
    ]
    return score, undetected


def measure(wl, seed, seconds, trace):
    program = Program()
    probe, undetected = probe_check(program, wl)  # also the untimed warm-up item
    results = []
    report = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
              "blas_threads": PINNED_THREADS, "param_box": PARAM_BOX}
    if not trace:
        setups, setups_wall = time_setups(wl.name)
        run_items(program, wl, seed, 1, seconds, results, Clock())
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        untraced, traced, clock = [], [], Clock()
        index = run_items(program, wl, seed, 1, seconds / 3, untraced, clock)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i in range(index, 2 * index - 1):
                traced.append(timed(program, wl.make_item(item_rng(wl.name, seed, i)), clock))
        finally:
            tracer.uninstall()
        results = untraced + traced
        overhead = statistics.median(r[3] for r in traced) / statistics.median(r[3] for r in untraced) - 1
    scores, problems = score_items(wl, results)
    failed = sum(not s.ok for s in scores) + len(problems)
    lat = [r[3] for r in results]
    correct = probe.ok and not undetected and failed == 0
    report.update(
        attempted=len(results), failed=failed, fail_frac=failed / len(results),
        probe_ok=probe.ok, probe_reasons=probe.reasons, selftest_undetected=undetected,
        reasons=[why for s in scores for why in s.reasons] + problems,
        probe_max_rel_err=probe.rel_err, probe_ode_residual_max=probe.ode_max,
        probe_est_err_ratio=probe.est_ratio,
        max_rel_err=max((s.rel_err for s in scores), default=None),
        ode_residual_max=max((s.ode_max for s in scores if s.ode_max is not None), default=None),
        est_err_ratio=max((s.est_ratio for s in scores if s.est_ratio is not None), default=None),
        item_s=lat, item_wall_s=[r[2] for r in results],
    )
    if not trace:
        ok_items = sum(s.ok for s in scores)
        report.update(setup_runs_s=setups, setup_runs_wall_s=setups_wall, tail_pct=wl.tail_pct)
        metrics = {
            "items_per_s": ok_items / sum(lat),
            "item_ms_p50": 1e3 * statistics.median(lat),
            "item_ms_tail": 1e3 * percentile(lat, wl.tail_pct),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024,
            "rel_err_digits": -math.log10(max(probe.rel_err, 1e-17)),
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        metrics = tracer.layer_metrics(len(traced), overhead)
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        report.update(traced_items=len(traced), untraced_items=len(untraced), missing_spans=tracer.missing)
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    if trace:
        tracer.save(OUT / f"spans-{wl.name}.npz")
    with open(OUT / f"{wl.name}-trace{trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    for why in report["probe_reasons"] + report["reasons"][:10]:
        print(f"FAILED: {why}")
    for what in undetected:
        print(f"SELF-TEST: perturbation not detected: {what}")
    print(
        f"{wl.name}: {len(results)} items, fail_frac {report['fail_frac']:.3g}, "
        f"probe max_rel_err {probe.rel_err:.3g}, ode_residual_max {report['ode_residual_max']}, "
        f"est_err_ratio {report['est_err_ratio']}, blas threads {PINNED_THREADS}"
    )
    if not trace:
        print(
            f"item_ms_tail is p{wl.tail_pct} of {len(lat)} items; "
            f"unscaled wall p50 {1e3 * statistics.median(r[2] for r in results):.1f} ms"
        )
    result = {
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def run_all(seed, seconds):
    """Each workload, untraced then traced, each in a fresh process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            print(f"\n== {name} (trace {trace}): correct {res['correct']}, "
                  f"{res['failed']}/{res['attempted']} failed")
            for line in proc.stdout.strip().splitlines()[:-1]:
                print("   " + line)
            for metric, v in res["metrics"].items():
                if trace and metric.endswith(".calls") and v["value"] == 0:
                    continue
                print(f"   {metric:<48} {v['value']:>14.6g} {v['unit']}")
    return 0 if ok else 1


def write_spec():
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in tracing.metric_specs()],
    }
    with open(ROOT / "BENCHMARK.json", "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args()
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
