"""powergraphs benchmark: one workload, one seed, one measured run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed under .bench_work/, measures
set-up time in fresh interpreters, runs the jobs in one child process
(bench/worker.py) for S seconds, checks every output, prints one line per
metric and, as the last line, a JSON object with "correct", "attempted",
"failed" and "metrics".  With --trace 0 the metrics are the end-to-end ones
(setup_s, job_s, peak_rss_mb, ok_ratio); with --trace 1 the child also runs
a traced pass and the metrics are the per-layer ones listed in
BENCHMARK.json.  setup_s and job_s are wall times normalised by an
in-process speed probe (speed.py); the raw wall times are printed beside
them.  Exits 2 without a result when src/powergraphs is missing.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_SAMPLES = 30
# Time in a fresh interpreter to import the package and the CLI and build
# the parser: what every CLI invocation pays before doing any work.  The
# speed probe runs just before and just after, to normalise it (speed.py).
SETUP_CODE = """\
import sys, time
sys.path.append(sys.argv[1])
import speed
probes = speed.time_probes(speed.MIN_PROBES)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import powergraphs, powergraphs.cli
powergraphs.cli.build_parser()
wall = time.perf_counter() - t0
probes += speed.time_probes(speed.MIN_PROBES)
print(wall, speed.normalise(wall, probes))
"""
CHILD_GRACE_S = 120
PERCENTILES = (90, 95, 99)


def measure_setup(src: Path):
    """Medians of wall and normalised set-up times over SETUP_SAMPLES fresh interpreters.

    The first interpreter, which writes bytecode, is not counted.
    """
    walls, normalised = [], []
    for sample in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(BENCH), str(src)],
                             capture_output=True, text=True, check=True, timeout=60).stdout
        if sample:
            wall, norm = map(float, out.split())
            walls.append(wall)
            normalised.append(norm)
    return statistics.median(walls), statistics.median(normalised)


def job_stats(times):
    """Median, quartiles, count and the highest percentile with ten samples beyond it."""
    stats = {"median": statistics.median(times), "n": len(times)}
    if len(times) >= 2:
        stats["p25"], _, stats["p75"] = statistics.quantiles(times, n=4)
    for p in PERCENTILES:
        if len(times) * (100 - p) / 100 >= 10:
            stats["tail"] = (p, statistics.quantiles(times, n=100)[p - 1])
    return stats


def check_outputs(workload, jobs, rundir, executions):
    """Failed executions: wrong output, raised, timed out, or differing from the first run."""
    first = {}
    failures = []
    for item_id, digest, phase in executions:
        if item_id not in first:
            job, position = map(int, item_id.split("."))
            record = json.loads((rundir / "outputs" / f"{item_id}.json").read_text())
            if isinstance(record["code"], str):
                reason = record["code"]
            else:
                reason = workload.check(jobs[job][position], record)
            first[item_id] = (digest, reason)
        expected_digest, reason = first[item_id]
        if reason is None and digest != expected_digest:
            reason = f"{phase} output differs from the first output of the same item"
        if reason is not None:
            failures.append((item_id, phase, reason))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "powergraphs" / "__init__.py").is_file():
        print(f"error: {src / 'powergraphs'} not found; run from the root of a powergraphs checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]

    rundir = root / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(rundir, ignore_errors=True)
    inputs = rundir / "inputs"
    inputs.mkdir(parents=True)
    jobs = workload.generate(args.seed, args.seconds, inputs.relative_to(root))
    (inputs / "jobs.json").write_text(json.dumps({"workload": args.workload, "jobs": jobs}))

    setup_wall_s, setup_s = (None, None) if args.trace else measure_setup(src)
    try:
        worker = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(rundir),
                                 str(args.seconds), str(args.trace)],
                                cwd=root, stdout=subprocess.DEVNULL,
                                timeout=args.seconds + CHILD_GRACE_S)
        failure = f"worker exited with code {worker.returncode}" if worker.returncode else None
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        failure = f"worker still running after {args.seconds + CHILD_GRACE_S:g} s"
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    result = json.loads((rundir / "result.json").read_text())

    failures = check_outputs(workload, jobs, rundir, result["executions"])
    attempted = len(result["executions"])
    for item_id, phase, reason in failures[:10]:
        print(f"FAIL item {item_id} ({phase}): {reason}", file=sys.stderr)
    fail_ratio = len(failures) / attempted
    correct = not failures

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{len(jobs)} distinct jobs, {attempted} items run")
    if args.trace:
        traced = result["traced"]
        correct = correct and traced["namespaces_restored"]
        if not traced["namespaces_restored"]:
            print("FAIL: the tracer left the package's namespaces changed", file=sys.stderr)
        # Each traced job against the untraced run of the same job just before it.
        metrics = dict(traced["metrics"])
        metrics["trace_overhead_ratio"] = statistics.median(t / u for _, u, t in traced["pairs"])
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {unit_of(name)}")
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        stats = job_stats([norm for _, _, norm in result["samples"]])
        job_wall_s = statistics.median(wall for _, wall, _ in result["samples"])
        quartiles = (f"p25 {stats['p25']:.4f}, p75 {stats['p75']:.4f}, " if "p25" in stats else "")
        tail = (f", p{stats['tail'][0]} {stats['tail'][1]:.4f}" if "tail" in stats
                else ", no percentile above the median has ten samples beyond it")
        print(f"setup_s {setup_s:.6f} s (median of {SETUP_SAMPLES} fresh interpreters, normalised; "
              f"wall {setup_wall_s:.6f} s)")
        print(f"job_s {stats['median']:.6f} s (normalised; {quartiles}n {stats['n']}{tail}; "
              f"wall {job_wall_s:.6f} s)")
        print(f"peak_rss_mb {result['peak_rss_mb']:.3f} MB")
        print(f"fail_ratio {fail_ratio:.6g} ratio ({len(failures)} of {attempted} items)")
        print(f"ok_ratio {1 - fail_ratio:.6g} ratio")
        out = {"setup_s": {"value": setup_s, "unit": "s"},
               "job_s": {"value": stats["median"], "unit": "s"},
               "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
               "ok_ratio": {"value": 1 - fail_ratio, "unit": "ratio"}}
    shutil.rmtree(inputs)
    shutil.rmtree(rundir / "outputs")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": out}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
