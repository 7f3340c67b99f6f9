"""Child process that runs one workload's jobs; started by run.py.

Usage: python3 bench/worker.py RUNDIR SECONDS TRACE

Runs the jobs in RUNDIR/inputs/jobs.json round-robin, untraced, until
SECONDS have passed, timing each job in wall time and in wall time
normalised by the speed probe of speed.py, which samples the machine's
speed in this process throughout.  With TRACE 1 it then runs traced and
untraced copies of the first jobs in alternating pairs.  It writes
RUNDIR/result.json, the first output of each item under RUNDIR/outputs/,
and with TRACE 1 the spans to RUNDIR/spans.jsonl.  It prints nothing on
stdout.
"""

import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ITEM_TIMEOUT_S = 30
# Traced jobs, each paired with an untraced run of the same job: at least
# TRACED_PAIRS_MIN, and up to TRACED_PAIRS_MAX distinct jobs where there are that many.
TRACED_PAIRS_MIN = 5
TRACED_PAIRS_MAX = 40


def _on_alarm(signum, frame):
    raise workloads.ItemTimeout()


class Runner:
    """Runs items, keeping each item's first output and every output's digest."""

    def __init__(self, workload, jobs, outputs: Path, sampler):
        self.workload = workload
        self.calls = [[workloads.prepare(item) for item in job] for job in jobs]
        self.outputs = outputs
        self.sampler = sampler
        self.seen = set()
        self.executions = []

    def run_job(self, index, phase):
        """Run job index; return its wall time, the sum of its items' times, and that normalised."""
        job = self.sampler.mark()
        total = 0.0
        for position, call in enumerate(self.calls[index]):
            signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
            item = self.sampler.mark()
            try:
                raw = call()
            except workloads.ItemTimeout:
                raw = {"code": "timeout"}
            except Exception as exc:  # reported as a failed item, never fatal
                raw = {"code": f"raised {type(exc).__name__}: {exc}"}
            finally:
                total += self.sampler.elapsed(item)
                signal.setitimer(signal.ITIMER_REAL, 0)
            record = workloads.to_record(raw)
            del raw
            item_id = f"{index}.{position}"
            digest = workloads.record_digest(self.workload, record)
            if item_id not in self.seen:
                self.seen.add(item_id)
                (self.outputs / f"{item_id}.json").write_text(json.dumps(record))
            self.executions.append([item_id, digest, phase])
        return total, self.sampler.normalised(total, job)


def main(argv):
    rundir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    spec = json.loads((rundir / "inputs" / "jobs.json").read_text())
    workload = workloads.WORKLOADS[spec["workload"]]
    outputs = rundir / "outputs"
    outputs.mkdir()
    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = speed.Sampler()
    runner = Runner(workload, spec["jobs"], outputs, sampler)

    samples = []
    sampler.start()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        samples.append([index, *runner.run_job(index, "timed")])
        index = (index + 1) % len(spec["jobs"])
        if time.perf_counter() >= deadline:
            break
    result = {"samples": samples,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    if trace:
        # Each traced job runs right after an untraced run of the same job,
        # so the pair sees the same machine speed.
        before = tracing.namespace_snapshot()
        tracer = tracing.Tracer()
        pairs = []
        jobs = len(spec["jobs"])
        for pair in range(max(TRACED_PAIRS_MIN, min(TRACED_PAIRS_MAX, jobs))):
            index = pair % jobs
            _, untraced = runner.run_job(index, "paired")
            tracer.job = index
            tracer.install()
            try:
                _, traced = runner.run_job(index, "traced")
            finally:
                tracer.uninstall()
            pairs.append([index, untraced, traced])
        result["traced"] = {"pairs": pairs, "metrics": tracer.metrics(len(pairs)),
                            "namespaces_restored": tracing.same_namespaces(
                                before, tracing.namespace_snapshot())}
        tracer.write_spans(rundir / "spans.jsonl")
    sampler.stop()

    result["executions"] = runner.executions
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
