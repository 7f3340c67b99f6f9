"""Self-tests of the benchmark: inputs, output checks, tracer, speed probe and run.py.

Run from the root of the checkout:  python3 bench/selftest.py
"""

import hashlib
import json
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fingerprint(workload, seed, directory: Path):
    """Hash of the jobs and of every input file, independent of the directory."""
    inputs = directory / "inputs"
    inputs.mkdir()
    jobs = json.dumps(workload.generate(seed, 1, inputs)).replace(str(inputs), "<inputs>")
    h = hashlib.sha256(jobs.encode())
    for path in sorted(inputs.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def run_item(item):
    return workloads.to_record(workloads.prepare(item)())


class InputGeneration(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                for sub in ("a", "b", "c"):
                    (tmp / sub).mkdir()
                first = fingerprint(workload, 5, tmp / "a")
                self.assertEqual(first, fingerprint(workload, 5, tmp / "b"))
                self.assertNotEqual(first, fingerprint(workload, 6, tmp / "c"))


class Checks(unittest.TestCase):
    """Each check accepts the real output and rejects a corrupted one."""

    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def assertRejects(self, workload, item, record):
        self.assertIsNotNone(WORKLOADS[workload].check(item, record))

    def test_verify_sweep(self):
        check = WORKLOADS["verify_sweep"]
        item = check.generate(3, 1, self.tmp)[0][0]
        good = {"code": 0, "stderr": "",
                "stdout": "\n".join(["verification summary (max-order=144, seed=3)", "",
                                     *workloads.VERIFY_TABLE, "", "result: PASS"]) + "\n"}
        self.assertIsNone(check.check(item, good))
        self.assertRejects("verify_sweep", item, dict(good, code=1))
        self.assertRejects("verify_sweep", item, dict(good, stdout=good["stdout"].replace("PASS", "FAIL")))
        self.assertRejects("verify_sweep", item, dict(good, stdout=good["stdout"].replace("379", "378")))

    def test_product_power(self):
        item = {"kind": "cli", "argv": ["product", "generalized", "C6", "D3", "--format", "json"]}
        record = run_item(item)
        self.assertIsNone(WORKLOADS["product_power"].check(item, record))
        data = json.loads(record["stdout"])
        data["edges"].pop(len(data["edges"]) // 2)
        self.assertRejects("product_power", item, dict(record, stdout=json.dumps(data)))
        self.assertRejects("product_power", item, dict(record, code=2))

    def test_product_classical(self):
        rng = random.Random(1)
        for kind in workloads.CLASSICAL_KINDS:
            edges_a = [[u, v] for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.5]
            edges_b = [[u, v] for u in range(5) for v in range(u + 1, 5) if rng.random() < 0.5]
            item = {"kind": "classical", "product": kind, "na": 6, "ea": edges_a, "nb": 5, "eb": edges_b}
            record = run_item(item)
            self.assertIsNone(WORKLOADS["product_classical"].check(item, record))
            reference = workloads.classical_reference(kind, 6, edges_a, 5, edges_b)
            dropped = workloads.edges_digest(30, reference[1:])
            self.assertRejects("product_classical", item, dict(record, generalized=dropped))
            self.assertRejects("product_classical", item, dict(record, classical=dropped))

    def test_cayley_validate(self):
        rng = random.Random(2)
        valid = workloads.cayley_item("D6xC2", False, rng, self.tmp / "valid.tbl")
        broken = workloads.cayley_item("D6xC2", True, rng, self.tmp / "broken.tbl")
        valid_record, broken_record = run_item(valid), run_item(broken)
        self.assertIsNone(WORKLOADS["cayley_validate"].check(valid, valid_record))
        self.assertIsNone(WORKLOADS["cayley_validate"].check(broken, broken_record))
        self.assertRejects("cayley_validate", valid, dict(valid_record, code=2))
        self.assertRejects("cayley_validate", broken, dict(broken_record, code=0))
        self.assertRejects("cayley_validate", valid, dict(
            valid_record, stdout=valid_record["stdout"].replace("abelian: no", "abelian: yes")))
        i, j, k, left, right = broken["violation"]
        moved = f"({i}*{j})*{k + 1} = {left} but {i}*({j}*{k + 1}) = {right}"
        self.assertRejects("cayley_validate", broken, dict(broken_record, stderr=f"error: {moved}\n"))

    def test_iso_decide(self):
        inputs = self.tmp / "inputs"
        inputs.mkdir()
        negative, positive = WORKLOADS["iso_decide"].generate(4, 1, inputs)[0]
        negative_record, positive_record = run_item(negative), run_item(positive)
        self.assertIsNone(WORKLOADS["iso_decide"].check(negative, negative_record))
        self.assertIsNone(WORKLOADS["iso_decide"].check(positive, positive_record))
        self.assertRejects("iso_decide", negative, dict(negative_record, code=0))
        self.assertRejects("iso_decide", positive, dict(positive_record, code=1))
        perm = positive_record["stdout"].split()
        perm[0], perm[-1] = perm[-1], perm[0]
        self.assertRejects("iso_decide", positive, dict(positive_record, stdout=" ".join(perm) + "\n"))


class Tracer(unittest.TestCase):
    def traced(self, argv):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.job = 0
            record = workloads.run_cli(argv)
        finally:
            tracer.uninstall()
        return tracer, record

    def test_wrappers_leave_namespaces_unchanged(self):
        before = tracing.namespace_snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertFalse(tracing.same_namespaces(before, tracing.namespace_snapshot()))
        finally:
            tracer.uninstall()
        self.assertTrue(tracing.same_namespaces(before, tracing.namespace_snapshot()))

    def test_traced_output_and_counters_repeat(self):
        argv = ["product", "generalized", "C6", "D4", "--format", "json"]
        untraced = workloads.run_cli(argv)
        first, record = self.traced(argv)
        second, _ = self.traced(argv)
        self.assertEqual(record, untraced)
        counters = {k: v for k, v in first.metrics().items() if not k.endswith("_s")}
        self.assertEqual(counters, {k: v for k, v in second.metrics().items() if not k.endswith("_s")})
        self.assertEqual(counters["progressions.intersect_hits"], counters["products.edges_out"])
        self.assertGreater(counters["progressions.intersect_calls"], 0)

    def test_self_time_excludes_children(self):
        tracer, _ = self.traced(["product", "generalized", "C6", "D4", "--format", "json"])
        metrics = tracer.metrics()
        spans = {name: end - start for _, name, start, end, _, _ in tracer.spans}
        self.assertLess(metrics["cli.main_s"], spans["cli.main"])
        self.assertTrue(all(metrics[m] >= 0 for m in tracing.SELF_TIME))
        self.assertTrue(all(span[5] == 0 for span in tracer.spans))
        parents = {span[4] for span in tracer.spans} - {None}
        self.assertLessEqual(parents, {span[0] for span in tracer.spans})


class SpeedProbe(unittest.TestCase):
    def test_sampler_probes_while_started_and_restores_the_signal(self):
        before = signal.getsignal(signal.SIGVTALRM)
        sampler = speed.Sampler()
        sampler.start()
        try:
            mark = sampler.mark()
            speed.time_probes(200)  # about 0.1 s of CPU time: several ticks
            wall = sampler.elapsed(mark)
            ticks = len(sampler.probes) - mark[0]
            normalised = sampler.normalised(wall, mark)
        finally:
            sampler.stop()
        self.assertGreater(ticks, 0)
        self.assertIs(signal.getsignal(signal.SIGVTALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_VIRTUAL), (0.0, 0.0))
        window = sampler.probes[min(mark[0], len(sampler.probes) - speed.MIN_PROBES):]
        self.assertAlmostEqual(normalised, wall * speed.REFERENCE_PROBE_S * len(window) / sum(window))

    def test_normalise_scales_by_the_reference_probe_time(self):
        ref = speed.REFERENCE_PROBE_S
        self.assertAlmostEqual(speed.normalise(3.0, [ref, ref]), 3.0)
        self.assertAlmostEqual(speed.normalise(3.0, [2 * ref, 2 * ref]), 1.5)


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        tracer = tracing.Tracer()
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [*tracer.metrics(), "trace_overhead_ratio"])
        for metric in spec["per_layer"]:
            self.assertEqual(metric["unit"], run.unit_of(metric["name"]))
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         ["setup_s", "job_s", "peak_rss_mb", "ok_ratio"])

    def test_metric_map_covers_every_per_layer_metric_once(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        notes = json.loads((BENCH / "baseline.json").read_text())
        mapped = [m for entry in notes["metric_map"] for m in entry["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in spec["per_layer"]))
        for entry in notes["metric_map"]:
            self.assertLessEqual(set(entry["workloads"]), set(WORKLOADS))

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run([sys.executable, "bench/run.py", "--workload", "iso_decide",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
