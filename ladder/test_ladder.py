#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 ladder/test_ladder.py            # from the root of a checkout

For every workload: a short traced run answers correctly, reports every
per-layer metric of BENCHMARK.json, passes the ladder's reconciliation
checks and writes a Chrome trace that scripts/check_trace.py (and
build/apps/trace_report, when built) accept; a short untraced run reports
every end-to-end metric, never zero. Both runs are judged against the same
references, so the answers are bit-identical with every decorator installed
and with none. The pure-Python parts (tail rule, judging) are tested
directly, and a checkout without the library must fail without a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SECONDS = "8"


def bench(workload, trace, env=None, cwd=ROOT):
    result = subprocess.run(
        [sys.executable, os.path.join(cwd, "ladder", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    return result


def parse(result):
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


class LadderRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)

    def check_traced(self, workload):
        result = bench(workload, 1)
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        detail, res = parse(result)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        names = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(sorted(res["metrics"]), sorted(names))
        for name, ok in detail["checks"].items():
            if name.endswith("_ratio"):
                continue
            self.assertTrue(ok, f"{workload}: reconciliation {name} failed: "
                                f"{detail['checks']}")

        trace = detail["trace"]
        checker = os.path.join(ROOT, "scripts", "check_trace.py")
        if os.path.exists(checker):
            checked = subprocess.run([sys.executable, checker, trace],
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
            self.assertEqual(checked.returncode, 0, checked.stdout)
        report = os.path.join(ROOT, "build", "apps", "trace_report")
        if os.path.exists(report):
            reported = subprocess.run([report, trace], stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True)
            self.assertEqual(reported.returncode, 0, reported.stdout[-2000:])

    def check_untraced(self, workload):
        result = bench(workload, 0)
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        detail, res = parse(result)
        self.assertTrue(res["correct"])
        self.assertEqual(sorted(res["metrics"]),
                         sorted(m["name"] for m in self.spec["end_to_end"]))
        for name, metric in res["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
        self.assertIn(detail["job_tail_percentile"], run.TAIL_LADDER + (100,))

    def test_serial_f84(self):
        self.check_traced("serial-f84")
        self.check_untraced("serial-f84")

    def test_cluster_dispatch(self):
        self.check_traced("cluster-dispatch")
        self.check_untraced("cluster-dispatch")

    def test_service_jobs(self):
        self.check_traced("service-jobs")
        self.check_untraced("service-jobs")

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "ladder"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            result = bench("serial-f84", 0, env=env, cwd=bare)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)


class LadderRules(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail(list(range(1, 20)))[0], 100)
        self.assertEqual(run.tail(list(range(1, 21))), (50, 10))
        self.assertEqual(run.tail(list(range(1, 41))), (75, 30))
        self.assertEqual(run.tail(list(range(1, 151))), (90, 135))

    def test_judge_counts_any_differing_answer(self):
        refs = {"w": {"references": {"3": {
            "newick": "(a,b,c);", "lnl_bits": "c0", "trees_evaluated": 5}}}}
        good = {"seed": 3, "status": "done", "newick": "(a,b,c);",
                "lnl_bits": "c0", "trees_evaluated": 5}
        doc = {"workload": "w", "samples": [
            good,
            dict(good, trees_evaluated=-1),
            dict(good, lnl_bits="c1"),
            dict(good, newick="(a,c,b);"),
            dict(good, trees_evaluated=6),
            dict(good, status="rejected"),
            dict(good, seed=5),
        ]}
        self.assertEqual(run.judge(doc, refs), 5)


if __name__ == "__main__":
    unittest.main()
