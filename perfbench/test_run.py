#!/usr/bin/env python3
"""Tests of the pipeline benchmark's own logic (no cargo build needed).

    python3 perfbench/test_run.py
"""

import hashlib
import json
import stat
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# One `lsqca-perfbench-replay run --scale quick ... all` report.
QUICK_REPLAY_REPORT = {
    "workloads.acquire_s": 0.022364409, "core.result_key_s": 0.647229843,
    "core.hot_qubits_s": 0.028679777, "core.result_from_stats_s": 0.028429482,
    "sim.build_s": 0.002886094, "sim.execute_s": 0.117485754, "json.stats_s": 0.001171531,
    "store.self_s": 0.000164807, "analysis.locality_s": 0.001609263,
    "bench.render_s": 0.000991475, "replay.attributed_s": 0.851012435,
}

# The layer self times the replay sums into `replay.attributed_s`.
LAYER_SECONDS = [
    "workloads.acquire_s", "core.result_key_s", "core.hot_qubits_s",
    "core.result_from_stats_s", "sim.build_s", "sim.execute_s", "json.stats_s",
    "store.self_s", "analysis.locality_s", "bench.render_s",
]


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            self.assertRegex(name, r"\A[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
            self.assertRegex(unit, r"\A[A-Za-z0-9_/%.-]{1,16}\Z")

    def test_manifest_lists_the_metrics_and_workloads_the_script_prints(self):
        manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in manifest["workloads"]), run.WORKLOADS)
        self.assertEqual(manifest["end_to_end"][0]["name"], "wall_s")

    def test_every_layer_time_is_attributed(self):
        seconds = [name for name, unit in run.PER_LAYER.items()
                   if unit == "s" and not name.startswith("replay.")]
        self.assertEqual(sorted(seconds), sorted(LAYER_SECONDS))


class OutputCheck(unittest.TestCase):
    def test_a_wrong_digest_is_a_problem(self):
        problems = run.check_command(0, "a" * 64, "b" * 64, {}, run.EXPECT["quick"])
        self.assertEqual(len(problems), 1)
        self.assertIn("differs from the reference", problems[0])

    def test_counter_expectations(self):
        counters = {"result_store.hits": 3, "workload_cache.hits": 0}
        problems = run.check_command(0, "a", "a", counters, run.EXPECT["quick"])
        self.assertEqual(problems, ["counter result_store.hits = 3, expected 0"])
        self.assertEqual(run.check_command(0, "a", "a", {}, run.EXPECT["quick"]), [])
        self.assertEqual(len(run.check_command(1, "a", "a", None, {})), 2)

    def test_a_wrong_reference_digest_is_a_failure_and_not_a_timing(self):
        with tempfile.TemporaryDirectory() as tmp:
            fake = Path(tmp) / "experiments"
            fake.write_text(textwrap.dedent(f"""\
                #!{sys.executable}
                import json, sys
                out = sys.argv[sys.argv.index("--metrics-out") + 1]
                json.dump({{"counters": {{"sim.runs": 4}}}}, open(out, "w"))
                print("[]")
                """))
            fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
            digest = hashlib.sha256(b"[]\n").hexdigest()
            for reference, failures in ((digest, 0), ("0" * 64, 1)):
                bench = run.Bench("quick-all", 1.0, fake, fake, Path(tmp) / f"work-{failures}")
                saved = run.REFERENCE["quick"]["all"]
                run.REFERENCE["quick"]["all"] = reference
                try:
                    sample = bench.sample("quick")
                finally:
                    run.REFERENCE["quick"]["all"] = saved
                self.assertEqual(bench.attempted, 1)
                self.assertEqual(len(bench.failures), failures)
                # The timing is recorded either way; the mismatch lands in
                # the failure count and in `correct`, not in the metrics.
                self.assertGreater(sample.wall, 0.0)
                self.assertEqual(sample.sim_runs, 4)
                doc = run.result(not bench.failures, bench.attempted, len(bench.failures),
                                 {"wall_s": sample.wall}, {"wall_s": "s"})
                self.assertEqual(doc["correct"], failures == 0)
                self.assertEqual(doc["failed"], failures)
                self.assertEqual(doc["metrics"]["wall_s"]["value"], sample.wall)


class Arithmetic(unittest.TestCase):
    def test_attributed_seconds_are_the_sum_of_the_layer_times(self):
        total = sum(QUICK_REPLAY_REPORT[name] for name in LAYER_SECONDS)
        self.assertAlmostEqual(total, QUICK_REPLAY_REPORT["replay.attributed_s"], places=9)

    def test_attributed_frac_is_layer_time_over_replay_cpu(self):
        self.assertAlmostEqual(run.attributed_frac(3.0, 4.0), 0.75)
        self.assertEqual(run.attributed_frac(1.0, 0.0), 0.0)

    def test_replay_metrics(self):
        report = {name: 1.0 for name in run.PER_LAYER}
        report["replay.attributed_s"] = 9.0
        metrics = run.replay_metrics(report, wall=12.0, cpu=10.0, untraced_wall=10.0,
                                     mb_written=0.5)
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertAlmostEqual(metrics["replay.attributed_frac"], 0.9)
        self.assertAlmostEqual(metrics["replay.overhead_frac"], 0.2)
        self.assertEqual(metrics["replay.cpu_s"], 10.0)
        self.assertEqual(metrics["store.mb_written"], 0.5)

    def test_paper_err_pct(self):
        claims = [
            {"paper_density": 0.87, "paper_overhead": 1.06,
             "measured_density": 0.8658008658008658, "measured_overhead": 1.1736856591474099},
            {"paper_density": 0.92, "paper_overhead": 1.07,
             "measured_density": 0.934, "measured_overhead": 1.001989949198212},
        ]
        self.assertAlmostEqual(run.paper_err_pct(claims), 10.7250622, places=6)
        sectioned = "==== fig8 ====\n[]\n==== headline ====\n" + json.dumps(claims) + \
            "\n==== ablation ====\n[]\n"
        self.assertEqual(run.headline_claims(sectioned), claims)
        self.assertEqual(run.headline_claims(json.dumps(claims)), claims)


if __name__ == "__main__":
    unittest.main()
