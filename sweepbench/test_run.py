"""Tests of the sweep benchmark's own logic.

    python3 -m unittest discover -s sweepbench -p 'test_*.py'
"""

import json
import re
import subprocess
import tempfile
import unittest
from pathlib import Path

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
# The benchmark contract's rule: a letter or digit first, at most 64 characters.
CONTRACT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def write_db(path, campaigns):
    path.write_text("".join(json.dumps(c) + "\n" for c in campaigns))


def campaign(cid, faults, anomalies=0):
    return {
        "id": cid,
        "faults": faults,
        "tally": {"vanished": faults - anomalies, "anomaly": anomalies},
        "records": [{"index": i} for i in range(faults)],
    }


class Names(unittest.TestCase):
    def test_workload_and_metric_names_match_the_pattern(self):
        names = list(run.WORKLOADS)
        names += [n for n, *_ in run.END_TO_END] + [n for n, *_ in run.LAYER_METRICS]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertRegex(name, CONTRACT_NAME)
        self.assertEqual(len(set(names)), len(names) // 2)

    def test_benchmark_json_lists_what_run_py_measures(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]],
                         [m[:3] for m in run.LAYER_METRICS])


class Pins(unittest.TestCase):
    def test_every_workload_pins_the_default_and_a_held_out_seed(self):
        pins = run.load_pins()
        for name, spec in run.WORKLOADS.items():
            self.assertEqual(pins[name]["faults"], spec["faults"], name)
            self.assertIn(str(0xFACA5), pins[name]["digests"], name)
            self.assertIn(str(pins["held_out_seed"]), pins[name]["digests"], name)

    def test_digest_mismatch_fails(self):
        pins = {"w": {"digests": {"7": "aa"}}}
        with self.assertRaises(run.CheckFailed):
            run.check_digest("w", 7, "bb", pins)

    def test_matching_digest_passes_and_unpinned_seed_is_reported(self):
        pins = {"w": {"digests": {"7": "aa"}}}
        self.assertTrue(run.check_digest("w", 7, "aa", pins))
        self.assertFalse(run.check_digest("w", 8, "bb", pins))


class Database(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory(dir=run.HERE)
        self.db = Path(self.dir.name) / "db.jsonl"

    def tearDown(self):
        self.dir.cleanup()

    def test_complete_database_passes(self):
        write_db(self.db, [campaign("a", 3), campaign("b", 3, anomalies=1)])
        self.assertEqual(run.check_db(self.db, ["a", "b"], 3), (6, 1))

    def test_missing_scenario_fails(self):
        write_db(self.db, [campaign("a", 3)])
        with self.assertRaises(run.CheckFailed):
            run.check_db(self.db, ["a", "b"], 3)

    def test_wrong_record_count_fails(self):
        write_db(self.db, [campaign("a", 3), campaign("b", 2)])
        with self.assertRaises(run.CheckFailed):
            run.check_db(self.db, ["a", "b"], 3)

    def test_failed_golden_run_fails(self):
        failed = campaign("b", 3, anomalies=3)
        failed["records"] = []
        write_db(self.db, [campaign("a", 3), failed])
        with self.assertRaises(run.CheckFailed):
            run.check_db(self.db, ["a", "b"], 3)

    @unittest.skipUnless((run.target_dir() / "release" / "bench_sweep").exists(),
                         "bench_sweep is not built")
    def test_stale_database_or_sink_refuses(self):
        for stale in (self.db, Path(f"{self.db}.wal")):
            stale.write_text("")
            cmd = [str(run.target_dir() / "release" / "bench_sweep")]
            cmd += run.sweep_flags("sira64-mem-full", 1, 0, 1, self.db)
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            self.assertEqual(done.returncode, 3, done.stderr)
            self.assertIn("refusing to start", done.stderr)
            stale.unlink()


class Trace(unittest.TestCase):
    def test_self_times_subtract_children(self):
        spans = [
            {"name": "inject", "parent": None, "start": 0.0, "end": 1.0},
            {"name": "replay", "parent": 0, "start": 0.1, "end": 0.4},
            {"name": "postflip", "parent": 0, "start": 0.4, "end": 0.9},
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["inject"], 0.2)
        self.assertAlmostEqual(selfs["replay"], 0.3)
        self.assertAlmostEqual(selfs["postflip"], 0.5)

    def test_layer_metrics_cover_every_per_layer_metric(self):
        spans = [
            {"name": "golden", "parent": None, "start": 0.0, "end": 1.0},
            {"name": "ladder", "parent": None, "start": 1.0, "end": 4.0},
            {"name": "inject", "parent": None, "start": 4.0, "end": 5.0},
            {"name": "postflip", "parent": 2, "start": 4.0, "end": 5.0},
        ]
        counters = {k: 1 for k in ("golden_instructions", "snapshots", "trace_events",
                                   "planned_faults", "decided", "executed", "boot_fallbacks",
                                   "replay_cycles", "reconverge_attempts", "reconverge_hits",
                                   "postflip_instructions", "hangs", "sink_bytes", "db_bytes")}
        counters.update(wall_s=5.0)
        metrics = run.layer_metrics(counters, spans, sweep_wall=2.0, n_threads=1)
        self.assertEqual(list(metrics), [m[0] for m in run.LAYER_METRICS])
        self.assertAlmostEqual(metrics["ladder.s"], 2.0)
        self.assertAlmostEqual(metrics["traced.coverage"], 1.0)
        # One golden run, two seconds of ladder, one of injection.
        self.assertAlmostEqual(metrics["fleet.efficiency"], 2.0)


if __name__ == "__main__":
    unittest.main()
