"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from pb import fidelity, manifests, spans, stats  # noqa: E402

FIXTURE = json.loads((HERE / "fixture_artifact.json").read_text())


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_with_count(self):
        self.assertEqual(stats.summary([5, 1, 4, 2, 3]), (5, 3.0, 1.5, 4.5))

    def test_single_sample(self):
        self.assertEqual(stats.summary([2.5]), (1, 2.5, 2.5, 2.5))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.summary([])


class FidelityTest(unittest.TestCase):
    def test_orderings_on_fixture(self):
        checks = {c[0]: c[-1] for c in fidelity.orderings(FIXTURE)}
        self.assertEqual(len(checks), 10)
        failing = {cid for cid, held in checks.items() if not held}
        self.assertEqual(
            failing,
            {"t5.mondrian-noperm>nmp-perm", "f6.mondrian>nmp-rand", "f7.mondrian>mondrian-noperm"},
        )
        self.assertEqual(fidelity.orderings_held(FIXTURE), 7)

    def test_orderings_skip_absent_systems(self):
        doc = copy.deepcopy(FIXTURE)
        doc["runs"] = [r for r in doc["runs"] if r["system"] in ("CPU", "NMP-perm", "Mondrian")]
        self.assertEqual([c[0] for c in fidelity.orderings(doc)], ["f7.mondrian>nmp-perm"])

    def test_ledger_prints_paper_values(self):
        text = "\n".join(fidelity.ledger(FIXTURE))
        self.assertIn("7 of 10", text)
        self.assertIn("(paper 273x)", text)
        self.assertRegex(text, r"speedup Mondrian +30\.0x")
        self.assertIn("unvalidated", text)

    def test_digest_covers_outputs_and_makespans_only(self):
        base = fidelity.sim_digest(FIXTURE)
        reformatted = json.loads(json.dumps(FIXTURE, indent=2, sort_keys=True))
        reformatted["schema_version"] = 99
        reformatted["runs"][0]["energy_j"] = 1.0
        self.assertEqual(fidelity.sim_digest(reformatted), base)
        changed = copy.deepcopy(FIXTURE)
        changed["runs"][3]["stages"][1]["output_digest"] = "00000000000000cc"
        self.assertNotEqual(fidelity.sim_digest(changed), base)
        slower = copy.deepcopy(FIXTURE)
        slower["runs"][6]["makespan_ps"] += 1
        self.assertNotEqual(fidelity.sim_digest(slower), base)

    def test_run_outcomes_count_failures(self):
        self.assertEqual(fidelity.run_outcomes(FIXTURE), (7, 0))
        doc = copy.deepcopy(FIXTURE)
        doc["runs"][2]["verified"] = False
        doc["runs"][4]["exit"]["reason"] = "worker_panic"
        self.assertEqual(fidelity.run_outcomes(doc), (7, 2))
        doc = copy.deepcopy(FIXTURE)
        doc["exit"]["reason"] = "assertion_failed"
        self.assertEqual(fidelity.run_outcomes(doc), (7, 7))

    def test_system_metrics(self):
        m = fidelity.system_metrics(FIXTURE)
        self.assertEqual(len(m), 12 * len(fidelity.REPORTED_SYSTEMS))
        self.assertAlmostEqual(m["mem.row_hit_ratio.cpu"][0], 0.6)
        self.assertAlmostEqual(m["mem.queue_ge64_share.cpu"][0], 0.25)
        self.assertAlmostEqual(m["cache.l1_miss_ratio.cpu"][0], 0.2)
        self.assertAlmostEqual(m["cache.llc_miss_ratio.cpu"][0], 0.5)
        self.assertEqual(m["phase.partition_ps.cpu"][0], 600)
        self.assertEqual(m["phase.probe_ps.mondrian"][0], 65)
        self.assertEqual(m["sim.makespan_ps.nmp-perm"][0], 90)

    def test_schedule_counts(self):
        self.assertEqual(fidelity.schedule_counts(FIXTURE), (1, 1, 1))


class SpansTest(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        trace = [
            [0, -1, "replay", 0.0, 100.0],
            [1, 0, "pipeline.run", 10.0, 40.0],
            [2, 1, "store.load", 15.0, 20.0],
            [3, 0, "store.save", 60.0, 70.0],
        ]
        selfs = spans.self_times(trace)
        self.assertEqual(selfs, {0: 60.0, 1: 25.0, 2: 5.0, 3: 10.0})

    def test_overlapping_children_count_once(self):
        trace = [
            [0, -1, "replay", 0.0, 100.0],
            [1, 0, "pipeline.run", 10.0, 50.0],
            [2, 0, "pipeline.run", 30.0, 70.0],
        ]
        self.assertEqual(spans.self_times(trace)[0], 40.0)
        by_name = spans.self_ms_by_name(trace)
        self.assertAlmostEqual(by_name["pipeline.run"], 0.08)
        self.assertAlmostEqual(by_name["replay"], 0.04)


class ManifestTest(unittest.TestCase):
    def test_same_seed_same_text(self):
        a = manifests.paper_manifest(11, "serial", manifests.ALL_SYSTEMS)
        self.assertEqual(a, manifests.paper_manifest(11, "serial", manifests.ALL_SYSTEMS))
        self.assertNotEqual(a, manifests.paper_manifest(12, "serial", manifests.ALL_SYSTEMS))
        self.assertIn("seed = 11\n", a)
        self.assertIn('topology = "scaled"', a)
        self.assertIn('concurrency = "serial"', a)

    def test_large_seeds_wrap(self):
        self.assertIn("seed = 5\n", manifests.paper_manifest(2**31 + 5, "auto", ["cpu"]))
        with self.assertRaises(ValueError):
            manifests.campaign_seed(-1)

    def test_sweep_seeds_and_edit(self):
        base = manifests.sweep_manifest(3, manifests.SWEEP_BASE_OP)
        edited = manifests.sweep_manifest(3, manifests.SWEEP_EDIT_OP)
        seeds = ", ".join(str(3 + i) for i in range(manifests.SWEEP_SEEDS))
        self.assertIn(f"seeds = [{seeds}]", base)
        diff = [(a, b) for a, b in zip(base.splitlines(), edited.splitlines()) if a != b]
        self.assertEqual(diff, [('op = "sort_by_key"', 'op = "reduce_by_key"')])
        self.assertTrue(base.rstrip().endswith("input = 3"))


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_and_workloads_match_the_runner(self):
        bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
