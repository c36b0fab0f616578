"""Self-test of the benchmark at tiny sizes: ``python3 perfbench/selftest.py``.

Checks that every workload runs and passes its checks, that the checks
catch a corrupted identity or digest, and that the traced ledger adds up
to the traced wall time.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import outcome  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402


def bench(*args: str) -> tuple[int, dict]:
    """Run the benchmark's entry point; (exit code, its last-line JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def declared(kind: str) -> dict:
    """name -> unit of the metrics ``BENCHMARK.json`` declares."""
    with open(os.path.join(child.ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class EveryWorkloadRuns(unittest.TestCase):
    def test_end_to_end_metrics(self):
        for workload in specs.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench("--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", "0",
                                     "--size", "tiny")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                units = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(units, declared("end_to_end"))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics(self):
        code, result = bench("--workload", "replay", "--seed", "1", "--seconds", "1",
                             "--trace", "1", "--size", "tiny")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        self.assertEqual(units, declared("per_layer"))


class ChecksCatchCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report = child.run_once("overload", 2, "tiny", traced=False)
        if not cls.report["ok"]:
            raise AssertionError(cls.report["problems"])
        # The same run's plain result, for corrupting copies of it.
        repro = child.import_program()
        from repro.api.spec import ScenarioSpec

        spec = ScenarioSpec.from_dict(specs.scenario_dict("overload", 2, "tiny"))
        cls.result = json.loads(json.dumps(repro.run(spec).to_dict(), default=list))
        cls.offered = spec.workload.queries

    def corrupted(self, edit) -> list[str]:
        result = copy.deepcopy(self.result)
        edit(result["workload"])
        return outcome.check(result, self.offered)

    def test_clean_result_passes(self):
        self.assertEqual(outcome.check(self.result, self.offered), [])
        self.assertEqual(outcome.digest(self.result), self.report["digest"])

    def test_identities(self):
        edits = {
            "lost completion": lambda w: w["metrics"]["per_query"].pop(),
            "extra give-up": lambda w: w["clients"].update(gave_up=w["clients"]["gave_up"] + 1),
            "uncounted retry": lambda w: w["clients"].update(retries=w["clients"]["retries"] + 1),
            "unfinished": lambda w: w["metrics"].update(unfinished=1),
            "completion count": lambda w: w["metrics"].update(completed=w["metrics"]["completed"] - 1),
        }
        for name, edit in edits.items():
            with self.subTest(name):
                self.assertNotEqual(self.corrupted(edit), [])

    def test_digest_mismatch_fails_the_run(self):
        good = dict(self.report)
        bad = dict(self.report, digest="0" * 16)
        attempted, failed, problems = run.judge({2: [good, good, bad], 3: [good]})
        self.assertEqual(attempted, 4 * self.offered)
        self.assertEqual(failed, 3 * self.offered)
        self.assertTrue(problems)
        self.assertEqual(run.judge({2: [good, good], 3: [good]})[1], 0)

    def test_changed_simulation_changes_digest(self):
        result = copy.deepcopy(self.result)
        result["workload"]["metrics"]["per_query"][0][5] += 1e-9
        self.assertNotEqual(outcome.digest(result), outcome.digest(self.result))

    def test_crash_fails_all_queries(self):
        crashed = {"ok": False, "offered": 0, "problems": ["boom"]}
        attempted, failed, _ = run.judge({2: [self.report, crashed]})
        self.assertEqual(failed, self.offered)
        self.assertEqual(attempted, 2 * self.offered)


class LedgerAddsUp(unittest.TestCase):
    def test_layers_plus_unattributed_is_wall(self):
        reports = {w: child.run_once(w, 1, "tiny", traced=True) for w in ("replay", "skew")}
        for workload, report in reports.items():
            with self.subTest(workload=workload):
                self.assertTrue(report["ok"], report["problems"])
                layers = report["layers"]
                selfs = [v for k, (v, _unit) in layers.items()
                         if k.endswith("self_s") or k == "unattributed_s"]
                self.assertAlmostEqual(sum(selfs), report["measured"]["wall_s"], places=9)
                self.assertGreater(layers["unattributed_s"][0], 0)
                for name, (value, _unit) in layers.items():
                    self.assertGreaterEqual(value, 0, name)
        replay, skew = reports["replay"]["layers"], reports["skew"]["layers"]
        self.assertEqual(replay["engine.steal_bytes"][0], 0)
        self.assertGreater(skew["engine.steal_bytes"][0], 0)
        self.assertGreater(skew["optimizer.build_s"][0],
                           0.5 * reports["skew"]["measured"]["setup_s"])


if __name__ == "__main__":
    unittest.main()
