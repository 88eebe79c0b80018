"""Smoke test of the benchmark harness on small inputs (about half a minute).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Checks that a run emits exactly the metrics BENCHMARK.json names, for every
workload with tracing off and on, and that the correctness gate trips when
the reference digest is tampered with.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_library()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small(name, reference=None):
    if name == "pipeline":
        return workloads.StrataWorkload("pipeline", [(2, 4, 3), (3, 3, 3)], reference, pool_config=(2, 4, 3))
    if name == "sweep":
        return workloads.StrataWorkload("sweep", [(0, 2, 2), (1, 2, 2), (0, 3, 4)], reference)
    if name == "classify":
        return workloads.ClassifyWorkload(n_random=100, bases=((3, 3, 3),))
    return workloads.OrbitWorkload(
        shapes=((4, 2),), per_shape=1, couplings=((1, 2),), cases=workloads.PAIR_CASES[:2]
    )


def bench(wl, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", wl.name, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)], wl=wl)
    return code, json.loads(out.getvalue().splitlines()[-1])


class HarnessSmokeTest(unittest.TestCase):
    def test_workload_names_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_every_metric_is_emitted(self):
        wanted = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    code, result = bench(small(name), trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted[trace])
                    for name, value in result["metrics"].items():
                        self.assertIsInstance(value["value"], (int, float))
                        if name.startswith("self."):
                            self.assertGreaterEqual(value["value"], 0.0, name)

    def test_gate_trips_on_tampered_digest(self):
        reference = workloads.load_reference()
        entry = dict(reference[(2, 4, 3)])
        entry["digest"] = "0" * 64
        reference[(2, 4, 3)] = entry
        code, result = bench(small("pipeline", reference), 0)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
