"""Self-test of the benchmark: toy-sized runs and corrupted outputs.

    python3 perfbench/selftest.py

Runs every workload at a toy size, traced and untraced, and checks that a
corrupted result, an exception in an op and a non-deterministic output are
each counted as a failed op.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.bootstrap()

import numpy as np  # noqa: E402

import harness  # noqa: E402
import onmf  # noqa: E402
from onmf.bcc import disagreements  # noqa: E402
from onmf.double import GroupingError  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Bcc600, SingleCsv, SweepDouble  # noqa: E402

TOYS = {
    "single-csv": SingleCsv(m=8, n=60, k=3, pool=2),
    "sweep-double": SweepDouble(m=10, n=40, k=3, pool=3),
    "bcc-600": Bcc600(m=30, n=30, clusters=3, pool=2),
}
WORKDIR = run.HERE / "_work" / f"selftest-{os.getpid()}"


class Corrupted:
    """A workload whose op result is changed by `corrupt` before the check."""

    def __init__(self, workload, corrupt):
        self.workload = workload
        self.corrupt = corrupt
        self.name = workload.name

    def make_inputs(self, seed, workdir):
        return self.workload.make_inputs(seed, workdir)

    def warm_up(self, inputs):
        pass

    def run(self, inp):
        return self.corrupt(inp, self.workload.run(inp))

    def inspect(self, inp, raw):
        return self.workload.inspect(inp, raw)


def _two_nonzeros_in_w_csv(inp, raw):
    W = np.loadtxt(inp["out_w"], delimiter=",", ndmin=2)
    W[:, 0] = 1.0
    onmf.write_matrix(W, inp["out_w"])
    return raw


def _wrong_objective(inp, raw):
    code, stdout = raw
    record = json.loads(stdout)
    record["objective"] *= 1 + 1e-6
    return code, json.dumps(record)


def _two_nonzeros_in_w(inp, raw):
    inst, sol, W, rec, recon, ortho = raw
    W = W.copy()
    W[:, 0] = 1.0
    return inst, sol, W, rec, recon, ortho


def _wrong_count(inp, raw):
    clustering, count = raw
    return clustering, count + 1


def _raise_grouping_error(inp, raw):
    raise GroupingError("injected")


class Drifting:
    """Returns a different result on every call, as a broken op would."""

    def __init__(self):
        self.calls = 0

    def __call__(self, inp, raw):
        self.calls += 1
        clustering, count = raw
        clustering.left[0] = self.calls
        return clustering, disagreements(inp["g"], clustering)


class SelfTest(unittest.TestCase):
    def setUp(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def _ops(self, workload, seed=3):
        return harness.Ops(workload, workload.make_inputs(seed, str(WORKDIR)))

    def test_toy_runs_are_correct(self):
        for name, toy in TOYS.items():
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result = harness.run_workload(toy, 7, 0.2, trace,
                                                  WORKDIR / name, 0.0)
                    self.assertEqual(result["errors"], [])
                    self.assertTrue(result["correct"], result["checks"])
                    self.assertGreaterEqual(result["attempted"], toy.pool)
                    for value, _ in result["metrics"].values():
                        self.assertTrue(np.isfinite(value))

    def test_same_seed_same_digest(self):
        toy = TOYS["sweep-double"]
        digests = {harness.run_workload(toy, 11, 0.0, False, WORKDIR / "d",
                                        0.0)["digest"] for _ in range(2)}
        self.assertEqual(len(digests), 1)

    def test_corrupted_results_count_as_failed(self):
        cases = [
            ("single-csv", _two_nonzeros_in_w_csv, "W are not orthogonal"),
            ("single-csv", _wrong_objective, "printed objective"),
            ("sweep-double", _two_nonzeros_in_w, "W are not orthogonal"),
            ("bcc-600", _wrong_count, "disagreements"),
            ("bcc-600", _raise_grouping_error, "GroupingError"),
        ]
        for name, corrupt, reason in cases:
            with self.subTest(workload=name, corrupt=corrupt.__name__):
                ops = self._ops(Corrupted(TOYS[name], corrupt))
                _, outcome = ops.attempt(0)
                self.assertIsNone(outcome)
                self.assertEqual((ops.attempted, ops.failed), (1, 1))
                self.assertIn(reason, ops.errors[0])

    def test_failed_ops_do_not_stop_the_run(self):
        broken = Corrupted(TOYS["bcc-600"], _raise_grouping_error)
        result = harness.run_workload(broken, 1, 0.1, False, WORKDIR / "b",
                                      0.0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], broken.workload.pool)
        self.assertEqual(result["failed"], result["attempted"])

    def test_changed_output_on_same_input_counts_as_failed(self):
        ops = self._ops(Corrupted(TOYS["bcc-600"], Drifting()))
        self.assertIsNotNone(ops.attempt(0)[1])
        self.assertIsNone(ops.attempt(0)[1])
        self.assertEqual(ops.failed, 1)

    def test_planted_cost_is_the_flip_count(self):
        for inp in Bcc600(m=40, n=50, pool=3).make_inputs(5, str(WORKDIR)):
            self.assertEqual(disagreements(inp["g"], inp["clustering"]),
                             inp["planted"])

    def test_tracer_restores_the_library(self):
        originals = {name: getattr(onmf.kmeans, name)
                     for name in ("lloyd", "kmeanspp_seed")}
        materialize = onmf.core.CompactW.materialize
        tracer = Tracer()
        self.assertEqual(tracer.missing, [])
        ops = self._ops(TOYS["sweep-double"])
        ops.attempt(0, tracer.op(0))
        self.assertFalse(tracer.installed())
        for name, fn in originals.items():
            self.assertIs(getattr(onmf.kmeans, name), fn)
        self.assertIs(onmf.core.CompactW.materialize, materialize)
        metrics = tracer.layer_metrics(1)
        self.assertEqual(metrics["kmeans.lloyd.calls"][0],
                         onmf.KMeansConfig().restarts)
        self.assertGreater(metrics["kmeans.lloyd.self_ms"][0], 0)


if __name__ == "__main__":
    unittest.main()
