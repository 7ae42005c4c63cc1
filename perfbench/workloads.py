"""The benchmark workloads: inputs made from a seed, one op, its output check.

Every workload calls only public onmf entry points, through module
attributes so that the traced run sees the calls. The output checks use the
functions imported here at load time, which tracing never rebinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import onmf.bcc
import onmf.cli
import onmf.double
import onmf.metrics
import onmf.synth
from onmf.bcc import BipartiteLabeling, Clustering, disagreements
from onmf.kmeans import KMeansConfig
from onmf.metrics import non_orthogonality
from onmf.synth import gen_planted_single


@dataclass
class Outcome:
    """What the harness keeps of one op: a failure reason or None, the bytes
    that go into the results digest, and cost divided by planted cost."""

    error: str | None
    digest: bytes
    quality: float


def _frob_sq(X: np.ndarray) -> float:
    return float(np.sum(X * X))


def _relative_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(y), 1e-300)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in
            np.random.default_rng(seed).integers(0, 2**31, size=count)]


@dataclass
class SingleCsv:
    """One in-process `onmf factorize --mode single` call on a pre-written
    planted-single M.csv, writing A and W as CSV.

    Chosen because it is the end-to-end CLI path, CSV read and write
    included, and k-means is most of its time; the large-k pair loops never
    run. Lloyd is capped at `max_iters` iterations per restart: uncapped,
    the number of distance passes varied from 90 to 262 between inputs, so
    ten inputs could not give a steady median.
    """

    name = "single-csv"
    m: int = 100
    n: int = 2000
    k: int = 20
    noise: float = 0.5
    max_iters: int = 10
    pool: int = 10

    def make_inputs(self, seed: int, workdir: str) -> list[dict]:
        inputs = []
        for i, s in enumerate(_seeds(seed, self.pool)):
            inst = gen_planted_single(self.m, self.n, self.k, self.noise, s)
            path = os.path.join(workdir, f"M{i}.csv")
            with open(path, "w", encoding="ascii") as fh:
                for row in inst.m_observed.tolist():
                    fh.write(",".join(map(repr, row)) + "\n")
            inputs.append({
                "seed": s, "path": path, "M": inst.m_observed,
                "planted": _frob_sq(inst.m_observed - inst.m_truth),
                "out_a": os.path.join(workdir, "A.csv"),
                "out_w": os.path.join(workdir, "W.csv"),
            })
        return inputs

    def _argv(self, inp: dict) -> list[str]:
        return ["factorize", "--mode", "single", "--k", str(self.k),
                "--max-iters", str(self.max_iters),
                "--input", inp["path"], "--seed", str(inp["seed"]),
                "--out-a", inp["out_a"], "--out-w", inp["out_w"]]

    def warm_up(self, inputs: list[dict]) -> None:
        # One restart runs every code path of the op at a tenth of its cost.
        with contextlib.redirect_stdout(io.StringIO()):
            onmf.cli.main(self._argv(inputs[0]) + ["--restarts", "1"])

    def run(self, inp: dict):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = onmf.cli.main(self._argv(inp))
        return code, out.getvalue()

    def inspect(self, inp: dict, raw) -> Outcome:
        code, stdout = raw
        if code != 0:
            return Outcome(f"cli exit code {code}", b"", 0.0)
        objective = float(json.loads(stdout)["objective"])
        with open(inp["out_a"], "rb") as fh:
            a_bytes = fh.read()
        with open(inp["out_w"], "rb") as fh:
            w_bytes = fh.read()
        A = np.loadtxt(io.BytesIO(a_bytes), delimiter=",", ndmin=2)
        W = np.loadtxt(io.BytesIO(w_bytes), delimiter=",", ndmin=2)
        digest = repr(objective).encode() + a_bytes + w_bytes
        quality = objective / inp["planted"]
        if A.shape != (self.m, self.k) or W.shape != (self.k, self.n):
            error = f"factor shapes {A.shape} {W.shape}"
        elif (A < 0).any() or (W < 0).any():
            error = "negative entry in A or W"
        elif non_orthogonality(W) != 0:
            error = "rows of W are not orthogonal"
        elif _relative_gap(objective, _frob_sq(inp["M"] - A @ W)) > 1e-9:
            error = "printed objective is not ||M - AW||_F^2"
        else:
            error = None
        return Outcome(error, digest, quality)


@dataclass
class SweepDouble:
    """One trial of `onmf sweep --mode double`: generate a planted-double
    instance, factorize it, then the three sweep metrics.

    Chosen because it runs many short Lloyd calls, where per-call fixed cost
    and the recenter loop matter, and covers synth, metrics, and the
    double-factor reduction and grouping at small k.
    """

    name = "sweep-double"
    m: int = 50
    n: int = 500
    k: int = 10
    noise_levels: tuple = (0.1, 0.5, 1.0)
    pool: int = 30

    def make_inputs(self, seed: int, workdir: str) -> list[dict]:
        levels = self.noise_levels
        return [{"seed": s, "noise": levels[i % len(levels)],
                 "config": KMeansConfig(seed=s)}
                for i, s in enumerate(_seeds(seed, self.pool))]

    def warm_up(self, inputs: list[dict]) -> None:
        self.run(inputs[0])

    def run(self, inp: dict):
        inst = onmf.synth.gen_planted_double(self.m, self.n, self.k,
                                             inp["noise"], inp["seed"])
        sol = onmf.double.factorize_double(inst.m_observed, self.k,
                                           inp["config"])
        W = sol.w.materialize()
        rec = onmf.metrics.recovery_error(inst.m_truth, sol.a, W)
        recon = onmf.metrics.reconstruction_error(inst.m_observed, sol.a, W)
        ortho = onmf.metrics.non_orthogonality(W)
        return inst, sol, W, rec, recon, ortho

    def inspect(self, inp: dict, raw) -> Outcome:
        inst, sol, W, rec, recon, ortho = raw
        digest = b"".join([
            repr((sol.objective, rec, recon, ortho)).encode(),
            sol.w.group.tobytes(), sol.w.theta.tobytes(), sol.a.tobytes()])
        quality = sol.objective / _frob_sq(inst.m_observed - inst.m_truth)
        if ortho != 0 or non_orthogonality(W) != 0:
            error = "rows of W are not orthogonal"
        elif non_orthogonality(sol.a.T) != 0:
            error = "columns of A are not orthogonal"
        elif _relative_gap(recon**2, sol.objective) > 1e-9:
            error = "reconstruction error does not match the objective"
        else:
            error = None
        return Outcome(error, digest, quality)


@dataclass
class Bcc600:
    """One bcc_cluster call on a planted labeling: `clusters` clusters on each
    side, with a `flip` share of the edge labels flipped.

    Chosen because it is the large-k path with no k-means at all, so the
    weight-reduction and grouping pair loops dominate.
    """

    name = "bcc-600"
    m: int = 600
    n: int = 600
    clusters: int = 12
    flip: float = 0.2
    pool: int = 8

    def make_inputs(self, seed: int, workdir: str) -> list[dict]:
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(self.pool):
            left = rng.integers(0, self.clusters, size=self.m)
            right = rng.integers(0, self.clusters, size=self.n)
            flipped = rng.random((self.m, self.n)) < self.flip
            labels = (left[:, None] == right[None, :]) ^ flipped
            # The planted clustering disagrees exactly on the flipped labels.
            inputs.append({"g": BipartiteLabeling(labels=labels),
                           "clustering": Clustering(left + 1, right + 1),
                           "planted": int(flipped.sum())})
        return inputs

    def warm_up(self, inputs: list[dict]) -> None:
        self.run(inputs[0])

    def run(self, inp: dict):
        return onmf.bcc.bcc_cluster(inp["g"])

    def inspect(self, inp: dict, raw) -> Outcome:
        clustering, count = raw
        digest = b"".join([repr(int(count)).encode(),
                           np.asarray(clustering.left).tobytes(),
                           np.asarray(clustering.right).tobytes()])
        quality = count / inp["planted"]
        if count != disagreements(inp["g"], clustering):
            error = "returned count is not the clustering's disagreements"
        else:
            error = None
        return Outcome(error, digest, quality)


WORKLOADS = {w.name: w for w in (SingleCsv, SweepDouble, Bcc600)}

# What the traced run should show for each workload: (claim, functions,
# test), where "most" means the functions' self time is over half the op and
# "none" means they are never called.
PURPOSE = {
    "single-csv": [
        ("k-means is most of the op", ("kmeans.",), "most"),
        ("no weight reduction or grouping",
         ("double.weight_reduction", "double.group_centroids"), "none"),
    ],
    "sweep-double": [
        ("k-means is most of the op", ("kmeans.",), "most"),
    ],
    "bcc-600": [
        ("no k-means", ("kmeans.",), "none"),
        ("weight reduction and grouping are most of the op",
         ("double.weight_reduction", "double.group_centroids"), "most"),
    ],
}

