import dataclasses
import hashlib
import math

import numpy as np
import pytest

from onmf.core import frobenius_norm_sq, normalize_columns
import onmf.cli
from onmf.double import factorize_double, factorize_double_large_k
from onmf.kmeans import KMeansConfig, kmeanspp_seed, weighted_kmeans
from onmf.single import factorize_single
from onmf.synth import (
    PlantedInstance,
    _exp,
    gen_planted_double,
    gen_planted_single,
)
from oracles import planted_stat


class FixedUniform:
    """Stands in for a generator whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def digest(x):
    return hashlib.sha256(
        np.ascontiguousarray(x, dtype=np.float64).tobytes()).hexdigest()[:16]


def test_exp_sample_mean_zero():
    rng = np.random.default_rng(0)
    assert _exp(rng, None, 0.0) == 0.0
    draws = _exp(rng, (5,), 0.0)
    assert (draws == 0.0).all()
    assert not np.signbit(draws).any()


def test_exp_inverse_cdf_by_hand():
    # At u = 1 - e^-1 the unit-mean inverse CDF is exactly 1.
    assert _exp(FixedUniform(1 - math.exp(-1)), (), 1.0) == pytest.approx(1.0)
    assert _exp(FixedUniform(0.0), (), 3.0) == 0.0


def test_exp_sample_law_of_large_numbers():
    draws = _exp(np.random.default_rng(42), 10**6, 2.0)
    assert draws.mean() == pytest.approx(2.0, abs=0.01)


def test_planted_rejects_bad_arguments():
    for gen in (gen_planted_single, gen_planted_double):
        for noise in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_level must be"):
                gen(4, 5, 2, noise, 0)
        with pytest.raises(ValueError):
            gen(4, 5, 0, 0.5, 0)


# sha256 prefixes of the float64 bytes of each array. They pin the PCG64
# stream behind each seed, so a change to the draw order or to how a seed
# becomes a generator fails here.
FROZEN_INSTANCES = {
    ("single", 0.5, 3): ("d97b13bac34ce871", "d04ed324f84c2679", "3d436c2bdbf6c0b0"),
    ("single", 0.0, 8): ("b9eae775a9a9b50c", "b986fd69cdce6f49", "ce2330631aee248a"),
    ("double", 0.5, 3): ("9606dab35445c9e3", "43fe59e68b97686b", "bcdf23b40cc3a935"),
    ("double", 0.0, 8): ("0887c59f5008b517", "801408bd2f74f570", "ee50d71fa939d00a"),
}


@pytest.mark.parametrize("key", sorted(FROZEN_INSTANCES))
def test_frozen_streams(key):
    mode, noise, seed = key
    gen = gen_planted_single if mode == "single" else gen_planted_double
    inst = gen(6, 9, 3, noise, seed)
    assert (digest(inst.m_observed), digest(inst.a_truth),
            digest(inst.w_truth)) == FROZEN_INSTANCES[key]
    if noise == 0.0:
        assert not np.signbit(inst.m_observed - inst.m_truth).any()


def test_frozen_kmeans_streams():
    pts = normalize_columns(gen_planted_single(8, 30, 4, 0.2, 1).m_observed)
    centroids = kmeanspp_seed(pts, 4, np.random.default_rng(5))
    assert digest(centroids) == "badbb1711c328e27"
    # The cluster labels after one Lloyd step name the seeding that won, so
    # they pin how each restart turns the configured seed into a generator.
    sol = weighted_kmeans(pts, 4, KMeansConfig(restarts=2, max_iters=1, seed=5))
    assert "".join(map(str, sol.assignment)) == "212021002311021321023102201121"


# sha256 prefixes of the weighted_kmeans labels and cost, and of the
# factorize_single objective and w.group, on 100x2000 planted instances with
# k = 20, 2 restarts and 10 Lloyd iterations. Several Lloyd steps deep, they
# catch a drift in the assignment kernel that one step would not show.
FROZEN_KMEANS_RUNS = {
    11: ("1147d89645d2ccd0", "9c7a50c003ff1c7f", "1279b6ec5a0f1848",
         "1147d89645d2ccd0"),
    12: ("d0f4eb6665940b96", "0f7d80a94f79f476", "094c1444259673d0",
         "d0f4eb6665940b96"),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_KMEANS_RUNS))
def test_frozen_kmeans_runs(seed):
    M = gen_planted_single(100, 2000, 20, 0.5, seed).m_observed
    config = KMeansConfig(restarts=2, max_iters=10, seed=seed)
    sol = weighted_kmeans(normalize_columns(M), 20, config)
    fact = factorize_single(M, 20, config)
    assert (digest(sol.assignment), digest(sol.cost), digest(fact.objective),
            digest(fact.w.group)) == FROZEN_KMEANS_RUNS[seed]


def test_frozen_kmeans_cost_stop():
    # A noiseless 30x300 double instance with k = 15: each of its ten
    # restarts ends on an exact cost that did not fall (a rounding rise at
    # the first iteration), where the runs above end on a repeated
    # assignment or at max_iters. The same four digests as those runs, of
    # weighted_kmeans and factorize_double.
    M = gen_planted_double(30, 300, 15, 0.0, 0).m_observed
    config = KMeansConfig(seed=0)
    sol = weighted_kmeans(normalize_columns(M), 15, config)
    fact = factorize_double(M, 15, config)
    assert (digest(sol.assignment), digest(sol.cost), digest(fact.objective),
            digest(fact.w.group)) == ("262debbd428263a5", "dfb07681bd547df5",
                                      "28d0817c72f7b4cd", "125c15423ea08783")


# sha256 prefixes of theta and the objective where each theta dot sums more
# than 10,000 terms, past which OpenBLAS splits a dot across threads: CI
# runs this file under one BLAS thread and under its default.
FROZEN_LONG_COLUMNS = {
    "single": ("0365529fb62a9edb", "cadfe80e0faa5320"),
    "double": ("78ee182b31a1fd81", "c2f0ed47c741a00a"),
    "large_k": ("9a788a39479f28cb", "6d429478ed571365"),
}


@pytest.mark.parametrize("mode", sorted(FROZEN_LONG_COLUMNS))
def test_frozen_long_columns(mode):
    config = KMeansConfig(restarts=2, seed=0)
    if mode == "single":
        M = gen_planted_single(20000, 40, 4, 0.5, 1).m_observed
        sol = factorize_single(M, 4, config)
    elif mode == "double":
        M = gen_planted_double(20000, 40, 4, 0.5, 1).m_observed
        sol = factorize_double(M, 4, config)
    else:
        M = gen_planted_double(12000, 60, 4, 0.5, 1).m_observed
        sol = factorize_double_large_k(M)
    assert (digest(sol.w.theta),
            digest(sol.objective)) == FROZEN_LONG_COLUMNS[mode]


def test_frozen_double_sweep(tmp_path):
    # 50 x 500: evaluate's norms sum 25,000 squares.
    out = tmp_path / "sweep.csv"
    assert onmf.cli.main(["sweep", "--m", "50", "--n", "500", "--k", "10",
                          "--mode", "double", "--noise-grid", "0.1,0.5,1.0",
                          "--trials", "3", "--restarts", "2",
                          "--out", str(out)]) == 0
    assert out.read_text() == (
        "noise_level,median_recovery_error,median_reconstruction_error,"
        "median_non_orthogonality,planted_reference\n"
        "0.1,5.997002764566111,21.77246026142598,0.0,22.360679774997898\n"
        "0.5,79.62870135381873,129.39351865380908,0.0,111.80339887498948\n"
        "1.0,171.14860860808716,176.98279205593911,0.0,223.60679774997897\n")


def test_planted_single_structure():
    inst = gen_planted_single(6, 20, 3, 0.4, 11)
    # every column of W_truth has exactly one non-zero
    assert (np.count_nonzero(inst.w_truth, axis=0) == 1).all()
    assert (inst.a_truth > 0).all()
    assert np.array_equal(inst.m_truth, inst.a_truth @ inst.w_truth)
    assert (inst.m_observed >= inst.m_truth).all()


def test_planted_instance_holds_only_matrices():
    # The generator's arguments are not echoed back.
    inst = gen_planted_single(3, 4, 2, 0.1, 0)
    assert [f.name for f in dataclasses.fields(inst)] == [
        "a_truth", "w_truth", "m_truth", "m_observed"]
    with pytest.raises(TypeError):
        PlantedInstance(*dataclasses.astuple(inst), seed=0)


def test_planted_single_noise_zero():
    inst = gen_planted_single(4, 9, 2, 0.0, 5)
    assert np.array_equal(inst.m_observed, inst.m_truth)


def test_planted_reproducible():
    a = gen_planted_single(5, 7, 2, 0.3, 9)
    b = gen_planted_single(5, 7, 2, 0.3, 9)
    assert np.array_equal(a.m_observed, b.m_observed)
    c = gen_planted_double(5, 7, 2, 0.3, 9)
    d = gen_planted_double(5, 7, 2, 0.3, 9)
    assert np.array_equal(c.m_observed, d.m_observed)


def test_planted_double_structure():
    inst = gen_planted_double(7, 12, 3, 0.2, 21)
    # rows of A_truth each have exactly one non-zero, so columns of A_truth
    # have pairwise disjoint supports
    assert (np.count_nonzero(inst.a_truth, axis=1) == 1).all()
    assert (np.count_nonzero(inst.w_truth, axis=0) == 1).all()
    cols = inst.a_truth.T
    gram = cols @ cols.T
    np.fill_diagonal(gram, 0.0)
    assert (gram == 0).all()


def test_planted_double_degenerate_k():
    # k larger than both sides is allowed; W_truth may have zero rows
    inst = gen_planted_double(2, 3, 5, 0.0, 1)
    assert inst.w_truth.shape == (5, 3)


def test_planted_reconstruction_statistic():
    # Sample mean of ||M - M_truth||_F^2 over trials matches 2mn sigma^2
    # within 3 standard errors (sd = sqrt(20mn) sigma^2 per trial).
    m, n, sigma, trials = 10, 25, 0.5, 300
    mean, sd = planted_stat(m, n, sigma)
    gaps = [
        frobenius_norm_sq(inst.m_observed - inst.m_truth)
        for inst in (gen_planted_single(m, n, 2, sigma, 1000 + t)
                     for t in range(trials))
    ]
    assert np.mean(gaps) == pytest.approx(mean, abs=3 * sd / math.sqrt(trials))
