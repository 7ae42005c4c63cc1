import math

import numpy as np
import pytest

import onmf
from onmf.core import (
    COS_NARROW,
    COS_WIDE,
    CompactW,
    frobenius_norm_sq,
    normalize_columns,
    read_matrix,
    write_matrix,
)
from oracles import SIN_SQ_PI_12, angle


def test_frobenius_norm_sq():
    assert frobenius_norm_sq([[3.0, 4.0]]) == 25.0
    assert frobenius_norm_sq(np.zeros((3, 5))) == 0.0
    assert frobenius_norm_sq([[1.0, 1.0], [1.0, 1.0]]) == 4.0


def test_normalize_columns_examples():
    pts = normalize_columns([[3.0], [4.0]])
    assert np.allclose(pts.points[0], [0.6, 0.8])
    assert pts.weights[0] == 25.0

    pts = normalize_columns([[0.0], [0.0]])
    assert (pts.points[0] == 0).all()
    assert pts.weights[0] == 0.0

    pts = normalize_columns([[5.0], [0.0]])
    assert np.allclose(pts.points[0], [1.0, 0.0])
    assert pts.weights[0] == 25.0


def test_normalize_rejects_negative():
    with pytest.raises(ValueError):
        normalize_columns([[1.0, -1.0]])


def test_weights_partition_squared_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        M = rng.random((rng.integers(1, 8), rng.integers(1, 8)))
        pts = normalize_columns(M)
        assert pts.total_weight() == pytest.approx(frobenius_norm_sq(M),
                                                   rel=1e-12)


def test_angle_examples():
    assert angle([1, 0], [0, 1]) == pytest.approx(math.pi / 2)
    assert angle([1, 0], [1, 1]) == pytest.approx(math.pi / 4)
    assert angle([2, 0], [4, 0]) == 0.0


def test_angle_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.random(4) + 1e-3
        y = rng.random(4) + 1e-3
        a, b = rng.random(2) * 10 + 1e-3
        assert angle(a * x, b * y) == pytest.approx(angle(x, y), abs=1e-9)


def test_angle_zero_vector_errors():
    with pytest.raises(ValueError):
        angle([0, 0], [1, 0])


def test_materialize_w_examples():
    w = CompactW(k=2, group=[0, 1, 0], theta=[2.0, 3.0, 4.0])
    assert np.array_equal(w.materialize(),
                          [[2.0, 0.0, 4.0], [0.0, 3.0, 0.0]])
    w = CompactW(k=2, group=[0, 1], theta=[0.0, 0.0])
    assert np.array_equal(w.materialize(), np.zeros((2, 2)))
    w = CompactW(k=1, group=[0], theta=[5.0])
    assert np.array_equal(w.materialize(), [[5.0]])


def test_materialize_rows_disjoint_supports():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k, n = rng.integers(1, 6), rng.integers(1, 10)
        w = CompactW(k=k, group=rng.integers(0, k, n), theta=rng.random(n))
        W = w.materialize()
        assert (np.count_nonzero(W, axis=0) <= 1).all()


def test_materialize_index_out_of_range():
    w = CompactW(k=1, group=[1], theta=[1.0])
    with pytest.raises(IndexError):
        w.materialize()


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.random((6, 4)) * np.exp(rng.normal(size=(6, 4)) * 20)
    M[0, 0] = 1e-300
    M[1, 1] = 0.1 + 0.2  # not exactly representable as a short decimal
    path = tmp_path / "m.csv"
    write_matrix(M, path)
    back = read_matrix(path)
    assert np.array_equal(back, M)


def test_csv_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    path.write_text("1,x\n")
    with pytest.raises(ValueError):
        read_matrix(path)

    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        read_matrix(path)

    path.write_text("1,inf\n")
    with pytest.raises(ValueError):
        read_matrix(path)

    path.write_text("a,b\n1,2\n")
    assert np.array_equal(read_matrix(path, header=True), [[1.0, 2.0]])

    path.write_bytes(b"1,2\r\n 3 , 4 \r\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    path.write_bytes(b"a,b\r\n\r\n1,2\r\n   \r\n")
    assert np.array_equal(read_matrix(path, header=True), [[1.0, 2.0]])


@pytest.mark.parametrize("text, header, message", [
    ("a,b\n\n1,2\n3,x\n", True, ":4: non-numeric cell"),
    ("a,b\n\n1,2\n3\n", True, ":4: ragged row"),
    ("\na,b\n1,2\n", True, ":2: non-numeric cell"),  # header is line 1
    ("\n\n1,2\n\n3,inf\n", False, ":5: non-finite value"),
    ("\n", False, ": empty matrix"),
    ("a,b\n", True, ": empty matrix"),
])
def test_csv_error_line_numbers(tmp_path, text, header, message):
    # Line numbers count blank lines and the header.
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_matrix(path, header=header)
    assert str(exc.value) == f"{path}{message}"


def test_angle_band_constants():
    assert SIN_SQ_PI_12 == pytest.approx(math.sin(math.pi / 12) ** 2,
                                         abs=1e-15)
    assert SIN_SQ_PI_12 == pytest.approx((2 - math.sqrt(3)) / 4, abs=1e-15)
    assert COS_NARROW == pytest.approx(math.cos(math.pi / 6), abs=1e-15)
    assert COS_WIDE == pytest.approx(math.cos(math.pi / 3), abs=1e-15)


PUBLIC_NAMES = [
    "BipartiteLabeling", "Clustering", "CompactW", "GroupingError",
    "KMeansConfig", "OnmfSolution", "PlantedInstance", "bcc_cluster",
    "disagreements", "factorize_double", "factorize_double_large_k",
    "factorize_single", "gen_planted_double", "gen_planted_single",
    "non_orthogonality", "planted_stat", "read_matrix", "reconstruction_error",
    "recovery_error", "rsfe", "write_matrix",
]


def test_public_names_resolve():
    # A public name is added or removed only by editing this list.
    assert sorted(onmf.__all__) == PUBLIC_NAMES
    for name in onmf.__all__:
        getattr(onmf, name)
    namespace = {}
    exec("from onmf import *", namespace)
    assert set(onmf.__all__) <= namespace.keys()
