import ast
import contextlib
import gzip
import math
import os
import pathlib
import stat
import threading
import tracemalloc
import urllib.request
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import onmf
import onmf.core
from onmf.core import (
    MAX_TOTAL_WEIGHT,
    CompactW,
    as_matrix,
    block_rows,
    check_nonneg,
    frobenius_norm_sq,
    normalize_columns,
    open_output,
    read_matrix,
    write_matrix,
)
from conftest import TOO_LARGE, nonneg_matrices
from oracles import (
    COS_NARROW,
    COS_WIDE,
    SIN_SQ_PI_12,
    angle,
    reference_as_matrix,
    reference_check_nonneg,
    reference_normalize_columns,
    reference_read_matrix,
    reference_write_matrix,
)


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


@settings(max_examples=300, deadline=None)
@given(nonneg_matrices())
@example(np.zeros((0, 3)))
@example(np.zeros((3, 0)))
@np.errstate(all="ignore")  # squares of 1e308 overflow in both
def test_normalize_columns_matches_reference(M):
    want = reference_normalize_columns(M)
    if want.total_weight() > MAX_TOTAL_WEIGHT:
        with pytest.raises(ValueError) as exc:
            normalize_columns(M)
        assert str(exc.value) == TOO_LARGE
        return
    got = normalize_columns(M)
    assert got.points.flags.c_contiguous
    assert got.points.shape == want.points.shape
    assert got.points.tobytes() == want.points.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


def test_normalize_columns_rejects_too_large():
    # Cells of 1e200 are finite, but their squares are not.
    with pytest.raises(ValueError) as exc:
        normalize_columns(np.full((3, 3), 1e200))
    assert str(exc.value) == TOO_LARGE
    assert MAX_TOTAL_WEIGHT == np.finfo(np.float64).max / 4
    # One cell whose square is just below the limit is accepted; two are
    # not.
    edge = math.sqrt(MAX_TOTAL_WEIGHT)
    assert normalize_columns([[edge]]).total_weight() <= MAX_TOTAL_WEIGHT
    with pytest.raises(ValueError) as exc:
        normalize_columns([[edge, edge]])
    assert str(exc.value) == TOO_LARGE


def outcome(check, M):
    try:
        return check(M).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0,
                                       max_side=4),
              elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
                                        1e308, np.nan, np.inf, -np.inf])))
@example(np.zeros((0, 0)))
@example(np.array([[-0.0, np.nan]]))
@example(np.array([[-np.inf, np.inf]]))
def test_input_checks_match_mask_forms(M):
    # The min/max reductions accept and reject what the bool masks did,
    # with the same message.
    assert outcome(as_matrix, M) == outcome(reference_as_matrix, M)
    assert outcome(check_nonneg, M) == outcome(reference_check_nonneg, M)


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
    w = CompactW(k=1, group=[0], theta=[-0.0])  # -0.0 >= 0
    assert np.array_equal(w.materialize(), [[0.0]])


@pytest.mark.parametrize("theta", [-1.0, -5e-324, math.nan])
def test_compact_w_rejects_negative_or_nan_theta(theta):
    with pytest.raises(ValueError, match="theta entries must be non-negative"):
        CompactW(k=1, group=[0], theta=[theta])


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


# Signed zeros, subnormals and the largest magnitudes among ordinary floats.
CSV_CELLS = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310,
                              2.2250738585072014e-308, 1e308, -1e308,
                              1.7976931348623157e308])
             | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0,
                                       max_side=5), elements=CSV_CELLS))
@example(np.zeros((0, 0)))
@example(np.zeros((0, 3)))
@example(np.zeros((3, 0)))
def test_write_matrix_matches_reference_bytes(tmp_path, M):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_matrix(M, got)
    reference_write_matrix(M, want)
    assert got.read_bytes() == want.read_bytes()
    # Unlinked, not overwritten by the next example: on some filesystems
    # truncating a file flushes it to disk.
    got.unlink()
    want.unlink()


def test_write_matrix_streams_rows(tmp_path):
    # Rows one at a time, and no mask: the peak is one row's floats, their
    # reprs and the joined line, about 220 KB here. A bool mask of M would
    # add M.nbytes / 8 = 400 KB, and a list of all 400,000 entries about
    # 13 MB.
    M = np.random.default_rng(7).random((200, 2000))
    tracemalloc.start()
    try:
        write_matrix(M, tmp_path / "m.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M.nbytes / 10


def test_rewrite_replaces_the_file(tmp_path):
    # A rewrite is a new file renamed into place, not a truncation of the
    # old one, and it keeps the old file's permission bits.
    M = np.random.default_rng(8).random((5, 7))
    path, want = tmp_path / "m.csv", tmp_path / "want.csv"
    write_matrix(np.eye(3), path)
    path.chmod(0o640)
    old = path.stat()
    write_matrix(M, path)
    reference_write_matrix(M, want)
    new = path.stat()
    assert new.st_ino != old.st_ino
    assert stat.S_IMODE(new.st_mode) == 0o640
    assert path.read_bytes() == want.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "want.csv"]


def test_rewrite_unlinks_before_renaming(tmp_path, monkeypatch):
    # Renaming over the old file can make ext4 flush it, as truncating it
    # does; renaming onto a free name does not.
    rename = os.rename
    seen = []

    def checked(src, dst):
        seen.append(os.path.lexists(dst))
        rename(src, dst)

    monkeypatch.setattr(os, "rename", checked)
    path = tmp_path / "m.csv"
    write_matrix(np.eye(2), path)
    write_matrix(np.ones((2, 2)), path)
    assert seen == [False, False]
    assert np.array_equal(read_matrix(path), np.ones((2, 2)))


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix(np.eye(2), path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="mid-write"):
        with open_output(path) as fh:
            fh.write("1.0,")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def test_output_through_a_symlink(tmp_path):
    # The link stays a link, and the file it names gets the new bytes, also
    # when it does not exist yet.
    (tmp_path / "data").mkdir()
    target, link = tmp_path / "data" / "m.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    for M in (np.eye(2), np.ones((2, 3))):
        write_matrix(M, link)
        assert link.is_symlink()
        assert np.array_equal(read_matrix(target), M)
    assert [p.name for p in (tmp_path / "data").iterdir()] == ["m.csv"]


def test_hard_linked_output_is_written_in_place(tmp_path):
    path, other = tmp_path / "m.csv", tmp_path / "other.csv"
    write_matrix(np.eye(2), path)
    os.link(path, other)
    ino = path.stat().st_ino
    write_matrix(np.ones((1, 3)), path)
    assert path.stat().st_ino == other.stat().st_ino == ino
    assert other.read_bytes() == b"1.0,1.0,1.0\n"


def test_fifo_output_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # With a reader open, opening the FIFO for writing does not block, and
    # the few bytes fit in the pipe's buffer.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_matrix(np.eye(2), fifo)
        assert os.read(reader, 1024) == b"1.0,0.0\n0.0,1.0\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


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

    path.write_bytes(b"1,2\r\n 3 , 4 \r\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    path.write_bytes(b"\r\n1,2\r\n   \r\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0]])

    # A header line is data like any other line.
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match=":1: non-numeric cell$"):
        read_matrix(path)
    with pytest.raises(TypeError):
        read_matrix(path, header=True)


def unterminated(data: bytes, drop: bool) -> bytes:
    """data without its final line end when drop is true."""
    if drop:
        for end in (b"\r\n", b"\n", b"\r"):
            if data.endswith(end):
                return data[:-len(end)]
    return data


# (text, drop its final line end, message)
@pytest.mark.parametrize("text, drop, message", [
    ("\n\n1,2\n\n3,x\n", True, ":5: non-numeric cell"),
    ("\n\n1,2\n3\n\n", False, ":4: ragged row"),
    ("\n\n1,2\n\n3,inf\n", False, ":5: non-finite value"),
    ("\n\n1,2\n\n3,inf\n", True, ":5: non-finite value"),
    ("\n", False, ": empty matrix"),
    ("\n \n", True, ": empty matrix"),
    ("1,2\n3,\u00e9\n", False, ": not ASCII text"),  # no line number
])
def test_csv_error_line_numbers(tmp_path, text, drop, message):
    # Line numbers count blank lines, and a last line needs no line end.
    path = tmp_path / "m.csv"
    path.write_bytes(unterminated(text.encode("utf-8"), drop))
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value) == f"{path}{message}"


def read_outcome(read, path):
    """(array dtype, shape and bytes) or (exception type, message) of a read,
    and the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            M = read(path)
            outcome = (M.dtype, M.shape, M.tobytes())
        except Exception as exc:
            outcome = (type(exc), str(exc))
    return outcome, [str(w.message) for w in caught]


def assert_reads_like_reference(path):
    got, caught = read_outcome(read_matrix, path)
    want, _ = read_outcome(reference_read_matrix, path)
    assert got == want
    assert caught == []


# Cells float() and loadtxt both read, cells only float() reads (1_0),
# non-finite ones, and cells neither reads.
CSV_CELLS = [
    "1", "-0.0", "2.5e-3", "1e-400", "5e-324", "1.7976931348623157e308",
    " 3 ", "\t4\t", "+.5", "1_0", "nan", "-inf", "Infinity", "1e999",
    '"1"', "", "1#x", "x", "0x10", "1 2", "\x00", "\x0b7\x0c", "\x1c8",
]


@st.composite
def csv_files(draw):
    """Bytes of a CSV file. Half are well formed: rows of finite values and
    empty lines. The rest mix in the cells above, ragged rows,
    whitespace-only lines and now and then a non-ASCII byte. Either kind
    uses all three line ends."""
    width = draw(st.integers(1, 4))
    valid = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if draw(st.booleans()):
        row = st.lists(valid, min_size=width, max_size=width).map(",".join)
        line = row | row | row | st.just("")
    else:
        cell = valid | st.sampled_from(CSV_CELLS)
        row = st.lists(cell, min_size=width, max_size=width).map(",".join)
        ragged = st.lists(cell, min_size=1, max_size=5).map(",".join)
        line = row | row | ragged | st.sampled_from(["", "  ", "\t", "a,b"])
    lines = draw(st.lists(line, max_size=6))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    data = "".join(a + b for a, b in zip(lines, ends)).encode("ascii")
    if data and draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xe9", b"\xff"]))
        data = data[:at] + byte + data[at:]
    return data


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_files(), drop=st.booleans())
def test_read_matrix_matches_line_reader(tmp_path, data, drop):
    # The bulk parse and its fallback against the line reader alone: the
    # same bytes, or the same exception with the same message.
    path = tmp_path / "m.csv"
    path.write_bytes(unterminated(data, drop))
    assert_reads_like_reference(path)


@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("data", [
    b"1_0,2\n3,4\n",  # float() reads 1_0, loadtxt does not
    b" 1 ,\t2\t\r\n3 , 4\r\n",
    b"\n1,2\n\n3,4\n\n",
    b"  \n1,2\n\t\n3,4\n",
    b'"1",2\n', b"1,2,\n", b"1,,2\n",
    b"1,nan\n", b"inf,1\n", b"1e999\n",
    b"1#x\n", b"1,2,3\n", b"1\n2\n3\n",
    b"0,\x1c8\n", b"\x1f8,1\n", b"8\x1d,1\n",  # stripped by loadtxt only
    b"", b"1,2\n3,\xc3\xa9\n", b"\xff\n1\n",
], ids=lambda data: repr(data)[2:-1])
def test_read_matrix_fixed_cases(tmp_path, data, drop):
    # With drop, the last line has no line end.
    path = tmp_path / "m.csv"
    path.write_bytes(unterminated(data, drop))
    assert_reads_like_reference(path)


@pytest.mark.parametrize("as_str", [False, True])
def test_read_matrix_missing_file(tmp_path, as_str):
    path = tmp_path / "missing.csv"
    path = str(path) if as_str else path
    assert_reads_like_reference(path)
    with pytest.raises(FileNotFoundError):
        read_matrix(path)


def test_read_matrix_ignores_compressed_siblings(tmp_path):
    # A missing m.csv stays missing with m.csv.gz beside it.
    path = tmp_path / "m.csv"
    with gzip.open(tmp_path / "m.csv.gz", "wb") as fh:
        fh.write(b"1,2\n")
    with pytest.raises(FileNotFoundError):
        read_matrix(path)


def test_read_matrix_does_not_decompress(tmp_path):
    path = tmp_path / "m.csv.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(b"1,2\n")
    assert_reads_like_reference(path)
    with pytest.raises(ValueError, match=": not ASCII text$"):
        read_matrix(path)


def test_read_matrix_does_not_fetch_urls(tmp_path, monkeypatch):
    # A URL is a (missing) local path: nothing is fetched or saved.
    def urlopen(*args, **kwargs):
        raise AssertionError("read_matrix opened a URL")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):
        read_matrix("http://localhost/m.csv")
    assert os.listdir(tmp_path) == []


def read_fifo_outcome(read, fifo, data):
    """read_outcome of reading data through a FIFO fed by a thread. A read
    that opens the FIFO a second time would wait for a writer for ever, so
    it runs in a thread too and fails the test after a timeout."""
    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(data)

    outcome = []
    threads = [
        threading.Thread(target=feed, daemon=True),
        threading.Thread(target=lambda: outcome.append(
            read_outcome(read, fifo)), daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert outcome, "the read did not finish"
    return outcome[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("data", [
    b"1_0,2\n3,4\n",
    b"1,2\n 1_0 ,x\n",
    b"1,2\n  \n3,4\n",
    b"1.5,2.5\n" * 40000 + b"1_0,3\n",  # more than one read buffer
], ids=["underscore", "bad-cell", "blank-line", "large"])
def test_read_matrix_from_fifo(tmp_path, data, drop):
    # A pipe is read once, by the line reader; with drop, the last line has
    # no line end.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    data = unterminated(data, drop)
    got, caught = read_fifo_outcome(read_matrix, fifo, data)
    want, _ = read_fifo_outcome(reference_read_matrix, fifo, data)
    assert got == want
    assert caught == []


def test_angle_band_constants():
    assert SIN_SQ_PI_12 == pytest.approx(math.sin(math.pi / 12) ** 2,
                                         abs=1e-15)
    assert SIN_SQ_PI_12 == pytest.approx((2 - math.sqrt(3)) / 4, abs=1e-15)
    assert COS_NARROW == pytest.approx(math.cos(math.pi / 6), abs=1e-15)
    assert COS_WIDE == pytest.approx(math.cos(math.pi / 3), abs=1e-15)


PUBLIC_NAMES = [
    "BipartiteLabeling", "Clustering", "CompactW", "KMeansConfig",
    "OnmfSolution", "PlantedInstance", "bcc_cluster", "disagreements",
    "factorize_double", "factorize_double_large_k", "factorize_single",
    "gen_planted_double", "gen_planted_single", "non_orthogonality",
    "read_matrix", "recovery_error", "rsfe", "write_matrix",
]


def test_public_names_resolve():
    # A public name is added or removed only by editing this list.
    assert sorted(onmf.__all__) == PUBLIC_NAMES
    for name in onmf.__all__:
        getattr(onmf, name)
    namespace = {}
    exec("from onmf import *", namespace)
    assert set(onmf.__all__) <= namespace.keys()


# Names no module of the package uses, kept only because the benchmark in
# perfbench/ calls or traces them by name: its self-test imports
# GroupingError, its sweep-double workload calls reconstruction_error, and
# its spans trace reconstruction_error.
PERFBENCH_ONLY = {"GroupingError", "reconstruction_error"}


def test_no_dead_module_names():
    # Every module-level def, class or assignment in the package is read by
    # some module of it or exported in __all__; the rest must be exactly the
    # names kept for perfbench/, so this list goes stale loudly.
    defined, loaded = set(), set()
    for path in pathlib.Path(onmf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign):
                defined.add(node.target.id)
        loaded.update(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load))
    dead = defined - loaded - set(onmf.__all__) - {"__all__"}
    assert dead == PERFBENCH_ONLY


def test_block_entries_is_read_only_by_core():
    # Every blocked loop takes its rows from core.block_rows, so one patch
    # of core.BLOCK_ENTRIES moves them all: no other module imports the
    # constant or reads it, by name or as an attribute.
    readers = set()
    for path in pathlib.Path(onmf.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 and node.id == "BLOCK_ENTRIES")
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "BLOCK_ENTRIES")
                    or (isinstance(node, ast.alias)
                        and node.name == "BLOCK_ENTRIES")):
                readers.add(path.name)
    assert readers == {"core.py"}


@pytest.mark.parametrize("entries", [1, 7, onmf.core.BLOCK_ENTRIES])
def test_block_rows_gives_the_rows_of_each_old_rule(monkeypatch, entries):
    # The three rules the blocked loops wrote out before block_rows: rows
    # of width w up to a limit n, rows of width w, and the band pairs'
    # chunk of BLOCK_ENTRIES // 8.
    monkeypatch.setattr(onmf.core, "BLOCK_ENTRIES", entries)
    B = entries
    widths = [0, 1, 7, 8, 50, 100, 600, 2**15, 2**15 + 1, 10**6]
    for w in widths:
        assert block_rows(w) == max(1, B // max(w, 1))
        for n in [0, 1, 3, 10**6]:
            assert block_rows(w, n) == max(1, min(n, B // max(w, 1)))
    assert block_rows(8) == max(1, B // 8)
