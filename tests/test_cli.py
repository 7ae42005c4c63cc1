import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

import onmf.cli
from conftest import run_cli
from onmf.core import read_matrix, write_matrix
from onmf.kmeans import KMeansConfig
from onmf.single import factorize_single
from oracles import reference_write_matrix


def test_generate_writes_instance(tmp_path):
    res = run_cli(["generate", "--m", "4", "--n", "8", "--k", "2",
                   "--noise", "0", "--seed", "1", "--out-dir", "inst"],
                  cwd=tmp_path)
    assert res.returncode == 0
    M = read_matrix(tmp_path / "inst" / "M.csv")
    Mtruth = read_matrix(tmp_path / "inst" / "Mtruth.csv")
    assert np.array_equal(M, Mtruth)  # noise level 0
    meta = json.loads((tmp_path / "inst" / "meta.json").read_text())
    assert meta == {"m": 4, "n": 8, "k": 2, "noise_level": 0.0, "seed": 1,
                    "mode": "single"}


def test_generate_deterministic(tmp_path):
    args = ["generate", "--m", "3", "--n", "5", "--k", "2", "--noise", "0.4",
            "--seed", "7"]
    run_cli(args + ["--out-dir", "a"], cwd=tmp_path)
    run_cli(args + ["--out-dir", "b"], cwd=tmp_path)
    for name in ("M.csv", "Mtruth.csv", "Atruth.csv", "Wtruth.csv",
                 "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name).read_bytes()


def test_generate_usage_error(tmp_path):
    res = run_cli(["generate", "--m", "0", "--n", "2", "--k", "1",
                   "--noise", "0"], cwd=tmp_path)
    assert res.returncode == 2


# A valid call per subcommand, writing to "out"; a trailing --flag=value
# overrides the value given here.
VALID_ARGV = {
    "generate": ["generate", "--m", "3", "--n", "4", "--k", "2",
                 "--noise", "0.1", "--out-dir", "out"],
    "factorize": ["factorize", "--input", "M.csv", "--k", "2",
                  "--out-a", "out"],
    "sweep": ["sweep", "--m", "3", "--n", "4", "--k", "2",
              "--noise-grid", "0.1", "--trials", "1", "--restarts", "1",
              "--out", "out"],
}


@pytest.mark.parametrize("command,flag,value", [
    ("generate", "--noise", "nan"),
    ("generate", "--noise", "inf"),
    ("generate", "--seed", "-1"),
    ("factorize", "--tol", "nan"),
    ("factorize", "--tol", "inf"),
    ("factorize", "--seed", "-1"),
    ("sweep", "--noise-grid", "inf"),
    ("sweep", "--noise-grid", "0.1,nan"),
    ("sweep", "--tol", "nan"),
    ("sweep", "--seed", "-1"),
])
def test_bad_numeric_flag_is_a_usage_error(command, flag, value, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), tmp_path / "M.csv")
    with pytest.raises(SystemExit) as exc:
        onmf.cli.main(VALID_ARGV[command] + [f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_factorize_single(tmp_path):
    write_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]), tmp_path / "M.csv")
    res = run_cli(["factorize", "--input", "M.csv", "--k", "2",
                   "--mode", "single", "--seed", "0",
                   "--out-a", "A.csv", "--out-w", "W.csv"], cwd=tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["objective"] == pytest.approx(0.0, abs=1e-12)
    A = read_matrix(tmp_path / "A.csv")
    W = read_matrix(tmp_path / "W.csv")
    assert np.allclose(A @ W, [[2.0, 0.0], [0.0, 3.0]])


def test_factorize_replaces_outputs(tmp_path, monkeypatch):
    # A second run into the same paths renames new files into place rather
    # than truncating the old ones; /dev/null is written, and kept, as the
    # device it is.
    monkeypatch.chdir(tmp_path)
    M = np.random.default_rng(4).random((5, 8))
    write_matrix(M, "M.csv")
    argv = ["factorize", "--input", "M.csv", "--k", "2", "--out-a", "A.csv",
            "--out-w", "/dev/null"]
    assert onmf.cli.main(argv) == 0
    ino = os.stat("A.csv").st_ino
    assert onmf.cli.main(argv) == 0
    assert os.stat("A.csv").st_ino != ino
    reference_write_matrix(factorize_single(M, 2, KMeansConfig()).a, "want")
    assert (tmp_path / "A.csv").read_bytes() == (tmp_path / "want").read_bytes()
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
    assert sorted(os.listdir()) == ["A.csv", "M.csv", "want"]


@pytest.mark.parametrize("argv", [
    ["generate", "--m", "3", "--n", "4", "--k", "2", "--noise", "0.1",
     "--out-dir", "out"],
    ["sweep", "--m", "3", "--n", "4", "--k", "2", "--noise-grid", "0.1",
     "--trials", "1", "--restarts", "1", "--out", "out/sweep.csv"],
    ["bcc", "--edges", "edges.csv", "--out", "out/c.csv"],
], ids=lambda argv: argv[0])
def test_rerun_replaces_every_output(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "edges.csv").write_text("0,0,+\n0,1,-\n1,0,-\n1,1,+\n")
    assert onmf.cli.main(argv) == 0
    first = {p.name: (p.stat().st_ino, p.read_bytes())
             for p in (tmp_path / "out").iterdir()}
    assert onmf.cli.main(argv) == 0
    second = {p.name: (p.stat().st_ino, p.read_bytes())
              for p in (tmp_path / "out").iterdir()}
    assert first.keys() == second.keys()
    for name, (ino, data) in first.items():
        new_ino, new_data = second[name]
        assert new_ino != ino and new_data == data


@pytest.mark.parametrize("out, message", [
    ("missing/A.csv", "[Errno 2] No such file or directory: 'missing/A.csv'"),
    ("adir", "[Errno 21] Is a directory: 'adir'"),
])
def test_unwritable_output_is_a_cli_error(out, message, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    write_matrix(np.eye(2), "M.csv")
    code = onmf.cli.main(["factorize", "--input", "M.csv", "--out-a", out])
    assert code == 1
    assert capsys.readouterr().err == f"onmf: error: {message}\n"
    assert sorted(os.listdir()) == ["M.csv", "adir"]
    assert os.listdir("adir") == []


def test_factorize_large_k_ignores_k(tmp_path):
    write_matrix(np.eye(3), tmp_path / "M.csv")
    res = run_cli(["factorize", "--input", "M.csv", "--k", "1",
                   "--mode", "double-large-k"], cwd=tmp_path)
    assert res.returncode == 0
    assert json.loads(res.stdout)["objective"] == pytest.approx(0.0,
                                                                abs=1e-12)


def test_factorize_missing_input(tmp_path):
    res = run_cli(["factorize", "--k", "2"], cwd=tmp_path)
    assert res.returncode == 2
    res = run_cli(["factorize", "--input", "nope.csv", "--k", "2"],
                  cwd=tmp_path)
    assert res.returncode == 1


def test_factorize_negative_entries(tmp_path):
    (tmp_path / "M.csv").write_text("1,-2\n3,4\n")
    res = run_cli(["factorize", "--input", "M.csv", "--k", "1"], cwd=tmp_path)
    assert res.returncode == 1


def test_evaluate(tmp_path):
    write_matrix(np.eye(2), tmp_path / "M.csv")
    write_matrix(np.array([[0.5], [0.5]]), tmp_path / "A.csv")
    write_matrix(np.array([[1.0, 1.0]]), tmp_path / "W.csv")
    res = run_cli(["evaluate", "--input", "M.csv", "--a", "A.csv",
                   "--w", "W.csv", "--truth", "M.csv"], cwd=tmp_path)
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    assert rec["rsfe"] == pytest.approx(0.5)
    assert rec["recovery_error"] == pytest.approx(1.0)
    assert rec["non_orthogonality_w"] == 0.0


def test_evaluate_and_sweep_bytes(tmp_path, monkeypatch, capsys):
    # Every evaluate value is exact up to one correctly rounded sqrt or
    # division: small integer entries, and columns of A and rows of W whose
    # norms are powers of two. M and the truth differ, so the
    # reconstruction and recovery errors do too.
    A = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    W = np.array([[2.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    M = A @ W + np.array([[1.0, 0, 0, 2], [0, 3, 0, 0], [0, 0, 0, 1],
                          [1, 0, 0, 0]])
    truth = A @ W + np.array([[0.0, 0, 1, 0], [0, 0, 0, 0], [2, 0, 0, 0],
                              [0, 0, 0, 0]])
    for name, X in [("M", M), ("A", A), ("W", W), ("T", truth)]:
        write_matrix(X, tmp_path / f"{name}.csv")
    monkeypatch.chdir(tmp_path)
    assert onmf.cli.main(["evaluate", "--input", "M.csv", "--a", "A.csv",
                          "--w", "W.csv", "--truth", "T.csv"]) == 0
    assert capsys.readouterr().out == (
        '{"non_orthogonality_a_cols": 0.7071067811865476, '
        '"non_orthogonality_w": 0.7071067811865476, '
        '"reconstruction_error": 4.0, "recovery_error": 2.23606797749979, '
        '"rsfe": 0.2}\n')

    assert onmf.cli.main(["sweep", "--m", "4", "--n", "10", "--k", "2",
                          "--noise-grid", "0,0.3", "--trials", "3",
                          "--seed", "2", "--restarts", "5",
                          "--out", "sweep.csv"]) == 0
    assert (tmp_path / "sweep.csv").read_text() == (
        "noise_level,median_recovery_error,median_reconstruction_error,"
        "median_non_orthogonality,planted_reference\n"
        "0.0,6.949727468511708e-16,6.949727468511708e-16,0.0,0.0\n"
        "0.3,2.25204631299319,1.4031891008312405,0.0,2.6832815729997477\n")


def test_sweep_row_count_and_reference(tmp_path):
    res = run_cli(["sweep", "--m", "4", "--n", "10", "--k", "2",
                   "--noise-grid", "0,0.3", "--trials", "3", "--seed", "2",
                   "--restarts", "5", "--out", "sweep.csv"], cwd=tmp_path)
    assert res.returncode == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + one row per noise level
    row0 = lines[1].split(",")
    assert float(row0[0]) == 0.0
    assert float(row0[1]) == pytest.approx(0.0, abs=1e-9)  # recovery at 0
    row1 = lines[2].split(",")
    assert float(row1[4]) == pytest.approx(np.sqrt(2 * 4 * 10) * 0.3)


def test_sweep_deterministic_under_threads(tmp_path):
    # ONMF_THREADS is not read: any value, even a malformed one, gives the
    # same bytes.
    args = ["sweep", "--m", "4", "--n", "10", "--k", "2", "--noise-grid",
            "0.2,0.5", "--trials", "4", "--seed", "3", "--restarts", "3"]
    for name, threads in (("a", "1"), ("b", "4"), ("c", "abc")):
        res = run_cli(args + ["--out", f"{name}.csv"], cwd=tmp_path,
                      env_extra={"ONMF_THREADS": threads})
        assert res.returncode == 0, res.stderr
    expected = (tmp_path / "a.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == expected
    assert (tmp_path / "c.csv").read_bytes() == expected


def test_sweep_timing_column(capsys):
    args = ["sweep", "--m", "4", "--n", "10", "--k", "2", "--noise-grid",
            "0,0.3,1", "--trials", "3", "--seed", "5", "--restarts", "2"]
    assert onmf.cli.main(args) == 0
    plain = capsys.readouterr().out.splitlines()
    assert onmf.cli.main(args + ["--timing"]) == 0
    timed = capsys.readouterr().out.splitlines()
    assert timed[0] == plain[0] + ",median_wall_time_ms"
    assert len(timed) == len(plain) == 4
    for p, t in zip(plain[1:], timed[1:]):
        head, wall = t.rsplit(",", 1)
        assert head == p  # the first five columns, byte for byte
        assert 0 <= float(wall) < math.inf


def test_bcc_identity_pattern(tmp_path):
    (tmp_path / "edges.csv").write_text(
        "0,0,+\n0,1,-\n1,0,-\n1,1,+\n")
    res = run_cli(["bcc", "--edges", "edges.csv", "--out", "c.csv"],
                  cwd=tmp_path)
    assert res.returncode == 0
    assert res.stdout.strip() == "0"
    lines = (tmp_path / "c.csv").read_text().strip().split("\n")
    assert lines[0] == "side,index,cluster"
    assert len(lines) == 5


def test_bcc_all_plus_one_cluster(tmp_path):
    (tmp_path / "edges.csv").write_text(
        "0,0,+\n0,1,+\n1,0,+\n1,1,+\n")
    res = run_cli(["bcc", "--edges", "edges.csv", "--out", "c.csv"],
                  cwd=tmp_path)
    assert res.returncode == 0
    assert res.stdout.strip() == "0"
    rows = (tmp_path / "c.csv").read_text().strip().split("\n")[1:]
    assert {r.split(",")[2] for r in rows} == {"1"}


def test_bcc_malformed_line(tmp_path):
    (tmp_path / "edges.csv").write_text("0,0,+\n0,1,?\n")
    res = run_cli(["bcc", "--edges", "edges.csv"], cwd=tmp_path)
    assert res.returncode == 1
    assert ":2:" in res.stderr


def test_bcc_non_ascii_edge_list(tmp_path):
    (tmp_path / "edges.csv").write_bytes("0,0,+\n0,1,\u2212\n".encode("utf-8"))
    res = run_cli(["bcc", "--edges", "edges.csv"], cwd=tmp_path)
    assert res.returncode == 1
    assert "edges.csv: not ASCII text" in res.stderr


@pytest.mark.parametrize("text, message", [
    ("0,0,+\n\n0,1,?\n", ":3: malformed edge line"),
    ("\n0,0,+\n\n0,0,-\n", ":4: duplicate edge"),
    ("\n\n0,x,+\n", ":3: malformed edge line"),
    ("0,0,+\n\n-1,0,+\n", ":3: negative vertex index"),
    ("0,0, + \n", ":1: malformed edge line"),
    ("\n\n", ": empty edge list"),
])
def test_edge_list_error_line_numbers(tmp_path, text, message):
    # Line numbers count blank lines; the sign cell must be bare.
    path = tmp_path / "edges.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        onmf.cli._read_edge_list(str(path), complete=True)
    assert str(exc.value) == f"{path}{message}"


def test_edge_list_accepts_crlf_and_spaced_indices(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_bytes(b"0,0,+\r\n\r\n 0 , 1 ,-\r\n")
    g = onmf.cli._read_edge_list(str(path), complete=False)
    assert g.labels.tolist() == [[True, False]]


def test_bcc_incomplete_without_flag(tmp_path):
    (tmp_path / "edges.csv").write_text("0,0,+\n1,1,+\n")
    res = run_cli(["bcc", "--edges", "edges.csv"], cwd=tmp_path)
    assert res.returncode == 1
    res = run_cli(["bcc", "--edges", "edges.csv", "--complete"], cwd=tmp_path)
    assert res.returncode == 0
    assert res.stdout.strip() == "0"


def test_bcc_rejects_incomplete_graph_before_allocating(tmp_path, capsys):
    # One edge at (4999, 4999) names a 5000x5000 graph: the dense label
    # matrix would take 25 MB, and it is missing every other pair.
    (tmp_path / "edges.csv").write_text("4999,4999,+\n")
    tracemalloc.start()
    try:
        code = onmf.cli.main(["bcc", "--edges", str(tmp_path / "edges.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "incomplete bipartite graph" in capsys.readouterr().err
    assert peak < 1_000_000


def test_memory_error_is_a_cli_error(tmp_path, monkeypatch, capsys):
    # What numpy raises for `5000000,5000000,+` under --complete, without
    # asking for the 25 TB.
    message = ("Unable to allocate 22.7 TiB for an array with shape "
               "(5000001, 5000001) and data type bool")

    def fail(path, complete):
        raise MemoryError(message)

    monkeypatch.setattr(onmf.cli, "_read_edge_list", fail)
    (tmp_path / "edges.csv").write_text("5000000,5000000,+\n")
    code = onmf.cli.main(["bcc", "--complete",
                          "--edges", str(tmp_path / "edges.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"onmf: error: out of memory: {message}\n")
