"""End-to-end tests of the command-line interface."""

import csv
import json

import numpy as np
import pytest

from tuckeropt import completion
from tuckeropt.cli import main
from tuckeropt.completion import gen_synthetic, random_tucker, save_problem
from tuckeropt.tensor_core import save_dense
from tuckeropt.tucker import load_checkpoint, save_checkpoint, to_dense

RNG = np.random.default_rng(42)


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("prob")
    P, _ = gen_synthetic((8, 8, 8), (2, 2, 2), 0.3, seed=4)
    save_problem(P, d, seed=4, r_true=(2, 2, 2))
    return d


def test_complete_runs_and_writes_outputs(problem_dir, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    ckpt = tmp_path / "final.ttkr"
    code = main(["complete", str(problem_dir), "--rank", "2,2,2",
                 "--solver", "grap", "--max-iters", "400",
                 "--trace", str(trace), "--summary", str(summary),
                 "--save", str(ckpt)])
    assert code == 0  # converged
    out = capsys.readouterr().out
    assert "converged" in out
    with open(trace) as f:
        rows = list(csv.DictReader(f))
    assert rows and rows[0]["iter"] == "0"
    s = json.loads(summary.read_text())
    assert s["solver"] == "grap" and s["termination"] == "converged"
    X, iteration, delta_eff = load_checkpoint(ckpt)
    assert X.dims == (8, 8, 8)
    assert iteration == s["iters"] and delta_eff is None     # grap


def _csv_rows(path):
    """The rows of a trace CSV without their wall times."""
    with open(path) as f:
        return [{k: v for k, v in row.items() if k != "time_s"}
                for row in csv.DictReader(f)]


def test_complete_resume(problem_dir, tmp_path):
    # 3 + 9 iterations through a checkpoint give the records and the
    # termination of one 12-iteration run (the resumed run's first record
    # is the checkpointed point, which has taken no step yet)
    common = [str(problem_dir), "--solver", "grap-r", "--rank", "3,3,3",
              "--delta", "0.2"]

    def run(name, iters, *extra):
        code = main(["complete", *common, "--max-iters", str(iters),
                     "--trace", str(tmp_path / f"{name}.csv"), *extra])
        return code, _csv_rows(tmp_path / f"{name}.csv")

    ckpt = tmp_path / "mid.ttkr"
    code_full, full = run("full", 12)
    code, first = run("first", 3, "--save", str(ckpt))
    assert code == 2  # max_iters
    code, resumed = run("resumed", 12, "--resume", str(ckpt))
    assert code == code_full
    assert first == full[:4] and len(resumed) == len(full) - 3
    for a, b in zip(full[3:], resumed):
        moved = {"dir_norm", "step", "backtracks", "candidates"}
        assert {k: v for k, v in a.items() if k not in moved} == \
            {k: v for k, v in b.items() if k not in moved}
    assert [r["candidates"] for r in full[4:]] == \
        [r["candidates"] for r in resumed[1:]]
    assert any(int(r["candidates"]) > 1 for r in full)


def test_complete_exit_code_on_bad_input(tmp_path, capsys):
    code = main(["complete", str(tmp_path / "missing"), "--rank", "2,2,2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_complete_requires_rank(problem_dir, capsys):
    code = main(["complete", str(problem_dir)])
    assert code == 1
    assert "rank" in capsys.readouterr().err


def test_bench_scaled_tiny(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["bench", "true-rank", "--n", "8,8,8", "--true-rank", "2,2,2",
                 "--rank", "2,2,2", "--p", "0.3", "--max-iters", "40",
                 "--out", str(out)])
    assert code == 2        # every solver stops at its iteration budget
    comparison = out / "true-rank_comparison.csv"
    with open(comparison) as f:
        rows = list(csv.DictReader(f))
    solvers = {r["solver"] for r in rows}
    assert solvers == {"grap", "rfgrap", "grap-r", "rfgrap-r"}
    # per-iteration selected ranks are recorded
    assert {"r1", "r2", "r3"} <= set(rows[0])
    for name in solvers:
        assert (out / f"true-rank_r2x2x2_{name}.csv").exists()
        assert (out / f"true-rank_r2x2x2_{name}.json").exists()
    assert (out / "true-rank_problem" / "omega.coo").exists()


@pytest.mark.parametrize("max_iters, expected", [("400", 0), ("50", 2)])
def test_bench_exit_code_is_the_worst_run(tmp_path, capsys, max_iters,
                                          expected):
    # grap converges in 34 iterations, rfgrap in 75: at a budget of 50 the
    # rfgrap runs exhaust it, and their code 2 beats grap's 0
    code = main(["bench", "true-rank", "--n", "8,8,8", "--true-rank", "2,2,2",
                 "--rank", "2,2,2", "--p", "0.5", "--tol", "1e-6",
                 "--max-iters", max_iters, "--out", str(tmp_path / "bench")])
    assert code == expected
    out = capsys.readouterr().out
    assert out.count(": converged after") == (4 if expected == 0 else 2)


def test_bench_refuses_spectral_init_before_writing_the_bundle(
        tmp_path, capsys, monkeypatch):
    # a problem too large to densify fails before it is generated, rather
    # than after its bundle is written; --init random still runs it
    monkeypatch.setattr(completion, "_SPECTRAL_INIT_LIMIT", 100)
    args = ["bench", "true-rank", "--n", "10,10,10", "--true-rank", "2,2,2",
            "--rank", "2,2,2", "--p", "0.3", "--max-iters", "2"]
    out = tmp_path / "bench"
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    assert main(args + ["--out", str(out), "--init", "random"]) == 2
    assert (out / "true-rank_problem" / "meta.json").exists()


def test_bench_random_init_starts_away_from_the_truth(tmp_path, capsys):
    # the instance and the random start are drawn from the same --seed, but
    # not from one stream: the start is not the ground truth
    out = tmp_path / "bench"
    main(["bench", "true-rank", "--n", "8,8,8", "--true-rank", "2,2,2",
          "--rank", "2,2,2", "--p", "0.3", "--max-iters", "3",
          "--init", "random", "--out", str(out)])
    with open(out / "true-rank_comparison.csv") as f:
        rows = list(csv.DictReader(f))
    for name in ("grap", "rfgrap", "grap-r", "rfgrap-r"):
        mine = [r for r in rows if r["solver"] == name]
        assert max(int(r["iter"]) for r in mine) >= 1, name
        assert float(mine[0]["test_error"]) > 0, name


@pytest.mark.parametrize("start", ["random", "resume"])
def test_complete_rejects_a_rank_of_the_wrong_length(problem_dir, tmp_path,
                                                     capsys, start):
    if start == "random":
        args = ["--init", "random"]
    else:
        ckpt = tmp_path / "start.ttkr"
        save_checkpoint(random_tucker((8, 8, 8), (2, 2, 2), RNG), ckpt)
        args = ["--resume", str(ckpt)]
    code = main(["complete", str(problem_dir), "--rank", "2,2"] + args)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "has 2 entries" in err


def test_bench_under_rank_tiny(tmp_path, capsys):
    # the suite's own bound (2, 2, 2) sits below the true rank
    out = tmp_path / "bench"
    code = main(["bench", "under-rank", "--n", "8,7,6", "--true-rank", "4,4,4",
                 "--p", "0.4", "--max-iters", "15", "--out", str(out)])
    assert code == 2        # every solver stops at its iteration budget
    with open(out / "under-rank_comparison.csv") as f:
        rows = list(csv.DictReader(f))
    assert {r["solver"] for r in rows} == {"grap", "rfgrap", "grap-r",
                                           "rfgrap-r"}
    assert {r["rank_bound"] for r in rows} == {"2x2x2"}
    for name in ("grap", "rfgrap", "grap-r", "rfgrap-r"):
        summary = json.loads((out / f"under-rank_r2x2x2_{name}.json").read_text())
        assert summary["termination"] in ("converged", "max_iters")
        assert all(rk <= 2 for rk in summary["rank"])
    meta = json.loads((out / "under-rank_problem" / "meta.json").read_text())
    assert meta["r_true"] == [4, 4, 4]


def test_candidate_exhaustion_exits_1_with_its_diagnostics(problem_dir,
                                                         tmp_path, capsys):
    # a threshold above every singular value offers 5**3 > 64 candidates
    flags = ["--rank", "4,4,4", "--delta", "1e6", "--delta-absolute",
             "--max-iters", "3"]
    summary = tmp_path / "summary.json"
    code = main(["complete", str(problem_dir), "--solver", "grap-r",
                 "--summary", str(summary)] + flags)
    assert code == 1
    out, err = capsys.readouterr()
    assert "candidate_exhaustion after 0 iterations" in out
    assert "exceed candidate_cap=64" in err
    s = json.loads(summary.read_text())
    assert s["termination"] == "candidate_exhaustion"
    assert "exceed candidate_cap=64" in s["diagnostics"][0]
    out = tmp_path / "bench"
    code = main(["bench", "over-rank", "--n", "8,8,8", "--true-rank", "2,2,2",
                 "--p", "0.3", "--out", str(out)] + flags)
    assert code == 1
    assert "FAILED: grap-r r=4x4x4:" in capsys.readouterr().err
    assert (out / "over-rank_r4x4x4_grap-r.json").exists()


def test_hosvd_command(tmp_path, capsys):
    A = to_dense(random_tucker((6, 6, 6), (2, 2, 2), RNG))
    src = tmp_path / "a.tdns"
    save_dense(A, src)
    ckpt = tmp_path / "a.ttkr"
    code = main(["hosvd", str(src), "--rank", "2,2,2", "--save", str(ckpt)])
    assert code == 0
    out = capsys.readouterr().out
    assert "rank: (2, 2, 2)" in out
    T, _, _ = load_checkpoint(ckpt)
    assert np.allclose(to_dense(T), A, atol=1e-10)


def test_hosvd_command_rejects_a_truncated_file(tmp_path, capsys):
    src = tmp_path / "a.tdns"
    save_dense(RNG.standard_normal((3, 3, 3)), src)
    src.write_bytes(src.read_bytes()[:11])
    code = main(["hosvd", str(src), "--rank", "2,2,2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "truncated dense tensor header" in err


def test_hosvd_command_rejects_a_non_finite_value(tmp_path, capsys):
    A = RNG.standard_normal((3, 3, 3))
    A[1, 2, 0] = np.nan
    src = tmp_path / "a.tdns"
    save_dense(A, src)
    code = main(["hosvd", str(src), "--rank", "2,2,2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{src}: non-finite values" in err


def test_check_command(capsys):
    code = main(["check", "--suite", "hosvd", "--restarts", "5", "--seed", "1"])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["name"] == "hosvd" and line["pass"] is True


def test_check_rejects_fewer_than_one_restart(capsys):
    for restarts in ("0", "-3"):
        code = main(["check", "--suite", "angle", "--restarts", restarts])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "restarts" in err


def test_parse_tuple_error(capsys):
    with pytest.raises(SystemExit):
        main(["complete", "x", "--rank", "2,a,2"])


def test_bench_names_every_failed_run(tmp_path, capsys):
    # on the scaled under-rank suite at seed 0, grap and rfgrap end with a
    # line-search failure and grap-r and rfgrap-r with candidate
    # exhaustion: each failed run gets its own FAILED line
    out = tmp_path / "bench"
    code = main(["bench", "under-rank", "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    failed = []
    for name in ("grap", "rfgrap", "grap-r", "rfgrap-r"):
        summary = json.loads((out / f"under-rank_r2x2x2_{name}.json").read_text())
        if summary["termination"] not in ("converged", "max_iters"):
            failed.append(name)
            msg = "; ".join(summary.get("diagnostics", [])) \
                or summary["termination"]
            assert f"FAILED: {name} r=2x2x2: {msg}\n" in err
    assert failed
    assert code == 1
    assert err.count("FAILED: ") == len(failed)
