import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pairs(monkeypatch):
    module = load_tool()
    monkeypatch.setattr(module, "revision", lambda checkout: checkout)
    return module


def fake_runs(wall_s, failed=lambda checkout, workload, seed: 0):
    """A run_bench stand-in: wall_s(checkout, seed) sets the one varying metric."""
    def run_bench(checkout, workload, seed, seconds, trace):
        bad = failed(checkout, workload, seed)
        metrics = {"wall_s": wall_s(checkout, seed), "setup_s": 0.1, "peak_rss_mb": 40.0}
        return {"correct": bad == 0, "attempted": 10, "failed": bad, "seed": seed,
                "metrics": {name: {"value": value} for name, value in metrics.items()}}
    return run_bench


def run_main(module, monkeypatch, tmp_path, seeds=4):
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--parent", "P", "--change", "C",
                                     "--out", str(out), "--seeds", str(seeds)])
    return module.main(), json.loads(out.read_text())


def test_prints_quartiles_and_lower_pairs_with_ties_for_neither(bench_pairs, monkeypatch,
                                                                tmp_path, capsys):
    # Parent reads 1..4 s; the change is lower on seeds 1 and 2 and ties on 3.
    change = {1: 0.5, 2: 1.0, 3: 3.0, 4: 5.0}
    monkeypatch.setattr(bench_pairs, "run_bench", fake_runs(
        lambda checkout, seed: float(seed) if checkout == "P" else change[seed]))
    code, record = run_main(bench_pairs, monkeypatch, tmp_path)
    assert code == 0
    assert len(record["trace0"]["change"]["verify"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert "verify wall_s: parent 2.5 [1.25, 3.75] -> change 2 [0.625, 4.5]; " \
           "change lower in 2/4 pairs" in lines
    assert "survey setup_s: parent 0.1 [0.1, 0.1] -> change 0.1 [0.1, 0.1]; " \
           "change lower in 0/4 pairs" in lines


def test_verdict_needs_nine_in_ten_lower_pairs_and_a_gap_beyond_the_parent_iqr(
        bench_pairs, monkeypatch, tmp_path, capsys):
    # Parent 1..10 s (median 5.5, Q1 2.75, Q3 8.25); verify's change is 6 s
    # lower throughout, ensemble's 2 s lower and survey's 6 s lower but for
    # two pairs.
    shift = {"verify": lambda seed: 6.0, "ensemble": lambda seed: 2.0,
             "survey": lambda seed: 6.0 if seed > 2 else -1.0}

    def run_bench(checkout, name, seed, seconds, trace):
        wall_s = lambda c, s: float(s) if c == "P" else s - shift[name](s)  # noqa: E731
        return fake_runs(wall_s)(checkout, name, seed, seconds, trace)

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    code, _ = run_main(bench_pairs, monkeypatch, tmp_path, seeds=10)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verify wall_s verdict: resolved" in lines
    assert "ensemble wall_s verdict: unresolved" in lines  # 2 s is inside the 5.5 s IQR
    assert "survey wall_s verdict: unresolved" in lines  # lower in only 8/10 pairs
    assert "verify peak_rss_mb verdict: unresolved" in lines  # a tie is not lower


def test_no_regression_verdict_reads_each_bound_as_a_fraction_of_the_parent_median(
        bench_pairs, monkeypatch, tmp_path, capsys):
    # wall_s has a bound of 0.25. Parent verify and ensemble read 1.01..1.10 s
    # (median 1.055, Q3 - Q1 0.0275, margin 0.264); verify's change is 0.5 s
    # slower and ensemble's 0.2 s. Parent survey reads 1..10 s, a Q3 - Q1 of
    # 5.5 s against a 1.375 s margin, and its change reads the same.
    parent = {"verify": lambda s: 1.0 + 0.01 * s, "ensemble": lambda s: 1.0 + 0.01 * s,
              "survey": float}
    change = {"verify": lambda s: 1.5 + 0.01 * s, "ensemble": lambda s: 1.2 + 0.01 * s,
              "survey": float}

    def run_bench(checkout, name, seed, seconds, trace):
        side = parent if checkout == "P" else change
        return fake_runs(lambda c, s: side[name](s))(checkout, name, seed, seconds, trace)

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    code, _ = run_main(bench_pairs, monkeypatch, tmp_path, seeds=10)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verify wall_s no-regression verdict: worse" in lines
    assert "ensemble wall_s no-regression verdict: no worse" in lines
    assert "survey wall_s no-regression verdict: unresolved" in lines
    assert "survey peak_rss_mb no-regression verdict: no worse" in lines  # ties


def test_no_regression_holds_when_every_change_run_is_below_every_parent_run(
        bench_pairs):
    parent = [float(s) for s in range(1, 11)]  # Q3 - Q1 5.5 s, margin 1.375 s
    assert bench_pairs.no_regression(parent, [0.5 + 0.01 * s for s in range(10)],
                                     0.25) == "no worse"
    assert bench_pairs.no_regression(parent, [1.0] + [0.5] * 9, 0.25) == "unresolved"


@pytest.mark.parametrize("broken", [
    lambda checkout, workload, seed: int(checkout == "C" and seed == 3),
    lambda checkout, workload, seed: int(checkout == "P" and workload == "survey"),
], ids=["change-one-seed", "parent-one-workload"])
def test_exits_1_on_an_incorrect_run(bench_pairs, monkeypatch, tmp_path, capsys, broken):
    monkeypatch.setattr(bench_pairs, "run_bench",
                        fake_runs(lambda checkout, seed: 1.0, failed=broken))
    code, _ = run_main(bench_pairs, monkeypatch, tmp_path)
    assert code == 1
    assert "incorrect run or failed operations" in capsys.readouterr().err


def test_a_run_that_exits_non_zero_keeps_the_runs_before_it(bench_pairs, monkeypatch,
                                                           tmp_path, capsys):
    good = fake_runs(lambda checkout, seed: 1.0)

    def run_bench(checkout, workload, seed, seconds, trace):
        if checkout == "C" and workload == "ensemble" and seed == 2:
            raise subprocess.CalledProcessError(
                3, ["bench/run.py"], stderr="ModuleNotFoundError: no module named x\n")
        return good(checkout, workload, seed, seconds, trace)

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--parent", "P", "--change", "C",
                                     "--out", str(out), "--seeds", "4"])
    assert bench_pairs.main() == 1
    record = json.loads(out.read_text())
    # verify's 8 runs, then ensemble's seed 1 pair and, on an even seed, the
    # change first: it is the run that failed.
    assert len(record["trace0"]["parent"]["verify"]) == 4
    assert len(record["trace0"]["change"]["verify"]) == 4
    assert len(record["trace0"]["parent"]["ensemble"]) == 1
    assert len(record["trace0"]["change"]["ensemble"]) == 1
    assert record["trace0"]["parent"]["survey"] == []
    assert record["trace1"] == {"parent": {}, "change": {}}
    err = capsys.readouterr().err
    assert "ModuleNotFoundError: no module named x" in err
    assert "bench/run.py exited 3 in C (change), workload ensemble, seed 2, trace 0; " \
           f"the runs before it are in {out}" in err


@pytest.mark.parametrize("stdout, shown", [("bench ended early\n", "'bench ended early'"),
                                           ("", "''")], ids=["not-json", "empty"])
def test_a_run_without_a_result_line_keeps_the_runs_before_it(bench_pairs, monkeypatch,
                                                              tmp_path, capsys, stdout, shown):
    good = fake_runs(lambda checkout, seed: 1.0)

    def run(argv, cwd, **kwargs):
        workload, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        if cwd == "C" and workload == "ensemble" and seed == 2:
            return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")
        result = good(cwd, workload, seed, 40.0, 0)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result) + "\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--parent", "P", "--change", "C",
                                     "--out", str(out), "--seeds", "4"])
    assert bench_pairs.main() == 1
    record = json.loads(out.read_text())
    assert len(record["trace0"]["parent"]["verify"]) == 4
    assert len(record["trace0"]["change"]["verify"]) == 4
    assert len(record["trace0"]["parent"]["ensemble"]) == 1
    assert len(record["trace0"]["change"]["ensemble"]) == 1
    assert record["trace0"]["parent"]["survey"] == []
    assert record["trace1"] == {"parent": {}, "change": {}}
    assert f"bench/run.py exited 0 with a last line that is not a JSON result, {shown}, " \
           "in C (change), workload ensemble, seed 2, trace 0; " \
           f"the runs before it are in {out}" in capsys.readouterr().err


def test_needs_two_seeds_for_quartiles(bench_pairs, monkeypatch, tmp_path):
    with pytest.raises(SystemExit) as info:
        run_main(bench_pairs, monkeypatch, tmp_path, seeds=1)
    assert info.value.code == 2


def test_plain_directories_record_a_null_revision(monkeypatch, tmp_path):
    # A copy made with git archive has no HEAD to read.
    module = load_tool()
    monkeypatch.setattr(module, "run_bench", fake_runs(lambda checkout, seed: 1.0))
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--parent", str(parent), "--change",
                                     str(change), "--out", str(out), "--seeds", "2"])
    assert module.main() == 0
    assert json.loads(out.read_text())["revisions"] == {"parent": None, "change": None}


def test_revision_reads_only_the_top_of_a_checkout():
    # A directory inside a checkout is not a checkout of its own.
    assert load_tool().revision(str(TOOL.parent)) is None
