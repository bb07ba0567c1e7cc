import importlib.util
import json
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
