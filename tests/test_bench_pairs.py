"""tools/bench_pairs.py: the summary of alternating benchmark pairs, on fixed
raw runs (no benchmark runs here)."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_seed_list():
    assert bench_pairs.seed_list("3101-3104") == [3101, 3102, 3103, 3104]
    assert bench_pairs.seed_list("7,3101-3102,9") == [7, 3101, 3102, 9]


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.pair_order(k) for k in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_of_a_lower_is_better_metric():
    parent = [4.0, 4.4, 4.2, 4.1, 4.3]
    change = [3.9, 4.0, 4.3, 3.8, 4.3]
    got = bench_pairs.summarize(parent, change, "lower", 0.24)
    assert got["parent"] == {"q1": 4.1, "median": 4.2, "q3": 4.3}
    assert got["change"] == {"q1": 3.9, "median": 4.0, "q3": 4.3}
    # pairs 0, 1 and 3 are faster; pair 4 ties; pair 2 is slower
    assert (got["wins"], got["ties"]) == (3, 1)
    assert got["median_change"] == pytest.approx(4.0 / 4.2 - 1)
    assert got["parent_spread"] == pytest.approx(0.2 / 4.2)
    assert got["bound"] == 0.24 and got["within_bound"] is True
    assert got["runs"] == {"parent": parent, "change": change}


@pytest.mark.parametrize("better,change,within", [
    ("lower", [12.5, 12.5, 12.5], False),    # 25% slower, bound 24%
    ("lower", [12.3, 12.3, 12.3], True),
    ("higher", [7.5, 7.5, 7.5], False),      # 25% fewer ops per second
    ("higher", [7.7, 7.7, 7.7], True),
])
def test_bound_is_checked_in_the_metric_direction(better, change, within):
    parent = [10.0, 10.0, 10.0]
    got = bench_pairs.summarize(parent, change, better, 0.24)
    assert got["within_bound"] is within
    assert got["wins"] == (3 if (better == "lower") == (change[0] < 10) else 0)


def test_per_layer_metrics_have_no_bound():
    got = bench_pairs.summarize([1.0, 2.0], [1.0, 1.5], "lower", None)
    assert got["bound"] is None and "within_bound" not in got


def test_workload_summary():
    def run(p50, correct=True):
        return {"correct": correct, "attempted": 84, "failed": 0,
                "metrics": {"latency_ms_p50": {"value": p50, "unit": "ms"},
                            "ok_ratio": {"value": 1.0, "unit": "ratio"}}}

    results = {"parent": [run(4.0), run(4.2), run(4.1)],
               "change": [run(3.7), run(3.9, correct=False), run(3.8)]}
    metrics = {"latency_ms_p50": ("lower", 0.24), "ok_ratio": ("higher", 0.05),
               "setup_s": ("lower", 0.25)}
    got = bench_pairs.summarize_workload([3101, 3102, 3103], results, metrics)
    assert got["pairs"] == 3 and got["order"] == ["PC", "CP", "PC"]
    assert got["correct"] == {"parent": [True, True, True], "change": [True, False, True]}
    assert set(got["metrics"]) == {"latency_ms_p50", "ok_ratio"}  # setup_s never ran
    assert got["metrics"]["latency_ms_p50"]["wins"] == 3
    assert got["metrics"]["ok_ratio"]["ties"] == 3
    json.dumps(got)


def test_metric_table_reads_the_benchmark_declaration():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = bench_pairs.metric_table(benchmark, 0)
    assert end_to_end["latency_ms_p50"] == ("lower", 0.24)
    assert end_to_end["ops_per_s"][0] == "higher"
    per_layer = bench_pairs.metric_table(benchmark, 1)
    assert per_layer["iteration.workspace.self_ms_per_call"] == ("lower", None)


def test_imports_only_the_standard_library():
    imported = set(re.findall(r"^(?:from|import) (\w+)", TOOL.read_text(), re.M))
    assert imported <= {"__future__", "argparse", "json", "os", "platform", "shutil",
                        "statistics", "subprocess", "sys", "pathlib"}
