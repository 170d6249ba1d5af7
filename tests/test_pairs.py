"""The pairs runner's order of runs and its table, on canned result
lines: no daemon is started."""

from __future__ import annotations

from pathlib import Path

from tests.support import pairs

BENCH = pairs.benchmark()


def result(setup_s, p50, ops, rss, *, attempted=100, failed=0):
    values = {"setup_s": setup_s, "query_p50_ms": p50, "ops_per_s": ops, "server_rss_mb": rss}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    }


def test_sides_alternate_and_each_workload_has_its_own_seeds():
    calls = []

    def run(tree, argv):
        calls.append((tree.name, argv))
        return result(1, 1, 1, 1)

    trees = {"parent": Path("/p"), "change": Path("/c")}
    rows = list(pairs.run_pairs(trees, ["fat_result", "warm_point"], 2401, 3, run=run))
    assert [(row["workload"], row["seed"], row["side"]) for row in rows] == [
        ("fat_result", 2401, "parent"), ("fat_result", 2401, "change"),
        ("fat_result", 2402, "change"), ("fat_result", 2402, "parent"),
        ("fat_result", 2403, "parent"), ("fat_result", 2403, "change"),
        ("warm_point", 2404, "parent"), ("warm_point", 2404, "change"),
        ("warm_point", 2405, "change"), ("warm_point", 2405, "parent"),
        ("warm_point", 2406, "parent"), ("warm_point", 2406, "change"),
    ]  # fmt: skip
    assert [tree for tree, _ in calls] == [row["side"][0] for row in rows]
    assert calls[0][1] == [
        *BENCH["command"], "--workload", "fat_result", "--seed", "2401",
        "--seconds", str(BENCH["run_seconds"]), "--trace", "0",
    ]  # fmt: skip


def test_the_table_of_four_canned_pairs():
    parent = [(5.0, 60.0, 30.0, 100.0), (6.0, 64.0, 28.0, 101.0), (7.0, 68.0, 26.0, 102.0), (8.0, 72.0, 24.0, 103.0)]  # fmt: skip
    change = [(5.0, 40.0, 45.0, 99.0), (7.0, 44.0, 42.0, 100.0), (6.0, 48.0, 39.0, 102.5), (8.5, 52.0, 36.0, 102.0)]  # fmt: skip
    rows = []
    for index, (p, c) in enumerate(zip(parent, change)):
        rows.append({"workload": "fat_result", "seed": 7 + index, "side": "parent", "result": result(*p)})
        rows.append({"workload": "fat_result", "seed": 7 + index, "side": "change", "result": result(*c, failed=index == 3)})  # fmt: skip
    text = pairs.table(rows, BENCH, label="PR 24").splitlines()
    assert text[0].startswith("| workload | metric | parent median (q1–q3) | PR 24 median (q1–q3) |")
    assert text[2:6] == [
        # a tie (5.0 / 5.0) is no win; 6.0 against 7.0 is the one win
        "| `fat_result` | `setup_s` | 6.50 (5.25–7.75) | 6.50 (5.25–8.12) | +0.0 % | 2.5 | 2.875 | 1.625 | 1/4 |",
        "| `fat_result` | `query_p50_ms` | 66.00 (61.00–71.00) | 46.00 (41.00–51.00) | -30.3 % | 10 | 10 | 16.5 | 4/4 |",
        # higher is better: the bound is a quarter of the parent's median
        "| `fat_result` | `ops_per_s` | 27.00 (24.50–29.50) | 40.50 (36.75–44.25) | +50.0 % | 5 | 7.5 | 6.75 | 4/4 |",
        "| `fat_result` | `server_rss_mb` | 101.50 (100.25–102.75) | 101.00 (99.25–102.38) | -0.5 % | 2.5 | 3.125 | 10.15 | 3/4 |",
    ]  # fmt: skip
    assert text[-1] == "8 runs, 800 operations attempted, 1 failed, 1 run(s) with an incorrect reply."


def test_a_seed_one_side_has_not_run_yet_is_left_out():
    rows = [
        {"workload": "warm_point", "seed": 1, "side": "parent", "result": result(1, 2, 3, 4)},
        {"workload": "warm_point", "seed": 1, "side": "change", "result": result(1, 1, 4, 4)},
        {"workload": "warm_point", "seed": 2, "side": "change", "result": result(9, 9, 9, 9)},
    ]
    text = pairs.table(rows, BENCH)
    assert "| `warm_point` | `query_p50_ms` | 2.00 (2.00–2.00) | 1.00 (1.00–1.00) | -50.0 % | 0 | 0 | 0.5 | 1/1 |" in text


def test_a_workload_with_no_complete_pair_is_pending():
    rows = [
        {"workload": "warm_point", "seed": 1, "side": "parent", "result": result(1, 2, 3, 4)},
        {"workload": "warm_point", "seed": 1, "side": "change", "result": result(1, 1, 4, 4)},
        {"workload": "live_mixed", "seed": 2, "side": "parent", "result": result(9, 9, 9, 9)},
    ]
    text = pairs.table(rows, BENCH).splitlines()
    assert "| `live_mixed` | pending: no complete pair yet | | | | | | | |" in text
    assert sum(line.startswith("| `warm_point` |") for line in text) == len(BENCH["end_to_end"])
    assert text[-1] == "3 runs, 300 operations attempted, 0 failed, 0 run(s) with an incorrect reply."
