"""Alternating parent / change pairs of the command ``BENCHMARK.json``
names, and the table ``docs/PERFORMANCE.md`` prints of them.

``python -m tests.support.pairs --parent TREE --change TREE --seed 2401``
runs, per workload, ``--pairs`` pairs of ``<command> --workload W --seed S
--seconds <run_seconds> --trace 0`` in the two checkouts, the parent
first on the first, third, … pair and the change first on the others,
each workload on its own consecutive seeds, and appends every result
line to ``--out`` as it arrives.  ``--table FILE`` prints the table of
a file written that way.  Nothing here is imported by the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SIDES = ("parent", "change")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def command(bench: dict, workload: str, seed: int) -> list[str]:
    """The driver's untraced invocation of one workload."""
    return [
        *bench["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]  # fmt: skip


def run_in(tree: Path, argv: list[str]) -> dict:
    """One run in checkout ``tree``: its result line, parsed."""
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{argv} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(
    trees: dict[str, Path],
    workloads: list[str],
    first_seed: int,
    pairs: int,
    *,
    run: Callable[[Path, list[str]], dict] = run_in,
) -> Iterator[dict]:
    """``{"workload", "seed", "side", "result"}`` per run, in the order run."""
    bench = benchmark()
    for offset, workload in enumerate(workloads):
        for pair in range(pairs):
            seed = first_seed + offset * pairs + pair
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run(trees[side], command(bench, workload, seed))
                yield {"workload": workload, "seed": seed, "side": side, "result": result}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def table(rows: list[dict], bench: dict, label: str = "change") -> str:
    """The markdown table of ``rows`` (as :func:`run_pairs` yields them)
    and the runs / attempted / failed line under it.

    Per workload and end-to-end metric: each side's median and quartiles
    (``statistics.quantiles(values, n=4)``), the change of the median,
    each side's quartile distance, the spread the driver allows (the
    metric's bound times the parent's median) and the pairs the change
    won (same seed, better by the metric's direction; a tie is no win).
    """
    lines = [
        f"| workload | metric | parent median (q1–q3) | {label} median (q1–q3) | change "
        f"| parent spread | {label} spread | spread bound | wins |",
        "|---|---|---:|---:|---:|---:|---:|---:|---:|",
    ]
    workloads = list(dict.fromkeys(row["workload"] for row in rows))
    for workload in workloads:
        by_seed: dict[int, dict[str, dict]] = {}
        for row in rows:
            if row["workload"] == workload:
                by_seed.setdefault(row["seed"], {})[row["side"]] = row["result"]["metrics"]
        both = [sides for sides in by_seed.values() if len(sides) == 2]
        if not both:  # still running: no seed has both sides yet
            lines.append(f"| `{workload}` | pending: no complete pair yet | | | | | | | |")
            continue
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            parent = [sides["parent"][name]["value"] for sides in both]
            change = [sides["change"][name]["value"] for sides in both]
            (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = _quartiles(parent), _quartiles(change)
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            moved = f"{(c_med - p_med) / p_med * 100:+.1f} %" if p_med else "n/a"
            lines.append(
                f"| `{workload}` | `{name}` | {p_med:.2f} ({p_q1:.2f}–{p_q3:.2f}) "
                f"| {c_med:.2f} ({c_q1:.2f}–{c_q3:.2f}) | {moved} | {p_q3 - p_q1:.4g} "
                f"| {c_q3 - c_q1:.4g} | {metric['bound'] * p_med:.4g} | {wins}/{len(both)} |"
            )
    attempted = sum(row["result"]["attempted"] for row in rows)
    failed = sum(row["result"]["failed"] for row in rows)
    wrong = sum(not row["result"]["correct"] for row in rows)
    lines += [
        "",
        f"{len(rows)} runs, {attempted} operations attempted, {failed} failed, "
        f"{wrong} run(s) with an incorrect reply.",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.support.pairs", description=__doc__)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, help="first seed; workload k starts at seed + k * pairs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", default="change", help="column title of the change's side")
    parser.add_argument("--out", type=Path, default=Path("BENCH_pairs.jsonl"))
    parser.add_argument("--table", type=Path, help="print the table of this file and run nothing")
    args = parser.parse_args(argv)
    bench = benchmark()
    if args.table is None:
        if args.parent is None or args.change is None or args.seed is None:
            parser.error("--parent, --change and --seed are required to run pairs")
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        with open(args.out, "a", encoding="utf-8") as out:
            for row in run_pairs(trees, workloads, args.seed, args.pairs):
                out.write(json.dumps(row) + "\n")
                out.flush()
                print(f"{row['workload']} seed {row['seed']} {row['side']}", file=sys.stderr)
        args.table = args.out
    lines = args.table.read_text(encoding="utf-8").splitlines()
    print(table([json.loads(line) for line in lines if line], bench, args.label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
