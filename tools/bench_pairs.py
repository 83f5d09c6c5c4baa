"""Compare two source trees on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds A-B --seconds S [--json OUT]

For each seed s from A to B, runs

    python3 bench/run.py --workload W --seed s --seconds S --trace 0

once in each tree, as a subprocess whose working directory is the tree,
one run at a time: the parent first on the first seed, and the side that
goes first alternating from seed to seed.  Each run's last stdout line is
its JSON result.  The end-to-end metrics and the side on which each is
better are read from CHANGE_DIR/BENCHMARK.json.

Prints, per end-to-end metric, each side's median and quartiles
(inclusive) and in how many pairs the change is better.  --json writes
those numbers, every run's values and the command to OUT.  The standard
library alone is used; neither ve2d nor bench/ is imported.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """The seeds of "A-B" (A to B, both included) or of one seed "A"."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def command(workload: str, seed: int, seconds: float) -> list[str]:
    return [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]


def run_once(tree: Path, argv: list[str]) -> dict:
    """The JSON result on the last stdout line of argv run in tree."""
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree}: no result line (exit {proc.returncode}):"
                         f" {proc.stderr.strip()[-500:]}") from None


def summary(values: list[float]) -> dict:
    """Median and inclusive quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's summary, and the pairs in which the change
    is better, worse or equal."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in SIDES}
        diffs = [sign * (c - p)
                 for p, c in zip(values["parent"], values["change"])]
        out[name] = {"unit": m["unit"], "better": m["better"],
                     **{side: summary(values[side]) for side in SIDES},
                     "wins": sum(d < 0 for d in diffs),
                     "losses": sum(d > 0 for d in diffs),
                     "ties": sum(d == 0 for d in diffs)}
    return out


def run_pairs(parent: Path, change: Path, workload: str, seeds: list[int],
              seconds: float) -> list[dict]:
    """One pair of runs per seed, alternating which side goes first."""
    trees = dict(zip(SIDES, (parent, change)))
    runs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        argv = command(workload, seed, seconds)
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(trees[side], argv)
        runs.append(run)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    runs = run_pairs(args.parent, args.change, args.workload, args.seeds,
                     args.seconds)
    table = compare(runs, spec["end_to_end"])
    pairs = len(runs)
    print(f"{args.workload}: {pairs} pairs, seeds {args.seeds[0]}-"
          f"{args.seeds[-1]}; median [q1, q3], parent -> change")
    for name, row in table.items():
        p, c = row["parent"], row["change"]
        print(f"  {name:<16} {p['median']:.6g} [{p['q1']:.6g}, "
              f"{p['q3']:.6g}] -> {c['median']:.6g} [{c['q1']:.6g}, "
              f"{c['q3']:.6g}] {row['unit']}; change better in "
              f"{row['wins']} of {pairs}")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "command": command(args.workload, "<seed>", args.seconds),
            "parent": str(args.parent), "change": str(args.change),
            "workload": args.workload, "metrics": table, "runs": runs},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
