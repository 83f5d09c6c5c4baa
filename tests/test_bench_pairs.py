"""tools/bench_pairs.py, the alternating-pairs runner, on two stub trees."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "ok_frac", "unit": "fraction", "better": "higher"}]

# a bench/run.py that logs its side and seed beside the trees and prints
# a fixed result line: wall_s = BASE + seed / 100, ok_frac = OK
STUB = '''\
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
side = Path.cwd().name
with open(Path.cwd().parent / "order.log", "a") as fh:
    fh.write(f"{{side}} {{seed}}\\n")
print("stamp {{}}")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
    "wall_s": {{"value": {base} + seed / 100, "unit": "s"}},
    "ok_frac": {{"value": {ok}, "unit": "fraction"}}}}}}))
'''


def make_tree(root: Path, side: str, base: float, ok: float) -> Path:
    tree = root / side
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(STUB.format(base=base, ok=ok),
                                           encoding="utf-8")
    (tree / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": METRICS}), encoding="utf-8")
    return tree


def test_pairs_alternate_and_compare(tmp_path, capsys):
    parent = make_tree(tmp_path, "parent", 1.0, 1.0)
    change = make_tree(tmp_path, "change", 0.9, 1.0)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--seeds", "1-3", "--seconds", "8",
                             "--json", str(out)]) == 0
    # the parent goes first on the first seed, then the sides alternate
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3",
        "change 3"]
    report = json.loads(out.read_text())
    wall = report["metrics"]["wall_s"]
    assert wall["parent"] == pytest.approx(
        {"median": 1.02, "q1": 1.015, "q3": 1.025})
    assert wall["change"] == pytest.approx(
        {"median": 0.92, "q1": 0.915, "q3": 0.925})
    assert (wall["wins"], wall["losses"], wall["ties"]) == (3, 0, 0)
    ok = report["metrics"]["ok_frac"]
    assert (ok["wins"], ok["losses"], ok["ties"]) == (0, 0, 3)
    assert [r["first"] for r in report["runs"]] == ["parent", "change",
                                                    "parent"]
    assert report["runs"][1]["change"]["metrics"]["wall_s"]["value"] == 0.92
    assert report["command"][1:] == ["bench/run.py", "--workload", "w",
                                     "--seed", "<seed>", "--seconds", "8",
                                     "--trace", "0"]
    printed = capsys.readouterr().out
    assert "change better in 3 of 3" in printed


def test_higher_is_better_counts_a_rise():
    runs = [{side: {"metrics": {"ok_frac": {"value": v}}}
             for side, v in zip(bench_pairs.SIDES, pair)}
            for pair in ((0.9, 1.0), (1.0, 0.9), (1.0, 1.0))]
    row = bench_pairs.compare(runs, METRICS[1:])["ok_frac"]
    assert (row["wins"], row["losses"], row["ties"]) == (1, 1, 1)


def test_seed_ranges():
    assert bench_pairs.parse_seeds("401-406") == [401, 402, 403, 404, 405,
                                                  406]
    assert bench_pairs.parse_seeds("7") == [7]
