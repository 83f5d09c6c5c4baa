"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/spread.py --seeds 1-10 --seconds 32 --trace 0

Each run is a fresh process of run.py, one workload at a time, in the
order seed by seed, workload by workload.  For each workload and metric it
prints the median, the quartiles (statistics.quantiles with n = 4) and the
spread (Q3 - Q1) / median, and with --out writes them, the raw values and
the stamps to a JSON file.  With --trace 1 it also reports whether the FFT
counts repeated exactly across the runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from make_reference import parse_seeds
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - start
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines if line.startswith(("stamp ", "measured "))}
    result["stamp"] = tagged["stamp"]
    result["measured"] = tagged.get("measured", {})
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="range such as 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file for the summary")
    args = parser.parse_args(argv)
    results = {name: [] for name in WORKLOADS}
    for seed in parse_seeds(args.seeds):
        for name in WORKLOADS:
            results[name].append(run_once(name, seed, args.seconds,
                                          args.trace))
            print(f"{name} seed {seed} done", file=sys.stderr)
    summary = {"seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    for name, runs in results.items():
        metrics = {}
        for key, first in runs[0]["metrics"].items():
            metrics[key] = {"unit": first["unit"], **summarise(
                [r["metrics"][key]["value"] for r in runs])}
        print(f"{name}: {len(runs)} runs, "
              f"correct {all(r['correct'] for r in runs)}, "
              f"attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}, "
              f"longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        print(f"  {'metric':<44} {'unit':<8} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7}")
        for key, m in metrics.items():
            print(f"  {key:<44} {m['unit']:<8} {m['median']:>12.6g} "
                  f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['spread']:>7.3f}")
        measured = {key: summarise([r["measured"][key] for r in runs])
                    for key in runs[0]["measured"]}
        for key, m in measured.items():
            print(f"  {key + ' (measured seconds)':<44} {'s':<8} "
                  f"{m['median']:>12.6g} {m['q1']:>12.6g} {m['q3']:>12.6g} "
                  f"{m['spread']:>7.3f}")
        if args.trace:
            counts = [k for k in metrics if k.endswith(".fft_calls")
                      or k in ("spectral.fft.calls", "spectral.fft.points")]
            varied = [k for k in counts if len(set(metrics[k]["values"])) > 1]
            print(f"  FFT counts repeated exactly: {not varied} "
                  f"{varied or ''}")
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "stamps": [r["stamp"] for r in runs], "metrics": metrics,
            "measured_seconds": measured}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
