"""Record the reference that checks.py compares a workload run against.

    python3 bench/make_reference.py --seeds 0-19

Run at the commit whose numbers are the reference (the benchmark records
them at the seed commit).  Each workload runs once per seed through
`ve2d.cli.main`, exactly as run.py runs it, and bench/reference.json gets:

- for the simulate workloads, the physical CSV columns of every sample;
- for the audit, the inequality ratios per seed, and per multi-index a
  commutator-residual ceiling of CEILING_FACTOR times the largest residual
  seen over all recorded seeds.  The ceiling applies to every seed.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from checks import PHYSICAL, read_csv
from workloads import WORKLOADS

CEILING_FACTOR = 10.0


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-19")
    args = parser.parse_args(argv)
    cli = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    ref = {"source_sha256": run._source_digest(),
           "git_revision": run._git_revision()}
    worst = {}
    for workload in WORKLOADS.values():
        seeds = ref.setdefault(workload.name, {}).setdefault("seeds", {})
        for seed in parse_seeds(args.seeds):
            workdir = Path(tempfile.mkdtemp(dir=run.OUT))
            try:
                code, _, artifacts = run.execute(cli, workload, seed,
                                                    workdir)
                if code != 0:
                    raise RuntimeError(f"{workload.name} seed {seed}: "
                                       f"exit {code}")
                if workload.command == "audit":
                    report = json.loads((artifacts / "audit.json").read_text(
                        encoding="utf-8"))
                    seeds[str(seed)] = {
                        "inequality_ratios": report["inequality_ratios"]}
                    for idx, res in report["commutator_residuals"].items():
                        worst[idx] = max(worst.get(idx, 0.0), *res.values())
                else:
                    rows = read_csv(artifacts / f"run_mu{workload.mu:g}.csv")
                    seeds[str(seed)] = [[row[c] for c in PHYSICAL]
                                        for row in rows]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{workload.name} seed {seed} recorded", file=sys.stderr)
        if workload.command == "audit":
            ref[workload.name]["commutator_ceilings"] = {
                idx: CEILING_FACTOR * w for idx, w in worst.items()}
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
