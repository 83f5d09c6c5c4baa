"""Correctness checks on the artifacts of one workload run.

Every check is charged to an operation: a step, a diagnostic sample or an
audited multi-index.  A run that exits non-zero fails all of its
operations.  A problem not tied to one sample (energy drift, an audit
ratio off its reference) is charged to the last sample.  Nothing is
dropped: each problem is also returned as a message.

Seed-independent checks apply to every seed; the comparison with the
seed-commit reference applies to the seeds recorded in reference.json.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# CSV columns that carry physics (compared with the reference)
PHYSICAL = ("t", "E0", "E1", "E2", "calE1", "calE2", "X1", "X2", "Y1", "Y2",
            "G1", "G2", "good_sup")
# residuals of pointwise identities evaluated on the state itself
IDENTITY = ("id45_res", "id417_res", "id218_res")
IDENTITY_CEILING = 1e-12
# calE1 = 2 x energy is conserved at mu = 0 and dissipated at mu > 0
ENERGY_DRIFT = 1e-5
REFERENCE_RTOL = 1e-9


@dataclass
class Outcome:
    attempted: int
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail(self, op, message: str) -> None:
        self.failed.add(op)
        self.problems.append(message)

    @property
    def failed_count(self) -> int:
        return len(self.failed)


def read_csv(path) -> list[dict[str, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def close(a: float, b: float, rtol: float = REFERENCE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_simulation(exit_code, csv_path, mu: float, samples: int,
                     steps: int, reference=None) -> Outcome:
    """Check a `ve2d simulate` run from its exit code and CSV.

    reference: rows of PHYSICAL values recorded at the seed commit for the
    same config, or None when this seed was not recorded.
    """
    out = Outcome(attempted=steps + samples)
    every_op = [("step", i) for i in range(steps)] + [
        ("sample", i) for i in range(samples)]
    if exit_code != 0:
        for op in every_op:
            out.fail(op, f"exit code {exit_code}")
        return out
    try:
        rows = read_csv(csv_path)
    except (OSError, ValueError) as exc:
        for op in every_op:
            out.fail(op, f"unreadable CSV: {exc}")
        return out
    last = ("sample", samples - 1)
    for i in range(len(rows), samples):
        out.fail(("sample", i), f"sample {i} missing from the CSV")
    if len(rows) > samples:
        out.fail(last, f"{len(rows)} CSV rows, expected {samples}")
    for i, row in enumerate(rows[:samples]):
        bad = [k for k, v in row.items() if not math.isfinite(v)]
        if bad:
            out.fail(("sample", i), f"sample {i}: non-finite {bad}")
        for col in IDENTITY:
            if row.get(col, math.inf) > IDENTITY_CEILING:
                out.fail(("sample", i),
                         f"sample {i}: {col} = {row.get(col)} above "
                         f"{IDENTITY_CEILING:g}")
    energy = [row["calE1"] for row in rows[:samples]]
    if len(energy) >= 2 and all(map(math.isfinite, energy)):
        if mu == 0.0:
            drift = abs(energy[-1] / energy[0] - 1.0)
            if drift > ENERGY_DRIFT:
                out.fail(last, f"calE1 drifted by {drift:.3g} relative")
        else:
            for i in range(1, len(energy)):
                if energy[i] > energy[i - 1]:
                    out.fail(("sample", i), f"sample {i}: calE1 increased "
                             f"at mu = {mu:g}")
    if reference is not None:
        for i, (row, ref) in enumerate(zip(rows, reference)):
            off = [c for c, r in zip(PHYSICAL, ref)
                   if not close(row.get(c, math.nan), r)]
            if off:
                out.fail(("sample", i),
                         f"sample {i}: {off} differ from the reference")
    return out


def check_audit(exit_code, json_path, samples: int, steps: int,
                indices: int, ceilings: dict, reference=None) -> Outcome:
    """Check a `ve2d audit` run from its exit code and audit.json.

    ceilings bound the commutator residuals of each multi-index; reference
    holds the seed commit's inequality ratios for this seed, or is None.
    """
    out = Outcome(attempted=steps + samples + indices)
    every_op = ([("step", i) for i in range(steps)]
                + [("sample", i) for i in range(samples)]
                + [("index", i) for i in range(indices)])
    if exit_code != 0:
        for op in every_op:
            out.fail(op, f"exit code {exit_code}")
        return out
    try:
        report = json.loads(Path(json_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        for op in every_op:
            out.fail(op, f"unreadable audit report: {exc}")
        return out
    commutators = list(report.get("commutator_residuals", {}).items())
    for i in range(len(commutators), indices):
        out.fail(("index", i), f"index {i} missing from the audit")
    for i, (name, res) in enumerate(commutators[:indices]):
        worst = max(res.values(), default=math.nan)
        ceiling = ceilings.get(name, math.nan)
        if not all(map(math.isfinite, res.values())) or not worst <= ceiling:
            out.fail(("index", i), f"commutator residual at {name} = "
                     f"{worst} above the ceiling {ceiling:g}")
    last = ("sample", samples - 1)
    for part in ("identity_residuals", "inequality_ratios"):
        values = report.get(part, {})
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if not values or bad:
            out.fail(last, f"{part}: missing or non-finite {bad}")
    if reference is not None:
        ratios = report.get("inequality_ratios", {})
        off = [k for k, v in reference.items()
               if not close(ratios.get(k, math.nan), v)]
        if off:
            out.fail(last, f"inequality ratios {off} differ from the "
                     "reference")
    return out
