"""Tests of the benchmark harness's own logic (no ve2d run needed)."""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def ticking_clock():
    t = iter(range(1000))
    return lambda: float(next(t))


class TestSelfTime:
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and c [5, 6]; b holds d [2, 3]
        recs = [["a", -1, 0.0, 10.0, 0, 0], ["b", 0, 1.0, 4.0, 0, 0],
                ["d", 1, 2.0, 3.0, 0, 0], ["c", 0, 5.0, 6.0, 0, 0]]
        assert spans.self_times(recs) == [6.0, 2.0, 1.0, 1.0]

    def test_overlapping_children_are_counted_once(self):
        recs = [["a", -1, 0.0, 10.0, 0, 0], ["b", 0, 1.0, 4.0, 0, 0],
                ["c", 0, 3.0, 6.0, 0, 0]]
        assert spans.self_times(recs)[0] == 5.0

    def test_tracer_builds_the_tree(self):
        tracer = spans.Tracer(clock=ticking_clock())
        tracer.active = True

        def inner():
            return 1

        def outer():
            return tracer.call("inner", inner, (), {}) + 1

        assert tracer.call("outer", outer, (), {}) == 2
        (o, o_parent, o0, o1, _, _), (i, i_parent, i0, i1, _, _) = \
            tracer.spans
        assert (o, o_parent, i, i_parent) == ("outer", -1, "inner", 0)
        assert (o0, i0, i1, o1) == (0.0, 1.0, 2.0, 3.0)
        table = spans.summarize(tracer.spans)
        assert table["outer"]["self"] == [2.0]
        assert table["inner"]["durations"] == [1.0]

    def test_inactive_tracer_records_nothing(self):
        tracer = spans.Tracer()
        assert tracer.call("f", lambda: 3, (), {}) == 3
        assert tracer.spans == []


class TestFftCounter:
    def test_known_sequence(self):
        fake = types.SimpleNamespace(fft2=np.fft.fft2, ifft2=np.fft.ifft2,
                                     fftfreq=np.fft.fftfreq)
        originals = dict(vars(fake))
        tracer = spans.Tracer()
        undo = spans.install_fft_counter(tracer, fake)
        a = np.zeros((4, 8))

        def work():
            fake.ifft2(fake.fft2(a))
            fake.fft2(a[:2])
            fake.fftfreq(8)

        fake.fft2(a)                      # inactive: not counted
        tracer.active = True
        tracer.call("work", work, (), {})
        assert (tracer.fft_calls, tracer.fft_points) == (3, 32 + 32 + 16)
        table = spans.summarize(tracer.spans)
        assert table[spans.FFT_SPAN]["calls"] == 3
        assert (table["work"]["ffts"], table["work"]["points"]) == (3, 80)
        undo()
        assert vars(fake) == originals

    def test_counts_repeat_exactly(self):
        fake = types.SimpleNamespace(fft=np.fft.fft)
        counts = []
        for _ in range(2):
            tracer = spans.Tracer()
            undo = spans.install_fft_counter(tracer, fake)
            tracer.active = True
            for n in (8, 16, 8):
                fake.fft(np.ones(n))
            undo()
            counts.append((tracer.fft_calls, tracer.fft_points))
        assert counts == [(3, 32), (3, 32)]


class TestInstallSpans:
    def test_every_namespace_binding_the_function(self, monkeypatch):
        def f(x):
            return x + 1

        home = types.ModuleType("pkg.home")
        home.f = f
        user = types.ModuleType("pkg.user")
        user.f = f                         # bound by `from .home import f`
        user.g = f
        pkg = types.ModuleType("pkg")
        for name, mod in (("pkg", pkg), ("pkg.home", home),
                          ("pkg.user", user)):
            monkeypatch.setitem(sys.modules, name, mod)
        tracer = spans.Tracer()
        undo, missing = spans.install_spans(
            tracer, "pkg", [("home", "f"), ("home", "absent")])
        assert missing == ["home.absent"]
        tracer.active = True
        assert user.f(1) + user.g(1) + home.f(1) == 6
        assert [s[0] for s in tracer.spans] == ["home.f"] * 3
        undo()
        assert home.f is f and user.f is f and user.g is f

    def test_missing_target_is_an_error(self, monkeypatch):
        def step(state):
            return state

        dynamics = types.ModuleType("ve2d.dynamics")
        dynamics.step = step
        monkeypatch.setitem(sys.modules, "ve2d.dynamics", dynamics)
        with pytest.raises(run.ProgramMissing, match="dynamics.gone"):
            run.install(spans.Tracer(), [("dynamics", "step"),
                                         ("dynamics", "gone")])
        assert dynamics.step is step
        undo = run.install(spans.Tracer(), [("dynamics", "step")])
        assert dynamics.step is not step
        undo()


def write_csv(path, rows):
    cols = list(checks.PHYSICAL) + list(checks.IDENTITY)
    lines = [",".join(cols)] + [",".join(repr(r[c]) for c in cols)
                                for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def good_rows():
    rows = []
    for i in range(3):
        row = {c: 1.0 + 0.1 * k for k, c in enumerate(checks.PHYSICAL)}
        row["t"] = 0.0625 * i
        row.update({c: 1e-18 for c in checks.IDENTITY})
        rows.append(row)
    return rows


class TestSimulationCheck:
    def reference(self):
        return [[r[c] for c in checks.PHYSICAL] for r in good_rows()]

    def test_accepts_matching_run(self, tmp_path):
        write_csv(tmp_path / "run.csv", good_rows())
        out = checks.check_simulation(0, tmp_path / "run.csv", 0.0, 3, 2,
                                      self.reference())
        assert (out.attempted, out.failed_count) == (5, 0)

    def test_rejects_perturbed_value(self, tmp_path):
        rows = good_rows()
        rows[1]["X2"] *= 1.0 + 1e-7
        write_csv(tmp_path / "run.csv", rows)
        out = checks.check_simulation(0, tmp_path / "run.csv", 0.0, 3, 2,
                                      self.reference())
        assert out.failed == {("sample", 1)}
        # without a recorded reference the perturbation is not visible
        out = checks.check_simulation(0, tmp_path / "run.csv", 0.0, 3, 2)
        assert out.failed_count == 0

    @pytest.mark.parametrize("column, value", [
        ("G1", math.nan), ("id417_res", 1e-9), ("calE1", 1.0001)])
    def test_rejects_seed_independent_violations(self, tmp_path, column,
                                                 value):
        rows = good_rows()
        rows[2][column] = value
        write_csv(tmp_path / "run.csv", rows)
        out = checks.check_simulation(0, tmp_path / "run.csv", 0.0, 3, 2)
        assert out.failed == {("sample", 2)}

    def test_energy_must_not_grow_with_viscosity(self, tmp_path):
        rows = good_rows()
        rows[1]["calE1"] = 0.5
        write_csv(tmp_path / "run.csv", rows)
        assert checks.check_simulation(0, tmp_path / "run.csv", 0.01, 3,
                                       2).failed == {("sample", 2)}
        rows[2]["calE1"] = 0.4
        write_csv(tmp_path / "run.csv", rows)
        assert checks.check_simulation(0, tmp_path / "run.csv", 0.01, 3,
                                       2).failed_count == 0

    def test_nonzero_exit_fails_every_operation(self, tmp_path):
        write_csv(tmp_path / "run.csv", good_rows())
        out = checks.check_simulation(2, tmp_path / "run.csv", 0.0, 3, 2)
        assert (out.attempted, out.failed_count) == (5, 5)

    def test_missing_samples(self, tmp_path):
        write_csv(tmp_path / "run.csv", good_rows()[:1])
        out = checks.check_simulation(0, tmp_path / "run.csv", 0.0, 3, 2)
        assert out.failed == {("sample", 1), ("sample", 2)}


class TestAuditCheck:
    def report(self, path, residual=1e-10):
        path.write_text(json.dumps({
            "identity_residuals": {"null_split": 1e-16},
            "commutator_residuals": {"i0": {"r1": 1e-12, "r2": residual,
                                            "r3": 0.0},
                                     "i1": {"r1": 0.0, "r2": 0.0, "r3": 0.0}},
            "inequality_ratios": {"sob_r": 0.25}}), encoding="utf-8")
        return path

    def test_accepts_and_rejects(self, tmp_path):
        ceilings = {"i0": 1e-9, "i1": 1e-9}
        good = self.report(tmp_path / "a.json")
        out = checks.check_audit(0, good, 2, 3, 2, ceilings,
                                 {"sob_r": 0.25})
        assert (out.attempted, out.failed_count) == (7, 0)
        out = checks.check_audit(0, good, 2, 3, 2, ceilings, {"sob_r": 0.3})
        assert out.failed == {("sample", 1)}
        bad = self.report(tmp_path / "b.json", residual=1e-8)
        assert checks.check_audit(0, bad, 2, 3, 2, ceilings).failed == {
            ("index", 0)}
        assert checks.check_audit(3, good, 2, 3, 2,
                                  ceilings).failed_count == 7


class TestDefinitions:
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [m["name"] for m in spec["end_to_end"]] == list(
            run.END_TO_END_UNITS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
            run.END_TO_END_UNITS
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        harness = {name: run.UNITS[kind] for name, _, kind in run.PER_LAYER}
        harness.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
        assert layer == harness
        assert {w["name"]: w["why"] for w in spec["workloads"]} == {
            name: w.why for name, w in WORKLOADS.items()}

    def test_layer_metrics_on_a_known_table(self):
        table = spans.summarize(
            [["dynamics.step", -1, 0.0, 0.5, 246, 10],
             [spans.FFT_SPAN, 0, 0.1, 0.2, 1, 10],
             ["dynamics.step", -1, 1.0, 1.5, 246, 10],
             ["families.derived_family", -1, 2.0, 3.0, 0, 0],
             ["families.derived_family", -1, 4.0, 5.0, 0, 0]],
            {"families.derived_family": [100, 300]})
        metrics = run.layer_metrics(table, reps=2)
        assert metrics["dynamics.step.calls"] == (1.0, "count")
        assert metrics["dynamics.step.ms"] == (500.0, "ms")
        assert metrics["dynamics.step.fft_calls"] == (246.0, "count")
        assert metrics["spectral.fft.points"] == (5.0, "count")
        assert metrics["families.family_bytes"] == (200.0, "B")
        assert metrics["families.nonlinearity_f.ms"] == (0.0, "ms")
