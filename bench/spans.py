"""In-memory spans around calls into ve2d, and the FFT counter.

A span is one call of a wrapped function: its name, the index of the span
that was open when it started (its parent, -1 at the top), its start and
end on the monotonic clock, and how many FFTs (and FFT input points) ran
inside it.  Spans are kept in a list and written out when the run ends.

Wrappers are installed from outside the program: every module of the
package whose namespace binds the original function object gets the
wrapper, so `experiments.step` is traced as well as `dynamics.step`.  The
numpy.fft entry points are wrapped before ve2d is imported, so that code
binding them at import time (``from numpy.fft import rfft2``) is counted.
"""

import functools
import sys
import time

import numpy as np

FFT_SPAN = "spectral.fft"

# every transform numpy.fft exports; helpers such as fftfreq are not work
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                    "hfft", "ihfft")


class Tracer:
    """Records spans while active; passes calls straight through otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans = []          # [name, parent, start, end, ffts, points]
        self.observed = {}       # span name -> values returned by observers
        self.fft_calls = 0
        self.fft_points = 0
        self._stack = []

    def call(self, name, fn, args, kwargs, observe=None, fft_points=None):
        """Run fn inside a span; fft_points marks the span as one FFT."""
        if not self.active:
            return fn(*args, **kwargs)
        rec = [name, self._stack[-1] if self._stack else -1, self.clock(),
               0.0, self.fft_calls, self.fft_points]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if fft_points is not None:
            self.fft_calls += 1
            self.fft_points += fft_points
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = self.clock()
            rec[4] = self.fft_calls - rec[4]
            rec[5] = self.fft_points - rec[5]
            self._stack.pop()
        if observe is not None:
            self.observed.setdefault(name, []).append(observe(args, result))
        return result

    def fft(self, fn, args, kwargs):
        """One numpy.fft call: counted, and a span of its own."""
        if not self.active or (self._stack
                               and self.spans[self._stack[-1]][0] == FFT_SPAN):
            return fn(*args, **kwargs)
        points = int(np.size(args[0] if args else kwargs["a"]))
        return self.call(FFT_SPAN, fn, args, kwargs, fft_points=points)


def install_fft_counter(tracer: Tracer, module) -> callable:
    """Wrap the transforms of `module` (numpy.fft); returns the undo."""
    saved = {}
    for name in FFT_ENTRY_POINTS:
        fn = getattr(module, name, None)
        if fn is None:
            continue
        saved[name] = fn

        def wrapper(*args, _fn=fn, **kwargs):
            return tracer.fft(_fn, args, kwargs)

        setattr(module, name, functools.wraps(fn)(wrapper))

    def undo():
        for name, fn in saved.items():
            setattr(module, name, fn)
    return undo


def install_spans(tracer: Tracer, package: str, targets, observers=None
                  ) -> tuple[callable, list[str]]:
    """Wrap each (module, name) of `targets` in every namespace binding it.

    Span names are "module.name" with the package prefix dropped.  Returns
    the undo and the list of targets the package does not define.
    """
    observers = observers or {}
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package
                                     or key.startswith(package + "."))]
    saved = []
    missing = []
    for mod_name, fn_name in targets:
        home = sys.modules.get(f"{package}.{mod_name}")
        original = getattr(home, fn_name, None)
        if original is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue
        span = f"{mod_name}.{fn_name}"

        def wrapper(*args, _fn=original, _span=span, **kwargs):
            return tracer.call(_span, _fn, args, kwargs,
                               observers.get(_span))

        wrapped = functools.wraps(original)(wrapper)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def undo():
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
    return undo, missing


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][2], start), min(spans[c][3], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans, observed=None) -> dict:
    """Per span name: call count, durations, self times, FFTs and points."""
    observed = observed or {}
    selfs = self_times(spans)
    table = {}
    for (name, _, start, end, ffts, points), self_s in zip(spans, selfs):
        row = table.setdefault(name, {"calls": 0, "durations": [], "self": [],
                                      "ffts": 0, "points": 0})
        row["calls"] += 1
        row["durations"].append(end - start)
        row["self"].append(self_s)
        row["ffts"] += ffts
        row["points"] += points
    for name, values in observed.items():
        table.setdefault(name, {"calls": 0, "durations": [], "self": [],
                                "ffts": 0, "points": 0})["observed"] = values
    return table
