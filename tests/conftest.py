import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ve2d.dynamics import StepperConfig, evolve
from ve2d.grid import Grid
from ve2d.state import InitialDataParams, make_initial_data


@pytest.fixture(scope="session")
def grid32():
    return Grid(32, 16.0)


@pytest.fixture(scope="session")
def grid64():
    return Grid(64, 32.0)


@pytest.fixture(scope="session")
def small_state(grid64):
    return make_initial_data(grid64, InitialDataParams(amplitude=0.01, seed=1))


@pytest.fixture(scope="session")
def resolved_grid():
    """Fine enough that the initial bump (sigma = radius/6) is fully
    resolved below the dealiasing cutoff; commuted-equation residuals
    then reflect algebra, not spatial truncation."""
    return Grid(128, 32.0)


@pytest.fixture(scope="session")
def resolved_params():
    return InitialDataParams(amplitude=0.01, seed=1, support_radius=6.0)


@pytest.fixture(scope="session")
def evolved_state(resolved_grid, resolved_params):
    """A mildly evolved inviscid state with nontrivial H."""
    return evolve(make_initial_data(resolved_grid, resolved_params),
                  2.0, StepperConfig())


@pytest.fixture(scope="session")
def evolved_state_viscous(resolved_grid, resolved_params):
    from dataclasses import replace
    st = make_initial_data(resolved_grid, replace(resolved_params, mu=0.05))
    return evolve(st, 2.0, StepperConfig())


FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
                    "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
# the complex 1-D transforms, which spectral.fft/ifft use as column passes
COLUMN_PASSES = ("fft", "ifft")


class Transforms(Counter):
    """Fields per numpy.fft entry point, a batch of k fields counting k;
    spectral.fft/ifft count each field once per direction, through their
    row passes rfft and irfft.  columns counts the column passes apart:
    the 1-D columns that fft and ifft transform, n//2 + 1 per n x n field
    unless the pass is pruned."""

    def __init__(self):
        super().__init__()
        self.columns = Counter()

    def clear(self):
        super().clear()
        self.columns.clear()


@pytest.fixture
def transforms(monkeypatch):
    """Transforms made while the test runs; nested calls are not
    recounted."""
    counts = Transforms()
    depth = [0]
    for name in FFT_ENTRY_POINTS:
        def counted(a, *args, _fn=getattr(np.fft, name), _name=name,
                    **kwargs):
            if depth[0] == 0:
                shape = np.shape(a)
                if _name in COLUMN_PASSES:
                    axis = kwargs.get("axis", args[1] if len(args) > 1
                                      else -1)
                    counts.columns[_name] += (int(np.prod(shape))
                                              // shape[axis])
                else:
                    counts[_name] += int(np.prod(shape[:-2]))
            depth[0] += 1
            try:
                return _fn(a, *args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(np.fft, name, counted)
    return counts


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak():
    """_traced_peak: the tracemalloc peak of one call of a function.  Call
    the function once untraced first, so that lazily built arrays (the
    grid's) are not counted."""
    return _traced_peak
