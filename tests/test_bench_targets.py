"""The names other code reads from ve2d stay defined: the benchmark traces
ve2d functions by name (TARGETS in bench/run.py), so a rename must fail
here, not only in a benchmark run; and the public API, the names ve2d
exports and their signatures, stays stable."""

import ast
import importlib
import inspect
from pathlib import Path

import ve2d

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {RUN_PY}")


def test_every_traced_target_is_defined():
    targets = traced_targets()
    assert targets
    missing = [f"{mod}.{name}" for mod, name in targets
               if not callable(getattr(importlib.import_module(f"ve2d.{mod}"),
                                       name, None))]
    assert not missing, missing


# str(inspect.signature(...)) of each public name of the package
PUBLIC_API = {
    'BlowUpError': '(t: float)',
    'DerivedFamily':
        '(state: ve2d.state.PotentialState, k_max: int = 2, '
        'dealias: bool = True, *, residual: bool = True)',
    'Grid': '(n: int, box_len: float)',
    'InitialDataParams':
        "(amplitude: float = 0.01, profile: str = 'gaussian-bump', "
        'support_radius: float | None = None, seed: int = 0, '
        'mu: float = 0.0) -> None',
    'Jet':
        '(grid: ve2d.grid.Grid, V: numpy.ndarray, H: numpy.ndarray, t: float, '
        'mu: float)',
    'MultiIndex': '(alpha: int, a: tuple[int, int, int, int])',
    'PotentialState':
        '(grid: ve2d.grid.Grid, V: numpy.ndarray, H: numpy.ndarray, '
        't: float = 0.0, mu: float = 0.0) -> None',
    'PrimitiveState':
        '(grid: ve2d.grid.Grid, v: numpy.ndarray, G: numpy.ndarray, '
        't: float = 0.0, mu: float = 0.0) -> None',
    'StepperConfig':
        "(cfl_factor: float = 0.3, scheme: str = 'if-rk4', "
        'dealias: bool = True, coupling: bool = True, '
        'nonlinear: bool = True) -> None',
    'apply_field':
        '(op: str, jet: ve2d.families.Jet, '
        'grads: numpy.ndarray | None = None) -> ve2d.families.Jet',
    'base_jet':
        '(state: ve2d.state.PotentialState, levels: int, '
        'dealias: bool = True) -> ve2d.families.Jet',
    'choose_dt':
        '(state: ve2d.state.PotentialState, '
        'cfg: ve2d.dynamics.StepperConfig) -> float',
    'commutator_residuals':
        '(fam: ve2d.families.DerivedFamily, '
        'idx: ve2d.families.MultiIndex) -> tuple[float, float, float]',
    'constraint_norms':
        '(grid: ve2d.grid.Grid, H: numpy.ndarray) -> tuple[float, float]',
    'constraint_residual':
        '(grid: ve2d.grid.Grid, H: numpy.ndarray) -> numpy.ndarray',
    'deformation_of':
        '(grid: ve2d.grid.Grid, H: numpy.ndarray) -> numpy.ndarray',
    'derived_family':
        '(state: ve2d.state.PotentialState, k_max: int = 2, '
        'dealias: bool = True, *, '
        'residual: bool = True) -> ve2d.families.DerivedFamily',
    'evolve':
        '(state: ve2d.state.PotentialState, t_final: float, '
        'cfg: ve2d.dynamics.StepperConfig = StepperConfig(cfl_factor=0.3, '
        "scheme='if-rk4', dealias=True, coupling=True, nonlinear=True), "
        'dt: float | None = None, callback=None) -> ve2d.state.PotentialState',
    'make_initial_data':
        '(grid: ve2d.grid.Grid, '
        'params: ve2d.state.InitialDataParams) -> ve2d.state.PotentialState',
    'nonlinearity_f':
        '(fam: ve2d.families.DerivedFamily, idx: ve2d.families.MultiIndex)',
    'potentials_of':
        '(prim: ve2d.state.PrimitiveState) -> ve2d.state.PotentialState',
    'primitive_of':
        '(state: ve2d.state.PotentialState) -> ve2d.state.PrimitiveState',
    'read_snapshot': '(path) -> ve2d.state.PotentialState',
    'rhs_potential':
        '(state: ve2d.state.PotentialState, '
        'cfg: ve2d.dynamics.StepperConfig = StepperConfig(cfl_factor=0.3, '
        "scheme='if-rk4', dealias=True, coupling=True, nonlinear=True), "
        'include_viscosity: bool = True) -> tuple[numpy.ndarray, '
        'numpy.ndarray]',
    'rhs_primitive':
        '(state: ve2d.state.PrimitiveState, '
        'cfg: ve2d.dynamics.StepperConfig = StepperConfig(cfl_factor=0.3, '
        "scheme='if-rk4', dealias=True, coupling=True, nonlinear=True), "
        'include_viscosity: bool = True) -> tuple[numpy.ndarray, '
        'numpy.ndarray]',
    'step':
        '(state: ve2d.state.PotentialState, dt: float, '
        'cfg: ve2d.dynamics.StepperConfig = StepperConfig(cfl_factor=0.3, '
        "scheme='if-rk4', dealias=True, coupling=True, "
        'nonlinear=True)) -> ve2d.state.PotentialState',
    'step_primitive':
        '(state: ve2d.state.PrimitiveState, dt: float, '
        'cfg: ve2d.dynamics.StepperConfig = StepperConfig(cfl_factor=0.3, '
        "scheme='if-rk4', dealias=True, coupling=True, "
        'nonlinear=True)) -> ve2d.state.PrimitiveState',
    'time_derivative':
        '(state: ve2d.state.PotentialState, order: int, '
        'dealias: bool = True) -> tuple[numpy.ndarray, numpy.ndarray]',
    'velocity_of': '(grid: ve2d.grid.Grid, V: numpy.ndarray) -> numpy.ndarray',
    'write_snapshot': '(path, state: ve2d.state.PotentialState) -> None',
}


def test_public_api_is_stable():
    exported = {name: str(inspect.signature(value))
                for name, value in vars(ve2d).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_API
