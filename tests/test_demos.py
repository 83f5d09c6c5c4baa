"""The four demos run end to end through the public API.

Each demo is copied to a temporary directory and run there, so that the
files a demo writes next to itself land in that directory.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# a line of the table each demo prints
TABLES = {
    "identity_audit.py": "identity residuals over 10 random band-limited",
    "single_run.py": "good_sup",
    "vanishing_viscosity.py": "fitted order in mu:",
    "vector_field_families.py": "21 family members at t = 3",
}


def test_every_demo_is_run():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_demo_runs(name, tmp_path, capsys):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    assert TABLES[name] in capsys.readouterr().out
    if name == "single_run.py":
        assert (tmp_path / "single_run.csv").is_file()
        assert (tmp_path / "single_run_energy.svg").is_file()
