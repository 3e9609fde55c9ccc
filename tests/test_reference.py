"""Bundled scenarios reproduce their recorded CSV outputs.

The references under ``tests/data/reference/<scenario>/`` were written by
``write_timeseries`` for ``validation.scn`` and ``pressure_laws.scn`` run
with ``run_gas_simulation``, and for ``gaslib9.scn`` cut to t_end = 7200 s
(the quiet hour plus the whole N5 ramp) run with ``run_cosim``.

Regenerate them with ``PYTHONPATH=src python tests/test_reference.py``.
"""

import dataclasses
from importlib.resources import files
from pathlib import Path

import pytest

from gaspower.driver import run_cosim, run_gas_simulation
from gaspower.output import write_timeseries
from gaspower.scenario import load_scenario

REFERENCE = Path(__file__).parent / "data" / "reference"
BUNDLED = files("gaspower") / "scenarios"
GASLIB9_T_END = 7200.0


def _run(name: str):
    scenario = load_scenario(str(BUNDLED / f"{name}.scn"))
    if name == "gaslib9":
        numerics = dataclasses.replace(scenario.numerics, t_end=GASLIB9_T_END)
        return run_cosim(dataclasses.replace(scenario, numerics=numerics))
    return run_gas_simulation(scenario)


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


@pytest.mark.parametrize("name", ["validation", "pressure_laws", "gaslib9"])
def test_outputs_match_recorded_reference(name, tmp_path):
    """Every CSV matches its reference to |a - b| <= 1e-12 * max(1, |ref|).

    The tolerance rather than bit equality allows for SuperLU/LAPACK builds
    that differ in the last bits across machines; on one machine the
    outputs are bit for bit the same.
    """
    written = write_timeseries(_run(name).outputs, tmp_path)
    expected = sorted(p.name for p in (REFERENCE / name).glob("*.csv"))
    assert sorted(p.name for p in written) == expected
    for path in written:
        header, rows = _read_csv(path)
        ref_header, ref_rows = _read_csv(REFERENCE / name / path.name)
        assert header == ref_header
        assert len(rows) == len(ref_rows), path.name
        for row, ref_row in zip(rows, ref_rows):
            for a, b in zip(row, ref_row):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (path.name, row, ref_row)


if __name__ == "__main__":
    for name in ("validation", "pressure_laws", "gaslib9"):
        for path in write_timeseries(_run(name).outputs, REFERENCE / name):
            print(path)
