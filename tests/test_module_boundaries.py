"""No module of the package reaches into another module's private names,
and SciPy is loaded only by the code that computes with it.

A name with a leading underscore is private to the module (or the object)
that defines it. Two patterns would cross that line: importing such a name
from a sibling module, and reading such an attribute off anything but
``self`` or ``cls``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaspower"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_accesses(source: str):
    """(line, description) of every private import or foreign private read."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            hits += [(node.lineno, f"imports {alias.name} from .{node.module or ''}")
                     for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and _private(node.attr) and isinstance(node.value, ast.Name)
              and node.value.id not in ("self", "cls")):
            hits.append((node.lineno, f"reads {node.value.id}.{node.attr}"))
    return hits


def test_the_check_finds_both_patterns():
    source = ("from .riemann import _JunctionProblem, solve_interface\n"
              "guess = sim._boundary_guess\n"
              "own = self._cache\n"
              "name = law.__class__\n")
    assert private_accesses(source) == [
        (1, "imports _JunctionProblem from .riemann"),
        (2, "reads sim._boundary_guess"),
    ]


def test_no_module_uses_another_modules_private_names():
    hits = [f"{path.name}:{line}: {what}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line, what in private_accesses(path.read_text())]
    assert hits == []


# Runs a small two-pipe junction with the scheme and the law given as
# arguments, solves and samples its exact solution as the benchmark gate does
# (the fans are inverted by root searches), then prints the SciPy modules the
# process has loaded.
JUNCTION_RUN = """
import json, sys
import gaspower, gaspower.cli
from gaspower.driver import run_gas_simulation
from gaspower.laxcurves import GasState
from gaspower.pressure import parse_law
from gaspower.riemann import max_extraction, sample_solution, solve_gas_power_junction
from gaspower.scenario import scenario_from_dict

scheme, spec = sys.argv[1:]
law = parse_law(spec)
left, right = GasState(4.0, 1.0), GasState(3.0, -1.0)
eps = 0.9 * max_extraction(left, right, law)
result = run_gas_simulation(scenario_from_dict({
    "pressure_law": spec,
    "friction": {"enabled": False},
    "gas_nodes": ["INLET", "JUNCTION", "OUTLET"],
    "pipes": [{"id": "LEFT", "from": "INLET", "to": "JUNCTION", "length": 0.25},
              {"id": "RIGHT", "from": "JUNCTION", "to": "OUTLET", "length": 0.25}],
    "initial": [{"pipe": "LEFT", "rho": 4.0, "q": 1.0},
                {"pipe": "RIGHT", "rho": 3.0, "q": -1.0}],
    "boundary": [{"node": "INLET", "kind": "state", "rho": 4.0, "q": 1.0},
                 {"node": "OUTLET", "kind": "state", "rho": 3.0, "q": -1.0}],
    "extraction": [{"node": "JUNCTION", "epsilon": eps}],
    "numerics": {"scheme": scheme, "dt": 0.001, "dx": 0.01, "t_end": 0.02},
    "outputs": {"profiles": [{"time": 0.02}]},
}))
assert result.profiles
sol = solve_gas_power_junction(left, right, eps, law)
fan = [sample_solution(sol, xi / 20.0) for xi in range(-60, 61)]
assert len({state.rho for state in fan}) > 10
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def scipy_modules_after_junction_run(scheme, law, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", JUNCTION_RUN, scheme, law], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# A power law, and one whose rarefaction integrals take the Chebyshev panels.
LAWS = ("gamma(1.0,1.4)", "sum_gamma")


@pytest.mark.parametrize("law", LAWS)
def test_cweno_runs_load_no_scipy(law, tmp_path):
    assert scipy_modules_after_junction_run("cweno3", law, tmp_path) == []


@pytest.mark.parametrize("law", LAWS)
def test_box_scheme_runs_load_only_linear_algebra_and_graphs(law, tmp_path):
    loaded = scipy_modules_after_junction_run("ibox", law, tmp_path)
    assert "scipy.linalg.lapack" in loaded
    assert not [name for name in loaded
                if name.split(".")[1:2] in (["optimize"], ["integrate"], ["interpolate"])]
