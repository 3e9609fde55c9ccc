"""Scenario-to-simulation wiring: topology derivation, probes, schemes."""

import dataclasses
from importlib.resources import files

import pytest
import yaml

from gaspower.coupling import find_stationary_state
from gaspower.driver import (
    build_gas_simulation,
    build_link,
    run_cosim,
    run_gas_simulation,
)
from gaspower.errors import DomainError, InvalidDemandError, SchemaError
from gaspower.laxcurves import GasState
from gaspower.riemann import junction_max_extraction
from gaspower.scenario import BoundarySpec, load_scenario, scenario_from_dict

BUNDLED = files("gaspower") / "scenarios"


def _mini(**overrides):
    base = {
        "name": "mini",
        "pressure_law": "isothermal(1)",
        "pipes": [{"id": "A", "from": "n0", "to": "n1", "length": 1.0},
                  {"id": "B", "from": "n1", "to": "n2", "length": 1.0}],
        "initial": [{"pipe": "A", "rho": 1.0, "q": 0.0},
                    {"pipe": "B", "rho": 1.0, "q": 0.0}],
        "boundary": [{"node": "n0", "kind": "density", "value": 1.0},
                     {"node": "n2", "kind": "flow", "value": 0.0}],
        "numerics": {"scheme": "cweno3", "dt": 1e-3, "dx": 0.05, "t_end": 0.01},
    }
    base.update(overrides)
    return scenario_from_dict(base)


def test_interior_nodes_become_junctions():
    sim = build_gas_simulation(_mini())
    assert len(sim.junctions) == 1
    junction = sim.junctions[0]
    assert junction.node == "n1"
    assert {(p.pipe_index, p.end) for p in junction.ports} == {(0, "end"),
                                                               (1, "start")}
    assert set(sim.boundaries) == {(0, "start"), (1, "end")}


def test_scenario_extraction_is_the_junction_extraction():
    scn = _mini(extraction=[{"node": "n1", "epsilon": 0.25}])
    sim = build_gas_simulation(scn)
    assert sim.junctions[0].extraction == 0.25


def test_compressor_ratio_reaches_the_port():
    scn = _mini(compressors=[{"node": "n1", "pipe": "A", "ratio": 1.07}])
    sim = build_gas_simulation(scn)
    ratios = {(p.pipe_index, p.end): p.pressure_ratio
              for p in sim.junctions[0].ports}
    assert ratios[(0, "end")] == 1.07
    assert ratios[(1, "start")] == 1.0


def test_cell_count_override():
    scn = _mini(numerics={"scheme": "cweno3", "dt": 1e-3, "n_cells": 17,
                          "t_end": 0.01})
    sim = build_gas_simulation(scn)
    assert all(g.n == 17 for g in sim.grids)


def test_scheme_selects_the_staggering():
    assert build_gas_simulation(_mini()).grids[0].staggering == "cells"
    scn = _mini(numerics={"scheme": "ibox", "dt": 1e-2, "dx": 0.05,
                          "t_end": 0.1})
    assert build_gas_simulation(scn).grids[0].staggering == "nodes"


def test_boundary_on_interior_node_rejected():
    with pytest.raises(SchemaError):
        _mini(boundary=[{"node": "n1", "kind": "flow", "value": 0.0},
                        {"node": "n0", "kind": "density", "value": 1.0},
                        {"node": "n2", "kind": "flow", "value": 0.0}])


@pytest.mark.parametrize("boundaries, message", [
    ((), "pipe A: no boundary or junction at its start"),
    ((BoundarySpec("n1", "flow", (0.0,)), BoundarySpec("n0", "density", (1.0,)),
      BoundarySpec("n2", "flow", (0.0,))), "pipe B: no boundary or junction at its start"),
], ids=["no-boundaries", "boundary-on-interior-node"])
def test_hand_built_uncovered_pipe_end_is_a_domain_error(boundaries, message):
    """A ``Scenario`` built without the parse gets no invented junction: a
    pipe end at no boundary, second pipe end or draw is left uncovered."""
    scn = dataclasses.replace(_mini(), boundaries=boundaries)
    with pytest.raises(DomainError, match=f"^{message}$"):
        build_gas_simulation(scn)


def test_probe_series_are_recorded():
    scn = _mini(outputs={"series": ["rho@n1", "q@n2", "pressure@n0"]})
    result = run_gas_simulation(scn)
    assert {s.quantity for s in result.series} == {"rho@n1", "q@n2",
                                                   "pressure@n0"}
    assert all(len(s.times) >= 2 for s in result.series)


def test_unknown_probe_is_a_schema_error():
    scn = _mini(outputs={"series": ["rho@nowhere"]})
    with pytest.raises(SchemaError):
        run_gas_simulation(scn)


def test_link_area_comes_from_the_junction_pipes():
    scn = load_scenario(BUNDLED / "gaslib9.scn")
    sim = build_gas_simulation(scn)
    link = build_link(scn, sim)
    assert link.area == pytest.approx(0.2827433388230814, rel=1e-12)
    assert link.rho0 == 0.785


def test_stationary_start_rejects_cell_grids():
    """The stationary start runs the box scheme, which needs node values;
    on CWENO cell centres it would treat the outer centres as pipe ends."""
    scn = load_scenario(BUNDLED / "gaslib9.scn")
    scn = dataclasses.replace(
        scn, numerics=dataclasses.replace(scn.numerics, scheme="cweno3"))
    with pytest.raises(DomainError, match=r"pipe P10: .*staggering='nodes'"):
        run_cosim(scn)


def _gaslib9_with_s5_pressure(value, tmp_path):
    path = tmp_path / "gaslib9.scn"
    text = (BUNDLED / "gaslib9.scn").read_text()
    path.write_text(text.replace("value: 60 bar", f"value: {value}"))
    return load_scenario(path)


def test_stationary_start_from_a_constant_boundary_series(tmp_path):
    states = []
    for value in ("60 bar", "[[0, 60 bar], [100, 60 bar]]"):
        sim = build_gas_simulation(_gaslib9_with_s5_pressure(value, tmp_path))
        find_stationary_state(sim)
        states.append(sim.state_vector())
    assert states[0].tobytes() == states[1].tobytes()


def test_stationary_start_rejects_a_varying_boundary_series(tmp_path):
    with pytest.raises(SchemaError, match=r"boundary\[0\]: node 'S5'"):
        _gaslib9_with_s5_pressure("[[0, 60 bar], [100, 61 bar]]", tmp_path)


def _validation_with(extraction=None, outlet=None, **numerics):
    raw = yaml.safe_load((BUNDLED / "validation.scn").read_text())
    raw["numerics"].update(numerics)
    if extraction is not None:
        raw["extraction"] = [{"node": "JUNCTION", "epsilon": extraction}]
    if outlet is not None:
        raw["boundary"][1] = {"node": "OUTLET", **outlet}
    return scenario_from_dict(raw)


@pytest.mark.parametrize("overrides, place, ports_in, ports_out", [
    ({"extraction": 30.0},
     r"junction JUNCTION: extraction 30 is at or above the junction maximum",
     [GasState(4.0, 1.0)], [GasState(3.0, -1.0)]),
    ({"outlet": {"kind": "flow", "value": 50.0}},
     r"pipe RIGHT end: outflow 50 is at or above the boundary maximum",
     [GasState(3.0, -1.0)], []),
], ids=["junction-extraction", "boundary-outflow"])
def test_infeasible_demand_names_the_time_and_the_place(overrides, place,
                                                        ports_in, ports_out):
    """A demand beyond the supremum fails at the first stage as an
    ``InvalidDemandError`` that keeps its supremum and names t and the
    junction or pipe end."""
    scenario = _validation_with(**overrides)
    with pytest.raises(InvalidDemandError, match=rf"^t=0, {place} ") as info:
        run_gas_simulation(scenario)
    expected = junction_max_extraction(ports_in, ports_out, scenario.law)
    assert info.value.epsilon_max == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("overrides, place, ports_in, ports_out", [
    ({"extraction": 30.0},
     r"junction JUNCTION: extraction 30 is at or above the junction maximum",
     [GasState(4.0, 1.0)], [GasState(3.0, -1.0)]),
    ({"outlet": {"kind": "flow", "value": 50.0}},
     r"pipe RIGHT end: outflow 50 is at or above the boundary maximum",
     [GasState(3.0, -1.0)], []),
], ids=["junction-extraction", "boundary-outflow"])
def test_box_scheme_names_an_unreachable_demand(overrides, place, ports_in, ports_out):
    """The box step whose Newton iteration fails on a demand at or above the
    supremum of its starting states raises an ``InvalidDemandError`` with
    that supremum, naming the step's new time and the junction or pipe end,
    instead of a convergence failure."""
    scenario = _validation_with(**overrides, scheme="ibox", dt=5.0e-4)
    with pytest.raises(InvalidDemandError, match=rf"^t=0\.0005, {place} ") as info:
        run_gas_simulation(scenario)
    assert info.value.epsilon_max == junction_max_extraction(ports_in, ports_out,
                                                             scenario.law)
