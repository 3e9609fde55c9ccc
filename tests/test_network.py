"""Network plumbing: grids, boundary completion, topology validation."""

import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspower.errors import DomainError, GasPowerError, InvalidDemandError, NumericsError
from gaspower.friction import FrictionModel
from gaspower.laxcurves import GasState, Side, lax_left, lax_right, rho_min
from gaspower.network import (
    BoundaryCondition,
    GasSimulation,
    Junction,
    JunctionPort,
    Pipe,
    PipeGrid,
    apply_boundary,
    constant,
    flux,
    flux_jacobian,
    ramp,
)
from gaspower.pressure import GammaLaw, IsothermalLaw, SumGammaLaw
from gaspower.riemann import junction_traces


def test_pipe_geometry():
    pipe = Pipe("P", "a", "b", length=1000.0, diameter=0.6, roughness=5e-5)
    assert pipe.area == pytest.approx(math.pi * 0.09, rel=1e-14)
    with pytest.raises(DomainError):
        Pipe("bad", "a", "b", length=-1.0)


@pytest.mark.parametrize("field, value", [
    ("length", math.nan), ("length", math.inf),
    ("diameter", math.nan), ("diameter", math.inf),
    ("roughness", -1e-3), ("roughness", math.nan), ("roughness", math.inf),
])
def test_pipe_rejects_bad_geometry(field, value):
    geometry = {"length": 1000.0, "diameter": 0.6, "roughness": 5e-5, field: value}
    with pytest.raises(DomainError, match=f"pipe P7: .*{field}"):
        Pipe("P7", "a", "b", **geometry)


def test_grid_staggering_layouts():
    pipe = Pipe("P", "a", "b", 1.0)
    cells = PipeGrid(pipe, 10, IsothermalLaw(1.0))
    nodes = PipeGrid(pipe, 10, IsothermalLaw(1.0), staggering="nodes")
    assert cells.x.size == 10 and nodes.x.size == 11
    assert cells.x[0] == pytest.approx(0.05)
    assert nodes.x[0] == 0.0 and nodes.x[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("what, assign", [
    ("density", lambda g, v: g.fill(v, 0.1)),
    ("momentum", lambda g, v: g.fill(1.0, v)),
    ("density", lambda g, v: g.set_profile(lambda x: np.where(x > 0.5, v, 1.0),
                                           lambda x: 0.1 * x)),
    ("momentum", lambda g, v: g.set_profile(lambda x: 1.0 + x,
                                            lambda x: np.where(x > 0.5, v, 0.1))),
], ids=["fill-rho", "fill-q", "profile-rho", "profile-q"])
def test_grid_assignment_refuses_non_finite_values(what, assign, value):
    """``fill`` and ``set_profile`` refuse a non-finite density or momentum
    with a ``DomainError`` naming the pipe, and leave the grid as it was."""
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 4, IsothermalLaw(1.0)).fill(2.0, 0.5)
    with pytest.raises(DomainError, match=rf"^pipe P: {what} must be finite, got {value}$"):
        assign(grid, value)
    assert np.all(grid.rho == 2.0) and np.all(grid.q == 0.5)


def test_grid_subsonic_check():
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 4, IsothermalLaw(1.0)).fill(1.0, 2.0)
    with pytest.raises(DomainError):
        grid.check_subsonic()


@pytest.mark.parametrize("field", ["rho", "q"])
def test_grid_subsonic_check_rejects_nan(field):
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 4, IsothermalLaw(1.0)).fill(1.0, 0.5)
    getattr(grid, field)[2] = math.nan
    with pytest.raises(NumericsError, match=r"pipe P: non-finite state at x=0\.625"):
        grid.check_subsonic()


@pytest.mark.parametrize("law", [IsothermalLaw(1.0), GammaLaw(1.0, 1.4)],
                         ids=["isothermal", "gamma"])
@pytest.mark.parametrize("rho", [-0.5, 0.0])
def test_grid_subsonic_check_rejects_non_positive_density(law, rho):
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 4, law).fill(1.0, 0.1)
    grid.rho[1] = rho
    with pytest.raises(NumericsError, match=r"pipe P: non-positive density at x=0\.375"):
        grid.check_subsonic()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("law", [GammaLaw(1.0, 1.4), SumGammaLaw()], ids=["gamma", "sum_gamma"])
@pytest.mark.parametrize("rho", [-0.5, 0.0, math.inf])
def test_state_check_of_a_bad_density_raises_no_runtime_warning(law, rho):
    """The one-pass check hands the law only densities in (0, inf), so a bad
    density ends in its categorized error without a NumPy warning."""
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 4, law).fill(1.0, 0.1)
    grid.rho[1] = rho
    with pytest.raises(NumericsError, match=r"^pipe P: non-\S+ (state|density) at x=0\.375"):
        grid.check_subsonic()


def test_grid_subsonic_check_rejects_nan_sound_speed():
    class NanSoundSpeed(IsothermalLaw):
        def c(self, rho):
            return np.where(rho > 2.0, math.nan, 1.0)

    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 4, NanSoundSpeed(1.0)).fill(1.0, 0.1)
    grid.rho[3] = 3.0
    with pytest.raises(NumericsError, match=r"pipe P: NaN sound speed at x=0\.875"):
        grid.check_subsonic()


def test_flux_jacobian_matches_finite_differences():
    law = GammaLaw(1.0, 1.4)
    rho, q = 3.0, 1.2
    a21, a22 = (float(v) for v in flux_jacobian(rho, q, law))
    h = 1e-7
    f_rho = (flux(rho + h, q, law)[1] - flux(rho - h, q, law)[1]) / (2 * h)
    f_q = (flux(rho, q + h, law)[1] - flux(rho, q - h, law)[1]) / (2 * h)
    assert a21 == pytest.approx(float(f_rho), rel=1e-6)
    assert a22 == pytest.approx(float(f_q), rel=1e-6)


# -- boundary completion --------------------------------------------------------


def test_stationary_boundary_reproduces_cell_state():
    """Matching inflow pressure / outflow momentum leave the state alone."""
    law = GammaLaw(1.0, 1.4)
    interior = GasState(2.0, 0.4)
    p_match = float(law.p(2.0))
    left = GasState(*apply_boundary(interior.rho, interior.q,
                                    BoundaryCondition("pressure", constant(p_match)),
                                    0.0, law, end="start"))
    assert left.rho == pytest.approx(2.0, rel=1e-12)
    assert left.q == pytest.approx(0.4, abs=1e-12)
    right = GasState(*apply_boundary(interior.rho, interior.q,
                                     BoundaryCondition("flow", constant(0.4)),
                                     0.0, law, end="end"))
    assert right.rho == pytest.approx(2.0, rel=1e-10)
    assert right.q == pytest.approx(0.4, abs=1e-14)


def test_boundary_states_lie_on_the_wave_curves():
    law = GammaLaw(1.0, 1.4)
    interior = GasState(2.0, 0.4)
    left = GasState(*apply_boundary(interior.rho, interior.q,
                                    BoundaryCondition("density", constant(2.5)),
                                    0.0, law, end="start"))
    assert left.q == pytest.approx(lax_right(2.5, interior, law), rel=1e-12)
    right = GasState(*apply_boundary(interior.rho, interior.q,
                                     BoundaryCondition("flow", constant(-0.3)),
                                     0.0, law, end="end"))
    assert lax_left(right.rho, interior, law) == pytest.approx(-0.3, abs=1e-12)


@pytest.mark.parametrize("law", [GammaLaw(1.0, 1.4), SumGammaLaw()],
                         ids=["gamma", "sum_gamma"])
@pytest.mark.parametrize("end", ["start", "end"])
def test_unreachable_boundary_outflow_is_an_invalid_demand(law, end):
    """A prescribed momentum is the extraction of a one-port junction: beyond
    the top of the interior's wave curve, at its rho_min, it has no trace."""
    interior = GasState(2.0, 0.4)
    # The end boundary sees the interior on its 1-curve, the start boundary
    # the mirrored interior with the momentum negated.
    seen, sign = (interior, 1.0) if end == "end" else (interior.mirrored(), -1.0)
    top = lax_left(rho_min(seen, Side.IN, law), seen, law)
    bc = BoundaryCondition("flow", constant(sign * 1.01 * top))
    with pytest.raises(InvalidDemandError) as info:
        apply_boundary(interior.rho, interior.q, bc, 0.0, law, end)
    assert info.value.epsilon_max == pytest.approx(top, rel=1e-14)


def test_outflow_ramp_values():
    """Momentum prescribed at the outflow follows the ramp 0 -> 0.2 on [0, 0.1]."""
    bc = BoundaryCondition("flow", ramp(0.0, 0.1, 0.0, 0.2))
    assert bc.value(0.05) == pytest.approx(0.1)
    assert bc.value(0.2) == pytest.approx(0.2)
    law = GammaLaw(1.0 / 1.4, 1.4)
    interior = GasState(1.0, 0.05)
    state = GasState(*apply_boundary(interior.rho, interior.q, bc, 0.05, law, end="end"))
    assert state.q == pytest.approx(0.1, abs=1e-14)
    assert state.rho < interior.rho  # outflow rarefies the pipe end


def test_network_scale_boundary_values():
    """60 bar inflow and the volumetric outflow of the network benchmark."""
    law = IsothermalLaw(340.0)
    rho_in = law.rho_from_pressure(60e5)
    assert rho_in == pytest.approx(60e5 / 340.0**2, rel=1e-14)  # 51.903 kg/m^3
    area = math.pi * 0.6**2 / 4.0
    q_out = 100.0 * 0.785 / area
    assert q_out == pytest.approx(277.637, abs=1e-3)
    interior = GasState(rho_in, q_out)
    state = GasState(*apply_boundary(interior.rho, interior.q,
                                     BoundaryCondition("pressure", constant(60e5)),
                                     0.0, law, end="start"))
    assert state.rho == pytest.approx(rho_in, rel=1e-14)


def test_state_boundary_passthrough():
    bc = BoundaryCondition("state", constant((3.0, -1.0)))
    state = GasState(*apply_boundary(1.0, 0.0, bc, 0.0, IsothermalLaw(1.0), "end"))
    assert (state.rho, state.q) == (3.0, -1.0)


def _apply_boundary_of_states(adjacent: GasState, bc: BoundaryCondition, t: float,
                              law, end: str) -> GasState:
    """The ``GasState`` form of :func:`apply_boundary` that the float entry
    replaced, kept as its reference."""
    if bc.kind == "state":
        rho, q = bc.value(t)
        return GasState(float(rho), float(q))

    mirror = end == "start"
    interior = adjacent.mirrored() if mirror else adjacent
    if bc.kind == "flow":
        q_b = float(bc.value(t))
        outflow = -q_b if mirror else q_b
        try:
            rho_b = junction_traces([interior.rho], [interior.q], 1, outflow, law)[0]
        except InvalidDemandError as exc:
            raise InvalidDemandError(
                f"outflow {outflow:g} is at or above the boundary maximum "
                f"{exc.epsilon_max:g}", epsilon_max=exc.epsilon_max) from None
        return GasState(rho_b, q_b)
    target = bc.value(t)
    rho_b = (law.rho_from_pressure(target)
             if bc.kind == "pressure" else float(target))
    state = GasState(rho_b, lax_left(rho_b, interior, law))
    return state.mirrored() if mirror else state


BOUNDARY_LAWS = {"gamma": GammaLaw(1.0, 1.4), "isothermal": IsothermalLaw(1.0),
                 "sum_gamma": SumGammaLaw()}


def _outcome(solve):
    """The bits of a trace, or the class, message and supremum of the error."""
    try:
        rho, q = solve()
    except GasPowerError as exc:
        return type(exc), str(exc), getattr(exc, "epsilon_max", None)
    return float(rho).hex(), float(q).hex()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(law_id=st.sampled_from(sorted(BOUNDARY_LAWS)),
       kind=st.sampled_from(["pressure", "density", "flow", "state"]),
       end=st.sampled_from(["start", "end"]), rho=st.floats(0.2, 5.0),
       mach=st.floats(-0.9, 0.9), ratio=st.floats(0.5, 2.0),
       value_mach=st.floats(-2.0, 2.0))
def test_float_boundary_entry_matches_the_state_form(law_id, kind, end, rho, mach,
                                                     ratio, value_mach):
    """Over every kind, both ends and three laws, the float entry returns the
    traces of the ``GasState`` form bit for bit, and raises what it raises;
    outflows reach past the boundary maximum."""
    law = BOUNDARY_LAWS[law_id]
    scale = rho * float(law.c(rho))
    rho_b = ratio * rho
    value = {"pressure": float(law.p(rho_b)), "density": rho_b,
             "flow": value_mach * scale,
             "state": (rho_b, 0.5 * value_mach * rho_b * float(law.c(rho_b)))}[kind]
    bc = BoundaryCondition(kind, constant(value))
    q = mach * scale

    def reference():
        state = _apply_boundary_of_states(GasState(rho, q), bc, 0.5, law, end)
        return state.rho, state.q

    assert _outcome(lambda: apply_boundary(rho, q, bc, 0.5, law, end)) == _outcome(reference)


@pytest.mark.parametrize("rho_b", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("kind", ["state", "density"])
def test_bad_boundary_density_raises_what_the_state_form_raises(kind, rho_b):
    """A prescribed density that is not positive and finite is the
    ``DomainError`` that building it as a ``GasState`` raises."""
    law = GammaLaw(1.0, 1.4)
    bc = BoundaryCondition(kind, constant((rho_b, 0.5) if kind == "state" else rho_b))

    def reference():
        state = _apply_boundary_of_states(GasState(2.0, 0.4), bc, 0.0, law, "end")
        return state.rho, state.q

    outcome = _outcome(lambda: apply_boundary(2.0, 0.4, bc, 0.0, law, "end"))
    assert outcome[0] is DomainError
    assert outcome == _outcome(reference)


def test_unknown_boundary_kind_rejected():
    with pytest.raises(DomainError):
        BoundaryCondition("voltage", constant(1.0))


# -- simulation wiring ----------------------------------------------------------


def _two_pipe_sim(law, junction_kwargs=None):
    a = PipeGrid(Pipe("A", "n0", "n1", 1.0), 4, law).fill(1.0, 0.0)
    b = PipeGrid(Pipe("B", "n1", "n2", 1.0), 4, law).fill(1.0, 0.0)
    return GasSimulation(
        grids=[a, b],
        junctions=[Junction("n1", [JunctionPort(0, "end"), JunctionPort(1, "start")],
                            **(junction_kwargs or {}))],
        boundaries={(0, "start"): BoundaryCondition("state", constant((1.0, 0.0))),
                    (1, "end"): BoundaryCondition("state", constant((1.0, 0.0)))},
    )


def test_dangling_pipe_end_rejected():
    law = IsothermalLaw(1.0)
    grid = PipeGrid(Pipe("A", "n0", "n1", 1.0), 4, law).fill(1.0, 0.0)
    with pytest.raises(DomainError):
        GasSimulation(grids=[grid], boundaries={
            (0, "start"): BoundaryCondition("state", constant((1.0, 0.0)))})


def test_unequal_junction_areas_rejected():
    law = IsothermalLaw(1.0)
    a = PipeGrid(Pipe("A", "n0", "n1", 1.0, diameter=0.6), 4, law).fill(1.0, 0.0)
    b = PipeGrid(Pipe("B", "n1", "n2", 1.0, diameter=0.4), 4, law).fill(1.0, 0.0)
    with pytest.raises(DomainError):
        GasSimulation(
            grids=[a, b],
            junctions=[Junction("n1", [JunctionPort(0, "end"),
                                       JunctionPort(1, "start")])],
            boundaries={(0, "start"): BoundaryCondition("state", constant((1.0, 0.0))),
                        (1, "end"): BoundaryCondition("state", constant((1.0, 0.0)))},
        )


def test_mixed_pressure_laws_rejected():
    """A network runs with one pressure law: a pipe with another law is a
    domain error at build that names the pipe and both laws, while equal
    laws held by distinct objects are accepted."""
    def network(law_b):
        a = PipeGrid(Pipe("A", "n0", "n1", 1.0), 4, GammaLaw(1.0, 1.4)).fill(1.0, 0.0)
        b = PipeGrid(Pipe("B", "n1", "n2", 1.0), 4, law_b).fill(1.0, 0.0)
        return GasSimulation(
            grids=[a, b],
            junctions=[Junction("n1", [JunctionPort(0, "end"), JunctionPort(1, "start")])],
            boundaries={(0, "start"): BoundaryCondition("state", constant((1.0, 0.0))),
                        (1, "end"): BoundaryCondition("state", constant((1.0, 0.0)))},
        )

    with pytest.raises(DomainError, match=re.escape(
            "pipe B: pressure law isothermal(1.0) differs from the network's "
            "gamma(1.0,1.4) (pipe A)")):
        network(IsothermalLaw(1.0))
    assert network(GammaLaw(1.0, 1.4)).law == GammaLaw(1.0, 1.4)


def test_wavespeed_and_mass_bookkeeping(unit_isothermal):
    sim = _two_pipe_sim(unit_isothermal)
    assert sim.max_wavespeed() == pytest.approx(1.0)
    # two unit pipes at rho=1 with unit cross-section hold two mass units
    assert sim.total_mass() == pytest.approx(2.0 * math.pi / 4.0, rel=1e-12)


def test_wavespeeds_propagate_nan(unit_isothermal):
    """A NaN cell must not vanish from the CFL bound as max(0.0, nan) == 0.0."""
    for pipe_index in (0, 1):
        sim = _two_pipe_sim(unit_isothermal)
        sim.grids[pipe_index].rho[1] = math.nan
        assert math.isnan(sim.max_wavespeed())
        assert math.isnan(sim.min_wavespeed())


def test_simulation_subsonic_check_names_the_time(unit_isothermal):
    sim = _two_pipe_sim(unit_isothermal)
    sim.t = 0.25
    sim.grids[1].rho[2] = math.nan
    with pytest.raises(NumericsError,
                       match=r"pipe B: non-finite state at x=0\.625 .* at t=0\.25$"):
        sim.check_subsonic()


class _NanSoundSpeedAboveTwo(IsothermalLaw):
    def c(self, rho):
        return np.where(np.asarray(rho) > 2.0, math.nan, 1.0)


# Isolated pipes of unequal length, diameter and interval count.
_UNEQUAL_PIPES = (("A", 1.0, 0.5, 4), ("B", 2.5, 0.8, 7), ("C", 0.6, 0.3, 5))


def _unequal_network(staggering):
    law = _NanSoundSpeedAboveTwo(1.0)
    grids = [PipeGrid(Pipe(name, f"{name}0", f"{name}1", length, diameter=d), n,
                      law, staggering=staggering).fill(1.0, 0.1)
             for name, length, d, n in _UNEQUAL_PIPES]
    far_field = BoundaryCondition("state", constant((1.0, 0.1)))
    return GasSimulation(grids=grids, boundaries={
        (i, end): far_field for i in range(len(grids)) for end in ("start", "end")})


_FAULTS = [
    pytest.param("q", math.inf, NumericsError, "non-finite state", id="non-finite"),
    pytest.param("rho", -1.0, NumericsError, "non-positive density", id="non-positive"),
    pytest.param("rho", 3.0, NumericsError, "NaN sound speed", id="nan-sound-speed"),
    pytest.param("q", 2.0, DomainError, "super-sonic state", id="super-sonic"),
]


@pytest.mark.parametrize("staggering", ["cells", "nodes"])
@pytest.mark.parametrize("field, value, error, what", _FAULTS)
def test_network_check_names_the_pipe_position_and_time(staggering, field, value,
                                                        error, what):
    """The network-wide check reports the category, pipe, position and time
    of a bad state in any pipe of an unequal network."""
    for k in range(len(_UNEQUAL_PIPES)):
        sim = _unequal_network(staggering)
        sim.t = 1.5
        grid = sim.grids[k]
        i = k + 1
        getattr(grid, field)[i] = value
        with pytest.raises(error) as info:
            sim.check_subsonic()
        assert type(info.value) is error
        place = re.escape(f"pipe {grid.pipe.id}: {what} at x={grid.x[i]:g} ")
        assert re.fullmatch(place + r"\(.*\) at t=1\.5", str(info.value))


@pytest.mark.parametrize("staggering", ["cells", "nodes"])
@pytest.mark.parametrize("field", ["rho", "q"])
def test_network_wavespeeds_propagate_nan_in_every_pipe(staggering, field):
    for k in range(len(_UNEQUAL_PIPES)):
        sim = _unequal_network(staggering)
        getattr(sim.grids[k], field)[k] = math.nan
        assert math.isnan(sim.max_wavespeed())
        assert math.isnan(sim.min_wavespeed())


@pytest.mark.parametrize("staggering", ["cells", "nodes"])
def test_grids_are_views_of_the_network_state(staggering):
    """Every way of writing a grid after the build reaches the network state
    and the total mass; the grids themselves cannot be replaced."""
    sim = _unequal_network(staggering)
    for grid in sim.grids:
        assert np.shares_memory(grid.rho, sim.state)
        assert np.shares_memory(grid.q, sim.state)
    a, b, c = sim.grids
    a.rho[:] = 2.0
    b.rho = np.full(b.x.size, 1.5)
    b.q = np.linspace(0.0, 0.2, b.x.size)
    c.set_profile(lambda x: 1.0 + 0.5 * x / c.pipe.length, lambda x: 0.0 * x)
    np.testing.assert_array_equal(sim.state[0], np.concatenate([g.rho for g in sim.grids]))
    np.testing.assert_array_equal(sim.state[1], np.concatenate([g.q for g in sim.grids]))
    assert sim.state[1, a.x.size + b.x.size - 1] == 0.2
    # Both quadratures integrate the constant and linear profiles exactly.
    mass = (a.pipe.area * a.pipe.length * 2.0 + b.pipe.area * b.pipe.length * 1.5
            + c.pipe.area * c.pipe.length * 1.25)
    assert sim.total_mass() == pytest.approx(mass, rel=1e-14)
    a.fill(1.0, 0.3)
    assert np.all(sim.state[1, :a.x.size] == 0.3)
    assert sim.total_mass() == pytest.approx(mass - a.pipe.area * a.pipe.length,
                                             rel=1e-14)

    name, length, d, n = _UNEQUAL_PIPES[1]
    new = PipeGrid(Pipe(name, f"{name}0", f"{name}1", length, diameter=d), n + 3,
                   a.law, staggering=staggering).fill(1.25, 0.05)
    with pytest.raises(TypeError):
        sim.grids[1] = new


def test_a_built_network_cannot_be_rewired():
    """Re-binding the grids, junctions, boundaries, friction model or
    periodicity of a built network is refused with the field's name, and
    neither the friction model nor the boundary mapping can be changed in
    place, so the friction constants and a step's layout stay those of the
    network; the time and the extra source stay assignable."""
    law = IsothermalLaw(1.0)
    grid = PipeGrid(Pipe("P", "a", "b", 1000.0, diameter=0.5, roughness=1e-4), 8,
                    law, staggering="nodes").fill(1.0, 0.1)
    sim = GasSimulation(
        grids=[grid],
        boundaries={(0, "start"): BoundaryCondition("density", constant(1.0)),
                    (0, "end"): BoundaryCondition("flow", constant(0.1))},
        friction=FrictionModel(eta=1e-5))
    constants = sim.friction_constants
    for name, value in (("grids", (grid,)), ("junctions", ()),
                        ("boundaries", dict(sim.boundaries)),
                        ("friction", FrictionModel(eta=1.0)), ("periodic", True)):
        with pytest.raises(FrozenInstanceError, match=f"'{name}'"):
            setattr(sim, name, value)
    with pytest.raises(FrozenInstanceError, match="'eta'"):
        sim.friction.eta = 1.0
    with pytest.raises(TypeError):
        sim.boundaries[0, "end"] = BoundaryCondition("density", constant(1.0))
    with pytest.raises(TypeError):
        del sim.boundaries[0, "start"]
    assert sim.friction == FrictionModel(eta=1e-5)
    assert sim.friction_constants is constants
    assert [bc.kind for bc in sim.boundaries.values()] == ["density", "flow"]
    sim.t = 0.5
    sim.extra_source = lambda x, t, rho, q: (0.0 * rho, 0.0 * q)
    assert sim.t == 0.5 and sim.extra_source is not None


def test_junction_ports_are_fixed_and_its_extraction_is_not(unit_isothermal):
    sim = _two_pipe_sim(unit_isothermal)
    junction = sim.junctions[0]
    assert isinstance(sim.junctions, tuple) and isinstance(junction.ports, tuple)
    with pytest.raises(FrozenInstanceError, match="'ports'"):
        junction.ports = junction.ports[::-1]
    with pytest.raises(FrozenInstanceError, match="'node'"):
        junction.node = "n2"
    with pytest.raises(AttributeError):
        junction.ports.append(JunctionPort(0, "start"))
    junction.extraction = 0.25
    assert junction.extraction == 0.25


@pytest.mark.parametrize("law", [GammaLaw(1.0, 1.4), IsothermalLaw(1.0), SumGammaLaw()],
                         ids=["gamma", "isothermal", "sum_gamma"])
@pytest.mark.parametrize("kind", ["pressure", "density", "flow"])
def test_left_boundary_is_the_mirrored_right_boundary(law, kind):
    """A start boundary equals the mirror image of the end boundary solved on
    the mirrored interior with the prescribed momentum negated, bit for bit."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = rng.uniform(0.3, 4.0)
        interior = GasState(rho, rng.uniform(-0.8, 0.8) * rho * float(law.c(rho)))
        rho_b = rho * rng.uniform(0.9, 1.5)
        value = {"pressure": float(law.p(rho_b)), "density": rho_b,
                 "flow": lax_right(rho_b, interior, law)}[kind]
        mirrored_value = -value if kind == "flow" else value
        left = GasState(*apply_boundary(interior.rho, interior.q,
                                        BoundaryCondition(kind, constant(value)),
                                        0.0, law, "start"))
        mirrored = interior.mirrored()
        right = GasState(*apply_boundary(mirrored.rho, mirrored.q,
                                         BoundaryCondition(kind, constant(mirrored_value)),
                                         0.0, law, "end"))
        assert left == right.mirrored()
