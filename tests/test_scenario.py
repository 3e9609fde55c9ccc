"""Scenario files: bundled contents, validation errors, round-tripping."""

import math
import re
import string
from importlib.resources import files
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import gaspower.scenario
from gaspower.errors import SchemaError
from gaspower.pressure import GammaLaw, IsothermalLaw
from gaspower.scenario import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

BUNDLED = files("gaspower") / "scenarios"
NAMES = ("validation.scn", "pressure_laws.scn", "gaslib9.scn")

# Loader and dumper pairs: pure Python, and libyaml's when PyYAML has it.
PAIRS = {"python": (yaml.SafeLoader, yaml.SafeDumper)}
if yaml.__with_libyaml__:
    PAIRS["libyaml"] = (yaml.CSafeLoader, yaml.CSafeDumper)
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML built without libyaml")


def yaml_pair(name):
    """Make ``gaspower.scenario`` read and write through the pair ``name``."""
    loader, dumper = PAIRS[name]
    return mock.patch.multiple(gaspower.scenario, _LOADER=loader, _DUMPER=dumper)


def test_bundled_validation_scenario_contents():
    scn = load_scenario(BUNDLED / "validation.scn")
    assert scn.law == GammaLaw(1.0, 1.4)
    assert [p.id for p in scn.pipes] == ["LEFT", "RIGHT"]
    by_pipe = {i.pipe: (i.rho, i.q) for i in scn.initial}
    assert by_pipe == {"LEFT": (4.0, 1.0), "RIGHT": (3.0, -1.0)}
    assert scn.extractions[0].epsilon == 1.75
    assert scn.numerics.scheme == "cweno3"
    assert scn.numerics.dt == 5e-5
    assert scn.numerics.dx == 5e-4


def test_bundled_network_scenario_reproduces_the_tables():
    scn = load_scenario(BUNDLED / "gaslib9.scn")
    assert scn.law == IsothermalLaw(340.0)
    pipes = {p.id: p for p in scn.pipes}
    assert len(pipes) == 7
    assert pipes["P10"].length == pytest.approx(20322.0)
    assert pipes["P25"].length == pytest.approx(66037.0)
    assert pipes["P99"].length == pytest.approx(5000.0)
    assert all(p.diameter == pytest.approx(0.6) for p in scn.pipes)
    assert all(p.roughness == pytest.approx(5e-5) for p in scn.pipes)
    assert (pipes["P21"].from_node, pipes["P21"].to_node) == ("S17", "S4")

    buses = {b.id: b for b in scn.buses}
    assert buses["N1"].type == "slack" and buses["N1"].B == -17.3611
    assert buses["N2"].P == 1.63 and buses["N2"].V == 1.0
    assert buses["N5"].P == -0.9 and buses["N5"].Q == -0.3
    assert buses["N9"].G == 2.5528
    lines = {l.id: l for l in scn.lines}
    assert lines["TL14"].B == 17.3611
    assert lines["TL45"].G == -1.9422

    assert scn.coupling.a0 == 2.0 and scn.coupling.a1 == 5.0
    assert scn.coupling.a2 == 10.0 and scn.coupling.rho0 == 0.785
    assert scn.boundaries[0].kind == "pressure"
    assert scn.boundaries[0].value == (60e5,)  # "60 bar" converted to Pa
    assert scn.compressors[0].ratio == 1.05
    assert scn.stationary_init


def test_bundled_pressure_laws_scenario():
    scn = load_scenario(BUNDLED / "pressure_laws.scn")
    assert scn.law == GammaLaw(1.0 / 1.4, 1.4)
    flow = next(b for b in scn.boundaries if b.kind == "flow")
    assert flow.value == ((0.0, 0.0), (0.1, 0.2))
    assert {p.time for p in scn.outputs.profiles} == {0.25, 0.5}


def test_empty_file_is_a_schema_error(tmp_path):
    empty = tmp_path / "nothing.scn"
    empty.write_text("")
    with pytest.raises(SchemaError):
        load_scenario(empty)


def test_missing_file_is_a_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        load_scenario(tmp_path / "does-not-exist.scn")


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("content", [b"name: \xff\xfe\n", b"gas_nodes: [a, b\n"],
                         ids=["not-utf-8", "unclosed-flow-sequence"])
def test_yaml_error_marks_name_the_file(tmp_path, pair, content):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(content)
    with yaml_pair(pair), pytest.raises(SchemaError) as info:
        load_scenario(bad)
    message = str(info.value)
    assert message.startswith(f"{bad}: not valid YAML: "), message
    assert f'in "{bad}"' in message and "<byte string>" not in message, message


def test_schema_errors_name_the_field(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "name: x\npressure_law: log\n"
        "pipes:\n  - {id: A, from: a, to: b}\n"
        "initial:\n  - {pipe: A, rho: 1.0, q: 0.0}\n"
        "boundary: []\nnumerics: {scheme: cweno3, dt: 1.0e-3, dx: 0.1, t_end: 1.0}\n"
    )
    with pytest.raises(SchemaError) as info:
        load_scenario(bad)
    assert "length" in str(info.value)
    assert "pipes[0]" in str(info.value)


@pytest.mark.parametrize("raw, shown", [
    (".inf", "inf"), ("-.inf", "-inf"), (".nan", "nan"), ("1e400", "inf"),
    ("'inf bar'", "inf"),
])
@pytest.mark.parametrize("field, old, new", [
    ("initial[0].rho", "{pipe: LEFT, rho: 4.0,", "{pipe: LEFT, rho: RAW,"),
    ("boundary[0].rho", "{node: INLET, kind: state, rho: 4.0,",
     "{node: INLET, kind: state, rho: RAW,"),
    ("boundary[1].value", "{node: OUTLET, kind: state, rho: 3.0, q: -1.0}",
     "{node: OUTLET, kind: flow, value: RAW}"),
    ("extraction[0].epsilon", "epsilon: 1.75", "epsilon: RAW"),
    ("pipes[0].length", "to: JUNCTION, length: 0.25", "to: JUNCTION, length: RAW"),
])
def test_non_finite_numbers_are_refused_with_the_field(tmp_path, raw, shown, field,
                                                       old, new):
    """NaN and +-inf, whether YAML's, too large for a float or in bar, are a
    schema error that names the field, before any run."""
    text = (BUNDLED / "validation.scn").read_text()
    assert text.count(old) == 1
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(old, new.replace("RAW", raw)))
    with pytest.raises(SchemaError) as info:
        load_scenario(bad)
    assert str(info.value) == f"{bad}.{field}: expected a finite number, got {shown}"


def test_an_integer_too_large_for_a_float_is_refused_as_infinite():
    raw = yaml.safe_load((BUNDLED / "validation.scn").read_text())
    raw["initial"][1]["q"] = -10**400
    with pytest.raises(SchemaError, match=r"^<dict>\.initial\[1\]\.q: expected a "
                                          r"finite number, got -inf$"):
        scenario_from_dict(raw)


def test_unknown_references_are_rejected():
    base = {
        "name": "x",
        "pressure_law": "log",
        "pipes": [{"id": "A", "from": "a", "to": "b", "length": 1.0}],
        "initial": [{"pipe": "A", "rho": 1.0, "q": 0.0}],
        "boundary": [{"node": "a", "kind": "density", "value": 1.0},
                     {"node": "b", "kind": "flow", "value": 0.0}],
        "numerics": {"scheme": "cweno3", "dt": 1e-3, "dx": 0.1, "t_end": 1.0},
    }
    scenario_from_dict(base)
    cases = [
        ({"boundary": [*base["boundary"], {"node": "zz", "kind": "flow", "value": 0.0}]},
         "boundary[2]: unknown node 'zz'"),
        ({"initial": [{"pipe": "B", "rho": 1, "q": 0}]}, "initial[0]: unknown pipe 'B'"),
        ({"numerics": {"scheme": "magic", "dt": 1e-3, "dx": 0.1, "t_end": 1.0}},
         "numerics.scheme: unknown scheme 'magic'"),
    ]
    for change, message in cases:
        with pytest.raises(SchemaError, match="^" + re.escape(f"<dict>.{message}") + "$"):
            scenario_from_dict({**base, **change})


# case -> (bundled file, text in it, its replacement, field, rest of the message)
REFUSALS = {
    "missing-initial": (
        "validation.scn", "  - {pipe: RIGHT, rho: 3.0, q: -1.0}\n", "",
        "pipes[1]", "pipe 'RIGHT' has no initial state and stationary_init is off"),
    "second-initial": (
        "validation.scn", "q: -1.0}\nboundary:",
        "q: -1.0}\n  - {pipe: LEFT, rho: 1.0, q: 0.0}\nboundary:",
        "initial[2]", "second entry for pipe 'LEFT'"),
    "second-boundary": (
        "validation.scn", "extraction:\n",
        "  - {node: INLET, kind: density, value: 4.0}\nextraction:\n",
        "boundary[2]", "second boundary at node 'INLET'"),
    "second-extraction": (
        "validation.scn", "epsilon: 1.75}\n",
        "epsilon: 1.75}\n  - {node: JUNCTION, epsilon: 0.5}\n",
        "extraction[1]", "second extraction at node 'JUNCTION'"),
    "second-compressor": (
        "gaslib9.scn", "ratio: 1.05}\n",
        "ratio: 1.05}\n  - {node: S17, pipe: P20, ratio: 1.1}\n",
        "compressors[1]", "second compressor on pipe 'P20' at node 'S17'"),
    "extraction-on-boundary": (
        "validation.scn", "{node: JUNCTION, epsilon", "{node: OUTLET, epsilon",
        "extraction[0]", "node 'OUTLET' is a boundary node"),
    "compressor-on-boundary": (
        "gaslib9.scn", "{node: S17, pipe: P20", "{node: S5, pipe: P20",
        "compressors[0]", "node 'S5' is a boundary node"),
    "compressor-off-its-pipe": (
        "gaslib9.scn", "{node: S17, pipe: P20", "{node: S17, pipe: P10",
        "compressors[0]", "pipe 'P10' has no end at node 'S17'"),
    "profile-of-unknown-pipe": (
        "validation.scn", "{time: 0.1}", "{time: 0.1, pipe: MIDDLE}",
        "outputs.profiles[0]", "unknown pipe 'MIDDLE'"),
    "profile-after-t-end": (
        "validation.scn", "{time: 0.1}", "{time: 0.2}",
        "outputs.profiles[0]", "time 0.2 is outside [0, t_end] = [0, 0.1]"),
    "profile-before-start": (
        "validation.scn", "{time: 0.1}", "{time: -0.1}",
        "outputs.profiles[0]", "time -0.1 is outside [0, t_end] = [0, 0.1]"),
    "coupling-on-boundary": (
        "gaslib9.scn", "gas_node: S4", "gas_node: S5",
        "coupling.gas_node", "node 'S5' is a boundary node"),
    "boundary-on-interior-node": (
        "validation.scn", "{node: INLET, kind: state", "{node: JUNCTION, kind: state",
        "boundary[0]",
        "node 'JUNCTION': boundary conditions only apply to nodes with a single pipe end"),
    "dangling-pipe-end": (
        "validation.scn", "  - {node: OUTLET, kind: state, rho: 3.0, q: -1.0}\n", "",
        "pipes[1]", "node 'OUTLET': dangling pipe end without boundary"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_entries_that_repeat_or_attach_to_nothing_are_refused(tmp_path, case):
    """A missing initial state, a second entry for the same pipe, node or
    port, and an entry that attaches to nothing are schema errors at load
    that name the field of the offending entry."""
    name, old, new, field, rest = REFUSALS[case]
    text = (BUNDLED / name).read_text()
    assert text.count(old) == 1
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    with pytest.raises(SchemaError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}.{field}: {rest}"


def test_round_trip_through_save_and_load(tmp_path):
    for name in NAMES:
        scn = load_scenario(BUNDLED / name)
        target = tmp_path / name
        save_scenario(scn, target)
        again = load_scenario(target)
        assert again == scn, name


def test_bar_suffix_parsing():
    scn = scenario_from_dict({
        "name": "bar",
        "pressure_law": "isothermal(340)",
        "pipes": [{"id": "A", "from": "a", "to": "b", "length": 1.0}],
        "initial": [{"pipe": "A", "rho": 50.0, "q": 0.0}],
        "boundary": [{"node": "a", "kind": "pressure", "value": "1.5 bar"},
                     {"node": "b", "kind": "flow", "value": 0.0}],
        "numerics": {"scheme": "ibox", "dt": 1.0, "dx": 0.5, "t_end": 10.0},
    })
    assert scn.boundaries[0].value == (1.5e5,)


def gaslib9_with(change):
    raw = yaml.safe_load((BUNDLED / "gaslib9.scn").read_text())
    change(raw)
    return raw


# field -> a change to gaslib9 that gives it the wrong type
WRONG_TYPES = {
    "pipes": lambda raw: raw.update(pipes=5),
    "gas_nodes": lambda raw: raw.update(gas_nodes=5),
    "schedules[0].P": lambda raw: raw["schedules"][0].update(P=3),
    "schedules[0].times[0]": lambda raw: raw["schedules"][0].update(times=["a", 1]),
    "stationary_init": lambda raw: raw.update(stationary_init="false"),
    "friction.enabled": lambda raw: raw["friction"].update(enabled="no"),
    "numerics.n_cells": lambda raw: raw["numerics"].update(n_cells="abc"),
}


@pytest.mark.parametrize("field", WRONG_TYPES)
def test_wrong_typed_fields_are_schema_errors_naming_the_field(tmp_path, field):
    path = tmp_path / "gaslib9.scn"
    path.write_text(yaml.safe_dump(gaslib9_with(WRONG_TYPES[field]), sort_keys=False))
    with pytest.raises(SchemaError, match="^" + re.escape(f"{path}.{field}: expected")):
        load_scenario(path)


@needs_libyaml
def test_libyaml_is_the_default_pair():
    assert gaspower.scenario._LOADER is yaml.CSafeLoader
    assert gaspower.scenario._DUMPER is yaml.CSafeDumper


@needs_libyaml
@pytest.mark.parametrize("name", NAMES)
def test_both_pairs_read_and_write_the_same(tmp_path, name):
    data = (BUNDLED / name).read_bytes()
    assert (yaml.load(data, Loader=yaml.SafeLoader)
            == yaml.load(data, Loader=yaml.CSafeLoader))
    scn = load_scenario(BUNDLED / name)
    written = {}
    for pair in PAIRS:
        with yaml_pair(pair):
            save_scenario(scn, tmp_path / pair)
            assert load_scenario(tmp_path / pair) == scn
        written[pair] = (tmp_path / pair).read_bytes()
    assert written["python"] == written["libyaml"]


ID_FIELDS = {"id", "from", "to", "node", "pipe", "gas_node", "power_bus", "bus",
             "gas_nodes"}
IDS = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=6)
# a magnitude drawn across 600 decades
MAGNITUDES = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 300))


def leaves(value, key=None):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from leaves(v, key)
    else:
        yield key, value


def perturbed(raw, data):
    """``raw`` with every non-zero float redrawn at its sign and every id
    renamed one to one."""
    old_ids = sorted({v for key, v in leaves(raw) if key in ID_FIELDS})
    new_ids = data.draw(st.lists(IDS, min_size=len(old_ids), max_size=len(old_ids),
                                 unique=True))
    rename = dict(zip(old_ids, new_ids))

    def rewrite(value, key):
        if isinstance(value, dict):
            return {k: rewrite(v, k) for k, v in value.items()}
        if isinstance(value, list):
            return [rewrite(v, key) for v in value]
        if isinstance(value, float) and value != 0.0:
            return math.copysign(data.draw(MAGNITUDES), value)
        if key in ID_FIELDS:
            return rename[value]
        if key == "series":
            kind, _, where = value.partition("@")
            return f"{kind}@{rename.get(where, where)}"
        return value

    out = rewrite(raw, None)
    # A profile is taken within the horizon: its time is a drawn share of t_end.
    for profile in out.get("outputs", {}).get("profiles", ()):
        profile["time"] = out["numerics"]["t_end"] * data.draw(st.floats(0.0, 1.0))
    return out


BUNDLED_DICTS = {name: scenario_to_dict(load_scenario(BUNDLED / name)) for name in NAMES}


# A failing example is reported as drawn: shrinking its hundreds of
# independent draws would take minutes.
@pytest.mark.parametrize("pair", PAIRS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(NAMES), data=st.data())
def test_save_then_load_gives_an_equal_scenario(tmp_path, pair, name, data):
    raw = perturbed(BUNDLED_DICTS[name], data)
    scn = scenario_from_dict(raw, name)
    with yaml_pair(pair):
        save_scenario(scn, tmp_path / name)
        again = load_scenario(tmp_path / name)
    assert again == scn and scenario_to_dict(again) == raw
