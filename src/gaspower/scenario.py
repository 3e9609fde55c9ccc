"""Scenario files: a single YAML document with named sections.

Sections: ``gas_nodes`` (optional id list), ``pipes``, ``initial``,
``boundary``, ``extraction``, ``compressors``, ``buses``/``lines`` (power
topology), ``coupling``, ``schedules``, ``numerics``, ``outputs``,
``friction``, and the top-level ``name``/``pressure_law``. Field names copy
the conventional column headers (pipes carry from/to, length/diameter/
roughness; buses carry type, P, Q, V, phi and the diagonal G, B entries;
lines carry from/to/G/B).

Units: gas quantities are SI; pressures may be given as the string
"<number> bar" and are converted to Pa. Power quantities are per-unit.
Time is in the same unit as ``numerics.dt``.

Each field is checked where it is read, and a bad one is a ``SchemaError``
that names its path, such as ``<file>.initial[1]``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from .errors import SchemaError
from .pressure import PressureLaw, parse_law

BAR = 1e5  # Pa

# The largest grid a scenario may ask for: cells (CWENO3) or nodes (box
# scheme) of all pipes together. The largest grid of the bundled scenarios,
# the tests and the benchmark workloads has 10,002 nodes.
MAX_GRID_ENTRIES = 1_000_000

# Probe kinds that read the power flow.
POWER_PROBES = ("P", "Q", "V", "phi")

# libyaml's scanner and emitter when PyYAML was built with them; the
# constructor, resolver and representer are the same Python classes either
# way, so both pairs read and write the same values.
if yaml.__with_libyaml__:
    _LOADER, _DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _LOADER, _DUMPER = yaml.SafeLoader, yaml.SafeDumper


def _value_with_unit(raw, path: str) -> float:
    """Parse a finite scalar that may carry a 'bar' suffix."""
    value = None
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf if raw > 0 else -math.inf
    elif isinstance(raw, str):
        text = raw.strip()
        number, scale = (text[:-3], BAR) if text.endswith("bar") else (text, 1.0)
        try:
            value = float(number) * scale
        except ValueError:
            pass
    if value is None:
        raise SchemaError(f"{path}: expected a number (optionally '<x> bar'), got {raw!r}")
    if not math.isfinite(value):
        raise SchemaError(f"{path}: expected a finite number, got {value!r}")
    return value


class _Section:
    """Mapping wrapper that reports full field paths on errors."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise SchemaError(f"{path}: expected a mapping, got {type(data).__name__}")
        self.data = data
        self.path = path

    def require(self, key: str):
        if key not in self.data:
            raise SchemaError(f"{self.path}: missing field {key!r}")
        return self.data[key]

    def get(self, key: str, default=None):
        return self.data.get(key, default)

    def number(self, key: str, default=None) -> float:
        raw = self.require(key) if default is None else self.data.get(key, default)
        return _value_with_unit(raw, f"{self.path}.{key}")

    def string(self, key: str, default=None) -> str:
        raw = self.require(key) if default is None else self.data.get(key, default)
        if not isinstance(raw, str):
            raise SchemaError(f"{self.path}.{key}: expected a string, got {raw!r}")
        return raw

    def sequence(self, key: str, required: bool = False) -> list:
        """The list under ``key``; an absent or null optional list is empty."""
        raw = self.require(key) if required else self.data.get(key)
        if raw is None and not required:
            return []
        if not isinstance(raw, list):
            raise SchemaError(f"{self.path}.{key}: expected a list, got {raw!r}")
        return raw

    def sections(self, key: str, required: bool = False) -> list[_Section]:
        """One section per entry of the list under ``key``."""
        return [_Section(e, f"{self.path}.{key}[{k}]")
                for k, e in enumerate(self.sequence(key, required))]

    def numbers(self, key: str) -> tuple[float, ...]:
        """The required list of numbers under ``key``."""
        return tuple(_value_with_unit(v, f"{self.path}.{key}[{k}]")
                     for k, v in enumerate(self.sequence(key, required=True)))

    def flag(self, key: str, default: bool = False) -> bool:
        """A YAML boolean; absent or null is ``default``."""
        raw = self.data.get(key)
        if raw is None:
            return default
        if not isinstance(raw, bool):
            raise SchemaError(f"{self.path}.{key}: expected true or false, got {raw!r}")
        return raw


@dataclass(frozen=True)
class PipeSpec:
    id: str
    from_node: str
    to_node: str
    length: float          # [m]
    diameter: float        # [m]
    roughness: float       # [m]


@dataclass(frozen=True)
class InitialSpec:
    pipe: str
    rho: float
    q: float


@dataclass(frozen=True)
class BoundarySpec:
    """value: constant, or tuple of (t, v) pairs interpolated linearly.

    For kind='state' the value is the constant pair (rho, q).
    """

    node: str
    kind: str              # pressure | density | flow | state
    value: tuple


@dataclass(frozen=True)
class ExtractionSpec:
    node: str
    epsilon: float         # momentum-flux units


@dataclass(frozen=True)
class CompressorSpec:
    node: str
    pipe: str
    ratio: float


@dataclass(frozen=True)
class BusSpec:
    id: str
    type: str
    P: float | None
    Q: float | None
    V: float | None
    phi: float | None
    G: float
    B: float


@dataclass(frozen=True)
class LineSpec:
    id: str
    from_bus: str
    to_bus: str
    G: float
    B: float


@dataclass(frozen=True)
class CouplingSpec:
    gas_node: str
    power_bus: str
    a0: float
    a1: float
    a2: float
    rho0: float


@dataclass(frozen=True)
class ScheduleSpec:
    bus: str
    times: tuple[float, ...]
    P: tuple[float, ...]
    Q: tuple[float, ...]


@dataclass(frozen=True)
class NumericsSpec:
    scheme: str            # cweno3 | ibox
    dt: float
    t_end: float
    dx: float | None = None
    n_cells: int | None = None
    sample_every: float | None = None

    def intervals(self, length: float) -> int:
        """Intervals of a pipe of ``length``: ``n_cells``, else length/dx
        rounded, and at least 2."""
        if self.n_cells is not None:
            return self.n_cells
        return max(2, int(round(length / self.dx)))


@dataclass(frozen=True)
class ProfileSpec:
    time: float
    pipe: str | None = None    # None: all pipes


@dataclass(frozen=True)
class OutputsSpec:
    series: tuple[str, ...] = ()
    profiles: tuple[ProfileSpec, ...] = ()


@dataclass(frozen=True)
class FrictionSpec:
    enabled: bool = False
    eta: float = 1e-5


@dataclass(frozen=True)
class Scenario:
    name: str
    law: PressureLaw
    pipes: tuple[PipeSpec, ...]
    initial: tuple[InitialSpec, ...]
    boundaries: tuple[BoundarySpec, ...]
    extractions: tuple[ExtractionSpec, ...] = ()
    compressors: tuple[CompressorSpec, ...] = ()
    buses: tuple[BusSpec, ...] = ()
    lines: tuple[LineSpec, ...] = ()
    coupling: CouplingSpec | None = None
    schedules: tuple[ScheduleSpec, ...] = ()
    numerics: NumericsSpec = NumericsSpec("cweno3", 1e-3, 1.0)
    outputs: OutputsSpec = OutputsSpec()
    friction: FrictionSpec = FrictionSpec()
    gas_nodes: tuple[str, ...] = ()
    stationary_init: bool = False

    def pipe(self, pipe_id: str) -> PipeSpec:
        for p in self.pipes:
            if p.id == pipe_id:
                return p
        raise SchemaError(f"unknown pipe {pipe_id!r}")


def _parse_pipe(sec: _Section) -> PipeSpec:
    length = (sec.number("length_km") * 1e3 if "length_km" in sec.data
              else sec.number("length"))
    diameter = (sec.number("diameter_mm") * 1e-3 if "diameter_mm" in sec.data
                else sec.number("diameter", 1.0))
    roughness = (sec.number("roughness_mm") * 1e-3 if "roughness_mm" in sec.data
                 else sec.number("roughness", 0.0))
    return PipeSpec(
        id=sec.string("id"),
        from_node=sec.string("from"),
        to_node=sec.string("to"),
        length=length,
        diameter=diameter,
        roughness=roughness,
    )


def _parse_value_series(raw, path: str) -> tuple:
    """Constant -> (v,); list of [t, v] pairs -> ((t, v), ...)."""
    if isinstance(raw, (int, float, str)):
        return (_value_with_unit(raw, path),)
    if isinstance(raw, list):
        out = []
        last_t = None
        for k, pair in enumerate(raw):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{path}[{k}]: expected a [time, value] pair")
            t = _value_with_unit(pair[0], f"{path}[{k}].time")
            v = _value_with_unit(pair[1], f"{path}[{k}].value")
            if last_t is not None and t <= last_t:
                raise SchemaError(f"{path}[{k}]: times must strictly increase")
            last_t = t
            out.append((t, v))
        if not out:
            raise SchemaError(f"{path}: empty time series")
        return tuple(out)
    raise SchemaError(f"{path}: expected a number or a list of [t, v] pairs")


def _parse_boundary(sec: _Section) -> BoundarySpec:
    kind = sec.string("kind")
    if kind == "state":
        value = (sec.number("rho"), sec.number("q"))
    else:
        value = _parse_value_series(sec.require("value"), f"{sec.path}.value")
    return BoundarySpec(node=sec.string("node"), kind=kind, value=value)


def _parse_bus(sec: _Section) -> BusSpec:
    opt = lambda key: (None if key not in sec.data or sec.data[key] is None
                       else sec.number(key))
    return BusSpec(
        id=sec.string("id"),
        type=sec.string("type"),
        P=opt("P"), Q=opt("Q"), V=opt("V"), phi=opt("phi"),
        G=sec.number("G", 0.0), B=sec.number("B", 0.0),
    )


def _check_probe(probe: str, path: str, ends: dict, boundaries: dict,
                 bus_ids: set) -> None:
    """Refuse an output probe ``kind@where`` that names no gas node, junction
    or bus of the scenario. Every pipe end of a parsed scenario is at a
    boundary or a junction, so the nodes that are no boundary are junctions."""
    kind, at, where = probe.partition("@")
    if not at:
        raise SchemaError(f"{path}: output quantity {probe!r} is not kind@where")
    if kind in ("pressure", "rho", "q", "inflow"):
        if where not in ends:
            raise SchemaError(f"{path}: no gas node {where!r} for probe {probe!r}")
    elif kind == "epsilon":
        if where not in ends or where in boundaries:
            raise SchemaError(f"{path}: no junction {where!r} for probe {probe!r}")
    elif kind in POWER_PROBES:
        if not bus_ids:
            raise SchemaError(f"{path}: probe {probe!r} needs a power grid")
        if where != "slack" and where not in bus_ids:
            raise SchemaError(f"{path}: no bus {where!r} for probe {probe!r}")
    else:
        raise SchemaError(f"{path}: unknown probe kind {kind!r} in {probe!r}")


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario file.

    The file is parsed from the open binary file, so the parser detects the
    encoding (UTF-8, or UTF-16 with a byte-order mark) and its error marks
    name the path. A file that cannot be read, decoded or parsed, and any
    field that is missing, ill-typed or inconsistent, raises a
    :class:`SchemaError` that names the file or the field.
    """
    path = Path(path)
    try:
        with path.open("rb") as stream:
            raw = yaml.load(stream, Loader=_LOADER)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read the scenario file: "
                          f"{exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from exc
    if raw is None:
        raise SchemaError(f"{path}: file is empty")
    return scenario_from_dict(raw, str(path))


def scenario_from_dict(raw: dict, origin: str = "<dict>") -> Scenario:
    top = _Section(raw, origin)
    try:
        law = parse_law(top.string("pressure_law"))
    except Exception as exc:
        raise SchemaError(f"{origin}.pressure_law: {exc}") from exc
    stationary_init = top.flag("stationary_init")

    pipes = tuple(_parse_pipe(e) for e in top.sections("pipes", required=True))
    by_id = {p.id: p for p in pipes}
    if len(by_id) != len(pipes):
        raise SchemaError(f"{origin}.pipes: duplicate pipe ids")
    ends: dict[str, int] = {}     # pipe ends at each node
    for node in [n for p in pipes for n in (p.from_node, p.to_node)]:
        ends[node] = ends.get(node, 0) + 1
    gas_nodes = tuple(str(n) for n in top.sequence("gas_nodes"))
    if gas_nodes and not ends.keys() <= set(gas_nodes):
        raise SchemaError(f"{origin}.gas_nodes: pipes reference undeclared nodes "
                          f"{sorted(ends.keys() - set(gas_nodes))}")

    initial: dict[str, InitialSpec] = {}
    for sec in top.sections("initial"):
        init = InitialSpec(sec.string("pipe"), sec.number("rho"), sec.number("q"))
        if init.pipe not in by_id:
            raise SchemaError(f"{sec.path}: unknown pipe {init.pipe!r}")
        if init.rho <= 0.0:
            raise SchemaError(f"{sec.path}: density must be positive")
        if init.pipe in initial:
            raise SchemaError(f"{sec.path}: second entry for pipe {init.pipe!r}")
        initial[init.pipe] = init

    boundaries: dict[str, BoundarySpec] = {}
    for sec in top.sections("boundary"):
        b = _parse_boundary(sec)
        if b.node not in ends:
            raise SchemaError(f"{sec.path}: unknown node {b.node!r}")
        if b.kind not in ("pressure", "density", "flow", "state"):
            raise SchemaError(f"{sec.path}: unknown kind {b.kind!r}")
        if ends[b.node] > 1:
            raise SchemaError(f"{sec.path}: node {b.node!r}: boundary conditions "
                              f"only apply to nodes with a single pipe end")
        if b.node in boundaries:
            raise SchemaError(f"{sec.path}: second boundary at node {b.node!r}")
        # The stationary start steps far past t_end and would settle at the
        # last value of a varying series.
        if (stationary_init and isinstance(b.value[0], tuple)
                and len({v for _, v in b.value}) > 1):
            raise SchemaError(f"{sec.path}: node {b.node!r}: stationary_init needs a "
                              f"constant boundary value, got a varying series")
        boundaries[b.node] = b

    draws: dict[str, ExtractionSpec] = {}
    for sec in top.sections("extraction"):
        e = ExtractionSpec(node=sec.string("node"), epsilon=sec.number("epsilon"))
        if e.node not in ends:
            raise SchemaError(f"{sec.path}: unknown node {e.node!r}")
        if e.node in boundaries:
            raise SchemaError(f"{sec.path}: node {e.node!r} is a boundary node")
        if e.node in draws:
            raise SchemaError(f"{sec.path}: second extraction at node {e.node!r}")
        draws[e.node] = e

    compressors: dict[tuple[str, str], CompressorSpec] = {}
    for sec in top.sections("compressors"):
        comp = CompressorSpec(sec.string("node"), sec.string("pipe"), sec.number("ratio"))
        if comp.node not in ends:
            raise SchemaError(f"{sec.path}: unknown node {comp.node!r}")
        if comp.pipe not in by_id:
            raise SchemaError(f"{sec.path}: unknown pipe {comp.pipe!r}")
        if comp.ratio <= 0.0:
            raise SchemaError(f"{sec.path}: ratio must be positive")
        if comp.node in boundaries:
            raise SchemaError(f"{sec.path}: node {comp.node!r} is a boundary node")
        if comp.node not in (by_id[comp.pipe].from_node, by_id[comp.pipe].to_node):
            raise SchemaError(f"{sec.path}: pipe {comp.pipe!r} has no end at node "
                              f"{comp.node!r}")
        if (comp.node, comp.pipe) in compressors:
            raise SchemaError(f"{sec.path}: second compressor on pipe {comp.pipe!r} "
                              f"at node {comp.node!r}")
        compressors[comp.node, comp.pipe] = comp

    buses = tuple(_parse_bus(e) for e in top.sections("buses"))
    bus_ids = {b.id for b in buses}
    if buses:
        if len(bus_ids) != len(buses):
            raise SchemaError(f"{origin}.buses: duplicate ids")
        n_slack = sum(b.type == "slack" for b in buses)
        if n_slack != 1:
            raise SchemaError(f"{origin}.buses: need exactly one slack bus, "
                              f"found {n_slack}")
    lines = []
    for sec in top.sections("lines"):
        line = LineSpec(id=sec.string("id"), from_bus=sec.string("from"),
                        to_bus=sec.string("to"), G=sec.number("G"), B=sec.number("B"))
        if buses and (line.from_bus not in bus_ids or line.to_bus not in bus_ids):
            raise SchemaError(f"{sec.path}: unknown bus reference")
        lines.append(line)

    coupling = link_node = None
    if top.get("coupling") is not None:
        c = _Section(top.get("coupling"), f"{origin}.coupling")
        coupling = CouplingSpec(
            gas_node=c.string("gas_node"),
            power_bus=c.string("power_bus"),
            a0=c.number("a0"), a1=c.number("a1"), a2=c.number("a2"),
            rho0=c.number("rho0"),
        )
        link_node = coupling.gas_node
        if not buses:
            raise SchemaError(f"{origin}.coupling: no power grid in scenario")
        if link_node not in ends:
            raise SchemaError(f"{c.path}.gas_node: unknown node {link_node!r}")
        if link_node in boundaries:
            raise SchemaError(f"{c.path}.gas_node: node {link_node!r} is a boundary node")
        if coupling.power_bus not in bus_ids:
            raise SchemaError(f"{c.path}.power_bus: unknown bus {coupling.power_bus!r}")

    # Every pipe starts from an initial state, and each of its ends meets a
    # boundary, another pipe end or a draw (the coupled node draws too).
    for k, p in enumerate(pipes):
        if not stationary_init and p.id not in initial:
            raise SchemaError(f"{origin}.pipes[{k}]: pipe {p.id!r} has no initial "
                              f"state and stationary_init is off")
        for node in (p.from_node, p.to_node):
            if (ends[node] == 1 and node not in boundaries and node not in draws
                    and node != link_node):
                raise SchemaError(f"{origin}.pipes[{k}]: node {node!r}: dangling "
                                  f"pipe end without boundary")

    schedules = []
    for sec in top.sections("schedules"):
        times, p_vals, q_vals = sec.numbers("times"), sec.numbers("P"), sec.numbers("Q")
        if len(times) != len(p_vals) or len(times) != len(q_vals):
            raise SchemaError(f"{sec.path}: length mismatch")
        bus = sec.string("bus")
        if buses and bus not in bus_ids:
            raise SchemaError(f"{sec.path}: unknown bus {bus!r}")
        schedules.append(ScheduleSpec(bus=bus, times=times, P=p_vals, Q=q_vals))

    num = _Section(top.require("numerics"), f"{origin}.numerics")
    scheme = num.string("scheme")
    if scheme not in ("cweno3", "ibox"):
        raise SchemaError(f"{origin}.numerics.scheme: unknown scheme {scheme!r}")
    n_cells = num.get("n_cells")
    if n_cells is not None and (type(n_cells) is not int or n_cells < 1):
        raise SchemaError(
            f"{origin}.numerics.n_cells: expected a positive integer, got {n_cells!r}")
    dx = num.number("dx") if "dx" in num.data else None
    if dx is not None and not dx > 0.0:
        raise SchemaError(f"{origin}.numerics.dx: expected a positive number, got {dx!r}")
    numerics = NumericsSpec(
        scheme=scheme,
        dt=num.number("dt"),
        t_end=num.number("t_end"),
        dx=dx,
        n_cells=n_cells,
        sample_every=(num.number("sample_every")
                      if "sample_every" in num.data else None),
    )
    if numerics.dx is None and numerics.n_cells is None:
        raise SchemaError(f"{origin}.numerics: need dx or n_cells")
    try:
        entries = float(sum(numerics.intervals(p.length) + (scheme == "ibox")
                            for p in pipes))
    except OverflowError:  # more intervals than the largest float
        entries = math.inf
    if entries > MAX_GRID_ENTRIES:
        what = "n_cells" if n_cells is not None else "dx"
        raise SchemaError(
            f"{origin}.numerics.{what}: {getattr(numerics, what)!r} gives "
            f"{entries:.7g} grid {'nodes' if scheme == 'ibox' else 'cells'}, "
            f"more than the {MAX_GRID_ENTRIES:,} allowed")
    if numerics.dt <= 0.0 or numerics.t_end <= 0.0:
        raise SchemaError(f"{origin}.numerics: dt and t_end must be positive")

    series, profiles = (), []
    if top.get("outputs") is not None:
        out = _Section(top.get("outputs"), f"{origin}.outputs")
        series = tuple(str(s) for s in out.sequence("series"))
        for k, probe in enumerate(series):
            _check_probe(probe, f"{out.path}.series[{k}]", ends, boundaries, bus_ids)
        for sec in out.sections("profiles"):
            prof = ProfileSpec(time=sec.number("time"),
                               pipe=sec.string("pipe") if "pipe" in sec.data else None)
            if prof.pipe is not None and prof.pipe not in by_id:
                raise SchemaError(f"{sec.path}: unknown pipe {prof.pipe!r}")
            if not 0.0 <= prof.time <= numerics.t_end:
                raise SchemaError(f"{sec.path}: time {prof.time!r} is outside "
                                  f"[0, t_end] = [0, {numerics.t_end!r}]")
            profiles.append(prof)

    friction = FrictionSpec()
    if top.get("friction") is not None:
        f = _Section(top.get("friction"), f"{origin}.friction")
        friction = FrictionSpec(enabled=f.flag("enabled"), eta=f.number("eta", 1e-5))

    return Scenario(
        name=top.string("name", path_default_name(origin)),
        law=law,
        pipes=pipes,
        initial=tuple(initial.values()),
        boundaries=tuple(boundaries.values()),
        extractions=tuple(draws.values()),
        compressors=tuple(compressors.values()),
        buses=buses,
        lines=tuple(lines),
        coupling=coupling,
        schedules=tuple(schedules),
        numerics=numerics,
        outputs=OutputsSpec(series=series, profiles=tuple(profiles)),
        friction=friction,
        gas_nodes=gas_nodes,
        stationary_init=stationary_init,
    )


def path_default_name(origin: str) -> str:
    stem = Path(origin).stem
    return stem if stem and stem != "<dict>" else "scenario"


def scenario_to_dict(s: Scenario) -> dict:
    """Serializable form; load(scenario_from_dict(...)) round-trips."""
    out: dict = {
        "name": s.name,
        "pressure_law": s.law.spec(),
        "pipes": [
            {"id": p.id, "from": p.from_node, "to": p.to_node,
             "length": p.length, "diameter": p.diameter, "roughness": p.roughness}
            for p in s.pipes
        ],
        "numerics": {
            key: value for key, value in (
                ("scheme", s.numerics.scheme),
                ("dt", s.numerics.dt),
                ("t_end", s.numerics.t_end),
                ("dx", s.numerics.dx),
                ("n_cells", s.numerics.n_cells),
                ("sample_every", s.numerics.sample_every),
            ) if value is not None
        },
    }
    if s.gas_nodes:
        out["gas_nodes"] = list(s.gas_nodes)
    if s.initial:
        out["initial"] = [asdict(i) for i in s.initial]
    if s.boundaries:
        out["boundary"] = [
            {"node": b.node, "kind": b.kind,
             **({"rho": b.value[0], "q": b.value[1]} if b.kind == "state" else
                {"value": b.value[0] if len(b.value) == 1 else [list(p) for p in b.value]})}
            for b in s.boundaries
        ]
    if s.extractions:
        out["extraction"] = [asdict(e) for e in s.extractions]
    if s.compressors:
        out["compressors"] = [asdict(c) for c in s.compressors]
    if s.buses:
        out["buses"] = [
            {key: value for key, value in
             [("id", b.id), ("type", b.type), ("P", b.P), ("Q", b.Q),
              ("V", b.V), ("phi", b.phi), ("G", b.G), ("B", b.B)]
             if value is not None}
            for b in s.buses
        ]
    if s.lines:
        out["lines"] = [
            {"id": l.id, "from": l.from_bus, "to": l.to_bus, "G": l.G, "B": l.B}
            for l in s.lines
        ]
    if s.coupling is not None:
        out["coupling"] = asdict(s.coupling)
    if s.schedules:
        out["schedules"] = [
            {"bus": sc.bus, "times": list(sc.times),
             "P": list(sc.P), "Q": list(sc.Q)}
            for sc in s.schedules
        ]
    if s.outputs.series or s.outputs.profiles:
        block: dict = {}
        if s.outputs.series:
            block["series"] = list(s.outputs.series)
        if s.outputs.profiles:
            block["profiles"] = [
                {key: value for key, value in
                 [("time", p.time), ("pipe", p.pipe)] if value is not None}
                for p in s.outputs.profiles
            ]
        out["outputs"] = block
    if s.friction.enabled or s.friction.eta != 1e-5:
        out["friction"] = {"enabled": s.friction.enabled, "eta": s.friction.eta}
    if s.stationary_init:
        out["stationary_init"] = True
    return out


def save_scenario(s: Scenario, path) -> None:
    """Write ``s`` as a scenario file that :func:`load_scenario` reads back
    to an equal :class:`Scenario`.

    The text is UTF-8, emitted by libyaml when PyYAML has it; the pure-Python
    emitter writes the same bytes.
    """
    Path(path).write_text(
        yaml.dump(scenario_to_dict(s), Dumper=_DUMPER, sort_keys=False, width=100),
        encoding="utf-8",
    )
