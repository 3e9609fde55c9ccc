"""Junction solves reproduce recorded densities, trace momenta and errors.

``tests/data/junction_reference.json`` holds, for a seeded set of junctions
under the gamma, isothermal and sum_gamma laws, the junction density, the
trace momenta and the error type of each solve: 1-in/1-out and 2-in/1-out
junctions, zero extraction, extractions up to and just past the supremum,
and a compressor-ratio port.

Regenerate the file with ``PYTHONPATH=src python tests/test_junction_reference.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gaspower.errors import GasPowerError
from gaspower.laxcurves import GasState
from gaspower.pressure import parse_law
from gaspower.riemann import (
    max_extraction,
    solve_gas_power_junction,
    solve_interface,
    solve_multi_junction,
)

REFERENCE = Path(__file__).parent / "data" / "junction_reference.json"
LAWS = ("gamma(1.0,1.4)", "isothermal(1.0)", "sum_gamma")
# Fractions of the two-pipe supremum; 0.999999 sits just below it and
# 1.000001 just above.
EPS_FRACTIONS = (0.3, 0.7, 0.95, 0.999999, 1.000001)


def _cases():
    """Seeded junction data: (entry, law, incoming, outgoing, eps, ratios)."""
    rng = np.random.default_rng(2024)
    cases = []
    for spec in LAWS:
        law = parse_law(spec)

        def state(u_max=0.9):
            rho = float(rng.uniform(0.5, 5.0))
            u = float(rng.uniform(-u_max, u_max)) * float(law.c(rho))
            return [rho, rho * u]

        for _ in range(10):
            left, right = state(), state()
            cases.append(("interface", spec, [left], [right], 0.0, None))
            cases.append(("multi", spec, [left], [right], 0.0, None))
            cap = max_extraction(GasState(*left), GasState(*right), law)
            if cap <= 0.0:
                continue  # the interface solution is already inadmissible
            for frac in EPS_FRACTIONS:
                cases.append(("gas_power", spec, [left], [right], frac * cap, None))
                cases.append(("multi", spec, [left], [right], frac * cap, None))
        for _ in range(6):
            incoming, outgoing = [state(0.5), state(0.5)], [state(0.5)]
            for eps in (0.0, 0.2, 1.0):
                cases.append(("multi", spec, incoming, outgoing, eps, None))
        for ratio in (1.05, 0.97):
            left, right = state(0.3), state(0.3)
            cases.append(("multi", spec, [left], [right], 0.0, [[ratio], [1.0]]))
            cases.append(("multi", spec, [left], [right], 0.1, [[1.0], [ratio]]))
    return cases


def _solve(entry, spec, incoming, outgoing, eps, ratios):
    law = parse_law(spec)
    data_in = [GasState(*s) for s in incoming]
    data_out = [GasState(*s) for s in outgoing]
    try:
        if entry == "interface":
            sol = solve_interface(data_in[0], data_out[0], law)
        elif entry == "gas_power":
            sol = solve_gas_power_junction(data_in[0], data_out[0], eps, law)
        else:
            in_ratios, out_ratios = ratios if ratios else (None, None)
            sol = solve_multi_junction(data_in, data_out, eps, law,
                                       in_pressure_ratios=in_ratios,
                                       out_pressure_ratios=out_ratios)
    except GasPowerError as exc:
        return {"error": type(exc).__name__}
    return {
        "rho_star": sol.rho_star,
        "q_in": [v.q for v in sol.incoming_traces],
        "q_out": [v.q for v in sol.outgoing_traces],
        "admissible": sol.admissible,
    }


def _record():
    return [
        {"entry": entry, "law": spec, "incoming": incoming, "outgoing": outgoing,
         "epsilon": eps, "ratios": ratios,
         "result": _solve(entry, spec, incoming, outgoing, eps, ratios)}
        for entry, spec, incoming, outgoing, eps, ratios in _cases()
    ]


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 1e-13 * max(abs(b), scale)


def test_recorded_cases_cover_every_outcome():
    records = json.loads(REFERENCE.read_text())
    outcomes = {r["result"].get("error", "admissible" if r["result"].get("admissible")
                                else "inadmissible") for r in records}
    assert {"admissible", "inadmissible", "InvalidDemandError",
            "InadmissibleError"} <= outcomes
    assert {r["law"] for r in records} == set(LAWS)


@pytest.mark.parametrize("spec", LAWS)
def test_junctions_match_recorded_reference(spec):
    """rho* and every trace momentum to 1e-13 (relative), the same errors.

    Momenta are compared relative to the largest momentum magnitude of the
    recorded junction, because a single trace momentum may be near zero.
    """
    records = [r for r in json.loads(REFERENCE.read_text()) if r["law"] == spec]
    assert records
    for r in records:
        got = _solve(r["entry"], spec, r["incoming"], r["outgoing"],
                     r["epsilon"], r["ratios"])
        ref = r["result"]
        if "error" in ref:
            assert got == ref, r
            continue
        assert "error" not in got, (r, got)
        assert got["admissible"] == ref["admissible"], r
        assert _close(got["rho_star"], ref["rho_star"], 0.0), (r, got)
        q_ref = ref["q_in"] + ref["q_out"]
        q_scale = max(abs(q) for q in q_ref + [s[1] for s in r["incoming"] + r["outgoing"]])
        for a, b in zip(got["q_in"] + got["q_out"], q_ref, strict=True):
            assert _close(a, b, q_scale), (r, got)


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(_record(), indent=1) + "\n")
    print(REFERENCE)
