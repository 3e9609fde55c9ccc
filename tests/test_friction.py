"""Wall-friction factor and momentum source."""

import math

import numpy as np
import pytest

import gaspower.friction
from gaspower.errors import ConvergenceError, DomainError
from gaspower.friction import (
    FrictionModel,
    colebrook_friction_factor,
    friction_source,
)
from gaspower.network import Pipe


def fixed_point_residual(lam, re, d, k):
    return 1.0 / math.sqrt(lam) + 2.0 * math.log10(
        2.51 / (re * math.sqrt(lam)) + k / (3.71 * d)
    )


def test_colebrook_reference_point():
    """d=0.6 m, k=5e-5 m, Re=1e6: lambda near 0.0132 and a tiny residual."""
    lam = colebrook_friction_factor(1e6, 0.6, 5e-5)
    assert abs(fixed_point_residual(lam, 1e6, 0.6, 5e-5)) < 1e-12
    assert lam == pytest.approx(0.0132, abs=2e-4)


def test_colebrook_vectorized_and_sign_insensitive():
    re = np.array([1e4, -1e5, 1e6])
    lam = colebrook_friction_factor(re, 0.6, 5e-5)
    assert lam.shape == (3,)
    assert np.all(np.diff(lam) < 0.0)  # smoother flow at higher Re
    assert colebrook_friction_factor(-1e5, 0.6, 5e-5) == pytest.approx(lam[1])


def test_colebrook_rejects_zero_reynolds():
    with pytest.raises(DomainError):
        colebrook_friction_factor(0.0, 0.6, 5e-5)


def test_source_vanishes_at_rest():
    model = FrictionModel()
    assert float(model.source(1.0, 0.0, 0.6, 5e-5)) == 0.0


def test_source_is_odd_in_momentum():
    model = FrictionModel()
    for q in (1e-4, 0.5, 10.0, 300.0):
        forward = float(model.source(2.0, q, 0.6, 5e-5))
        backward = float(model.source(2.0, -q, 0.6, 5e-5))
        assert forward == pytest.approx(-backward, rel=1e-14)
        assert forward < 0.0  # drag opposes the flow


def test_source_continuous_at_reynolds_floor():
    model = FrictionModel()
    q_floor = model.re_floor * model.eta / 0.6
    below = float(model.source(1.0, q_floor * (1 - 1e-9), 0.6, 5e-5))
    above = float(model.source(1.0, q_floor * (1 + 1e-9), 0.6, 5e-5))
    assert below == pytest.approx(above, rel=1e-6)


def test_disabled_model_returns_zero():
    model = FrictionModel(enabled=False)
    assert np.all(model.source(np.ones(4), np.full(4, 100.0), 0.6, 5e-5) == 0.0)


def test_pipe_level_source_wrapper():
    pipe = Pipe("P", "a", "b", 1000.0, diameter=0.6, roughness=5e-5)
    direct = float(FrictionModel().source(2.0, 250.0, 0.6, 5e-5))
    assert float(friction_source(2.0, 250.0, pipe)) == direct


def test_source_derivatives_match_finite_differences():
    model = FrictionModel()
    for rho, q in ((1.2, 250.0), (50.0, -300.0), (2.0, 4e-5)):
        s, ds_drho, ds_dq = (float(v) for v in
                             model.source_with_derivatives(rho, q, 0.6, 5e-5))
        h = 1e-6 * rho
        fd_rho = (float(model.source(rho + h, q, 0.6, 5e-5))
                  - float(model.source(rho - h, q, 0.6, 5e-5))) / (2 * h)
        assert ds_drho == pytest.approx(fd_rho, rel=1e-6)
        h = 1e-6 * max(1.0, abs(q))
        fd_q = (float(model.source(rho, q + h, 0.6, 5e-5))
                - float(model.source(rho, q - h, 0.6, 5e-5))) / (2 * h)
        assert ds_dq == pytest.approx(fd_q, rel=1e-5)


def test_colebrook_non_finite_result_raises():
    with pytest.raises(ConvergenceError, match=r"Re in \[1e\+06, 2e\+06\]"
                       r".*diameter 0\.6 m, roughness nan m"):
        colebrook_friction_factor(np.array([1e6, 2e6]), 0.6, math.nan)
    with pytest.raises(ConvergenceError, match=r"Re in \[1e\+06, inf\]"
                       r".*diameter 0\.6 m, roughness 5e-05 m"):
        colebrook_friction_factor(np.array([1e6, math.inf]), 0.6, 5e-5)


def test_colebrook_residual_is_at_rounding():
    """Over Re x d x k the relation holds to rounding of 1/sqrt(lambda)."""
    re, d, k = np.meshgrid(np.geomspace(1e2, 1e9, 29), np.linspace(0.1, 1.4, 7),
                           np.r_[0.0, np.geomspace(1e-7, 1e-2, 11)])
    x = 1.0 / np.sqrt(colebrook_friction_factor(re, d, k))
    residual = x + 2.0 * np.log10(2.51 * x / re + k / (3.71 * d))
    assert np.max(np.abs(residual) / x) <= 1e-13


def test_per_node_geometry_matches_per_pipe_calls():
    """One call on stacked pipes equals one call per pipe, bit for bit."""
    model = FrictionModel()
    pipes = ((0.5, 1e-5, 4), (1.0, 0.0, 3), (0.3, 2e-3, 5))
    rng = np.random.default_rng(7)
    rho = rng.uniform(1.0, 60.0, 12)
    q = rng.uniform(-400.0, 400.0, 12)
    q[[1, 6]] = (0.0, 1e-6)  # nodes below the Reynolds floor
    counts = [n for *_, n in pipes]
    diameter = np.repeat([d for d, _, _ in pipes], counts)
    roughness = np.repeat([k for _, k, _ in pipes], counts)
    stacked = model.source_with_derivatives(rho, q, diameter, roughness)
    start = 0
    for d, k, n in pipes:
        part = slice(start, start + n)
        single = model.source_with_derivatives(rho[part], q[part], d, k)
        for whole, piece in zip(stacked, single):
            assert np.array_equal(whole[part], piece)
        start += n


def test_viscosity_must_be_positive_and_finite():
    for eta in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(DomainError, match="viscosity"):
            FrictionModel(eta=eta)


def test_one_colebrook_solve_per_source_evaluation(monkeypatch):
    """S, and S with its derivatives, each cost one Colebrook solve."""
    model = FrictionModel()
    rho, q = np.full(5, 2.0), np.array([-300.0, -1e-5, 0.0, 1e-5, 250.0])
    calls = []

    def counted(*args):
        calls.append(args)
        return colebrook_friction_factor(*args)

    monkeypatch.setattr(gaspower.friction, "colebrook_friction_factor", counted)
    model.source_with_derivatives(rho, q, 0.6, 5e-5)
    assert len(calls) == 1
    model.source(rho, q, 0.6, 5e-5)
    assert len(calls) == 2


def test_reynolds_floor_is_not_a_constructor_field():
    assert FrictionModel.re_floor == 100.0
    with pytest.raises(TypeError):
        FrictionModel(re_floor=50.0)
