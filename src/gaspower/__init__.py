"""Coupled simulation of gas pipeline networks and electric power grids.

Gas dynamics on each pipe follow the isentropic flow equations with a
configurable pressure law; junctions are resolved through wave-curve
intersections with equality of pressure and conservation of mass, optionally
drawing gas for power generation. Two discretizations are provided (an
explicit third-order central-WENO scheme and an implicit box scheme), the
power grid is solved with a Newton power flow, and a quasi-static loop
couples the two through a quadratic heat-rate curve.
"""

from .coupling import (
    DemandSchedule,
    GasPowerLink,
    cosim_step,
    find_stationary_state,
    heat_rate,
)
from .cweno import cweno3_step
from .errors import (
    CflViolationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    GasPowerError,
    InadmissibleError,
    InvalidDemandError,
    NoSolutionError,
    NumericsError,
    SchemaError,
)
from .friction import FrictionModel, colebrook_friction_factor, friction_source
from .ibox import ibox_step
from .laxcurves import (
    GasState,
    Side,
    WaveType,
    classify_wave,
    f_shock,
    lax_left,
    lax_left_deriv,
    lax_right,
    lax_right_deriv,
    rho_max,
    rho_min,
)
from .network import (
    BoundaryCondition,
    GasSimulation,
    Junction,
    JunctionPort,
    Pipe,
    PipeGrid,
    StepRecord,
    apply_boundary,
)
from .output import ProfileOutput, TimeSeriesOutput, write_timeseries
from .powerflow import (
    Bus,
    PowerFlowSolution,
    PowerGrid,
    TransmissionLine,
    build_admittance,
    mismatch,
    solve_newton,
)
from .pressure import (
    GammaLaw,
    GeneralizedGammaLaw,
    IsothermalLaw,
    LinearCombinationLaw,
    LogLaw,
    PressureLaw,
    SumGammaLaw,
    ValidityReport,
    check_sufficient_conditions,
    classify_generalized_gamma,
    combine,
    inverse_law,
    parse_law,
    sound_speed,
)
from .riemann import (
    JunctionSolution,
    junction_max_extraction,
    max_extraction,
    sample_solution,
    solve_gas_power_junction,
    solve_interface,
    solve_multi_junction,
    wave_thresholds,
)
from .scenario import Scenario, load_scenario, save_scenario

__version__ = "0.1.0"
