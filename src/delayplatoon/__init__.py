"""Delay-aware spacing policies and decentralized platoon controllers.

The vehicle model is a third-order longitudinal chain with an engine time
constant and an actuation input delay.  Spacing policies are expressed in
current and exactly-predicted ego states, which makes decentralized tracking
controllers implementable and ties string stability to the policy choice.
"""

from .analysis import (
    QuasiPolynomial,
    l2_string_stability_check,
    properness_root_check,
    rightmost_root,
    stability_region_boundary,
    string_stability_sweep,
    transfer_magnitude,
)
from .controllers import (
    ControlInputs,
    ControllerGains,
    ControllerSpec,
    control,
    validate_gains,
)
from .dynamics import (
    DiscreteModel,
    InputHistory,
    VehicleParams,
    VehicleState,
    discretize,
    matrix_exponential_closed_form,
    step,
)
from .errors import (
    ChannelError,
    DegreeError,
    DelayGranularityError,
    HistoryDepthError,
    RefinementError,
    ScenarioError,
)
from .predictor import predict
from .scenario import Scenario, parse_scenario
from .simulator import (
    LeaderProfile,
    LeaderSegment,
    MeasurementOptions,
    PlatoonConfig,
    TrajectoryLog,
    VehicleSetup,
    leader_input,
    open_loop_step_response,
    run,
)
from .spacing import (
    PolicyKind,
    PolicyRows,
    SpacingPolicy,
    StabilityVerdict,
    is_proper,
    is_string_stable,
    policy_rows,
    relative_degrees,
    solvability_check,
)

__version__ = "0.1.0"
