"""Block inter-prediction laboratory for a uniformly accelerated motion model.

Derives per-block velocity and acceleration from reconstructed motion
fields, extrapolates and corrects sub-block motion vectors, and compares
the result against a uniform-speed baseline on synthetic and file-based
sequences.
"""

from .kinematics import (
    MV_MAX,
    MV_UNITS_PER_PEL,
    PARAM_SCALE,
    MotionVector,
    ParamKind,
    TimeInterval,
    UammParams,
    derive_params,
    displacement,
    div_round_half_away,
    extrapolate_mv,
    tmvp_scale,
    velocity_at,
)
from .motion_field import (
    CELL_SIZE,
    FieldParams,
    MotionField,
    derive_field_params,
    dump_field_csv,
    field_from_global_mv,
)
from .predictor import (
    BlockSpec,
    FramePrediction,
    predict_frame,
    search_fields,
)
from .sequences import (
    FrameBuffer,
    TrajectorySpec,
    read_yuv,
    synth_sequence,
    write_yuv,
)
from .evaluation import (
    BdRateError,
    ExperimentConfig,
    ExperimentReport,
    RatePoint,
    RdPoint,
    SequenceSource,
    bd_rate,
    psnr,
    run_experiment,
)

__version__ = "0.1.0"
