"""Optical-flow position hold: vision pipeline, controller, and hover simulator."""

from flowhold.control import (
    AttitudeCommand,
    Displacement,
    PidGains,
    PidState,
    PositionHoldController,
    displacement_from_center,
    pid_step,
    reset_derivative,
)
from flowhold.corners import Corner, DetectParams, Rect, detect_corners, min_eigenvalue, response_map
from flowhold.flow import FlowResult, FlowStatus, LkParams, Pyramid, build_pyramid, track_points
from flowhold.image import GrayImage, PgmError, load_pgm, save_pgm, sobel_gradients
from flowhold.sim import (
    GroundTexture,
    SimConfig,
    VehicleState,
    WindState,
    render_frame,
    run_episode,
    step_dynamics,
    wind_step,
)
from flowhold.telemetry import DispersionReport, FrameRecord, dispersion_stats, write_csv, write_summary_json
from flowhold.tracker import TrackedFeature, TrackerConfig, TrackerState, acquire, advance, best_displacement, center_roi

__version__ = "0.1.0"
