"""Render-free multi-camera pan-tilt-zoom tracking simulator.

Fixed-position rotating cameras track one walking target through box
obstacles. Cameras share poses and binary switcher labels; when a camera's
own tracking fails it falls back to a pose controller (geometric
triangulation or a learned policy) driven by the other cameras' poses.
"""

from .config import ConfigError, EpisodeConfig, TrainConfig, load_config, save_config
from .controllers import (
    TriangulationResult,
    geometric_pose_action,
    learned_pose_action,
    noisy_switch,
    oracle_switch,
    random_switch,
    sv_baseline_action,
    system_action,
    tracker_action,
    triangulate,
    virtual_tracker_action,
)
from .evaluate import (
    EpisodeReport,
    StepRecord,
    SystemSummary,
    compare_systems,
    episode_report,
    format_comparison,
    mean_error,
    run_episode,
    success_rate,
)
from .geometry import (
    CameraPose,
    Obstacle,
    angle_error,
    bearing_to,
    effective_fov,
    segment_hits_box,
    wrap_angle,
)
from .io import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    write_episode_log,
)
from .nn import PolicyParams, build_features, compute_returns, forward, init_params
from .rng import RngStream
from .training import UpdateStats, train_pose_controller
from .world import (
    Action,
    StepOutcome,
    TargetState,
    Visibility,
    WorldState,
    advance_target,
    apply_action,
    desired_zoom,
    direction_reward,
    observe,
    spawn_episode,
    step,
    visibility_of,
    zoom_reward,
)

__version__ = "0.1.0"
