"""mfed: eating detection from wrist accelerometry, EMA scheduling, and a
deterministic family-eating simulator."""

from .signal_core import (
    AccelSeries,
    DetectorConfig,
    GestureWindow,
    Label,
    Poi,
    detect_pois,
    extract_window,
    smooth,
)
from .events import EatingEvent, GestureCluster, StreamDetector, detect_events
from .classifier import (
    LabeledWindow,
    ModelWeights,
    TrainConfig,
    classify,
    forward,
    label_poi,
    load_weights,
    save_weights,
    train,
)
from .metrics import Metrics, PoiRateReport, match_gestures, poi_rate, threshold_sweep
from .watch import DutyCycleConfig, UploadPayload, UploadPolicy, WatchState, on_poi, on_tick
from .ema import (
    EmaResponse,
    EmaSurvey,
    GroundTruthRecord,
    Participant,
    Role,
    flow_step,
    hourly_tick,
    new_flow,
    on_event_detected,
    resolve_collaborative_gt,
    resolve_hourly_gt,
)
from .sim import HomeConfig, ParticipantSpec, ResponderProfile, load_home_config, run_home_simulation

__version__ = "0.1.0"

__all__ = [
    "AccelSeries",
    "DetectorConfig",
    "GestureWindow",
    "Label",
    "Poi",
    "detect_pois",
    "extract_window",
    "smooth",
    "EatingEvent",
    "GestureCluster",
    "StreamDetector",
    "detect_events",
    "LabeledWindow",
    "ModelWeights",
    "TrainConfig",
    "classify",
    "forward",
    "label_poi",
    "load_weights",
    "save_weights",
    "train",
    "Metrics",
    "PoiRateReport",
    "match_gestures",
    "poi_rate",
    "threshold_sweep",
    "DutyCycleConfig",
    "UploadPayload",
    "UploadPolicy",
    "WatchState",
    "on_poi",
    "on_tick",
    "EmaResponse",
    "EmaSurvey",
    "GroundTruthRecord",
    "Participant",
    "Role",
    "flow_step",
    "hourly_tick",
    "new_flow",
    "on_event_detected",
    "resolve_collaborative_gt",
    "resolve_hourly_gt",
    "HomeConfig",
    "ParticipantSpec",
    "ResponderProfile",
    "load_home_config",
    "run_home_simulation",
]
