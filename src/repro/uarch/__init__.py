"""The out-of-order superscalar timing core (SimpleScalar-style).

Every name below loads its module on first use (:mod:`repro._lazy`), so
importing ``repro.uarch.config`` does not load the pipeline or the
observers.
"""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(__name__, {
    ".observe": ("ObserveConfig", "build_observability"),
    ".observers": (
        "CallbackSink", "EventTracer", "InvariantChecker",
        "InvariantViolation", "JSONLSink", "RingBufferSink", "StageMetrics",
        "TraceEvent", "render_timeline",
    ),
    ".config": (
        "LatencyConfig", "MachineConfig", "ReeseConfig",
        "bigger_window_config", "large_machine_config",
        "more_mem_ports_config", "starting_config", "wide_datapath_config",
    ),
    ".funits": ("FUPool",),
    ".pipeline": (
        "Pipeline", "SimulationDeadlockError", "SimulationTimeoutError",
        "WarmState", "warm_caches_over", "warm_predictor_over",
    ),
    ".sampling": (
        "SampledResult", "SamplingSpec", "Selection", "WARM_FIELDS",
        "WarmSweep", "build_warm_state", "interval_selection",
        "run_interval", "mispredict_profile", "run_sampled",
        "select_intervals",
    ),
    ".stats": ("Stats",),
})
