"""thzbeam: scalar-diffraction toolkit for THz wavefront engineering."""

# the single version source: pyproject.toml and run manifests read it
__version__ = "0.1.0"

from .aperture import (
    SPEED_OF_LIGHT,
    AmplitudeMask,
    ApertureField,
    ApertureGrid,
    AxiconDesign,
    CausticCurve,
    ObstacleSpec,
    PhaseMap,
    WavefrontSpec,
    axicon_design,
    circular_taper,
    compose_aperture,
    make_grid,
    make_obstacle_mask,
    phase_caustic,
    phase_conical,
    phase_planar,
    phase_quadratic,
    phase_spiral,
    quantize_phase,
    synthesize_applied_phase,
    synthesize_field,
    wrap_phase,
)
from .errors import (
    CausticDesignError,
    ConfigError,
    EvanescentDesignError,
    GeometryError,
    NoBeamError,
    SamplingError,
    ToolkitError,
)
from .metrics import (
    BeamStats,
    GainCurve,
    aperture_gain_dbi,
    beam_profile_stats,
    fraunhofer_distance,
    gain_curve,
    normalized_gain,
    self_healing_correlation,
)
from .oam import (
    CrosstalkMatrix,
    LinkBudgetSpec,
    crosstalk_matrix,
    required_bandwidth,
)
from .propagation import (
    FieldSlice,
    PropagationPlan,
    fft_workers,
    propagate_asm,
    propagate_direct,
    propagate_slice,
    propagate_with_obstacles,
    reuse_spectra,
)
from .scenarios import (
    PRESET_NAMES,
    RunManifest,
    ScenarioConfig,
    load_config,
    parse_config,
    preset,
    preset_text,
    run_scenario,
)
