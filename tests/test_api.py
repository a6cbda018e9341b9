"""The package's exported names and optional parameters, pinned: every default is a knob
some caller sets.

A parameter with a default that no study, CLI verb, INI key or benchmark
sets is a code path nothing runs.  The list below names every such
parameter of every public callable (functions, class constructors and the
public methods of those classes) in each ``thzbeam`` module; adding,
removing or changing one shows up as a diff to it, to be justified by the
caller that sets it.  ``EXPORTS`` pins the names ``thzbeam`` exports the
same way: a new public wrapper shows up there.
"""

import importlib
import inspect
import pkgutil

import thzbeam

DEFAULTS = {
    "aperture.make_grid(pitch_fraction=0.5)",
    "aperture.phase_planar(steer_direction=(0.0, 0.0, 1.0))",
    "aperture.axicon_design(spot_convention='fwhm')",
    "aperture.compose_aperture(amplitude=None)",
    "aperture.WavefrontSpec(steer_angle=0.0)",
    "aperture.WavefrontSpec(focal_length=None)",
    "aperture.WavefrontSpec(spot_fwhm=None)",
    "aperture.WavefrontSpec(spot_convention='fwhm')",
    "aperture.WavefrontSpec(curve=None)",
    "aperture.WavefrontSpec(oam_mode=0)",
    "aperture.WavefrontSpec(phase_bits=None)",
    "aperture.WavefrontSpec(circular=False)",
    "cli.main(argv=None)",
    "errors.ConfigError(key_path=None)",
    "errors.CausticDesignError(aperture_x=None)",
    "errors.SamplingError(required_pad_factor=None)",
    "oam.crosstalk_matrix(steer_angles=(0.0,))",
    "oam.crosstalk_matrix(rx_radius=None)",
    "propagation.propagate_slice(pad_factor=2.0)",
    "propagation.propagate_asm(pad_factor=2.0)",
    "propagation.propagate_with_obstacles(pad_factor=2.0)",
    "scenarios.ScenarioSection(name=None)",
    "scenarios.GridSection(pitch_fraction=0.5)",
    "scenarios.WavefrontSection(steer_deg=0.0)",
    "scenarios.WavefrontSection(circular=False)",
    "scenarios.WavefrontSection(oam_mode=0)",
    "scenarios.WavefrontSection(phase_bits=None)",
    "scenarios.WavefrontSection(focal_length_m=None)",
    "scenarios.WavefrontSection(spot_fwhm_m=None)",
    "scenarios.WavefrontSection(spot_convention='fwhm')",
    "scenarios.WavefrontSection(curve_a=None)",
    "scenarios.WavefrontSection(curve_x_start_m=0.0)",
    "scenarios.WavefrontSection(curve_z_end_m=None)",
    "scenarios.PlaneSection(pad_factor=2.0)",
    "scenarios.BlockageSection(knife_x_edge_m=None)",
    "scenarios.BlockageSection(knife_z_m=None)",
    "scenarios.BlockageSection(caustic_eval_z_m=None)",
    "scenarios.BlockageSection(shadow_window_factor=1.0)",
    "scenarios.BlockageSection(pad_factor=2.0)",
    "scenarios.OamCrosstalkSection(steer_deg_list=(0.0,))",
    "scenarios.OamCrosstalkSection(rx_radius_m=None)",
    "scenarios.OamCrosstalkSection(base_spot_fwhm_m=None)",
    "scenarios.OutputSection(directory=None)",
    "scenarios.OutputSection(formats=('csv',))",
    "scenarios.ImageOutputSection(directory=None)",
    "scenarios.ImageOutputSection(formats=('csv',))",
    "scenarios.MapOutputSection(directory=None)",
    "scenarios.MapOutputSection(formats=('csv',))",
    "scenarios.MapOutputSection(db_floor=-60.0)",
    "scenarios.PlaneOutputSection(directory=None)",
    "scenarios.PlaneOutputSection(formats=('pgm',))",
    "scenarios.PlaneOutputSection(db_floor=-60.0)",
    "scenarios.PlaneOutputSection(scale='db')",
    "scenarios.run_scenario(out_dir=None)",
}

# every public name the package exports; a new one is an API to be justified
EXPORTS = {
    "AmplitudeMask", "ApertureField", "ApertureGrid", "AxiconDesign", "BeamStats",
    "CausticCurve", "CausticDesignError", "ConfigError", "CrosstalkMatrix",
    "EvanescentDesignError", "FieldSlice", "GainCurve", "GeometryError", "LinkBudgetSpec",
    "NoBeamError", "ObstacleSpec", "PRESET_NAMES", "PhaseMap", "RunManifest",
    "SPEED_OF_LIGHT", "SamplingError", "ScenarioConfig", "ToolkitError", "WavefrontSpec",
    "aperture_gain_dbi", "axicon_design", "beam_profile_stats", "circular_taper",
    "compose_aperture", "crosstalk_matrix", "fraunhofer_distance", "gain_curve",
    "load_config", "make_grid", "make_obstacle_mask", "normalized_gain", "parse_config",
    "phase_caustic", "phase_conical", "phase_planar", "phase_quadratic", "phase_spiral",
    "preset", "preset_text", "propagate_asm", "propagate_direct", "propagate_slice",
    "propagate_with_obstacles", "quantize_phase", "required_bandwidth", "reuse_spectra",
    "run_scenario", "self_healing_correlation", "synthesize_applied_phase", "synthesize_field",
    "wrap_phase",
}


def _methods(cls):
    """(name, function) of each public method, classmethod and staticmethod ``cls`` defines."""
    for name, attr in vars(cls).items():
        if isinstance(attr, (classmethod, staticmethod)):
            attr = attr.__func__
        if not name.startswith("_") and inspect.isfunction(attr):
            yield name, attr


def _defaults():
    """``module.callable(name=default)`` for every parameter with a default of every public
    function and class a ``thzbeam`` module defines, and ``module.Class.method(...)`` for
    every public method of such a class."""
    found = set()
    for info in pkgutil.iter_modules(thzbeam.__path__):
        module = importlib.import_module(f"thzbeam.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or obj.__module__ != module.__name__:
                continue
            callables = [(name, obj)]
            if inspect.isclass(obj):
                callables += [(f"{name}.{method}", f) for method, f in _methods(obj)]
            for label, f in callables:
                try:
                    parameters = inspect.signature(f).parameters.values()
                except ValueError:  # an exception class that keeps its builtin constructor
                    continue
                found.update(f"{info.name}.{label}({p.name}={p.default!r})" for p in parameters
                             if p.default is not inspect.Parameter.empty)
    return found


def test_every_optional_parameter_is_listed():
    found = _defaults()
    assert found == DEFAULTS, (f"new or changed: {sorted(found - DEFAULTS)}; "
                               f"gone: {sorted(DEFAULTS - found)}")



def test_every_exported_name_is_listed():
    """Submodules are attributes once imported, so they are not counted as exports."""
    found = {name for name in dir(thzbeam)
             if not name.startswith("_") and not inspect.ismodule(getattr(thzbeam, name))}
    assert found == EXPORTS, f"new: {sorted(found - EXPORTS)}; gone: {sorted(EXPORTS - found)}"
