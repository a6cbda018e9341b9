"""Exception types shared across the toolkit.

Invalid arguments raise plain ``ValueError``; the classes below mark error
categories that callers (mainly the CLI) treat differently.
"""


class ToolkitError(Exception):
    """Base class for thzbeam-specific failures."""


class ConfigError(ToolkitError):
    """Scenario configuration is malformed or violates the schema."""

    def __init__(self, message, key_path=None):
        if key_path:
            message = f"{key_path}: {message}"
        super().__init__(message)
        self.key_path = key_path


class EvanescentDesignError(ValueError):
    """Requested beam parameters would need evanescent spatial frequencies."""


class CausticDesignError(ValueError):
    """A caustic curve reaches some aperture abscissa with no tangent within its range;
    ``aperture_x`` is the first such abscissa."""

    def __init__(self, message, aperture_x=None):
        if aperture_x is not None:
            message = f"{message} (aperture abscissa x0 = {aperture_x:+.6g} m)"
        super().__init__(message)
        self.aperture_x = aperture_x


class SamplingError(ToolkitError):
    """Grid sampling or padding is insufficient for the requested propagation."""

    def __init__(self, message, required_pad_factor=None):
        if required_pad_factor is not None:
            message = f"{message}; retry with pad_factor >= {required_pad_factor:g}"
        super().__init__(message)
        self.required_pad_factor = required_pad_factor


class GeometryError(ValueError):
    """Obstacle or receiver geometry does not fit the sampled plane."""


class NoBeamError(ToolkitError):
    """A field slice carries no isolated beam to measure."""
