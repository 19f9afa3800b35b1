"""Numerics for shear/twist coordinates on hyperbolic pairs of pants,
twist evolution along stretch paths, envelope-width bounds on the
once-punctured torus and four-times punctured sphere, and the
stretch-vector hull on the genus-two surface.

Import each name from its defining module: ``from thurston_kit.pants import delta_closed``."""

__version__ = "0.1.0"
