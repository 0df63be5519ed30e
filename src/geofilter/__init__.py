"""Streaming geometric filter for edge-based detection.

Per-frame 2D corner detections plus IMU motion data are reduced through three
layered experts (edge grouping, kinematic circles, rectangular layers) with
bounded memory and deterministic behavior.
"""

from .core import (CameraModel, Circle, FilterConfig, FilterState,
                   IgnoranceRegion, ImuSample, NormalEdge, NormalEdges,
                   PixelPoint, RebelEdge, Square, TrustLadder,
                   config_from_text, config_to_text, default_config,
                   trust_commit, trust_init, wrap_deg)
from .pipeline import DimensionalityReport, baseline_store, dimensionality, step

__all__ = [
    "CameraModel", "Circle", "FilterConfig", "FilterState",
    "IgnoranceRegion", "ImuSample", "NormalEdge", "NormalEdges", "PixelPoint",
    "RebelEdge", "Square", "TrustLadder", "config_from_text", "config_to_text",
    "default_config", "trust_commit", "trust_init", "wrap_deg",
    "DimensionalityReport", "baseline_store", "dimensionality", "step",
]

__version__ = "0.1.0"
