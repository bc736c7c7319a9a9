"""Visualization: ASCII timelines and memory profiles."""

from repro.viz.memory import activation_series, render_memory_profile
from repro.viz.timeline import render_timeline

__all__ = [
    "activation_series",
    "render_memory_profile",
    "render_timeline",
]
