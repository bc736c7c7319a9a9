"""Profiler measuring the NumPy substrate's op times (Section 6)."""

from repro.profiler.core import OpProfile, ProfiledCost, Profiler

__all__ = ["OpProfile", "ProfiledCost", "Profiler"]
