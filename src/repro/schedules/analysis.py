"""Closed-form bubble-ratio and activation-memory expressions (Table 3).

Every expression returns the paper's analytical value; the test suite
cross-validates them against the discrete-event simulation of the
corresponding generated schedules.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MethodAnalysis:
    """Analytical bubble ratio and peak activation memory (units of A)."""

    method: str
    bubble_ratio: float
    memory_units: float


def dapple_analysis(p: int, n: int) -> MethodAnalysis:
    """DAPPLE row of Table 3 (both regimes)."""
    bubble = (p - 1) / (p - 1 + n)
    memory = min(1.0, n / p)
    return MethodAnalysis("dapple", bubble, memory)


def gpipe_analysis(p: int, n: int) -> MethodAnalysis:
    """GPipe: same bubble as DAPPLE, all micro-batches live."""
    bubble = (p - 1) / (p - 1 + n)
    return MethodAnalysis("gpipe", bubble, n / p)


def vpp_analysis(p: int, n: int, v: int) -> MethodAnalysis:
    """VPP row; the paper marks n < p unsupported."""
    if n < p:
        raise ValueError("Table 3 marks VPP unsupported for n < p")
    bubble = (p - 1) / (p - 1 + n * v)
    # All n*v chunk-forwards of a stage bound the live set from above.
    memory = min(1.0 + (p - 1) / (p * v), n / p)
    return MethodAnalysis("vpp", bubble, memory)


def hanayo_analysis(p: int, n: int, v: int) -> MethodAnalysis:
    """Hanayo row (wave count ``v``)."""
    if n >= p:
        bubble = (p - 1) / (p - 1 + n * v)
        memory = 1.0
    else:
        bubble = (v * p + n - 1 - n * v) / (v * p + n - 1)
        memory = n / p
    return MethodAnalysis("hanayo", bubble, min(memory, n / p) if n < p else memory)


def terapipe_analysis(p: int, n: int, s: int) -> MethodAnalysis:
    """TeraPipe row: slice-level GPipe."""
    bubble = (p - 1) / (n * s + p - 1)
    return MethodAnalysis("terapipe", bubble, n / p)


def svpp_analysis(p: int, n: int, s: int, v: int = 1) -> MethodAnalysis:
    """SVPP row — MEPipe's schedule, memory-optimal variant."""
    units = (v * max(p, s) + min(p, s) - 1) / (v * s * p)
    if n >= p:
        bubble = (p - 1) / (n * s * v + p - 1)
        memory = units
    else:
        lead = p - 1 + (v - 1) * max(p - s * n, 0)
        bubble = lead / (lead + n * v * s)
        memory = min(units, n / p)
    return MethodAnalysis("svpp", bubble, memory)


def analyze(method: str, p: int, n: int, s: int = 1, v: int = 1) -> MethodAnalysis:
    """Dispatch to the right Table 3 row by method name."""
    key = method.lower()
    if key == "dapple":
        return dapple_analysis(p, n)
    if key == "gpipe":
        return gpipe_analysis(p, n)
    if key == "vpp":
        return vpp_analysis(p, n, v)
    if key == "hanayo":
        return hanayo_analysis(p, n, v)
    if key == "terapipe":
        return terapipe_analysis(p, n, s)
    if key in ("svpp", "mepipe"):
        return svpp_analysis(p, n, s, v)
    raise KeyError(f"no Table 3 row for method {method!r}")
