"""Registry mapping scheduling-method names to problem/schedule builders.

The planner and the experiments address every method through this one
interface: ``build(method, p, n, spp, vp, ...)`` returns a validated
:class:`~repro.schedules.base.Schedule` ready for simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.schedules import gencache
from repro.schedules.base import PipelineProblem, Schedule, ScheduleError
from repro.schedules.classic import dapple_schedule, gpipe_schedule, terapipe_schedule
from repro.schedules.greedy import MemoryCeiling
from repro.schedules.interleaved import vpp_schedule
from repro.schedules.svpp import (
    mepipe_problem,
    mepipe_schedule,
    svpp_problem,
    svpp_schedule,
)
from repro.schedules.zerobubble import (
    hanayo_problem,
    hanayo_schedule,
    zb_problem,
    zb_schedule,
    zbv_problem,
    zbv_schedule,
)

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.sim.cost import CostModel


@dataclass(frozen=True)
class MethodTraits:
    """Capabilities of a scheduling method, used to shape grid searches."""

    name: str
    uses_spp: bool = False
    uses_vp: bool = False
    uses_cp: bool = True
    split_backward: bool = False
    supports_recompute: bool = True
    fixed_vp: int | None = None


METHODS: dict[str, MethodTraits] = {
    "gpipe": MethodTraits("gpipe"),
    "dapple": MethodTraits("dapple"),
    "vpp": MethodTraits("vpp", uses_vp=True),
    "hanayo": MethodTraits("hanayo", uses_vp=True),
    "terapipe": MethodTraits("terapipe", uses_spp=True, supports_recompute=False),
    # Recomputation is incompatible with deferred weight gradients
    # (Section 7.1): the W ops need the activations B already consumed.
    "zb": MethodTraits("zb", split_backward=True, supports_recompute=False),
    "zbv": MethodTraits(
        "zbv", split_backward=True, supports_recompute=False, fixed_vp=2
    ),
    "svpp": MethodTraits("svpp", uses_spp=True, uses_vp=True,
                         supports_recompute=False, uses_cp=False),
    "mepipe": MethodTraits(
        "mepipe",
        uses_spp=True,
        uses_vp=True,
        uses_cp=False,
        split_backward=True,
        supports_recompute=False,
    ),
}


def method_traits(method: str) -> MethodTraits:
    """Look up a method's traits."""
    key = method.lower()
    if key not in METHODS:
        raise KeyError(f"unknown scheduling method {method!r}; known: {sorted(METHODS)}")
    return METHODS[key]


def build_problem(
    method: str,
    num_stages: int,
    num_microbatches: int,
    num_slices: int = 1,
    virtual_size: int = 1,
    wgrad_gemms: int = 1,
) -> PipelineProblem:
    """Build the pipeline problem a method schedules."""
    key = method.lower()
    traits = method_traits(key)
    if num_slices > 1 and not traits.uses_spp:
        raise ScheduleError(f"{method} does not schedule slices (spp={num_slices})")
    if traits.fixed_vp is not None:
        virtual_size = traits.fixed_vp
    if key in ("gpipe", "dapple"):
        return PipelineProblem(num_stages=num_stages, num_microbatches=num_microbatches)
    if key == "terapipe":
        return PipelineProblem(
            num_stages=num_stages,
            num_microbatches=num_microbatches,
            num_slices=num_slices,
        )
    if key == "vpp":
        return PipelineProblem(
            num_stages=num_stages,
            num_microbatches=num_microbatches,
            virtual_size=virtual_size,
        )
    if key == "hanayo":
        return hanayo_problem(num_stages, num_microbatches, waves=max(2, virtual_size))
    if key == "zb":
        return zb_problem(num_stages, num_microbatches, wgrad_gemms=wgrad_gemms)
    if key == "zbv":
        return zbv_problem(num_stages, num_microbatches, wgrad_gemms=wgrad_gemms)
    if key == "svpp":
        return svpp_problem(
            num_stages, num_microbatches, num_slices, virtual_size=virtual_size
        )
    return mepipe_problem(
        num_stages,
        num_microbatches,
        num_slices,
        virtual_size=virtual_size,
        wgrad_gemms=wgrad_gemms,
    )


def _memo_key(
    method: str, problem: PipelineProblem, cost: CostModel | None, f: int | None
) -> Hashable | None:
    """Memo key of one build, or ``None`` when it must not be shared:
    a cost model that is unhashable (a mutable dataclass such as
    ``profiler.ProfiledCost``) or hashed by identity is not a *value*,
    so nothing says two calls with it ask for the same schedule."""
    if cost is not None and type(cost).__hash__ is object.__hash__:
        return None
    key = (method, problem, cost, f)
    try:
        hash(key)
    except TypeError:
        return None
    return key


def build_schedule(
    method: str,
    problem: PipelineProblem,
    cost: CostModel | None = None,
    forwards_before_first_backward: int | None = None,
    ceiling: MemoryCeiling | None = None,
) -> Schedule:
    """Build a method's schedule over ``problem``.

    A pure function of its first four arguments, memoised on them
    (:mod:`repro.schedules.gencache`): equal inputs return the *same*
    shared object, which is safe because a schedule is frozen.

    ``ceiling`` is not an input: a greedy build under one raises
    :class:`~repro.schedules.greedy.BuildPruned` once its memory floor
    reaches it, never memoised; other builds ignore it.

    Every built schedule passes through the static verifier's safety
    tier (placement, coverage, deadlock) once: a generation bug
    surfaces here as a :class:`ScheduleError` carrying the full
    diagnostic report rather than as a wedged simulation.
    """
    key = method.lower()
    method_traits(key)
    memo_key = _memo_key(key, problem, cost, forwards_before_first_backward)
    schedule = None if memo_key is None else gencache.get(memo_key)
    if schedule is None:
        schedule = _run_generator(
            key, problem, cost, forwards_before_first_backward, ceiling
        )
        if memo_key is not None:
            gencache.put(memo_key, schedule)
    from repro.schedules.verify import ensure_verified

    ensure_verified(schedule, context=f"{key} generator")
    return schedule


def _run_generator(
    key: str,
    problem: PipelineProblem,
    cost: CostModel | None,
    f: int | None,
    ceiling: MemoryCeiling | None,
) -> Schedule:
    """Run the generator of ``key``, a lower-cased known method."""
    if key == "gpipe":
        return gpipe_schedule(problem)
    if key == "dapple":
        return dapple_schedule(problem)
    if key == "terapipe":
        return terapipe_schedule(problem)
    if key == "vpp":
        return vpp_schedule(problem)
    if key == "hanayo":
        return hanayo_schedule(problem, cost, ceiling)
    if key == "zb":
        return zb_schedule(problem, cost, ceiling)
    if key == "zbv":
        return zbv_schedule(problem, cost, ceiling)
    if key == "svpp":
        return svpp_schedule(problem, f, cost, ceiling=ceiling)
    return mepipe_schedule(problem, f, cost, ceiling=ceiling)
