"""Pipeline schedule generation: baselines, SVPP, and MEPipe."""

from repro.schedules.analysis import (
    MethodAnalysis,
    analyze,
    dapple_analysis,
    gpipe_analysis,
    hanayo_analysis,
    svpp_analysis,
    terapipe_analysis,
    vpp_analysis,
)
from repro.schedules.base import (
    OpId,
    OpKind,
    PipelineProblem,
    Schedule,
    ScheduleError,
    StageProgram,
)
from repro.schedules.classic import dapple_schedule, gpipe_schedule, terapipe_schedule
from repro.schedules.gencache import GENERATOR_VERSION
from repro.schedules.greedy import (
    ARRIVAL_EPS,
    GreedyPolicy,
    default_first_stage_cap,
    greedy_schedule,
    min_first_stage_cap,
    stage_cap,
)
from repro.schedules.interleaved import vpp_schedule
from repro.schedules.methods import (
    METHODS,
    MethodTraits,
    build_problem,
    build_schedule,
    method_traits,
)
from repro.schedules.svpp import (
    mepipe_problem,
    mepipe_schedule,
    svpp_problem,
    svpp_schedule,
    svpp_variants,
)
from repro.schedules.verify import (
    Finding,
    Report,
    Severity,
    assert_clean,
    ensure_verified,
    verify_schedule,
)
from repro.schedules.zerobubble import (
    hanayo_problem,
    hanayo_schedule,
    zb_problem,
    zb_schedule,
    zbv_problem,
    zbv_schedule,
)

__all__ = [
    "ARRIVAL_EPS",
    "GENERATOR_VERSION",
    "METHODS",
    "Finding",
    "MethodAnalysis",
    "MethodTraits",
    "GreedyPolicy",
    "OpId",
    "OpKind",
    "PipelineProblem",
    "Report",
    "Schedule",
    "ScheduleError",
    "Severity",
    "StageProgram",
    "analyze",
    "assert_clean",
    "ensure_verified",
    "build_problem",
    "build_schedule",
    "dapple_analysis",
    "dapple_schedule",
    "default_first_stage_cap",
    "gpipe_analysis",
    "gpipe_schedule",
    "greedy_schedule",
    "hanayo_analysis",
    "hanayo_problem",
    "hanayo_schedule",
    "mepipe_problem",
    "mepipe_schedule",
    "method_traits",
    "min_first_stage_cap",
    "stage_cap",
    "svpp_analysis",
    "svpp_problem",
    "svpp_schedule",
    "svpp_variants",
    "terapipe_analysis",
    "terapipe_schedule",
    "verify_schedule",
    "vpp_analysis",
    "vpp_schedule",
    "zb_problem",
    "zb_schedule",
    "zbv_problem",
    "zbv_schedule",
]
