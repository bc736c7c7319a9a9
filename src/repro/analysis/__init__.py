"""Static analysis of the (model partition, schedule) pair.

Abstract-interprets the partitioned model over a symbolic tensor IR —
no numerics — and proves shape/interface agreement (SH rules), gradient
coverage of the deferred weight-gradient queues (GC rules), and
happens-before hazard freedom (HZ rules).  See ``docs/analysis.md`` for
the pass and rule catalogue, and ``python -m repro check-model`` for
the CLI.

The :mod:`repro.analysis.evaluate` subpackage extends the tier with the
analytic schedule evaluator: certified closed-form timing/memory (EV
rules, ``python -m repro evaluate``, ``docs/evaluation.md``), and
:mod:`repro.analysis.capacity` adds bounded-channel certification:
slot-reuse deadlock proofs, minimal ring-size inference, and
backpressure analysis (CP rules, ``python -m repro capacity``,
``docs/verification.md``).
"""

from repro.analysis.capacity import (
    CAPACITY_RULES,
    CapacityCertificate,
    CapacityPlan,
    ChannelCapacity,
    certify_capacities,
    check_capacities,
    cross_validate_capacities,
    infer_capacities,
    ring_bytes_per_stage,
)
from repro.analysis.core import (
    ModelAnalysisError,
    analyze_partition,
    analyze_spec,
    ensure_model_verified,
    interface_report,
)
from repro.analysis.coverage import check_coverage
from repro.analysis.evaluate import (
    EVALUATE_RULES,
    AnalyticEvaluation,
    EvalCertificate,
    TimeBounds,
    evaluate_schedule,
    iteration_time_bounds,
    peak_units_floor,
)
from repro.analysis.extract import (
    component_spec,
    partition_from_model,
    partition_from_spec,
)
from repro.analysis.hazards import check_hazards
from repro.analysis.ir import (
    ChunkSpec,
    ComponentSpec,
    PartitionSpec,
    SymTensor,
)
from repro.analysis.memory import StageMemory, infer_stage_memory
from repro.analysis.program import ModelProgram, TaskRef, build_program
from repro.analysis.rules import (
    COVERAGE_RULES,
    HAZARD_RULES,
    MODEL_RULES,
    SHAPE_RULES,
)
from repro.analysis.shapes import check_shapes

__all__ = [
    "CAPACITY_RULES",
    "COVERAGE_RULES",
    "EVALUATE_RULES",
    "HAZARD_RULES",
    "MODEL_RULES",
    "SHAPE_RULES",
    "AnalyticEvaluation",
    "CapacityCertificate",
    "CapacityPlan",
    "ChannelCapacity",
    "ChunkSpec",
    "ComponentSpec",
    "EvalCertificate",
    "ModelAnalysisError",
    "ModelProgram",
    "PartitionSpec",
    "StageMemory",
    "SymTensor",
    "TaskRef",
    "TimeBounds",
    "analyze_partition",
    "analyze_spec",
    "build_program",
    "certify_capacities",
    "check_capacities",
    "check_coverage",
    "check_hazards",
    "check_shapes",
    "component_spec",
    "cross_validate_capacities",
    "ensure_model_verified",
    "evaluate_schedule",
    "infer_capacities",
    "infer_stage_memory",
    "interface_report",
    "iteration_time_bounds",
    "partition_from_model",
    "partition_from_spec",
    "peak_units_floor",
    "ring_bytes_per_stage",
]
