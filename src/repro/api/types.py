"""Typed wire surface of the blessed API: request/response dataclasses.

Every operation the library exposes as a service endpoint, a CLI
subcommand, or a blessed programmatic call is described by one frozen
request dataclass (:class:`PlanRequest`, :class:`VerifyRequest`, ...)
and answered by one frozen response dataclass.  All of them round-trip
through JSON (``to_json`` / ``from_json``), carry the wire schema
version (:data:`SCHEMA_VERSION`), and are registered by ``kind`` so a
transport can dispatch on the payload alone
(:func:`request_from_dict` / :func:`response_from_dict`).

The dataclasses are the *single* surface: ``repro serve`` decodes them
off HTTP bodies, the CLI subcommands build them from argparse flags,
and library callers hand them to :func:`repro.api.execute` directly —
one code path, three transports.

Requests also expose a content :meth:`Request.fingerprint` — a stable
SHA-256 over everything that determines the result (including the
planner's cache-schema and analyzer version vector, mirroring
:func:`repro.planner.parallel.eval_fingerprint`), and excluding knobs
that are proven not to change results (worker count, cache reuse).
The service deduplicates identical requests on it: two plans with
equal fingerprints share one computation and one byte-identical
response, whether the second arrives while the first runs or after it
finished.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from hashlib import sha256
from typing import Any, ClassVar, get_type_hints

#: Version of the wire schema spoken by every request/response payload
#: (and therefore by the HTTP service and ``repro client``).  Bump on
#: any incompatible change to the dataclasses below.
SCHEMA_VERSION = 1

#: JSON-shaped payload fragments (reports, plans, metrics) whose inner
#: schema is owned by the producing subsystem (``Report.to_dict`` etc.).
JsonDict = dict[str, Any]


class RequestError(Exception):
    """A request that cannot be executed, with transport-ready status.

    ``exit_status`` is the CLI exit code (2 for malformed requests —
    unknown method, bad rule id, out-of-range shape — and 1 for
    requests the safety tier rejects), ``http_status`` the matching
    HTTP status (400 / 422), and ``code`` a stable machine-readable
    tag for structured error payloads.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "bad-request",
        exit_status: int = 2,
        http_status: int = 400,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.code = code
        self.exit_status = exit_status
        self.http_status = http_status

    def to_error(self) -> ErrorInfo:
        """The structured wire form of this error."""
        return ErrorInfo(code=self.code, message=self.message)


@dataclass(frozen=True)
class ShapeSpec:
    """The (p, n, s, v, f, g) problem shape every schedule-shaped
    request shares — the typed form of the CLI's shape flags."""

    stages: int = 4
    microbatches: int = 4
    slices: int = 1
    virtual: int = 1
    forwards: int | None = None
    wgrad_gemms: int = 1

    def to_dict(self) -> JsonDict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: JsonDict) -> ShapeSpec:
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RequestError(
                f"unknown shape field(s) {unknown}; known: {sorted(known)}"
            )
        hints = _hints(cls)
        return cls(**{name: _decode_value(hints[name], v) for name, v in data.items()})


#: Shared immutable default shape for request dataclasses.
DEFAULT_SHAPE = ShapeSpec()


@lru_cache(maxsize=64)
def _hints(cls: type) -> dict[str, Any]:
    """``get_type_hints`` of a message class, evaluated once per class."""
    return get_type_hints(cls)


def _decode_value(hint: Any, value: Any) -> Any:
    """Decode one JSON field into its dataclass-field shape.

    The wire types are deliberately small: scalars are type-checked (a
    mismatch is a :class:`RequestError`; an ``int`` field takes no
    ``bool``, a ``float`` field takes an ``int``), ``list`` becomes
    ``tuple`` (with per-element decoding), and nested :class:`ShapeSpec`
    blocks are revived.  Optional hints unwrap to their non-``None`` arm.
    """
    if value is None:
        return None
    if hint in (bool, int, float, str):
        typed = isinstance(value, (int, float) if hint is float else hint)
        if not typed or (hint is not bool and isinstance(value, bool)):
            raise RequestError(f"expected {hint.__name__}, got {value!r}")
        return value
    origin = getattr(hint, "__origin__", None)
    args = getattr(hint, "__args__", ())
    if origin is None and hint is ShapeSpec:
        if not isinstance(value, dict):
            raise RequestError(f"shape must be an object, got {type(value).__name__}")
        return ShapeSpec.from_dict(value)
    # X | None and typing.Union both expose __args__.
    if args and type(None) in args:
        inner = [a for a in args if a is not type(None)]
        if len(inner) == 1:
            return _decode_value(inner[0], value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise RequestError(f"expected a list, got {type(value).__name__}")
        element = args[0] if args else Any
        return tuple(_decode_value(element, item) for item in value)
    return value


@dataclass(frozen=True)
class Message:
    """Base of every request/response: kind-tagged JSON round-trips."""

    #: Wire tag; unique across requests and across responses.
    KIND: ClassVar[str] = ""

    def to_dict(self) -> JsonDict:
        """JSON-serializable form, envelope fields first."""
        out: JsonDict = {"kind": self.KIND, "schema_version": SCHEMA_VERSION}
        out.update(asdict(self))
        return out

    def to_json(self) -> str:
        """Canonical JSON — sorted keys, compact separators — so equal
        messages serialize to identical bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: JsonDict) -> Any:
        """Inverse of :meth:`to_dict`; rejects unknown fields, a
        mismatched ``kind``, and an incompatible ``schema_version``."""
        payload = dict(data)
        kind = payload.pop("kind", cls.KIND)
        if kind != cls.KIND:
            raise RequestError(
                f"kind {kind!r} does not match {cls.KIND!r}"
            )
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise RequestError(
                f"schema_version {version!r} is not supported "
                f"(this build speaks {SCHEMA_VERSION})",
                code="schema-mismatch",
            )
        hints = _hints(cls)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise RequestError(
                f"unknown field(s) {unknown} for {cls.KIND!r}; "
                f"known: {sorted(known)}"
            )
        kwargs = {
            name: _decode_value(hints[name], value)
            for name, value in payload.items()
        }
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"invalid {cls.KIND!r} payload: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Parse canonical (or any) JSON back into the dataclass."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise RequestError(f"payload is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise RequestError("payload must be a JSON object")
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request(Message):
    """Base request: fingerprinting for the service's deduplication."""

    #: Fields that never change the result (worker counts, cache
    #: reuse) and therefore stay out of the dedup fingerprint — the
    #: planner's determinism contract makes this sound.
    VOLATILE: ClassVar[tuple[str, ...]] = ("jobs", "use_cache")

    def fingerprint(self) -> str:
        """Stable content hash of everything that determines the result.

        Folds in the sweep-cache schema and the generator/evaluator/
        capacity analyzer versions so a request fingerprint can never
        alias across semantic changes — the same invalidation contract
        as :func:`repro.planner.parallel.eval_fingerprint`.
        """
        from repro.analysis.capacity.rules import CAPACITY_VERSION
        from repro.analysis.evaluate.rules import EVALUATOR_VERSION
        from repro.planner.parallel import CACHE_SCHEMA
        from repro.schedules.gencache import GENERATOR_VERSION

        payload = self.to_dict()
        for name in self.VOLATILE:
            payload.pop(name, None)
        payload["versions"] = {
            "cache_schema": CACHE_SCHEMA,
            "generator": GENERATOR_VERSION,
            "evaluator": EVALUATOR_VERSION,
            "capacity": CAPACITY_VERSION,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class PlanRequest(Request):
    """Grid-search the fastest non-OOM configuration per method —
    the typed form of ``repro plan`` / ``POST /v1/plan``."""

    KIND: ClassVar[str] = "plan"

    model: str = "13b"
    global_batch_size: int = 128
    cluster: str = "rtx4090-64"
    methods: tuple[str, ...] = ("dapple", "vpp", "zb", "zbv", "mepipe")
    max_spp: int = 16
    max_vp: int = 2
    min_dp: int = 2
    #: Evaluation pipeline: ``"grid"`` (analytic first pass, frontier
    #: confirmed on the simulator) or ``"sim"`` (the reference);
    #: results identical.
    evaluator: str = "grid"
    #: Worker processes for the sweep; result-neutral (volatile).
    jobs: int = 1
    #: Reuse/persist the on-disk sweep cache; result-neutral (volatile).
    use_cache: bool = True


@dataclass(frozen=True)
class VerifyRequest(Request):
    """Statically verify a generated schedule (``repro verify``)."""

    KIND: ClassVar[str] = "verify"

    method: str = "mepipe"
    shape: ShapeSpec = DEFAULT_SHAPE
    rules: tuple[str, ...] | None = None
    capacity: bool = False


@dataclass(frozen=True)
class CheckModelRequest(Request):
    """Statically analyze the (model partition, schedule) pair
    (``repro check-model``); ``method="grid"`` runs the E0 grid."""

    KIND: ClassVar[str] = "check-model"

    method: str = "mepipe"
    model: str = "tiny"
    shape: ShapeSpec = DEFAULT_SHAPE
    rules: tuple[str, ...] | None = None
    capacity: bool = False


@dataclass(frozen=True)
class EvaluateRequest(Request):
    """Analytically evaluate a schedule with the certified closed
    forms (``repro evaluate``); ``check`` cross-validates (EV rules)."""

    KIND: ClassVar[str] = "evaluate"

    method: str = "mepipe"
    shape: ShapeSpec = DEFAULT_SHAPE
    tw: float = 1.0
    check: bool = False


@dataclass(frozen=True)
class CapacityRequest(Request):
    """Infer and certify bounded-channel ring capacities
    (``repro capacity``); ``check`` cross-validates (CP004)."""

    KIND: ClassVar[str] = "capacity"

    method: str = "mepipe"
    shape: ShapeSpec = DEFAULT_SHAPE
    tw: float = 1.0
    mode: str = "backpressure-free"
    rules: tuple[str, ...] | None = None
    check: bool = False


@dataclass(frozen=True)
class SimulateRequest(Request):
    """One discrete-event iteration under the uniform cost model,
    answered with the uniform :class:`~repro.obs.IterationMetrics`."""

    KIND: ClassVar[str] = "simulate"

    method: str = "mepipe"
    shape: ShapeSpec = DEFAULT_SHAPE
    tw: float = 1.0


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Response(Message):
    """Base response; ``ok`` is False when error-severity findings (or
    an OOM-only sweep) make the outcome a failure for exit purposes."""

    ok: bool = True


@dataclass(frozen=True)
class ErrorInfo(Response):
    """Structured error payload every transport surfaces uniformly.

    A response like any other (``ok`` is always False), so clients can
    revive it through :func:`response_from_dict` and branch on the
    stable ``code`` (``unknown-method``, ``timeout``,
    ``quota-exceeded``, ...)."""

    KIND: ClassVar[str] = "error"

    ok: bool = False
    code: str = "internal"
    message: str = ""
    detail: JsonDict = field(default_factory=dict)


@dataclass(frozen=True)
class PlanResponse(Response):
    """One entry per requested method plus sweep-wide cache stats.

    Each ``methods`` entry carries ``method``, ``best`` (the winning
    :class:`~repro.planner.evaluate.EvalResult` as a dict, or ``None``
    when every configuration OOMs), ``describe`` (its rendered one-line
    summary), ``evaluated``/``skipped`` trails, and ``evaluator``.
    ``gen_cache`` is the serving process's schedule memo over this
    request: ``hits``, ``misses`` and resident ``size``.  Both describe
    the computation that produced the response: a service reply reused
    from an earlier identical request repeats them unchanged.
    """

    KIND: ClassVar[str] = "plan.result"

    methods: tuple[JsonDict, ...] = ()
    cache: JsonDict | None = None
    gen_cache: JsonDict | None = None


@dataclass(frozen=True)
class VerifyResponse(Response):
    """Diagnostics reports (``Report.to_dict`` schema) plus their
    rendered text — shared by verify and check-model."""

    KIND: ClassVar[str] = "verify.result"

    reports: tuple[JsonDict, ...] = ()
    text: str = ""


@dataclass(frozen=True)
class CheckModelResponse(VerifyResponse):
    KIND: ClassVar[str] = "check-model.result"


@dataclass(frozen=True)
class EvaluateResponse(Response):
    """The analytic evaluation (``AnalyticEvaluation.to_dict``), the
    build-free bounds when certified, and — in ``check`` mode — the
    EV-rule cross-validation report."""

    KIND: ClassVar[str] = "evaluate.result"

    evaluation: JsonDict | None = None
    bounds: JsonDict | None = None
    report: JsonDict | None = None
    text: str = ""


@dataclass(frozen=True)
class CapacityResponse(Response):
    """The capacity plan (``CapacityPlan.to_dict``), its CP report,
    and — in ``check`` mode — the certificate."""

    KIND: ClassVar[str] = "capacity.result"

    plan: JsonDict = field(default_factory=dict)
    mode: str = "backpressure-free"
    report: JsonDict = field(default_factory=dict)
    certificate: JsonDict | None = None
    text: str = ""


@dataclass(frozen=True)
class SimulateResponse(Response):
    """Uniform iteration metrics of one simulated iteration."""

    KIND: ClassVar[str] = "simulate.result"

    schedule: str = ""
    metrics: JsonDict = field(default_factory=dict)
    text: str = ""


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
#: Request types by wire kind — the service's endpoint table.
REQUESTS: dict[str, type[Request]] = {
    cls.KIND: cls
    for cls in (
        PlanRequest,
        VerifyRequest,
        CheckModelRequest,
        EvaluateRequest,
        CapacityRequest,
        SimulateRequest,
    )
}

#: Response types by wire kind (errors included — they are responses).
RESPONSES: dict[str, type[Response]] = {
    cls.KIND: cls
    for cls in (
        PlanResponse,
        VerifyResponse,
        CheckModelResponse,
        EvaluateResponse,
        CapacityResponse,
        SimulateResponse,
        ErrorInfo,
    )
}


def _from_registry(
    registry: dict[str, type[Any]], data: JsonDict, what: str
) -> Any:
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in registry:
        raise RequestError(
            f"unknown {what} kind {kind!r}; known: {sorted(registry)}"
        )
    return registry[kind].from_dict(data)


def request_from_dict(data: JsonDict) -> Request:
    """Revive any registered request from its ``to_dict`` form."""
    result: Request = _from_registry(REQUESTS, data, "request")
    return result


def response_from_dict(data: JsonDict) -> Response:
    """Revive any registered response from its ``to_dict`` form."""
    result: Response = _from_registry(RESPONSES, data, "response")
    return result
