"""The stable ``repro.api`` facade: every blessed name resolves, and
the typed request/response surface round-trips, fingerprints, and
executes identically to the library entry points it wraps."""

import json
import warnings

import pytest

from repro import api


def test_all_names_resolve():
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing


def test_all_is_sorted_and_complete():
    assert list(api.__all__) == sorted(api.__all__)
    public = {n for n in dir(api) if not n.startswith("_")}
    # every __all__ name is public; the facade re-exports nothing hidden
    assert set(api.__all__) <= public


def test_facade_names_are_the_canonical_objects():
    from repro.analysis import analyze_spec
    from repro.obs import NULL_SINK, MemorySink
    from repro.pipeline import PipelineRuntime
    from repro.planner import search_method
    from repro.schedules import build_problem, build_schedule
    from repro.schedules.verify import verify_schedule
    from repro.sim import simulate

    assert api.build_problem is build_problem
    assert api.build_schedule is build_schedule
    assert api.simulate is simulate
    assert api.PipelineRuntime is PipelineRuntime
    assert api.verify is verify_schedule
    assert api.check_model is analyze_spec
    assert api.plan is search_method
    assert api.MemorySink is MemorySink
    assert api.NULL_SINK is NULL_SINK


def test_end_to_end_through_facade():
    problem = api.build_problem("mepipe", 2, 4, num_slices=2, wgrad_gemms=3)
    schedule = api.build_schedule("mepipe", problem)
    assert api.verify(schedule).ok
    sink = api.MemorySink()
    result = api.simulate(schedule, api.UniformCost(problem), sink=sink)
    assert isinstance(result, api.PipelineResult)
    assert isinstance(result.metrics(), api.IterationMetrics)
    assert len(sink.events) > 0


def test_facade_import_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        import importlib

        importlib.reload(api)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        api.no_such_name


# ----------------------------------------------------------------------
# Typed request/response wire surface
# ----------------------------------------------------------------------
SAMPLE_REQUESTS = [
    api.PlanRequest(model="7b", global_batch_size=64, methods=("mepipe",)),
    api.VerifyRequest(
        method="mepipe",
        shape=api.ShapeSpec(slices=4, wgrad_gemms=3),
        rules=("SC001",),
        capacity=True,
    ),
    api.CheckModelRequest(method="grid", model="tiny"),
    api.EvaluateRequest(method="zb", tw=0.5, check=True),
    api.CapacityRequest(method="zbv", mode="deadlock-free"),
    api.SimulateRequest(method="dapple", tw=2.0),
]

SAMPLE_RESPONSES = [
    api.PlanResponse(methods=({"method": "mepipe", "best": None},)),
    api.VerifyResponse(ok=False, reports=({"ok": False},), text="bad"),
    api.CheckModelResponse(reports=({"ok": True}, {"ok": True})),
    api.EvaluateResponse(evaluation={"iteration_s": 1.0}, bounds=None),
    api.CapacityResponse(plan={"channels": []}, mode="full"),
    api.SimulateResponse(schedule="mepipe", metrics={"makespan": 2.0}),
    api.ErrorInfo(code="timeout", message="too slow", detail={"t": 1}),
]


@pytest.mark.parametrize(
    "message", SAMPLE_REQUESTS + SAMPLE_RESPONSES,
    ids=lambda m: m.KIND,
)
def test_message_round_trips(message):
    revived = type(message).from_json(message.to_json())
    assert revived == message
    # Canonical JSON is deterministic: same object, same bytes.
    assert revived.to_json() == message.to_json()


@pytest.mark.parametrize(
    "request_", SAMPLE_REQUESTS, ids=lambda r: r.KIND
)
def test_registry_revival(request_):
    assert api.request_from_dict(request_.to_dict()) == request_


def test_response_registry_revival():
    for response in SAMPLE_RESPONSES:
        assert api.response_from_dict(response.to_dict()) == response


def test_every_message_carries_schema_version():
    for message in SAMPLE_REQUESTS + SAMPLE_RESPONSES:
        data = message.to_dict()
        assert data["schema_version"] == api.SCHEMA_VERSION
        assert data["kind"] == message.KIND


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(api.RequestError):
        api.EvaluateRequest.from_dict({"kind": "evaluate", "bogus": 1})
    with pytest.raises(api.RequestError):
        api.VerifyRequest.from_dict(
            {"kind": "verify", "shape": {"bogus": 1}}
        )


def test_from_dict_rejects_wrong_kind_and_schema():
    with pytest.raises(api.RequestError):
        api.EvaluateRequest.from_dict({"kind": "plan"})
    with pytest.raises(api.RequestError) as excinfo:
        api.EvaluateRequest.from_dict(
            {"kind": "evaluate", "schema_version": 999}
        )
    assert excinfo.value.code == "schema-mismatch"


def test_request_from_dict_rejects_unknown_kind():
    with pytest.raises(api.RequestError):
        api.request_from_dict({"kind": "frobnicate"})


def test_fingerprint_ignores_volatile_fields():
    base = api.PlanRequest(model="13b", global_batch_size=32)
    same = api.PlanRequest(
        model="13b", global_batch_size=32, jobs=8, use_cache=False
    )
    different = api.PlanRequest(model="13b", global_batch_size=64)
    assert base.fingerprint() == same.fingerprint()
    assert base.fingerprint() != different.fingerprint()


def test_fingerprint_distinguishes_kinds_and_shapes():
    a = api.EvaluateRequest(method="mepipe")
    b = api.SimulateRequest(method="mepipe")
    c = api.EvaluateRequest(
        method="mepipe", shape=api.ShapeSpec(slices=2)
    )
    assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


# ----------------------------------------------------------------------
# execute(): parity with the library entry points
# ----------------------------------------------------------------------
def test_execute_verify_matches_library():
    response = api.execute(
        api.VerifyRequest(
            method="mepipe", shape=api.ShapeSpec(slices=4, wgrad_gemms=3)
        )
    )
    problem = api.build_problem("mepipe", 4, 4, num_slices=4, wgrad_gemms=3)
    schedule = api.build_schedule("mepipe", problem)
    report = api.verify(schedule, method="mepipe")
    assert response.ok == report.ok
    assert response.reports == (report.to_dict(),)
    assert response.text == report.render_text()


def test_execute_evaluate_carries_bounds_and_text():
    response = api.execute(api.EvaluateRequest(method="mepipe"))
    assert response.ok
    assert "iteration" in response.text
    assert set(response.bounds) == {"lower_s", "upper_s"}
    assert "build-free bounds" in response.text
    assert json.loads(response.to_json())["kind"] == "evaluate.result"


def test_execute_simulate_reports_metrics():
    response = api.execute(api.SimulateRequest(method="dapple"))
    assert response.ok
    assert response.schedule
    assert response.metrics["ops_executed"] > 0
    assert "bubble" in response.text


def test_execute_capacity_check_prices_the_plan_once(monkeypatch):
    """A checked capacity request infers its plan once: the certificate
    reuses it, so there is one unbounded and one bounded replay each for
    the inference, the certificate and the cross-validation."""
    from repro.analysis.capacity import core

    calls = {"dense": 0, "bounded": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        core, "dense_schedule_times", counted("dense", core.dense_schedule_times)
    )
    monkeypatch.setattr(
        core, "bounded_dense_times", counted("bounded", core.bounded_dense_times)
    )
    shape = api.ShapeSpec(4, 8, slices=4, wgrad_gemms=3)
    response = api.execute(
        api.CapacityRequest(method="mepipe", shape=shape, tw=0.5, check=True)
    )
    assert response.ok
    assert calls == {"dense": 3, "bounded": 3}


def test_execute_unknown_method_is_exit_2_http_400():
    with pytest.raises(api.RequestError) as excinfo:
        api.execute(api.EvaluateRequest(method="nosuch"))
    assert excinfo.value.exit_status == 2
    assert excinfo.value.http_status == 400
    assert excinfo.value.code == "unknown-method"
    # A deleted evaluator name is an unknown one, not an alias.
    with pytest.raises(api.RequestError) as excinfo:
        api.execute(api.PlanRequest(evaluator="tiered"))
    assert excinfo.value.http_status == 400
    assert excinfo.value.code == "unknown-evaluator"


def test_execute_bad_shape_is_exit_2():
    with pytest.raises(api.RequestError) as excinfo:
        api.execute(
            api.VerifyRequest(
                method="mepipe", shape=api.ShapeSpec(slices=0)
            )
        )
    assert excinfo.value.exit_status == 2
    assert excinfo.value.code == "invalid-shape"


INVALID_PLANS = [
    ({"methods": ("mepipe", "bogus")}, "unknown-method"),
    ({"global_batch_size": -8}, "invalid-plan"),
    ({"global_batch_size": 0}, "invalid-plan"),
    ({"max_spp": 0}, "invalid-plan"),
    ({"max_vp": 0}, "invalid-plan"),
    ({"min_dp": -1}, "invalid-plan"),
]


@pytest.fixture()
def no_sweep(monkeypatch):
    """Make any grid search fail the test: a refused plan runs none."""
    import repro.planner

    def search_method(*args, **kwargs):
        raise AssertionError("a sweep ran for a request that must be refused")

    monkeypatch.setattr(repro.planner, "search_method", search_method)


@pytest.mark.parametrize("fields,code", INVALID_PLANS, ids=lambda v: str(v))
def test_invalid_plan_is_refused_before_any_sweep(no_sweep, fields, code):
    request = api.PlanRequest(**{"global_batch_size": 32, "use_cache": False, **fields})
    with pytest.raises(api.RequestError) as excinfo:
        api.execute(request)
    assert excinfo.value.exit_status == 2
    assert excinfo.value.http_status == 400
    assert excinfo.value.code == code
    if code == "unknown-method":
        assert "'bogus'" in excinfo.value.message
    else:
        (name,) = fields
        assert excinfo.value.message.startswith(f"{name} must be >= 1")


def test_plan_with_unbounded_max_vp_answers_like_the_slot_bound():
    def methods(max_vp):
        request = api.PlanRequest(
            model="13b",
            global_batch_size=32,
            methods=("vpp",),
            max_vp=max_vp,
            use_cache=False,
        )
        return api.execute(request).methods

    assert methods(10**9) == methods(api.get_model("13b").balanced_layer_count())


def test_execute_unknown_rule_is_request_error():
    with pytest.raises(api.RequestError) as excinfo:
        api.execute(api.VerifyRequest(method="mepipe", rules=("XX",)))
    assert excinfo.value.code == "unknown-rule"


def test_execute_plan_small_sweep_with_sink():
    sink = api.MemorySink()
    response = api.execute(
        api.PlanRequest(
            model="13b",
            global_batch_size=32,
            methods=("mepipe",),
            max_spp=4,
            use_cache=False,
        ),
        sink=sink,
    )
    assert response.ok
    (entry,) = response.methods
    assert entry["method"] == "mepipe"
    assert entry["best"] is not None
    assert entry["describe"]
    assert response.cache is None
    # The sweep was observable on the bus: every computed cell is one
    # eval span naming its one configuration (the frontier has two — its
    # analytic evaluation and its sim confirmation), plus the sweep
    # counters.
    eval_spans = [e for e in sink.spans() if e.cat == "eval"]
    listed = [c for e in eval_spans for c in e.arg("configs")]
    assert len(listed) == len(eval_spans)
    assert len(set(listed)) >= entry["evaluated"]  # + any rejected cells
    assert len(eval_spans) == sum(e.value for e in sink.counters("evaluated"))
    assert all(
        e.name == f"eval mepipe {e.arg('configs')[0]}"
        and dict(e.args).keys() == {"method", "configs"}
        for e in eval_spans
    )
    assert not sink.counters("batch_size")
    assert not sink.counters("topology_class_hits")
    # And the response is wire-clean.
    assert api.response_from_dict(response.to_dict()) == response
