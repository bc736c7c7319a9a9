"""Fuzzing the service's wire surface: the hand-rolled HTTP/1.1 parser
and ``from_dict`` of every request type.

Neither may answer 500 or hang.  A malformed request head is a
structured ``400 bad-request``; a client that stalls mid-request is
answered ``408`` once the read deadline (the request timeout) passes;
``from_dict`` either builds its request — whose fingerprint then
exists — or raises :class:`repro.api.RequestError`.  The handler is
stubbed, so whatever parses executes instantly.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import fields
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import RequestError
from repro.api.types import REQUESTS, ShapeSpec
from repro.service import ServiceConfig
from repro.service import jobs as jobs_module

from tests.test_service import ServiceHarness

#: Read deadline of the fuzzed server: short, so a stall test is quick.
DEADLINE_S = 0.5
STATUSES = {200, 202, 400, 404, 405, 504}


def stub_execute(request, *, sink, cache=None):
    return api.EvaluateResponse(ok=True, text=request.KIND)


@pytest.fixture()
def server(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(jobs_module, "execute", stub_execute)
    h = ServiceHarness(ServiceConfig(port=0, request_timeout_s=DEADLINE_S))
    yield h
    h.shutdown()


def exchange(harness, raw: bytes, *, hold_open: bool = False) -> bytes:
    """Send ``raw`` on a fresh connection and read until the server
    closes it; unless ``hold_open``, half-close first so every read
    the server makes past ``raw`` sees end-of-stream."""
    config = harness.service.config
    with socket.create_connection((config.host, config.port), timeout=10.0) as sock:
        sock.sendall(raw)
        if not hold_open:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def parse_reply(reply: bytes) -> tuple[int, dict | None]:
    """(status, JSON body or ``None`` for an event stream)."""
    head, _, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if b"text/event-stream" in head:
        return status, None
    return status, json.loads(body)


def assert_structured(reply: bytes) -> tuple[int, dict | None]:
    assert reply, "the server closed without answering"
    status, payload = parse_reply(reply)
    assert status in STATUSES, reply[:300]
    if payload is not None:
        assert payload["schema_version"] == api.SCHEMA_VERSION
    return status, payload


# ----------------------------------------------------------------------
# Named malformed heads
# ----------------------------------------------------------------------
def post(length: str, body: bytes = b"") -> bytes:
    return (
        f"POST /v1/evaluate HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + body


@pytest.mark.parametrize(
    "length", ["-1", "abc", "1.5", "0x10", "+3", "1_0", "٣", "9" * 40]
)
def test_bad_content_length_is_400(server, length):
    status, payload = assert_structured(exchange(server, post(length)))
    assert (status, payload["code"]) == (400, "bad-request")


def test_header_line_over_the_stream_limit_is_400(server):
    raw = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
    status, payload = assert_structured(exchange(server, raw))
    assert (status, payload["code"]) == (400, "bad-request")


def test_truncated_body_is_400(server):
    status, payload = assert_structured(exchange(server, post("64", b"{}")))
    assert (status, payload["code"]) == (400, "bad-request")
    assert "truncated" in payload["message"]


@pytest.mark.parametrize("target", ["//[", "http://[::1/v1/healthz"])
def test_malformed_target_is_400(server, target):
    raw = f"GET {target} HTTP/1.1\r\n\r\n".encode()
    status, payload = assert_structured(exchange(server, raw))
    assert (status, payload["code"]) == (400, "bad-request")


@pytest.mark.parametrize("depth", [900, 5000])
def test_deeply_nested_payload_is_400(server, depth):
    # 900 levels parse as JSON but overflow the fingerprint's encoder;
    # 5000 overflow the JSON parser itself.
    body = ('{"method": ' + "[" * depth + "]" * depth + "}").encode()
    status, payload = assert_structured(exchange(server, post(str(len(body)), body)))
    assert (status, payload["code"]) == (400, "bad-request")


def test_nan_timeout_is_rejected(server):
    raw = b"POST /v1/evaluate?timeout=nan HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
    status, payload = assert_structured(exchange(server, raw))
    assert (status, payload["code"]) == (400, "bad-timeout")


@pytest.mark.parametrize(
    "raw",
    [b"POST /v1/evaluate HTTP/1.1\r\n", post("10", b"{")],
    ids=["stalled-head", "stalled-body"],
)
def test_stalled_request_is_answered_at_the_deadline(server, raw):
    t0 = time.monotonic()
    reply = exchange(server, raw, hold_open=True)
    assert time.monotonic() - t0 < DEADLINE_S + 5.0
    status, payload = parse_reply(reply)
    assert (status, payload["code"]) == (408, "timeout")


# ----------------------------------------------------------------------
# Random request bytes
# ----------------------------------------------------------------------
printable = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)
paths = st.sampled_from(
    [
        "/v1/healthz", "/v1/evaluate", "/v1/plan", "/v1/simulate",
        "/v1/jobs/job-1", "/v1/jobs/job-1/events", "/v1/jobs/x/y",
        "/v1/nosuch", "/", "*", "//[",
    ]
)
queries = st.sampled_from(
    [
        "", "?mode=async", "?timeout=nan", "?timeout=-1", "?timeout=inf",
        "?timeout=1e-9", "?timeout=soon", "?mode=async&timeout=0.1",
    ]
)
request_lines = st.one_of(
    st.builds(
        "{} {}{} HTTP/1.1".format,
        st.sampled_from(["GET", "POST", "PUT", "post", ""]),
        paths,
        queries,
    ),
    printable,
)
lengths = st.one_of(
    st.none(),
    st.integers(0, 96).map(str),
    st.sampled_from(["", "-4", "x", "1.0", " 2 ", "٣", "9" * 30]),
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
bodies = st.one_of(
    st.binary(max_size=64),
    st.dictionaries(
        st.sampled_from(["kind", "method", "tw", "shape", "schema_version"])
        | st.text(max_size=6),
        json_values,
        max_size=4,
    ).map(lambda d: json.dumps(d).encode()),
)


@st.composite
def raw_requests(draw) -> bytes:
    head = draw(request_lines) + "\r\n"
    for name, value in draw(
        st.lists(
            st.tuples(
                st.sampled_from(["Host", "X-Repro-Tenant", "Content-Type", ""]),
                printable,
            ),
            max_size=3,
        )
    ):
        head += f"{name}: {value}\r\n"
    length = draw(lengths)
    body = draw(bodies)
    if length is None:
        body = b""
    else:
        head += f"Content-Length: {length}\r\n"
        # Never more body than declared: unread bytes at close would
        # make the kernel reset the connection under the reply.
        body = body[: int(length)] if length.isdigit() else b""
    return (head + "\r\n").encode("utf-8") + body


def test_random_requests_never_answer_500_or_hang(server):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(raw=raw_requests())
    def check(raw):
        assert_structured(exchange(server, raw))

    check()


# ----------------------------------------------------------------------
# from_dict of every request type
# ----------------------------------------------------------------------
def payloads(cls) -> st.SearchStrategy:
    names = [f.name for f in fields(cls)] + ["kind", "schema_version", "bogus"]
    shape = st.dictionaries(
        st.sampled_from([f.name for f in fields(ShapeSpec)] + ["bogus"]),
        json_values,
        max_size=3,
    )
    return st.dictionaries(
        st.sampled_from(names) | st.text(max_size=6),
        json_values | shape,
        max_size=5,
    )


@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_from_dict_builds_or_raises_request_error(kind):
    cls = REQUESTS[kind]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=payloads(cls))
    def check(data):
        try:
            request = cls.from_dict(data)
        except RequestError:
            return
        assert isinstance(request, cls)
        assert len(request.fingerprint()) == 64

    check()


# ----------------------------------------------------------------------
# Mistyped scalars: a bad-request answer, never a handler crash
# ----------------------------------------------------------------------
SMALL_SHAPE = {"stages": 4, "microbatches": 8, "slices": 2, "wgrad_gemms": 2}
#: One cheap well-typed payload per kind; each test mistypes one scalar.
BASES = {
    "plan": {
        "kind": "plan", "model": "13b", "global_batch_size": 32,
        "methods": ["dapple"], "max_spp": 4, "use_cache": False,
    },
    **{
        kind: {"kind": kind, "method": "mepipe", "shape": SMALL_SHAPE}
        for kind in ("verify", "evaluate", "capacity", "simulate", "check-model")
    },
}
mistyped = st.sampled_from(["4", "", 8.5, 4.0, True, False, [4], {"x": 1}])


def scalar_paths(kind: str) -> list[tuple[str, ...]]:
    """Every scalar field of ``kind``, shape fields as ``("shape", f)``."""
    names = [f.name for f in fields(REQUESTS[kind])]
    paths = [(n,) for n in names if n not in ("shape", "methods", "rules")]
    if "shape" in names:
        paths += [("shape", f.name) for f in fields(ShapeSpec)]
    return paths


@st.composite
def mistyped_requests(draw) -> dict:
    kind = draw(st.sampled_from(sorted(BASES)))
    payload = json.loads(json.dumps(BASES[kind]))
    *parents, leaf = draw(st.sampled_from(scalar_paths(kind)))
    target = payload
    for name in parents:
        target = target.setdefault(name, {})
    target[leaf] = draw(mistyped)
    return payload


def test_mistyped_scalars_never_crash_execute(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # use_cache: True

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=mistyped_requests())
    def check(data):
        try:
            response = api.execute(api.request_from_dict(data))
        except RequestError as exc:
            assert exc.http_status in (400, 422)
            return
        assert isinstance(response, api.Response)

    check()


def test_a_string_where_an_int_belongs_is_rejected_not_fingerprinted():
    with pytest.raises(RequestError) as caught:
        api.request_from_dict(dict(BASES["plan"], max_spp="4"))
    assert caught.value.code == "bad-request"


def test_mistyped_shape_over_http_is_400(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    harness = ServiceHarness(ServiceConfig(port=0))
    try:
        body = json.dumps(
            {"method": "mepipe", "shape": dict(SMALL_SHAPE, stages="4")}
        ).encode()
        raw = (
            f"POST /v1/verify HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        status, payload = assert_structured(exchange(harness, raw))
    finally:
        harness.shutdown()
    assert (status, payload["code"]) == (400, "bad-request")


# ----------------------------------------------------------------------
# JSON null: accepted only where the field admits None
# ----------------------------------------------------------------------
def required_fields(cls) -> list[str]:
    """The fields of ``cls`` whose type does not admit ``None``."""
    hints = get_type_hints(cls)
    return [
        f.name
        for f in fields(cls)
        if type(None) not in getattr(hints[f.name], "__args__", ())
    ]


@pytest.mark.parametrize(
    "cls,name",
    [
        (cls, name)
        for cls in (*(REQUESTS[kind] for kind in sorted(REQUESTS)), ShapeSpec)
        for name in required_fields(cls)
    ],
    ids=lambda val: getattr(val, "__name__", val),
)
def test_null_in_a_required_field_is_a_request_error(cls, name):
    with pytest.raises(RequestError, match="got null") as caught:
        cls.from_dict({name: None})
    assert caught.value.http_status == 400


def test_null_method_over_http_is_400(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    harness = ServiceHarness(ServiceConfig(port=0))
    try:
        body = b'{"method": null}'
        raw = (
            f"POST /v1/evaluate HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        status, payload = assert_structured(exchange(harness, raw))
    finally:
        harness.shutdown()
    assert (status, payload["code"]) == (400, "bad-request")
