"""Nox sessions: lint and test gates, mirrored by .github/workflows/ci.yml.

Run `nox -s lint` / `nox -s tests`, or the same commands directly:

    ruff check src tests
    ruff format --check src tests
    mypy src/repro/schedules src/repro/nn
    mypy --strict src/repro/analysis
    mypy --strict src/repro/analysis/evaluate src/repro/analysis/capacity src/repro/pipeline src/repro/planner/pool.py
    mypy --strict src/repro/obs
    mypy --strict src/repro/api src/repro/service
    mypy --strict src/repro/schedules/greedy.py src/repro/schedules/gencache.py src/repro/schedules/graph.py
    PYTHONPATH=src python -m pytest -x -q
    python -m repro check-model grid
"""

import nox

nox.options.sessions = [
    "lint", "analysis", "replay", "generate", "obs", "pipeline", "service",
    "tests",
]

#: Tool configuration lives in pyproject.toml ([tool.ruff], [tool.mypy]).
LINT_TARGETS = ("src", "tests")
TYPED_TARGETS = ("src/repro/schedules", "src/repro/nn")


@nox.session
def lint(session: nox.Session) -> None:
    """Static checks: ruff lint + format drift + mypy on the typed layers."""
    session.install("-e", ".[lint]")
    session.run("ruff", "check", *LINT_TARGETS)
    session.run("ruff", "format", "--check", *LINT_TARGETS)
    session.run("mypy", *TYPED_TARGETS)


@nox.session
def analysis(session: nox.Session) -> None:
    """The model-analyzer gate: strict typing plus the acceptance grid.

    ``check-model grid`` proves shape/interface agreement, gradient
    coverage, and hazard freedom for every E0 (method × partition)
    pair; it exits non-zero on any ERROR-severity finding.
    """
    session.install("-e", ".[lint]")
    session.run("mypy", "--strict", "src/repro/analysis")
    session.run("python", "-m", "repro", "check-model", "grid")


@nox.session
def replay(session: nox.Session) -> None:
    """The replay gate: one recurrence, every implementation of it.

    The scalar plan-order kernel, its stacked twin, the heap oracle and
    the fixed-point reference must agree bit for bit, unbounded and
    under finite channel capacities (where kernel and oracle each append
    the slot-reuse edges to their own arrays).  The gate runs the engine
    golden tests, the analytic evaluator's exactness/bounds/first-pass
    suite, the batched bit-identity grid, the capacity soundness grid,
    the seeded EV-rule, cost-row/class-key and CP-rule/slot-edge/
    oracle-table mutation suites, the confirm-path allocation guard,
    and the worker-pool lifecycle suite — under strict typing for the
    evaluator, the capacity pass, the pipeline modules it gates, and
    the pool.
    """
    session.install("-e", ".[test,lint]")
    session.run(
        "mypy", "--strict",
        "src/repro/analysis/evaluate",
        "src/repro/analysis/capacity",
        "src/repro/pipeline",
        "src/repro/planner/pool.py",
    )
    session.run(
        "python", "-m", "pytest", "-x", "-q",
        "tests/test_engine_golden.py",
        "tests/test_evaluate.py",
        "tests/test_evaluate_mutations.py",
        "tests/test_evaluate_batch.py",
        "tests/test_batch_mutations.py",
        "tests/test_capacity.py",
        "tests/test_capacity_mutations.py",
        "tests/test_confirm_allocations.py",
        "tests/test_planner_pool.py",
    )


@nox.session
def generate(session: nox.Session) -> None:
    """The schedule-generation gate: strict typing plus its proof suite.

    The array-native greedy engine's claim is byte-identical output to
    the preserved reference engine; the gate runs the golden-equivalence
    grid, the seeded tiebreak/epsilon mutation tests, and the
    generation-cache identity/aliasing suite.
    """
    session.install("-e", ".[test,lint]")
    session.run(
        "mypy", "--strict",
        "src/repro/schedules/greedy.py",
        "src/repro/schedules/gencache.py",
        "src/repro/schedules/graph.py",
    )
    session.run(
        "python", "-m", "pytest", "-x", "-q",
        "tests/test_greedy_golden.py",
        "tests/test_gencache.py",
    )


@nox.session
def obs(session: nox.Session) -> None:
    """The telemetry-bus gate: strict typing plus the obs/facade tests.

    ``repro.obs`` is the observability contract every substrate emits
    through; it is held to ``mypy --strict`` and its test module covers
    span nesting, JSONL round-trips, the Chrome-trace golden, and
    sim-vs-runtime trace alignment.
    """
    session.install("-e", ".[test,lint]")
    session.run("mypy", "--strict", "src/repro/obs")
    session.run(
        "python", "-m", "pytest", "-x", "-q",
        "tests/test_obs.py", "tests/test_api.py",
    )


@nox.session
def pipeline(session: nox.Session) -> None:
    """The parallel-executor gate: strict typing plus a spawn smoke run.

    The multi-process runtime is where process lifecycles, shared
    memory, and timeouts live; its tests prove bit-exactness against
    the serial golden runtime, measured comm/wgrad overlap, and clean
    failure (no orphan workers, no leaked segments).
    """
    session.install("-e", ".[test,lint]")
    session.run("mypy", "--strict", "src/repro/pipeline")
    session.run(
        "python", "-m", "pytest", "-x", "-q", "tests/test_parallel_runtime.py"
    )


@nox.session
def service(session: nox.Session) -> None:
    """The service gate: strict typing plus the wire-surface tests.

    ``repro.api`` is the typed request/response facade every transport
    (CLI, HTTP, library) shares and ``repro.service`` is the asyncio
    job/HTTP layer on top; both are held to ``mypy --strict``.  The
    test modules cover canonical round-trips, fingerprint dedup (32
    concurrent identical requests -> one computation), SSE progress
    streams, per-tenant quotas, and structured timeout errors.
    """
    session.install("-e", ".[test,lint]")
    session.run("mypy", "--strict", "src/repro/api", "src/repro/service")
    session.run(
        "python", "-m", "pytest", "-x", "-q",
        "tests/test_service.py", "tests/test_api.py",
    )


@nox.session
def tests(session: nox.Session) -> None:
    """The tier-1 test suite (unit + integration + property tests)."""
    session.install("-e", ".[test]")
    session.run("python", "-m", "pytest", "-x", "-q", *session.posargs)
