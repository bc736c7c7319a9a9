"""Nox sessions, one per job of .github/workflows/ci.yml and in its order.

Run `nox -s <session>`, or the same commands directly:

    lint      ruff check src tests
              ruff format --check src tests
              mypy src/repro/schedules src/repro/nn
              mypy --strict src/repro/analysis
              mypy --strict src/repro/obs
              mypy --strict src/repro/pipeline src/repro/planner/pool.py
              mypy --strict src/repro/api src/repro/service
              mypy --strict src/repro/schedules/greedy.py src/repro/schedules/gencache.py src/repro/schedules/graph.py
              find src -name '*.py' | xargs cat | wc -l; find src -name '*.py' | wc -l
    static    python -m repro check-model grid
              python -m pytest -x -q tests/test_verify.py tests/test_verify_mutations.py tests/test_model_analysis.py tests/test_analysis_mutations.py tests/test_analysis_memory.py
    replay    python -m pytest -x -q tests/test_engine_golden.py tests/test_evaluate.py tests/test_evaluate_mutations.py tests/test_evaluate_batch.py tests/test_prefix_prune.py tests/test_capacity.py tests/test_capacity_mutations.py tests/test_network_sim.py tests/test_confirm_allocations.py tests/test_planner_pool.py
              python tests/fig10_golden.py
    generate  python -m pytest -x -q tests/test_greedy_golden.py tests/test_gencache.py
    runtime   python -m pytest -x -q tests/test_pipeline_runtime.py tests/test_parallel_runtime.py tests/test_obs.py
    service   python -m pytest -x -q --keep-duplicates tests/test_service.py tests/test_service_jobs.py tests/test_service_fuzz.py tests/test_api.py tests/test_warm_path.py tests/test_planner_parallel.py tests/test_warm_path.py
    tests     python -m pytest -x -q
    bench     python -m pytest -q bench/

(`PYTHONPATH=src` in front of the `python -m` commands works without
installing the package.)
"""

import time

import nox

nox.options.sessions = [
    "lint", "static", "replay", "generate", "runtime", "service", "tests",
    "bench",
]

#: Tool configuration lives in pyproject.toml ([tool.ruff], [tool.mypy]).
LINT_TARGETS = ("src", "tests")
PYTEST = ("python", "-m", "pytest", "-x", "-q")
#: ``src/`` lines, then files: the size metric CHANGES.md tracks per PR.
SRC_SIZE = "find src -name '*.py' | xargs cat | wc -l; find src -name '*.py' | wc -l"


@nox.session
def lint(session: nox.Session) -> None:
    """Ruff lint + format drift, and every mypy invocation — each
    target type-checked exactly once — then the ``src/`` line and file
    counts CHANGES.md tracks, from one command."""
    session.install("-e", ".[lint]")
    session.run("ruff", "check", *LINT_TARGETS)
    session.run("ruff", "format", "--check", *LINT_TARGETS)
    session.run("mypy", "src/repro/schedules", "src/repro/nn")
    # Model analyzer, analytic evaluator and capacity pass.
    session.run("mypy", "--strict", "src/repro/analysis")
    session.run("mypy", "--strict", "src/repro/obs")
    session.run(
        "mypy", "--strict", "src/repro/pipeline", "src/repro/planner/pool.py"
    )
    session.run("mypy", "--strict", "src/repro/api", "src/repro/service")
    session.run(
        "mypy", "--strict",
        "src/repro/schedules/greedy.py",
        "src/repro/schedules/gencache.py",
        "src/repro/schedules/graph.py",
    )
    session.run("sh", "-c", SRC_SIZE, external=True)


@nox.session
def static(session: nox.Session) -> None:
    """The static analyzers over their acceptance grids.

    ``check-model grid`` proves shape/interface agreement, gradient
    coverage, and hazard freedom for every E0 (method × partition)
    pair and exits non-zero on any ERROR-severity finding; the suites
    are the schedule verifier's and the model analyzer's golden sweeps
    and seeded mutations.
    """
    session.install("-e", ".[test]")
    session.run("python", "-m", "repro", "check-model", "grid")
    session.run(
        *PYTEST,
        "tests/test_verify.py",
        "tests/test_verify_mutations.py",
        "tests/test_model_analysis.py",
        "tests/test_analysis_mutations.py",
        "tests/test_analysis_memory.py",
    )


@nox.session
def replay(session: nox.Session) -> None:
    """The replay gate: one recurrence, every implementation of it.

    The scalar plan-order kernel and the heap oracle must agree bit
    for bit with each other and with the fixed-point reference
    (``tests/oracles``) — unbounded, under finite channel capacities
    (where kernel and oracle each append the slot-reuse edges to their
    own arrays), and with links as stages (the queued-link replay's
    golden).  The gate runs the engine golden
    tests, the analytic evaluator's exactness/bounds/first-pass suite,
    the cost-variant (class member) independence grid, the prefix-pruning
    suite, the capacity soundness grid, the seeded EV-rule,
    CP-rule/slot-edge/oracle-table and link-queue-order mutation
    suites, the confirm-path allocation guard, and the worker-pool
    lifecycle suite; then Figure 10, cache off, at ``jobs`` 1 and 2
    against ``bench/golden/fig10.txt``.
    """
    session.install("-e", ".[test]")
    session.run(
        *PYTEST,
        "tests/test_engine_golden.py",
        "tests/test_evaluate.py",
        "tests/test_evaluate_mutations.py",
        "tests/test_evaluate_batch.py",
        "tests/test_prefix_prune.py",
        "tests/test_capacity.py",
        "tests/test_capacity_mutations.py",
        "tests/test_network_sim.py",
        "tests/test_confirm_allocations.py",
        "tests/test_planner_pool.py",
    )
    session.run("python", "tests/fig10_golden.py")


@nox.session
def generate(session: nox.Session) -> None:
    """The schedule-generation gate.

    The array-native greedy engine's claim is byte-identical output to
    the preserved reference engine (``tests/oracles``); the gate runs
    the golden-equivalence grid, the seeded tiebreak/epsilon mutation
    tests, and the schedule memo's identity/aliasing suite.
    """
    session.install("-e", ".[test]")
    session.run(*PYTEST, "tests/test_greedy_golden.py", "tests/test_gencache.py")


@nox.session
def runtime(session: nox.Session) -> None:
    """The executors and the telemetry they emit.

    The multi-process runtime is where process lifecycles, shared
    memory, and timeouts live; its stage workers are forked, and its
    tests prove bit-exactness against the serial golden runtime,
    measured comm/wgrad overlap, fork safety (held locks, inherited
    signal handlers and atexit hooks), and clean failure (no orphan
    workers, no leaked segments, gradients untouched).  The obs suite
    covers span nesting, JSONL round-trips, the Chrome-trace golden,
    and sim-vs-runtime trace alignment.  Prints the suites' wall time.
    """
    session.install("-e", ".[test]")
    start = time.perf_counter()
    session.run(
        *PYTEST,
        "tests/test_pipeline_runtime.py",
        "tests/test_parallel_runtime.py",
        "tests/test_obs.py",
    )
    session.log(f"runtime suites wall time: {time.perf_counter() - start:.1f} s")


@nox.session
def service(session: nox.Session) -> None:
    """The wire surface: ``repro.api`` (the typed request/response
    facade every transport shares) and ``repro.service`` (the asyncio
    job/HTTP layer) — canonical round-trips, fingerprint dedup (32
    concurrent identical requests -> one computation and one encode; a
    finished answer reused, with a Hypothesis state machine over the
    job store and its seeded mutations), parser and ``from_dict``
    fuzzing, SSE progress streams, per-tenant quotas, and structured
    timeout errors.

    The warm-path fence (a repeated plan recomputes nothing) runs once
    before and once after the sweep-cache suite — pytest keeps argument
    order, and ``--keep-duplicates`` lets a file appear twice — so the
    planner's process-wide bounds memo is shown to leak nothing between
    suites in either order."""
    session.install("-e", ".[test]")
    session.run(
        *PYTEST,
        "--keep-duplicates",
        "tests/test_service.py",
        "tests/test_service_jobs.py",
        "tests/test_service_fuzz.py",
        "tests/test_api.py",
        "tests/test_warm_path.py",
        "tests/test_planner_parallel.py",
        "tests/test_warm_path.py",
    )


@nox.session
def tests(session: nox.Session) -> None:
    """The tier-1 test suite (unit + integration + property tests +
    the paper's claims regenerated)."""
    session.install("-e", ".[test]")
    session.run(*PYTEST, *session.posargs)


@nox.session
def bench(session: nox.Session) -> None:
    """Smoke test of the benchmark the repo is judged by
    (``BENCHMARK.json``, ``bench/README.md``): schema check plus a tiny
    run of all four workloads with their output checks (~1 min)."""
    session.install("-e", ".[test]")
    session.run("python", "-m", "pytest", "-q", "bench/")
