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
              python tests/unreached_names.py
              find src -name '*.py' | xargs cat | wc -l; find src -name '*.py' | wc -l
    static    python -m repro check-model grid
              python -m pytest -x -q tests/test_verify.py tests/test_verify_mutations.py tests/test_schedule_graph.py tests/test_model_analysis.py tests/test_analysis_mutations.py tests/test_analysis_memory.py
              python tests/function_lengths.py src/repro/schedules/graph.py src/repro/schedules/verify/liveness.py src/repro/analysis/capacity/core.py src/repro/schedules/verify/channels.py src/repro/sim/network.py 150
    replay    python -m pytest -x -q tests/test_engine_golden.py tests/test_evaluate.py tests/test_evaluate_mutations.py tests/test_evaluate_batch.py tests/test_prefix_prune.py tests/test_capacity.py tests/test_capacity_mutations.py tests/test_network_sim.py tests/test_confirm_allocations.py tests/test_planner_pool.py tests/test_bounds_oracle.py tests/test_bound_memos.py tests/test_certify.py
              python tests/fig10_golden.py
              python tests/function_lengths.py src/repro/sim/executor.py src/repro/sim/crossval.py src/repro/analysis/evaluate/dense.py src/repro/analysis/evaluate/certify.py src/repro/analysis/evaluate/core.py src/repro/obs/record.py 150
              python tests/memory_ledger.py 13b 10
    generate  python -m pytest -x -q tests/test_greedy_golden.py tests/test_greedy_properties.py tests/test_gencache.py
              python tests/function_lengths.py src/repro/schedules/greedy.py 150
    runtime   python -m pytest -x -q tests/test_pipeline_runtime.py tests/test_parallel_runtime.py tests/test_obs.py
              python tests/function_lengths.py src/repro/pipeline/runtime.py src/repro/pipeline/parallel_runtime.py src/repro/pipeline/stage.py src/repro/pipeline/channels.py 150
    service   python -m pytest -x -q tests/test_service.py tests/test_service_jobs.py tests/test_service_fuzz.py tests/test_api.py tests/test_warm_path.py tests/test_planner_parallel.py
    tests     python -m pytest -x -q
              python -m pytest -x -q --test-order=reverse
              python -m pytest -x -q --test-order=shuffle:SEED  (SEED = 1..5)
              python -m repro experiment fig10; python -m repro experiment fig8
              python -m pytest -x -q  (over the artifacts/cache those wrote)
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
GREEDY = "src/repro/schedules/greedy.py"
#: The compiler (the structure gate), the liveness walk, and the three
#: readers of the compiled graph's channel table.
VERIFIER = (
    "src/repro/schedules/graph.py",
    "src/repro/schedules/verify/liveness.py",
    "src/repro/analysis/capacity/core.py",
    "src/repro/schedules/verify/channels.py",
    "src/repro/sim/network.py",
)
#: The replays' shared time table, its engines and its readers.
REPLAY = (
    "src/repro/sim/executor.py",
    "src/repro/sim/crossval.py",
    "src/repro/analysis/evaluate/dense.py",
    "src/repro/analysis/evaluate/certify.py",
    "src/repro/analysis/evaluate/core.py",
    "src/repro/obs/record.py",
)
#: The two numerical runtimes, their shared op semantics and channels.
RUNTIME = (
    "src/repro/pipeline/runtime.py",
    "src/repro/pipeline/parallel_runtime.py",
    "src/repro/pipeline/stage.py",
    "src/repro/pipeline/channels.py",
)


@nox.session
def lint(session: nox.Session) -> None:
    """Ruff lint + format drift, and every mypy invocation — each
    target type-checked exactly once — then the guard against ``src/``
    definitions only tests reach, and the ``src/`` line and file counts
    CHANGES.md tracks, from one command."""
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
    session.run("python", "tests/unreached_names.py")
    session.run("sh", "-c", SRC_SIZE, external=True)


@nox.session
def static(session: nox.Session) -> None:
    """The static analyzers over their acceptance grids.

    ``check-model grid`` proves shape/interface agreement, gradient
    coverage, and hazard freedom for every E0 (method × partition)
    pair and exits non-zero on any ERROR-severity finding; the suites
    are the schedule verifier's and the model analyzer's golden sweeps
    and seeded mutations, and the schedule compiler's (a successful
    compile is the verifier's structure verdict).  Then the compiler,
    the liveness walk and the channel table's readers (FIFO lint,
    capacity analyzer, link replay) are held to 150 lines per function.
    """
    session.install("-e", ".[test]")
    session.run("python", "-m", "repro", "check-model", "grid")
    session.run(
        *PYTEST,
        "tests/test_verify.py",
        "tests/test_verify_mutations.py",
        "tests/test_schedule_graph.py",
        "tests/test_model_analysis.py",
        "tests/test_analysis_mutations.py",
        "tests/test_analysis_memory.py",
    )
    session.run("python", "tests/function_lengths.py", *VERIFIER, "150")


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
    suites, the confirm-path allocation guard, the worker-pool
    lifecycle suite, the tabular bounds against their per-``OpId``
    reference (``tests/oracles``), the chunk-class and shape-gate
    memo suites, and the max-plus check's mutation and no-fallback
    suite; then the allocation guard alone, Figure 10, cache
    off, at ``jobs`` 1 and 2 against ``bench/golden/fig10.txt``, the
    150-line budget on the replays' time table, engines and readers,
    and the memory a cold 13B sweep leaves live (at most 10 MB).
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
        "tests/test_bounds_oracle.py",
        "tests/test_bound_memos.py",
        "tests/test_certify.py",
    )
    # The allocation guard again on its own, where no earlier test has
    # warmed a memo it counts through.
    session.run(*PYTEST, "tests/test_confirm_allocations.py")
    session.run("python", "tests/fig10_golden.py")
    session.run("python", "tests/function_lengths.py", *REPLAY, "150")
    session.run("python", "tests/memory_ledger.py", "13b", "10")


@nox.session
def generate(session: nox.Session) -> None:
    """The schedule-generation gate.

    The array-native greedy engine's claim is byte-identical output to
    the preserved reference engine (``tests/oracles``); the gate runs
    the golden-equivalence grid, the seeded tiebreak/epsilon mutation
    tests, the generator's property tests, and the schedule memo's
    identity/aliasing suite, then holds every generator function to
    150 lines.
    """
    session.install("-e", ".[test]")
    session.run(
        *PYTEST,
        "tests/test_greedy_golden.py",
        "tests/test_greedy_properties.py",
        "tests/test_gencache.py",
    )
    session.run("python", "tests/function_lengths.py", GREEDY, "150")


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
    and sim-vs-runtime trace alignment.  Prints the suites' wall time,
    then holds the executors to the 150-line function budget.
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
    session.run("python", "tests/function_lengths.py", *RUNTIME, "150")


@nox.session
def service(session: nox.Session) -> None:
    """The wire surface: ``repro.api`` (the typed request/response
    facade every transport shares) and ``repro.service`` (the asyncio
    job/HTTP layer) — canonical round-trips, fingerprint dedup (32
    concurrent identical requests -> one computation and one encode; a
    finished answer reused, with a Hypothesis state machine over the
    job store and its seeded mutations), parser and ``from_dict``
    fuzzing, SSE progress streams, per-tenant quotas, and structured
    timeout errors — plus the warm-path fence (a repeated plan rebuilds
    nothing) and the sweep-cache suite."""
    session.install("-e", ".[test]")
    session.run(
        *PYTEST,
        "tests/test_service.py",
        "tests/test_service_jobs.py",
        "tests/test_service_fuzz.py",
        "tests/test_api.py",
        "tests/test_warm_path.py",
        "tests/test_planner_parallel.py",
    )


@nox.session
def tests(session: nox.Session) -> None:
    """The tier-1 test suite (unit + integration + property tests +
    the paper's claims regenerated), in collected order, in reverse and
    in five fixed shuffles: it must not depend on the order its tests
    run in.  Then once more over the sweep cache Figures 10 and 8 leave
    in ``artifacts/cache``: nor on whether that cache is warm."""
    session.install("-e", ".[test]")
    session.run(*PYTEST, *session.posargs)
    session.run(*PYTEST, "--test-order=reverse", *session.posargs)
    for seed in range(1, 6):
        session.run(*PYTEST, f"--test-order=shuffle:{seed}", *session.posargs)
    session.run("python", "-m", "repro", "experiment", "fig10")
    session.run("python", "-m", "repro", "experiment", "fig8")
    session.run(*PYTEST, *session.posargs)


@nox.session
def bench(session: nox.Session) -> None:
    """Smoke test of the benchmark the repo is judged by
    (``BENCHMARK.json``, ``bench/README.md``): schema check plus a tiny
    run of all four workloads with their output checks (~1 min)."""
    session.install("-e", ".[test]")
    session.run("python", "-m", "pytest", "-q", "bench/")
