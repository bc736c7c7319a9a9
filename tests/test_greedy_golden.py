"""Golden equivalence: the array-native greedy engine replays the
pre-rewrite engine byte for byte.

``repro.schedules.greedy`` generates on flat integer/float tables
(packed priority keys, canonical op codes, a time-bucketed wake queue)
and emits the compiled graph directly.  It must be a pure speedup of
the dict-of-``OpId`` engine preserved verbatim in
``tests/oracles/greedy_reference.py`` — same program orders, same
fingerprints, same compiled-graph tables, same deadlock witnesses —
across every policy mode, placement, and backward split.

The seeded mutation tests then show the harness has teeth: perturbing
a packed tiebreak table, the cap-comparison epsilon, or the arrival
epsilon each produces a divergence this suite catches.
"""

from dataclasses import replace

import pytest

import repro.schedules.greedy as greedy
from repro.schedules.base import PipelineProblem, ScheduleError
from repro.schedules.graph import compiled_graph
from repro.schedules.greedy import GreedyPolicy, greedy_schedule
from repro.sim.cost import UniformCost

from tests.oracles.greedy_reference import greedy_reference

GRAPH_FIELDS = (
    "fingerprint", "ops", "kind", "cell", "gemm", "stage", "pos",
    "stage_bounds", "pred_indptr", "pred", "pred_cross",
    "succ_indptr", "succ",
)

SHAPES = [
    # (num_stages, num_microbatches, num_slices, virtual_size)
    (2, 4, 1, 1),
    (4, 8, 2, 1),
    (2, 6, 2, 2),
    (3, 5, 3, 1),
    (4, 4, 4, 2),
]

POLICIES = [
    GreedyPolicy(),
    GreedyPolicy(cap_slope=0, backward_priority="fifo"),
    GreedyPolicy(fill_with_wgrad=False),
    GreedyPolicy(strong_reserve=True, wgrad_defer_samples=0.0),
    GreedyPolicy(wgrad_units=0.5, wgrad_defer_samples=1.5),
]


def reference_with_fallback(problem, policy, cost):
    """The reference engine under greedy_schedule's retry semantics."""
    try:
        return greedy_reference(problem, policy, cost, "greedy")
    except ScheduleError as first_err:
        if policy.strong_reserve:
            raise
        try:
            return greedy_reference(
                problem, replace(policy, strong_reserve=True), cost, "greedy"
            )
        except ScheduleError as retry_err:
            raise retry_err from first_err


def problem_grid(shape):
    p, n, s, v = shape
    for split in (False, True):
        for gemms in (1, 2):
            if gemms > 1 and not split:
                continue
            for placement in ("interleaved", "vshape"):
                yield PipelineProblem(
                    num_stages=p,
                    num_microbatches=n,
                    num_slices=s,
                    virtual_size=v,
                    split_backward=split,
                    wgrad_gemms=gemms,
                    chunk_placement=placement,
                )


def costs_for(problem):
    return [
        None,
        UniformCost(
            problem,
            tf=1.3,
            tb=2.1,
            tw=0.7,
            imbalance=tuple(1.0 + 0.1 * i for i in range(problem.num_slices)),
        ),
    ]


def outcomes_match(problem, policy, cost):
    """Whether engine and reference agree byte for byte on one cell.

    Agreement means: both deadlock with the same message, or both
    produce the same programs, the same content fingerprint, and the
    same compiled-graph tables.
    """
    try:
        ref = reference_with_fallback(problem, policy, cost)
    except ScheduleError as exc:
        ref, ref_err = None, str(exc)
    try:
        new = greedy_schedule(problem, policy, cost)
    except ScheduleError as exc:
        new, new_err = None, str(exc)
    if ref is None or new is None:
        return ref is None and new is None and ref_err == new_err
    new_graph = compiled_graph(new)
    ref_graph = compiled_graph(ref)
    if any(
        getattr(new_graph, fld) != getattr(ref_graph, fld)
        for fld in GRAPH_FIELDS
    ):
        return False
    return [pr.ops for pr in new.programs] == [pr.ops for pr in ref.programs]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_golden_grid(shape):
    for problem in problem_grid(shape):
        for policy in POLICIES:
            for cost in costs_for(problem):
                assert outcomes_match(problem, policy, cost), (
                    problem, policy, cost,
                )


# A first-stage cap that deadlocks this shape's fast reservation rule
# mid-generation (the strong-reserve retry then recovers it).
DEADLOCK_PROBLEM = PipelineProblem(
    num_stages=4, num_microbatches=3, num_slices=2, virtual_size=2,
)
DEADLOCK_CAP = 7


def test_deadlock_witness_matches():
    """A deadlocking attempt must raise the reference's exact message,
    runnable-but-unscheduled witness included."""
    policy = GreedyPolicy(first_stage_cap=DEADLOCK_CAP)
    with pytest.raises(ScheduleError) as ref:
        greedy_reference(DEADLOCK_PROBLEM, policy, None, "greedy")
    with pytest.raises(ScheduleError) as new:
        greedy._greedy_once(DEADLOCK_PROBLEM, policy, None, "greedy")
    assert str(new.value) == str(ref.value)
    assert "greedy deadlock" in str(new.value)


def test_fallback_recovers_deadlock_and_chains_when_it_cannot():
    """The strong-reserve retry recovers the deadlocking cell above;
    when even the retry wedges, the retry's ScheduleError carries the
    fast rule's original failure as its __cause__."""
    recovered = greedy_schedule(
        DEADLOCK_PROBLEM, GreedyPolicy(first_stage_cap=DEADLOCK_CAP), None
    )
    assert recovered.programs  # fallback produced a schedule

    doubly_wedged = PipelineProblem(
        num_stages=2, num_microbatches=4, num_slices=2, virtual_size=2,
    )
    with pytest.raises(ScheduleError) as caught:
        greedy_schedule(doubly_wedged, GreedyPolicy(first_stage_cap=2), None)
    cause = caught.value.__cause__
    assert isinstance(cause, ScheduleError)
    assert cause is not caught.value


# ----------------------------------------------------------------------
# Seeded mutations: the equivalence harness must catch each of these.
# ----------------------------------------------------------------------

MUTATION_SHAPES = [(4, 8, 2, 1), (4, 4, 4, 2)]


def count_divergences():
    diverged = 0
    for shape in MUTATION_SHAPES:
        for problem in problem_grid(shape):
            for policy in POLICIES:
                for cost in costs_for(problem):
                    if not outcomes_match(problem, policy, cost):
                        diverged += 1
    return diverged


def _swapped(keys):
    keys = list(keys)
    keys[0], keys[-1] = keys[-1], keys[0]
    return keys


def test_mutation_forward_tiebreak_is_caught(monkeypatch):
    original = greedy._fkeys_round_desc
    monkeypatch.setattr(
        greedy,
        "_fkeys_round_desc",
        lambda problem: _swapped(original(problem)),
    )
    assert count_divergences() > 0


def test_mutation_backward_tiebreak_is_caught(monkeypatch):
    # Inverting the packed order flips every backward tiebreak.
    original = greedy._bkeys_children
    monkeypatch.setitem(
        greedy._PACKED_BACKWARD_KEYS,
        "children",
        lambda problem: [-k for k in original(problem)],
    )
    assert count_divergences() > 0


def test_mutation_cap_epsilon_is_caught(monkeypatch):
    # A macroscopic cap slack admits forwards the reference rejects.
    monkeypatch.setattr(greedy, "_CAP_EPS", 1.5)
    assert count_divergences() > 0


def test_mutation_arrival_epsilon_is_caught(monkeypatch):
    # A macroscopic arrival tolerance treats ops as arrived long before
    # their inputs land.
    monkeypatch.setattr(greedy, "ARRIVAL_EPS", 0.25)
    assert count_divergences() > 0


def test_unmutated_grid_is_clean():
    """Sanity for the mutation tests: the divergence counter reads zero
    on the unmutated engine over the same grid."""
    assert count_divergences() == 0
