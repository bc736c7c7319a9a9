"""Property-based mutation tests of the schedule verifier.

Take every generated schedule from :mod:`repro.schedules.methods`,
corrupt it with a seeded random single-op mutation (drop, duplicate,
cross-stage move, dependent-pair swap), and assert the verifier names
the defect with the right rule id.  A hypothesis sweep additionally
checks that arbitrary swaps never crash the verifier and that reports
are deterministic.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedules import Schedule, build_problem, build_schedule
from repro.schedules.methods import METHODS
from repro.schedules.verify import SAFETY_RULES, verify_schedule

from tests.test_verify import Draft

#: One representative shape per method: p=4 (p=2 for the cheap
#: baselines), n=8, and the method's native s/v/wgrad settings.
SHAPES: dict[str, tuple[int, int, int, int, int]] = {
    "gpipe": (2, 4, 1, 1, 1),
    "dapple": (4, 8, 1, 1, 1),
    "vpp": (2, 4, 1, 2, 1),
    "hanayo": (4, 8, 1, 2, 1),
    "terapipe": (2, 4, 4, 1, 1),
    "zb": (4, 8, 1, 1, 2),
    "zbv": (4, 8, 1, 2, 2),
    "svpp": (4, 8, 4, 2, 1),
    "mepipe": (4, 8, 4, 2, 2),
}


def built(method: str) -> Schedule:
    p, n, s, v, g = SHAPES[method]
    problem = build_problem(method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g)
    return build_schedule(method, problem)


def test_shapes_cover_every_method():
    assert set(SHAPES) == set(METHODS)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSeededMutations:
    def test_dropped_op_is_named(self, method, seed):
        draft = Draft(built(method))
        rng = random.Random(seed)
        ops = rng.choice(draft.ops)
        victim = ops.pop(rng.randrange(len(ops)))
        rep = verify_schedule(draft.build(), method=method)
        assert not rep.ok
        assert any(f.op == victim for f in rep.by_rule("ST002")), rep.render_text()

    def test_duplicated_op_is_named(self, method, seed):
        draft = Draft(built(method))
        rng = random.Random(seed)
        ops = rng.choice(draft.ops)
        victim = rng.choice(ops)
        ops.insert(rng.randrange(len(ops) + 1), victim)
        rep = verify_schedule(draft.build(), method=method)
        assert any(f.op == victim for f in rep.by_rule("ST003")), rep.render_text()

    def test_misplaced_op_is_named(self, method, seed):
        draft = Draft(built(method))
        stages = range(len(draft.ops))
        if len(stages) < 2:
            pytest.skip("needs two stages")
        rng = random.Random(seed)
        src = rng.choice(stages)
        dst = rng.choice([stage for stage in stages if stage != src])
        victim = draft.ops[src].pop(rng.randrange(len(draft.ops[src])))
        draft.ops[dst].insert(rng.randrange(len(draft.ops[dst]) + 1), victim)
        rep = verify_schedule(draft.build(), method=method)
        hits = rep.by_rule("ST001")
        assert any(f.op == victim and f.stage == dst for f in hits), (
            rep.render_text()
        )

    def test_dependent_swap_yields_minimal_cycle(self, method, seed):
        draft = Draft(built(method))
        rng = random.Random(seed)
        pairs = []
        for ops in draft.ops:
            pos = {op: i for i, op in enumerate(ops)}
            for j, op in enumerate(ops):
                for dep in draft.problem.deps(op):
                    i = pos.get(dep)
                    if i is not None and i < j:
                        pairs.append((ops, i, j))
        ops, i, j = rng.choice(pairs)
        ops[i], ops[j] = ops[j], ops[i]
        rep = verify_schedule(draft.build(), rules=SAFETY_RULES)
        (f,) = rep.by_rule("DL001")
        assert any("minimal blocking cycle" in line for line in f.witness)
        assert any("blocked at" in line for line in f.witness)


@settings(max_examples=30, deadline=None)
@given(
    method=st.sampled_from(sorted(METHODS)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_swap_never_crashes_and_is_deterministic(method, seed):
    """Any single swap either stays clean or produces findings —
    the verifier itself must not raise — and verifying twice gives
    the same rule ids."""
    draft = Draft(built(method))
    rng = random.Random(seed)
    ops = rng.choice(draft.ops)
    if len(ops) >= 2:
        i, j = rng.sample(range(len(ops)), 2)
        ops[i], ops[j] = ops[j], ops[i]
    sched = draft.build()
    first = verify_schedule(sched, method=method)
    second = verify_schedule(sched, method=method)
    assert first.rule_ids() == second.rule_ids()
    for finding in first.findings:
        assert finding.rule_id and finding.message
