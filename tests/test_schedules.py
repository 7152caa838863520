from collections import Counter

import numpy as np
import pytest

from qrelax import schedules
from qrelax.classical import DRAW_STEPS
from qrelax.errors import DomainError, UsageError
from qrelax.schedules import (
    CLASSICAL,
    QUANTUM,
    RelaxationSchedule,
    SelectionStrategy,
    check_domain,
    random_indices,
    relaxation_at,
    select_index,
)


def test_constant_schedule_values():
    third = RelaxationSchedule.constant(1.0 / 3.0, QUANTUM)
    assert relaxation_at(third, 0) == pytest.approx(1.0 / 3.0)
    one = RelaxationSchedule.constant(1.0, QUANTUM)
    for k in (0, 1, 17):
        assert relaxation_at(one, k) == 1.0


def test_quantum_domain_rejects_above_one_at_construction():
    with pytest.raises(DomainError):
        RelaxationSchedule.constant(1.5, QUANTUM)
    # the same value is fine classically
    assert relaxation_at(RelaxationSchedule.constant(1.5, CLASSICAL), 0) == 1.5


def test_negative_values_rejected_everywhere():
    with pytest.raises(DomainError):
        RelaxationSchedule.constant(-0.1, CLASSICAL)
    with pytest.raises(DomainError):
        RelaxationSchedule.explicit([0.5, -0.2], QUANTUM)


@pytest.mark.parametrize("domain", [CLASSICAL, QUANTUM])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_rejected_everywhere(domain, value):
    builders = [
        lambda: check_domain(value, domain),
        lambda: RelaxationSchedule.constant(value, domain),
        lambda: RelaxationSchedule.explicit([0.5, value], domain),
        lambda: RelaxationSchedule.decaying(value, domain),
    ]
    for build in builders:
        with pytest.raises(DomainError):
            build()


def test_decaying_schedule_rule():
    sched = RelaxationSchedule.decaying(1.0, QUANTUM)
    assert relaxation_at(sched, 0) == 1.0
    assert relaxation_at(sched, 3) == pytest.approx(0.25)


def test_explicit_schedule_and_exhaustion():
    sched = RelaxationSchedule.explicit([1.0 / 3.0, 1.0], QUANTUM)
    assert relaxation_at(sched, 1) == 1.0
    with pytest.raises(UsageError):
        relaxation_at(sched, 2)
    with pytest.raises(UsageError):
        relaxation_at(sched, -1)


def test_emitted_values_always_inside_domain(rng):
    # random schedules over both domains never emit outside their bounds
    for _ in range(200):
        domain = QUANTUM if rng.random() < 0.5 else CLASSICAL
        hi = 1.0 if domain == QUANTUM else 2.0
        kind = rng.integers(3)
        if kind == 0:
            sched = RelaxationSchedule.constant(rng.uniform(0, hi), domain)
        elif kind == 1:
            sched = RelaxationSchedule.decaying(rng.uniform(0, hi), domain)
        else:
            sched = RelaxationSchedule.explicit(rng.uniform(0, hi, size=6), domain)
        for k in range(6):
            lo, up = (0.0, hi)
            assert lo <= relaxation_at(sched, k) <= up


def test_cyclic_selection_definition():
    strat = SelectionStrategy.cyclic()
    assert [select_index(strat, k, 2) for k in (0, 1, 2)] == [1, 2, 1]


def test_cyclic_covers_every_index_twice_over_two_sweeps():
    strat = SelectionStrategy.cyclic()
    for n in (2, 3, 5):
        counts = np.zeros(n, dtype=int)
        for k in range(2 * n):
            counts[select_index(strat, k, n) - 1] += 1
        assert np.all(counts == 2)


def test_random_uniform_reproducible_and_in_range():
    a = SelectionStrategy.random_uniform(seed=7)
    b = SelectionStrategy.random_uniform(seed=7)
    picks_a = [select_index(a, k, 5) for k in range(50)]
    picks_b = [select_index(b, k, 5) for k in range(50)]
    assert picks_a == picks_b
    assert all(1 <= t <= 5 for t in picks_a)
    other = [select_index(SelectionStrategy.random_uniform(seed=8), k, 5) for k in range(50)]
    assert picks_a != other


def test_greedy_residual_argmax():
    strat = SelectionStrategy.greedy_residual()
    assert select_index(strat, 0, 3, residual=np.array([0.0, 5.0, 0.0])) == 2
    assert select_index(strat, 0, 3, residual=np.array([0.0, -5.0, 4.0])) == 2
    with pytest.raises(UsageError):
        select_index(strat, 0, 3)


def test_explicit_indices_replay_and_bounds():
    # replays a manually-fixed sequence like t=1 twice in a row
    strat = SelectionStrategy.explicit([1, 1])
    assert select_index(strat, 0, 2) == 1
    assert select_index(strat, 1, 2) == 1
    with pytest.raises(UsageError):
        select_index(strat, 2, 2)
    with pytest.raises(UsageError):
        select_index(SelectionStrategy.explicit([3]), 0, 2)
    with pytest.raises(UsageError):
        SelectionStrategy.explicit([0])


def test_random_uniform_rejects_a_negative_seed():
    with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
        SelectionStrategy.random_uniform(seed=-1)
    assert SelectionStrategy.random_uniform(seed=0).seed == 0


def _numpy_draws(seed, first, count, n):
    """The random rule's definition, one generator per k."""
    return [int(np.random.default_rng((seed, k)).integers(1, n + 1))
            for k in range(first, first + count)]


# One-word seeds on both sides of 2**32, and seeds of 2, 3 and 6 words;
# with 6 words, seed and k overflow the pool of 4.
SEEDS = (0, 3, 2**32 - 1, 2**32, 2**40 + 5, 2**70 + 3, 2**160 + 7)
# n = 3 * 2**30 rejects a quarter of the 32-bit draws.
SIZES = (1, 2, 3, 50, 1000, 2**31 + 7, 3 * 2**30)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_indices_are_numpys_draws(seed):
    array = schedules._ARRAY_DRAWS
    runs = [(0, 1), (7, 1), (2**32 - 1, 1), (2**32, 1), (2**64 - 1, 1),  # one k, Python ints
            (5, array - 1), (5, array),  # either side of a hash over arrays
            (2**32 - 20, 40), (2**64 - 20, 40)]  # blocks across the words of k
    for n in SIZES:
        for first, count in runs:
            assert random_indices(seed, first, count, n) == _numpy_draws(seed, first, count, n)


def test_a_full_block_of_random_indices_is_numpys():
    assert random_indices(3, 1000, DRAW_STEPS, 50) == _numpy_draws(3, 1000, DRAW_STEPS, 50)


def test_a_full_block_with_rejected_halves_is_numpys():
    n = 3 * 2**30
    assert random_indices(3, 1000, DRAW_STEPS, n) == _numpy_draws(3, 1000, DRAW_STEPS, n)


def _halves_used(seed, k, n):
    """How many 32-bit halves numpy's draw took: 1 (the low half of the
    first output), 2 (its high half) or 3 (a second output)."""
    drawn = np.random.default_rng((seed, k)).bit_generator
    drawn.random_raw()  # PCG64 after its first output
    rng = np.random.default_rng((seed, k))
    rng.integers(1, n + 1)
    if rng.bit_generator.state["state"] != drawn.state["state"]:
        return 3
    return 1 if rng.bit_generator.state["has_uint32"] else 2


def test_random_indices_follow_numpys_rejections():
    n, seed, count = 3 * 2**30, 11, 400
    used = [_halves_used(seed, k, n) for k in range(count)]
    assert set(Counter(used)) == {1, 2, 3}
    expected = _numpy_draws(seed, 0, count, n)
    assert random_indices(seed, 0, count, n) == expected
    rejected = [k for k in range(count) if used[k] > 1]
    assert [random_indices(seed, k, 1, n)[0] for k in rejected] == [expected[k] for k in rejected]


# The array draw's n near 2**32: 2**31 + 11 rejects about half of the
# 32-bit halves, 3 * 2**30 a quarter and 2**32 - 1 only the half 0.
WIDE = (2**31 + 11, 3 * 2**30, 2**32 - 1)


@pytest.mark.parametrize("n", WIDE)
def test_array_draws_take_the_high_half_then_the_scalar_draw(monkeypatch, n):
    # One array block of k above 2**63: a k whose low half is rejected
    # takes its high half, and only a k whose two halves are both
    # rejected (numpy's draw goes on to a second output) reaches the
    # scalar _bounded.
    seed, first, count = 11, 2**63 + 5, 200
    used = [_halves_used(seed, k, n) for k in range(first, first + count)]
    if n < 2**32 - 1:
        assert {1, 2, 3} <= set(used)
    scalar = [random_indices(seed, k, 1, n)[0] for k in range(first, first + count)]
    calls, bounded = [], schedules._bounded
    monkeypatch.setattr(schedules, "_bounded", lambda *args: calls.append(args) or bounded(*args))
    drawn = random_indices(seed, first, count, n)
    assert drawn == _numpy_draws(seed, first, count, n) == scalar
    assert len(calls) == used.count(3)


@pytest.mark.parametrize("n", WIDE + (50,))
def test_array_blocks_across_a_multiple_of_2_to_the_32(n):
    # The block splits where the low word of k wraps; both parts are
    # array draws.
    first, count = 2**63 + 3 * 2**32 - 30, 60
    assert count // 2 >= schedules._ARRAY_DRAWS
    assert random_indices(5, first, count, n) == _numpy_draws(5, first, count, n)


def test_select_index_draws_the_random_rule():
    strategy = SelectionStrategy.random_uniform(seed=2**40 + 5)
    assert [select_index(strategy, k, 7) for k in range(20)] == _numpy_draws(2**40 + 5, 0, 20, 7)


def test_random_indices_reject_what_numpy_would_not_draw_in_32_bits():
    with pytest.raises(UsageError, match="n < 2\\*\\*32"):
        random_indices(0, 0, 1, 2**32)
    with pytest.raises(UsageError, match=">= 0"):
        random_indices(0, -1, 1, 5)
    assert random_indices(0, 5, 0, 5) == []
