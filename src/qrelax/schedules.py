"""Relaxation schedules and row/column index selection rules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError

# Classically the relaxed iterations converge for values in [0, 2]; the
# unitary constructions additionally need sqrt(2*lam*(1-lam)) real, which
# restricts quantum-constructible schedules to [0, 1].
CLASSICAL = "classical"
QUANTUM = "quantum"
DOMAIN_BOUNDS = {CLASSICAL: (0.0, 2.0), QUANTUM: (0.0, 1.0)}

CONSTANT = "constant"
SEQUENCE = "explicit-sequence"
DECAYING = "decaying"


def check_domain(value: float, domain: str, k=None) -> float:
    """``value`` as a float; raises DomainError outside [lo, hi], nan and
    the infinities included (every comparison with nan is false)."""
    lo, hi = DOMAIN_BOUNDS[domain]
    if not lo <= value <= hi:
        raise DomainError(value, domain, k)
    return float(value)


@dataclass(frozen=True)
class RelaxationSchedule:
    """Emits the per-step relaxation value, validated against its domain."""

    variant: str
    domain: str
    value: float | None = None
    values: tuple[float, ...] | None = None

    @classmethod
    def constant(cls, value: float, domain: str = CLASSICAL) -> "RelaxationSchedule":
        check_domain(value, domain)
        return cls(CONSTANT, domain, value=float(value))

    @classmethod
    def explicit(cls, values, domain: str = CLASSICAL) -> "RelaxationSchedule":
        vals = tuple(float(v) for v in values)
        for k, v in enumerate(vals):
            check_domain(v, domain, k)
        return cls(SEQUENCE, domain, values=vals)

    @classmethod
    def decaying(cls, initial: float, domain: str = CLASSICAL) -> "RelaxationSchedule":
        """initial / (k + 1); stays inside the domain whenever initial does."""
        check_domain(initial, domain)
        return cls(DECAYING, domain, value=float(initial))


def relaxation_at(schedule: RelaxationSchedule, k: int) -> float:
    """Relaxation value at step k (k >= 0), guaranteed inside the domain."""
    if k < 0:
        raise UsageError(f"step index k={k} must be non-negative")
    if schedule.variant == CONSTANT:
        value = schedule.value
    elif schedule.variant == DECAYING:
        value = schedule.value / (k + 1)
    elif schedule.variant == SEQUENCE:
        if k >= len(schedule.values):
            raise UsageError(
                f"explicit schedule has {len(schedule.values)} entries, none for k={k}"
            )
        value = schedule.values[k]
    else:
        raise UsageError(f"unknown schedule variant {schedule.variant!r}")
    return check_domain(value, schedule.domain, k)


CYCLIC = "cyclic"
RANDOM_UNIFORM = "random-uniform"
GREEDY_RESIDUAL = "greedy-residual"
EXPLICIT_INDICES = "explicit-indices"


@dataclass(frozen=True)
class SelectionStrategy:
    """Rule choosing the working index t_k in 1..n at each step."""

    variant: str
    seed: int = 0
    indices: tuple[int, ...] | None = None

    @classmethod
    def cyclic(cls) -> "SelectionStrategy":
        return cls(CYCLIC)

    @classmethod
    def random_uniform(cls, seed: int = 0) -> "SelectionStrategy":
        seed = int(seed)
        if seed < 0:
            # numpy's seed sequence takes only non-negative entropy.
            raise UsageError(f"seed must be >= 0, got {seed}")
        return cls(RANDOM_UNIFORM, seed=seed)

    @classmethod
    def greedy_residual(cls) -> "SelectionStrategy":
        return cls(GREEDY_RESIDUAL)

    @classmethod
    def explicit(cls, indices) -> "SelectionStrategy":
        idx = tuple(int(i) for i in indices)
        if any(i < 1 for i in idx):
            raise UsageError(f"indices are 1-based, got {idx}")
        return cls(EXPLICIT_INDICES, indices=idx)


def select_index(strategy: SelectionStrategy, k: int, n: int, residual=None) -> int:
    """Working index for step k; cyclic wraps as ((k) mod n) + 1.

    ``residual`` is the context vector for the greedy rule: the per-row
    residual in row mode, the per-column correlations in column mode.
    Random selection is a pure function of (seed, k), so runs replay
    identically. Only the greedy rule reads ``residual``; the others
    ignore it, and run loops pass None for them.
    """
    if k < 0:
        raise UsageError(f"step index k={k} must be non-negative")
    if n < 1:
        raise UsageError(f"dimension n={n} must be positive")
    if strategy.variant == CYCLIC:
        return (k % n) + 1
    if strategy.variant == RANDOM_UNIFORM:
        rng = np.random.default_rng((strategy.seed, k))
        return int(rng.integers(1, n + 1))
    if strategy.variant == GREEDY_RESIDUAL:
        if residual is None:
            raise UsageError("greedy-residual selection needs the residual context")
        if len(residual) != n:
            raise UsageError(f"residual context has length {len(residual)}, expected {n}")
        return int(np.argmax(np.abs(residual))) + 1
    if strategy.variant == EXPLICIT_INDICES:
        if k >= len(strategy.indices):
            raise UsageError(
                f"explicit index list has {len(strategy.indices)} entries, none for k={k}"
            )
        t = strategy.indices[k]
        if t > n:
            raise UsageError(f"index t={t} outside 1..{n}")
        return t
    raise UsageError(f"unknown strategy variant {strategy.variant!r}")
