"""Relaxation schedules and row/column index selection rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, QrelaxError, UsageError

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


def relaxation_block(schedule: RelaxationSchedule, first: int, count: int) -> list[float]:
    """The relaxations of steps first, ..., first + count - 1, unchecked:
    valid for the steps before the schedule's horizon (``rule_horizon``)."""
    if schedule.variant == CONSTANT:
        return [schedule.value] * count
    if schedule.variant == DECAYING:
        return [schedule.value / (k + 1) for k in range(first, first + count)]
    if schedule.variant == SEQUENCE:
        return list(schedule.values[first:first + count])
    raise UsageError(f"unknown schedule variant {schedule.variant!r}")


def relaxation_at(schedule: RelaxationSchedule, k: int) -> float:
    """Relaxation value at step k (k >= 0), guaranteed inside the domain."""
    if k < 0:
        raise UsageError(f"step index k={k} must be non-negative")
    if schedule.variant == SEQUENCE and k >= len(schedule.values):
        raise UsageError(f"explicit schedule has {len(schedule.values)} entries, none for k={k}")
    return check_domain(relaxation_block(schedule, k, 1)[0], schedule.domain, k)


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
    residual in row mode, the per-column correlations A^T r in column
    mode; the first of tied largest entries wins. Column-mode runs call
    it only on steps where their carried A^T r cannot prove its argmax
    (``classical._Correlations``), so their picks are the ones made on
    the exact product every step. Random selection is a pure function
    of (seed, k), so runs replay identically:
    ``np.random.default_rng((seed, k)).integers(1, n + 1)``, drawn by
    ``random_indices``. Only the greedy rule reads ``residual``;
    the others ignore it, and run loops pass None for them.
    """
    if k < 0:
        raise UsageError(f"step index k={k} must be non-negative")
    if n < 1:
        raise UsageError(f"dimension n={n} must be positive")
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
        if strategy.indices[k] > n:
            raise UsageError(f"index t={strategy.indices[k]} outside 1..{n}")
    return index_block(strategy, k, 1, n)[0]


def index_block(strategy: SelectionStrategy, first: int, count: int, n: int) -> list[int]:
    """The indices of steps first, ..., first + count - 1 under cyclic,
    random or explicit selection, unchecked: valid for the steps before
    the rule's horizon (``rule_horizon``)."""
    if strategy.variant == CYCLIC:
        return [(k % n) + 1 for k in range(first, first + count)]
    if strategy.variant == RANDOM_UNIFORM:
        return random_indices(strategy.seed, first, count, n)
    if strategy.variant == EXPLICIT_INDICES:
        return list(strategy.indices[first:first + count])
    raise UsageError(f"unknown strategy variant {strategy.variant!r}")


def _raised(call, *args):
    """The QrelaxError that ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except QrelaxError as exc:
        return exc
    return None


def _value_in(schedule, domain, k):
    return check_domain(relaxation_at(schedule, k), domain, k)


def rule_horizon(strategy: SelectionStrategy, schedule: RelaxationSchedule, domain: str, n: int):
    """(k, error): the first step k whose index selection, relaxation or
    relaxation value in ``domain`` fails, and the QrelaxError it raises
    there, a selection's before a relaxation's; (inf, None) when every
    step is served. n is at least 1.

    Only explicit lists vary with k; they take one array pass. Every
    other rule serves every step as it serves step 0: a decaying value
    only falls toward 0, the lower bound of both domains. No random
    index is drawn: a block of no steps checks the random rule's n.
    """
    if strategy.variant == EXPLICIT_INDICES:
        # The first entry past n, or else the end of the list.
        select_at = int(np.argmax(np.array(strategy.indices + (n + 1,)) > n))
    elif strategy.variant == GREEDY_RESIDUAL or not _raised(index_block, strategy, 0, 0, n):
        select_at = math.inf
    else:
        select_at = 0
    if schedule.variant == SEQUENCE:
        # The first value outside both domains, or else the end of the list.
        (lo, hi), (run_lo, run_hi) = DOMAIN_BOUNDS[schedule.domain], DOMAIN_BOUNDS[domain]
        values = np.array(schedule.values + (math.nan,))
        value_at = int(np.argmax(~((max(lo, run_lo) <= values) & (values <= min(hi, run_hi)))))
    else:
        value_at = 0 if _raised(_value_in, schedule, domain, 0) else math.inf
    k = min(select_at, value_at)
    if k == math.inf:
        return k, None
    if select_at == k:
        return k, _raised(select_index, strategy, k, n)
    return k, _raised(_value_in, schedule, domain, k)


# --- the random rule ---------------------------------------------------------
#
# random_indices copies the three numpy steps behind
# np.random.default_rng((seed, k)).integers(1, n + 1): SeedSequence's hash
# of the entropy words (those of seed, then those of k) into a pool of 4
# and out of it, PCG64's seeding and first XSL-RR output, and the
# buffered 32-bit Lemire draw. The hash constants do not depend on the
# data, so one hash runs on Python ints (one k) or on uint64 arrays (a
# block of k), masked to 32 bits after each product; the 128-bit
# generator runs on Python ints.

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_POOL = 4  # SeedSequence's pool, in 32-bit words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier M. Seeding sets inc = 2 * initseq + 1 and
# steps twice around adding initstate, so the state of the first output
# is initstate * M^2 + inc * (M^2 + M + 1).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_SQUARE = _PCG_MULT * _PCG_MULT & _MASK128
_PCG_SUM = (_PCG_SQUARE + _PCG_MULT + 1) & _MASK128
# Blocks shorter than this hash one k at a time on Python ints: a hash
# on arrays costs about as much as 15 of them, whatever its length.
_ARRAY_DRAWS = 16


def _hash_constants(value, mult, count):
    """The (h, h * mult) pairs of SeedSequence's running hash constant h:
    each hash of a word XORs in h, then multiplies by the next h."""
    pairs = []
    for _ in range(count):
        pairs.append((value, value * mult & _MASK32))
        value = value * mult & _MASK32
    return pairs


_HASH_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)  # INIT_B, MULT_B


def _hash(word, xor, mult):
    word = (word ^ xor) * mult & _MASK32
    return word ^ word >> 16


def _mix(into, hashed):
    word = (_MIX_L * into - _MIX_R * hashed) & _MASK32
    return word ^ word >> 16


def _words(value):
    """The uint32 words of a non-negative int, least significant first; [0] for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@lru_cache(maxsize=16)
def _hash_plan(seed_words, k_length):
    """The pool hash of seed_words + k_words, run as far as it can go
    without the ``k_length`` words of k.

    The entropy words are hashed into the pool (INIT_A / MULT_A); every
    pool word is then mixed into every other one, and each entropy word
    past the pool into every pool word. Returns the words (pool words
    first, then the raw entropy past the pool), the hashes of k's pool
    words as (position, xor, mult), and the mixing steps that touch a
    word that depends on k as (src, dst, xor, mult, hashed), where
    ``hashed`` is the hashed source word when it does not depend on k.
    """
    length = len(seed_words) + k_length
    constants = iter(_hash_constants(0x43B0D7E5, 0x931E8875, _POOL * max(_POOL, length)))
    varying = set(range(len(seed_words), length))
    words = list(seed_words) + [0] * (max(_POOL, length) - len(seed_words))
    firsts = []
    for position in range(_POOL):
        xor, mult = next(constants)
        if position in varying:
            firsts.append((position, xor, mult))
        else:
            words[position] = _hash(words[position], xor, mult)
    order = [(src, dst) for src in range(_POOL) for dst in range(_POOL) if src != dst]
    order += [(src, dst) for src in range(_POOL, length) for dst in range(_POOL)]
    steps = []
    for (src, dst), (xor, mult) in zip(order, constants):
        if src in varying:
            steps.append((src, dst, xor, mult, None))
            varying.add(dst)
        elif dst in varying:
            steps.append((src, dst, xor, mult, _hash(words[src], xor, mult)))
        else:
            words[dst] = _mix(words[dst], _hash(words[src], xor, mult))
    return tuple(words), tuple(firsts), tuple(steps)


def _state_words(seed_words, k_words):
    """SeedSequence(seed_words + k_words).generate_state(4, uint64) as 8
    uint32 words; each word of k is an int or a uint64 array."""
    words, firsts, steps = _hash_plan(tuple(seed_words), len(k_words))
    words = list(words)
    words[len(seed_words):len(seed_words) + len(k_words)] = k_words
    # The loops below inline _hash and _mix: a call per step costs a
    # fifth of a one-k hash.
    for position, xor, mult in firsts:
        word = (words[position] ^ xor) * mult & _MASK32
        words[position] = word ^ word >> 16
    for src, dst, xor, mult, hashed in steps:
        if hashed is None:
            hashed = (words[src] ^ xor) * mult & _MASK32
            hashed ^= hashed >> 16
        word = (_MIX_L * words[dst] - _MIX_R * hashed) & _MASK32
        words[dst] = word ^ word >> 16
    state = []
    for word, (xor, mult) in zip(words[:_POOL] * 2, _HASH_OUT):
        word = (word ^ xor) * mult & _MASK32
        state.append(word ^ word >> 16)
    return state


def _bounded(words, n, threshold):
    """1 + numpy's 32-bit Lemire draw below n from the PCG64 seeded by the
    8 state words of one k: the low half of an output first, then its
    high half, then the next output."""
    w0, w1, w2, w3, w4, w5, w6, w7 = words
    inc = ((w4 | w5 << 32) << 65 | (w6 | w7 << 32) << 1 | 1) & _MASK128
    state = (((w0 | w1 << 32) << 64 | w2 | w3 << 32) * _PCG_SQUARE + inc * _PCG_SUM) & _MASK128
    while True:
        mixed = ((state >> 64) ^ state) & _MASK64
        rotate = state >> 122
        output = (mixed >> rotate | mixed << (64 - rotate)) & _MASK64
        for half in (output & _MASK32, output >> 32):
            product = half * n
            if product & _MASK32 >= threshold:
                return (product >> 32) + 1
        state = (state * _PCG_MULT + inc) & _MASK128


def random_indices(seed: int, first: int, count: int, n: int) -> list[int]:
    """``np.random.default_rng((seed, k)).integers(1, n + 1)`` for k =
    first, ..., first + count - 1, bit for bit, as a list of ints.

    The random rule of ``select_index``, drawn in blocks: the k of a
    block share one hash over uint64 arrays. n must be below 2**32,
    where numpy's draw is the 32-bit one.
    """
    if not 1 <= n <= _MASK32:
        raise UsageError(f"random selection needs 1 <= n < 2**32, got n={n}")
    if min(seed, first, count) < 0:
        raise UsageError(f"seed, first and count must be >= 0, got {seed}, {first}, {count}")
    threshold = (1 << 32) % n  # numpy's (2**32 - 1 - (n - 1)) % n
    seed_words = _words(seed)
    drawn, k, stop = [], first, first + count
    while k < stop:
        # Inside one run of 2**32 steps only the low word of k changes.
        end = min(stop, (k | _MASK32) + 1)
        if end - k < _ARRAY_DRAWS:
            states = (_state_words(seed_words, _words(j)) for j in range(k, end))
        else:
            k_words = _words(k)
            k_words[0] = np.arange(k_words[0], k_words[0] + end - k, dtype=np.uint64)
            states = zip(*(words.tolist() for words in _state_words(seed_words, k_words)))
        drawn += (_bounded(words, n, threshold) for words in states)
        k = end
    return drawn
