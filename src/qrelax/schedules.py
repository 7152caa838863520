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
# block of k), masked to 32 bits after each product. The 128-bit
# generator runs on Python ints for one k (``_bounded``) and on uint64
# arrays in 32-bit limbs for a block (``_bounded_block``), which leaves
# to ``_bounded`` only the k whose first output is rejected twice.

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_POOL = 4  # SeedSequence's pool, in 32-bit words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier M. Seeding sets inc = 2 * initseq + 1 and
# steps twice around adding initstate, so the state of the first output
# is initstate * M^2 + inc * (M^2 + M + 1).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_SQUARE = _PCG_MULT * _PCG_MULT & _MASK128
_PCG_SUM = (_PCG_SQUARE + _PCG_MULT + 1) & _MASK128
# Blocks shorter than this draw one k at a time on Python ints: a draw
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


@lru_cache(maxsize=None)
def _uint64(value):
    """``value`` as a read-only 0-d uint64 array.

    Beside a small uint64 array it costs about half as much an op as a
    Python int does, and uint64 operands keep numpy 1.x from promoting
    to float64, as it does a uint64 scalar beside a Python int.
    Only for constants: the cache keeps every value.
    """
    array = np.array(value, dtype=np.uint64)
    array.setflags(write=False)
    return array


@lru_cache(maxsize=16)
def _hash_plan(seed_words, k_length, array):
    """The pool hash of seed_words + k_words, run as far as it can go
    without the ``k_length`` words of k.

    The entropy words are hashed into the pool (INIT_A / MULT_A); every
    pool word is then mixed into every other one, and each entropy word
    past the pool into every pool word. Returns the words (pool words
    first, then the raw entropy past the pool), the hashes of k's pool
    words as (position, xor, mult), and the mixing steps that touch a
    word that depends on k as (src, dst, xor, mult, hashed), where
    ``hashed`` is the hashed source word when it does not depend on k.
    For the hash of a block (``array``) every int is a 0-d uint64 array.
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
    if array:
        # The hash constants are ``_uint64``s; the words depend on the seed.
        words = [np.array(word, dtype=np.uint64) for word in words]
        firsts = [(position, _uint64(xor), _uint64(mult)) for position, xor, mult in firsts]
        steps = [(src, dst, _uint64(xor), _uint64(mult),
                  None if hashed is None else np.array(hashed, dtype=np.uint64))
                 for src, dst, xor, mult, hashed in steps]
    return tuple(words), tuple(firsts), tuple(steps)


def _state_words(seed_words, k_words):
    """SeedSequence(seed_words + k_words).generate_state(4, uint64) as 8
    uint32 words; the words of k are ints, or uint64 arrays for a block."""
    array = isinstance(k_words[0], np.ndarray)
    words, firsts, steps = _hash_plan(tuple(seed_words), len(k_words), array)
    words = list(words)
    words[len(seed_words):len(seed_words) + len(k_words)] = k_words
    mix_l, mix_r, mask, shift, hash_out = _MIX_L, _MIX_R, _MASK32, 16, _HASH_OUT
    if array:
        mix_l, mix_r, mask, shift = (_uint64(value) for value in (mix_l, mix_r, mask, shift))
        hash_out = [(_uint64(xor), _uint64(mult)) for xor, mult in hash_out]
    # The loops below inline _hash and _mix: a call per step costs a
    # fifth of a one-k hash.
    for position, xor, mult in firsts:
        word = (words[position] ^ xor) * mult & mask
        words[position] = word ^ word >> shift
    for src, dst, xor, mult, hashed in steps:
        if hashed is None:
            hashed = (words[src] ^ xor) * mult & mask
            hashed ^= hashed >> shift
        word = (mix_l * words[dst] - mix_r * hashed) & mask
        words[dst] = word ^ word >> shift
    state = []
    for word, (xor, mult) in zip(words[:_POOL] * 2, hash_out):
        word = (word ^ xor) * mult & mask
        state.append(word ^ word >> shift)
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


def _limbs(value):
    """The four 32-bit limbs of a 128-bit int, least significant first,
    as ``_uint64``s."""
    return [_uint64(value >> shift & _MASK32) for shift in (0, 32, 64, 96)]


def _bounded_block(words, n, threshold):
    """``_bounded`` for each k of a block, from its 8 state words as
    uint64 arrays: one XSL-RR output per k, its low half tested first,
    then its high half. A k whose two halves are both rejected, about
    (n / 2**32)**2 of them, takes the scalar ``_bounded``.

    State words 2, 3, 0, 1 are initstate's 32-bit limbs and 6, 7, 4, 5
    initseq's. With inc = 2 * initseq + 1, the state of the first output
    is initstate * M^2 + initseq * 2(M^2 + M + 1) + (M^2 + M + 1) mod
    2**128. Limb i of a factor times limb j of its multiplier adds the
    product's low half to limb i + j of the state and its high half to
    limb i + j + 1, so a limb sums at most 14 halves and an addend below
    2**32 and a carry below 2**4: no sum overflows. The limbs are summed
    one at a time, in place. Every operand is a uint64 array, 0-d for a
    constant.
    """
    mask, bits, one = _uint64(_MASK32), _uint64(32), _uint64(1)
    w0, w1, w2, w3, w4, w5, w6, w7 = words
    factors = (((w2, w3, w0, w1), _limbs(_PCG_SQUARE)),
               ((w6, w7, w4, w5), _limbs(2 * _PCG_SUM & _MASK128)))
    limbs, carried = [], np.zeros_like(w0)
    for m, addend in enumerate(_limbs(_PCG_SUM)):
        # Limb m: the high halves and the carry of limb m - 1, then the
        # low halves of the products i + j = m, whose high halves go on.
        total, carried = carried + addend, np.zeros_like(carried)
        for factor, multiplier in factors:
            for i in range(m + 1):
                product = factor[i] * multiplier[m - i]
                total += product & mask
                if m < 3:
                    carried += product >> bits
        limbs.append(total & mask)
        carried += total >> bits
    s0, s1, s2, s3 = limbs
    mixed = (s2 ^ s0) | (s3 ^ s1) << bits  # the state's high 64 bits XOR its low 64
    rotate = s3 >> _uint64(26)
    # Rotation 0 shifts left by 0, not by 64: it ORs mixed into itself.
    output = mixed >> rotate | mixed << ((_uint64(64) - rotate) & _uint64(63))
    bound, limit = np.array(n, dtype=np.uint64), np.array(threshold, dtype=np.uint64)
    low, high = (output & mask) * bound, (output >> bits) * bound
    take_low = (low & mask) >= limit
    drawn = ((np.where(take_low, low, high) >> bits) + one).tolist()
    for lane in np.flatnonzero(~take_low & ((high & mask) < limit)).tolist():
        drawn[lane] = _bounded([int(word[lane]) for word in words], n, threshold)
    return drawn


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
            drawn += (_bounded(words, n, threshold) for words in states)
        else:
            # Every word of k is an array, so no op is between two scalars.
            low, *high = _words(k)
            k_words = [np.arange(low, low + end - k, dtype=np.uint64)]
            k_words += [np.full(end - k, word, dtype=np.uint64) for word in high]
            drawn += _bounded_block(_state_words(seed_words, k_words), n, threshold)
        k = end
    return drawn
