import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import keystream_reference as ref
from qclattice.cipher import CipherParams
from qclattice.errors import InvalidParams, ZeroSeedSlice
from qclattice.formats import hex_to_fields
from qclattice.keystream import (
    BlockPermutation,
    Lfsr,
    PermutationStream,
    ReseedingLfsr,
    _permutation_ring,
)
from qclattice.primitives import poly, reciprocal


def one_block_draws(q, seed, count):
    """The first ``count`` draws of a one-block permutation stream."""
    return list(PermutationStream(q, [seed]).next_perm(0, count)[:, 0])


def first_block_permutation(seeds, q):
    """The block permutation of frame 0: one draw from each seed of t."""
    return BlockPermutation(q, PermutationStream(q, seeds).next_perm(0, 1)[0])


def test_lfsr_full_period_primitive():
    for deg in (3, 4, 5, 6):
        lf = Lfsr(deg, poly(deg), 1)
        seen = set()
        for _ in range(1 << deg):
            if lf.state in seen:
                break
            seen.add(lf.state)
            lf.advance(1)
        assert len(seen) == (1 << deg) - 1


def test_lfsr_rejects_zero_seed():
    with pytest.raises(InvalidParams):
        Lfsr(4, poly(4), 0)


def test_reseeding_stream_deterministic():
    a = ReseedingLfsr(5, 9)
    b = ReseedingLfsr(5, 9)
    assert np.array_equal(a.next_bits(0, 500), b.next_bits(0, 500))


@pytest.mark.parametrize("l1", [3, 4, 5, 6])
def test_reseeding_joint_period(l1):
    lf = ReseedingLfsr(l1, 1)
    start = ref.joint_state(lf, 0)
    t = 0
    target = ((1 << l1) - 1) ** 2
    while True:
        lf.next_bits(t, 1)
        t += 1
        if ref.joint_state(lf, t) == start:
            break
        assert t <= target
    assert t == target


def test_error_vector_mean_weight():
    lf = ReseedingLfsr(9, 333)
    weights = [int(lf.next_bits(258 * j, 258).sum()) for j in range(1000)]
    assert abs(np.mean(weights) - 129) <= 10


def test_error_vector_deterministic():
    a = ReseedingLfsr(9, 7)
    b = ReseedingLfsr(9, 7)
    assert np.array_equal(a.next_bits(0, 258), b.next_bits(0, 258))


def test_permutation_q7_is_state_sequence():
    # q = 2^gamma - 1: no rejection, values are the visited states minus one
    seed = 5
    walker = Lfsr(3, poly(3), seed)
    states = []
    for _ in range(7):
        states.append(walker.state - 1)
        walker.advance(1)
    (perm,) = one_block_draws(7, seed, 1)
    assert np.array_equal(perm, states)
    assert sorted(perm.tolist()) == list(range(7))


def test_permutation_q43_bijections():
    for p in one_block_draws(43, 21, 100):
        assert sorted(p.tolist()) == list(range(43))


@pytest.mark.parametrize("q", [13, 43, 187])  # toy, reference and n = 1496 keys
def test_permutation_never_non_bijective_bulk(q):
    # one full period plus one draw: every window a session can draw, then
    # the wrap back to the first
    period = (1 << (q - 1).bit_length()) - 1
    draws = one_block_draws(q, 1, period + 1)
    for p in draws:
        assert (np.bincount(p, minlength=q) == 1).all()
    assert np.array_equal(draws[-1], draws[0])


def test_permutation_rejects_power_of_two():
    with pytest.raises(InvalidParams):
        PermutationStream(8, [3])


def test_permutation_rejects_non_primitive_polynomial():
    # x^3 + 1 cycles 1 -> 4 -> 2 -> 1, which holds only three values below 5
    with pytest.raises(InvalidParams):
        _permutation_ring(5, 3, 0b001)


def test_permutation_stream_rotates():
    a, b = one_block_draws(43, 11, 2)
    assert not np.array_equal(a, b)


def test_block_permutation_orthogonal():
    seeds = np.random.default_rng(0).integers(1, 64, size=6).tolist()
    bp = first_block_permutation(seeds, 43)
    m = ref.permutation_matrix(bp).astype(np.int64)
    assert np.array_equal(m @ m.T, np.eye(43 * 6, dtype=np.int64))


def test_block_permutation_matrix_matches_apply():
    bp = BlockPermutation(4, [np.array([1, 0, 3, 2]), np.array([2, 3, 0, 1])])
    x = np.arange(8) + 10
    assert np.array_equal(bp.apply(x), x @ ref.permutation_matrix(bp))


def test_block_permutation_identical_slices():
    bp = first_block_permutation([5] * 6, 43)
    blocks = bp.apply(np.arange(6 * 43)).reshape(6, 43) % 43
    assert (blocks == blocks[0]).all()


def test_block_permutation_zero_slice():
    with pytest.raises(ZeroSeedSlice):
        first_block_permutation([63, 0, 63, 63, 63, 63], 43)


def test_apply_inverse_roundtrip():
    rng = np.random.default_rng(1)
    bp = first_block_permutation([3] * 4, 3)
    x = rng.integers(-100, 100, size=12)
    assert np.array_equal(bp.apply_inverse(bp.apply(x)), x)
    ident = BlockPermutation(3, [np.arange(3)] * 4)
    assert np.array_equal(ident.apply(x), x)


def test_single_block_swap_hand_checked():
    bp = BlockPermutation(4, [np.array([1, 0, 3, 2])])
    assert np.array_equal(bp.apply(np.array([1, 2, 3, 4])), [2, 1, 4, 3])


def test_seed_slices_layout():
    # the key field t holds v = 4 seeds of gamma = 2 bits, least significant
    # slice first: bits 1,0 | 0,1 | 1,0 | 0,0 (0x19) are seeds 1, 2, 1, 0
    params = CipherParams(b=3, n0=4, dv=1, q=3, L=2, d=2)
    assert params.secret_fields()[-1] == ("t", 4, 2)
    assert hex_to_fields("19", 4, 2) == [1, 2, 1, 0]


# --- against the bit-serial oracles in keystream_reference -----------------

SMALL_LENGTHS = [2, 3, 4, 5, 6]
REFERENCE_LENGTHS = [9, 61]  # l1 and d at the reference parameters
N1496_LENGTHS = [11, 77]  # l1 and d of the (187, 8, 5) key, n = 1496


def _pair(length, seed):
    oracle = ref.ReseedingLfsr(length, poly(length), reciprocal(length), seed)
    return ReseedingLfsr(length, seed), oracle


def _seed(length):
    return st.integers(1, (1 << length) - 1)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(SMALL_LENGTHS + REFERENCE_LENGTHS), st.data())
def test_next_bits_matches_reference_from_any_phase(length, data):
    new, old = _pair(length, data.draw(_seed(length)))
    t = 0
    for count in data.draw(st.lists(st.integers(0, 600), min_size=1, max_size=6)):
        assert np.array_equal(new.next_bits(t, count), old.next_bits(count))
        t += count
        assert ref.joint_state(new, t) == old.joint_state()


@pytest.mark.parametrize("length", SMALL_LENGTHS)
def test_seek_matches_replay_at_every_position(length):
    """Every t across three joint periods, two seeds: the registers after an
    empty draw at t, then the bits from t."""
    total = 3 * ((1 << length) - 1) ** 2
    k = 2 * length + 1
    for seed in (1, (1 << length) - 1):
        new, old = _pair(length, seed)
        states, bits = [], []
        for _ in range(total + k):
            states.append(old.joint_state())
            bits.append(old.next_bit())
        for t in range(total):
            new.next_bits(t, 0)
            assert ref.joint_state(new, t) == states[t], t
            assert new.next_bits(t, k).tolist() == bits[t : t + k], t


@pytest.mark.parametrize("length", SMALL_LENGTHS)
def test_reference_seek_matches_its_replay(length):
    """The oracle's seek, which skips what reseeds overwrite and steps the
    main register back past half a segment, against its own bit-by-bit
    replay at every t of one joint period and a segment past it."""
    segment = (1 << length) - 1
    _, replay = _pair(length, segment)
    _, seeker = _pair(length, segment)
    for t in range(segment * (segment + 1)):
        seeker.seek(t)
        assert seeker.joint_state() == replay.joint_state(), t
        replay.next_bit()


REPLAY_BITS = 100_000 + 600
REPLAY_SEEDS = {9: (0x155, 1), 61: (0x0123456789ABCDE, (1 << 61) - 1)}


@functools.lru_cache(maxsize=None)
def _replayed(length, seed):
    """Joint state before each bit, and the bits, of a replayed stream."""
    _, old = _pair(length, seed)
    states, bits = [], []
    for _ in range(REPLAY_BITS):
        states.append(old.joint_state())
        bits.append(old.next_bit())
    return states, np.array(bits, dtype=np.uint8)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(REFERENCE_LENGTHS), st.integers(0, 1), st.integers(0, 100_000),
       st.integers(0, 600))
def test_seek_matches_replay_at_reference_lengths(length, which, t, count):
    seed = REPLAY_SEEDS[length][which]
    states, bits = _replayed(length, seed)
    new, _ = _pair(length, seed)
    new.next_bits(t, 0)
    assert ref.joint_state(new, t) == states[t]
    assert np.array_equal(new.next_bits(t, count), bits[t : t + count])


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(SMALL_LENGTHS + REFERENCE_LENGTHS + N1496_LENGTHS), st.data(),
       st.integers(0, 1 << 70), st.integers(0, 5000), st.integers(0, 300))
def test_seek_then_step_equals_seek_further(length, data, a, b, k):
    seed = data.draw(_seed(length))
    first, _ = _pair(length, seed)
    second, _ = _pair(length, seed)
    tail = first.next_bits(a, b + k)[b:]
    assert np.array_equal(second.next_bits(a + b, k), tail)
    assert ref.joint_state(second, a + b + k) == ref.joint_state(first, a + b + k)


def _position(length, top):
    """A bit t in [0, top]: anywhere, where the oracle's seek stays short
    (lengths up to 11), or within 600 bits of a reseed."""
    segment = (1 << length) - 1
    near = st.builds(lambda r, d: max(r * segment + d, 0),
                     st.integers(0, top // segment), st.integers(-600, 600))
    return st.one_of(st.integers(0, top), near) if length <= 11 else near


@pytest.mark.parametrize("length", SMALL_LENGTHS + REFERENCE_LENGTHS + N1496_LENGTHS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_positional_draws_match_a_fresh_reference(length, data):
    """Any sequence of next_bits(t, count) on one stream: out of order,
    repeated, resuming where the last draw ended, across reseeds, and with
    t up to 2^64 n at n = 258.  Each draw is bits [t, t + count) of a fresh
    bit-serial oracle."""
    seed = data.draw(_seed(length))
    stream, _ = _pair(length, seed)
    starts, end = [0], 0
    for _ in range(data.draw(st.integers(1, 6))):
        t = data.draw(st.one_of(_position(length, (1 << 64) * 258), st.sampled_from(starts),
                                st.just(end)))
        count = data.draw(st.integers(0, 600))
        _, oracle = _pair(length, seed)
        oracle.seek(t)
        assert np.array_equal(stream.next_bits(t, count), oracle.next_bits(count)), (t, count)
        starts.append(t)
        end = t + count


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_LENGTHS + REFERENCE_LENGTHS + N1496_LENGTHS), st.data(),
       st.one_of(st.just(0), st.integers(1, 1 << 40)), st.integers(0, 3000))
def test_lfsr_jump_matches_stepping(length, data, periods, steps):
    """jump(periods * (2^length - 1) + steps) against stepping ``steps`` times.

    The shipped polynomials are primitive, so whole periods return to the
    same state; large jumps take the x^k mod c(x) path, small ones advance().
    """
    seed = data.draw(_seed(length))
    new, old = Lfsr(length, poly(length), seed), ref.Lfsr(length, poly(length), seed)
    new.jump(periods * ((1 << length) - 1) + steps)
    for _ in range(steps):
        old.step()
    assert new.state == old.state


@pytest.mark.parametrize("q", [3, 5, 7, 43])
@settings(deadline=None, max_examples=10)
@given(seed=st.integers(1, 63))
def test_next_perm_after_seek_matches_reference(q, seed):
    gamma = (q - 1).bit_length()
    period = (1 << gamma) - 1
    seed = (seed - 1) % period + 1
    oracle = ref.PermutationStream(q, seed, gamma, poly(gamma))
    draws = [oracle.next_perm() for _ in range(2 * period + 3)]
    stream = PermutationStream(q, [seed])
    for j in range(2 * period + 2):
        first, second = stream.next_perm(j, 2)[:, 0]
        assert np.array_equal(first, draws[j]), j
        assert np.array_equal(second, draws[j + 1]), j


def _frame_near_a_wrap(period):
    """Frames j < 2^64 within two of a multiple of the period."""
    wraps = st.integers(1, (1 << 64) // period - 1)
    return st.builds(lambda w, d: w * period + d, wraps, st.integers(-2, 2))


@settings(deadline=None, max_examples=120)
@given(st.sampled_from([3, 5, 7, 13, 43, 187]), st.data())
def test_v_seed_stream_matches_stacked_reference_draws(q, data):
    """Row i of next_perm(j, 2) is the stack of v one-seed oracle draws at j + i.

    The oracle replays j mod 2^gamma - 1 steps: its register is primitive,
    so that is where j steps leave it.  The second row crosses the wrap
    when j is one short of it.
    """
    gamma = (q - 1).bit_length()
    period = (1 << gamma) - 1
    seeds = data.draw(st.lists(st.integers(1, period), min_size=1, max_size=8))
    j = data.draw(st.one_of(st.integers(0, (1 << 64) - 1), _frame_near_a_wrap(period)))
    oracles = [ref.PermutationStream(q, seed, gamma, poly(gamma)) for seed in seeds]
    for oracle in oracles:
        oracle.seek(j % period)
    for blocks in PermutationStream(q, seeds).next_perm(j, 2):
        assert blocks.shape == (len(seeds), q)
        assert np.array_equal(blocks, np.stack([o.next_perm() for o in oracles]))
