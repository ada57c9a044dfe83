"""The array draws of rng against RngStream, bit for bit."""
import numpy as np
from hypothesis import given, settings, strategies as st

from camtrack.rng import RngStream, advance, peek_randoms, stream_states

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

seeds = st.integers(0, MASK64)
stream_ids = st.integers(0, 5000)


def with_state(state: int) -> RngStream:
    rng = RngStream(0, 0)
    rng._state = state
    return rng


def scalar_draws(streams, n):
    return np.array([[rng.random() for _ in range(n)] for rng in streams])


def test_first_draws_are_pinned():
    # next_u64 values of the scalar generator, fixed before the array draws
    # existed: a change to either generator shows here
    a = RngStream(0, 0)
    assert [a.next_u64() for _ in range(5)] == [
        16294208416658607535, 7960286522194355700, 487617019471545679,
        17909611376780542444, 1961750202426094747]
    b = RngStream(2 ** 64 - 1, 2000)
    assert [b.next_u64() for _ in range(5)] == [
        15686827203274627277, 9002977752276088903, 6736110916945220962,
        6358552581900069694, 8815756721783490641]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(seeds, stream_ids), min_size=1, max_size=6),
       st.integers(1, 64))
def test_peek_equals_random_and_advance_equals_state(keys, n):
    streams = [RngStream(seed, sid) for seed, sid in keys]
    states = stream_states(streams)
    assert states.dtype == np.uint64
    assert states.tolist() == [rng.state for rng in streams]
    got = peek_randoms(states, n)
    assert got.shape == (len(keys), n)
    assert got.tobytes() == scalar_draws(streams, n).tobytes()
    assert advance(states, n).tolist() == [rng.state for rng in streams]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, GOLDEN), min_size=1, max_size=6), st.integers(1, 64))
def test_counter_wraps_past_two_to_the_64(below, n):
    # states at most GOLDEN below 2**64: the block's first counter wraps
    streams = [with_state(2 ** 64 - d) for d in below]
    states = stream_states(streams)
    assert peek_randoms(states, n).tobytes() == scalar_draws(streams, n).tobytes()
    assert advance(states, n).tolist() == [rng.state for rng in streams]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(seeds, stream_ids, st.integers(0, 64)), min_size=1,
                max_size=6))
def test_advance_by_a_count_per_stream(keys):
    streams = [RngStream(seed, sid) for seed, sid, _ in keys]
    counts = [k for _, _, k in keys]
    moved = advance(stream_states(streams), counts)
    for rng, k in zip(streams, counts):
        for _ in range(k):
            rng.next_u64()
    assert moved.tolist() == [rng.state for rng in streams]


@settings(max_examples=50, deadline=None)
@given(seeds, stream_ids, st.integers(1, 300),
       st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
def test_stream_methods_equal_scalar_draws(seed, sid, n, lo, width):
    hi = lo + width
    a, b = RngStream(seed, sid), RngStream(seed, sid)
    assert a.randoms(n).tobytes() == np.array([b.random() for _ in range(n)]).tobytes()
    assert a == b
    got = a.uniforms(lo, hi, n)
    assert got.tobytes() == np.array([b.uniform(lo, hi) for _ in range(n)]).tobytes()
    assert a == b


def test_peek_does_not_advance():
    states = stream_states([RngStream(3, 1), RngStream(3, 2)])
    before = states.copy()
    first = peek_randoms(states, 5)
    assert np.array_equal(states, before)
    assert np.array_equal(peek_randoms(states, 5), first)
    # a longer block starts with the shorter one
    assert np.array_equal(peek_randoms(states, 9)[:, :5], first)
