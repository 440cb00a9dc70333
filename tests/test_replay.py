from collections import deque

import numpy as np
import pytest

from reinfog.replay import RandomReplayBuffer, ReservoirReplayBuffer, Transitions


def rows(start: int, stop: int) -> Transitions:
    """Transitions numbered start..stop-1: row i has reward i."""
    i = np.arange(start, stop)
    return Transitions(i[:, None].astype(float), i % 3, i.astype(float),
                       i[:, None] + 1.0, i % 4 == 0)


class DequeReplay:
    """The FIFO buffer the ring replaced: a deque of rows, sampled by the same call."""

    def __init__(self, capacity: int) -> None:
        self.data: deque[Transitions] = deque(maxlen=capacity)

    def push(self, batch: Transitions) -> None:
        self.data.extend(batch[i:i + 1] for i in range(len(batch)))

    def sample(self, k: int, rng: np.random.Generator) -> Transitions:
        idx = rng.choice(len(self.data), size=k, replace=False)
        return Transitions.concat([self.data[i] for i in idx])


def test_fifo_eviction_order():
    buf = RandomReplayBuffer(capacity=3)
    for i in range(5):
        buf.push(rows(i, i + 1))
    assert len(buf) == 3
    kept = sorted(buf.sample(3, np.random.default_rng(0)).actions)
    rewards = sorted(buf.sample(3, np.random.default_rng(0)).rewards)
    assert rewards == [2.0, 3.0, 4.0]
    assert kept == sorted(e % 3 for e in (2, 3, 4))


def test_sample_too_many_raises():
    buf = RandomReplayBuffer(capacity=4)
    buf.push(rows(0, 1))
    with pytest.raises(ValueError):
        buf.sample(2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        RandomReplayBuffer(capacity=0)


def test_sample_without_replacement():
    buf = RandomReplayBuffer(capacity=8)
    buf.push(rows(0, 8))
    got = buf.sample(8, np.random.default_rng(1))
    assert sorted(got.rewards) == [float(i) for i in range(8)]


def test_sample_uniformity():
    buf = RandomReplayBuffer(capacity=10)
    buf.push(rows(0, 10))
    rng = np.random.default_rng(2)
    counts = np.zeros(10)
    draws = 4000
    for _ in range(draws):
        counts[int(buf.sample(1, rng).rewards[0])] += 1
    # binomial p=0.1: sd = sqrt(n p (1-p)) ~ 19, allow 3 sigma
    expected = draws / 10
    sigma = np.sqrt(draws * 0.1 * 0.9)
    assert np.all(np.abs(counts - expected) <= 3 * sigma + 1)


@pytest.mark.parametrize("batch", [1, 3, 7])
def test_ring_samples_what_a_deque_samples(batch):
    # capacity 5, 23 rows pushed in batches: after every push the ring holds
    # the deque's rows and, from generators of one seed, samples the same
    ring, oracle = RandomReplayBuffer(5), DequeReplay(5)
    rng_ring, rng_oracle = np.random.default_rng(3), np.random.default_rng(3)
    for start in range(0, 23, batch):
        pushed = rows(start, min(start + batch, 23))
        ring.push(pushed)
        oracle.push(pushed)
        assert len(ring) == len(oracle.data)
        for k in range(1, len(ring) + 1):
            assert ring.sample(k, rng_ring) == oracle.sample(k, rng_oracle)
    assert rng_ring.bit_generator.state == rng_oracle.bit_generator.state
    assert sorted(ring.sample(5, rng_ring).rewards) == [18.0, 19.0, 20.0, 21.0, 22.0]


def test_push_longer_than_the_ring_keeps_its_tail():
    ring = RandomReplayBuffer(4)
    ring.push(rows(0, 3))
    ring.push(rows(3, 13))
    assert len(ring) == 4
    assert sorted(ring.sample(4, np.random.default_rng(0)).rewards) == [9.0, 10.0, 11.0, 12.0]


def test_transitions_check_dtypes_and_shapes():
    good = rows(0, 3)
    with pytest.raises(ValueError, match="actions must be a int64 array, got float64"):
        Transitions(good.states, good.actions.astype(float), good.rewards,
                    good.next_states, good.done)
    with pytest.raises(ValueError, match="actions must be a int64 array, got bool"):
        Transitions(good.states, good.done, good.rewards, good.next_states, good.done)
    with pytest.raises(ValueError, match="ragged"):
        Transitions(good.states, good.actions, good.rewards, good.next_states[:2],
                    good.done)
    with pytest.raises(ValueError, match="ragged"):
        Transitions(good.states[0], good.actions, good.rewards, good.next_states[0],
                    good.done)


def test_transitions_equality_is_by_value():
    a = rows(0, 6)
    b = Transitions(*(np.array(getattr(a, f), copy=True)
                      for f in ("states", "actions", "rewards", "next_states", "done")))
    assert a == b and a is not b
    assert a[1:4] == b[np.array([1, 2, 3])]
    assert a != a[:5]
    flipped = b.next_states.view(np.uint8)
    flipped[-1, 0] ^= 1  # one bit of the last next state
    assert a != b
    negative_zero = rows(0, 6)
    negative_zero.rewards[0] = -0.0
    assert negative_zero != a  # bytes, not float ==


def test_reservoir_fills_then_holds_capacity():
    buf = ReservoirReplayBuffer(capacity=5)
    rng = np.random.default_rng(0)
    buf.push(rows(0, 3), rng)
    assert len(buf) == 3 and buf.seen == 3
    for i in range(3, 50, 4):
        buf.push(rows(i, min(i + 4, 50)), rng)
    assert len(buf) == 5 and buf.seen == 50
    buf.push(rows(50, 50), rng)
    assert len(buf) == 5 and buf.seen == 50


class ListReservoir:
    """The reservoir of single records the array form replaced: one push per
    row, kept in a list and sampled by the same call."""

    def __init__(self, capacity: int) -> None:
        self.capacity, self.seen, self.data = capacity, 0, []

    def push(self, row: Transitions, rng: np.random.Generator) -> None:
        self.seen += 1
        if len(self.data) < self.capacity:
            self.data.append(row)
            return
        slot = int(rng.integers(0, self.seen))
        if slot < self.capacity:
            self.data[slot] = row

    def sample(self, k: int, rng: np.random.Generator) -> Transitions:
        idx = rng.choice(len(self.data), size=k, replace=False)
        return Transitions.concat([self.data[i] for i in idx])


@pytest.mark.parametrize("batch", [1, 4, 13, 60])
def test_reservoir_keeps_and_samples_what_a_row_at_a_time_reservoir_does(batch):
    # capacity 7, 60 rows pushed in batches: after every push the arrays hold
    # the list's rows and, from generators of one seed, sample the same
    buf, oracle = ReservoirReplayBuffer(7), ListReservoir(7)
    rng_buf, rng_oracle = np.random.default_rng(9), np.random.default_rng(9)
    for start in range(0, 60, batch):
        pushed = rows(start, min(start + batch, 60))
        buf.push(pushed, rng_buf)
        for i in range(len(pushed)):
            oracle.push(pushed[i:i + 1], rng_oracle)
        assert (len(buf), buf.seen) == (len(oracle.data), oracle.seen)
        assert buf.sample(len(buf), rng_buf) == oracle.sample(len(buf), rng_oracle)
    assert rng_buf.bit_generator.state == rng_oracle.bit_generator.state


def test_integers_draws_an_array_of_bounds_as_one_scalar_call_per_bound():
    # ReservoirReplayBuffer.push rests on this: an upgrade of numpy that
    # breaks it must fail here
    for seed in range(20):
        bounds = np.concatenate([np.arange(100, 10_000),
                                 2 ** 32 + np.arange(-50, 50), 2 ** 40 + np.arange(50)])
        one, each = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = one.integers(0, bounds)
        assert drawn.tolist() == [int(each.integers(0, int(b))) for b in bounds]
        assert one.bit_generator.state == each.bit_generator.state


class LoopReservoir(ReservoirReplayBuffer):
    """The push that draws one slot a row in a Python loop."""

    def push(self, batch: Transitions, rng: np.random.Generator) -> None:
        keep = list(range(len(self)))
        for row in range(len(self), len(self) + len(batch)):
            self.seen += 1
            if len(keep) < self.capacity:
                keep.append(row)
                continue
            slot = int(rng.integers(0, self.seen))
            if slot < self.capacity:
                keep[slot] = row
        rows = batch if self._rows is None else Transitions.concat([self._rows, batch])
        self._rows = rows[np.array(keep, dtype=np.int64)]


@pytest.mark.parametrize("pattern", [[1] * 40, [3, 0, 5, 17, 60], [200], [2, 50, 1, 300, 7]])
def test_reservoir_push_matches_the_row_loop(pattern):
    for seed in range(10):
        for capacity in (1, 5, 20):
            buf, loop = ReservoirReplayBuffer(capacity), LoopReservoir(capacity)
            rng_buf, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
            start = 0
            for size in pattern:
                buf.push(rows(start, start + size), rng_buf)
                loop.push(rows(start, start + size), rng_loop)
                start += size
                assert (len(buf), buf.seen) == (len(loop), loop.seen)
                assert buf._rows == loop._rows
            assert rng_buf.bit_generator.state == rng_loop.bit_generator.state


def test_reservoir_inclusion_probability():
    # every item should be kept with probability k/N; aggregate by decile
    # so each bucket count is a fat binomial we can band at 3 sigma
    k, n, reps = 20, 400, 150
    decile = n // 10
    counts = np.zeros(10)
    rng = np.random.default_rng(7)
    for _ in range(reps):
        buf = ReservoirReplayBuffer(capacity=k)
        for i in range(n):
            buf.push(rows(i, i + 1), rng)
        for reward in buf.sample(k, rng).rewards:
            counts[int(reward) // decile] += 1
    p = k / n
    trials = reps * decile
    expected = trials * p
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_reservoir_deterministic_given_rng():
    def run():
        buf = ReservoirReplayBuffer(capacity=4)
        rng = np.random.default_rng(42)
        buf.push(rows(0, 100), rng)
        return buf.sample(4, rng)

    assert run() == run()
