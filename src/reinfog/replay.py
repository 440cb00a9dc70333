"""Experience containers: transitions as parallel arrays, the FIFO ring they
are sampled from, and a reservoir sample over a whole stream of them."""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class Transitions:
    """k transitions as parallel arrays; row i is one (s, a, r, s', done).

    `states` and `next_states` are (k, d) float64, `actions` (k,) int64,
    `rewards` (k,) float64 and `done` (k,) bool; construction checks this
    and copies nothing. Indexing by a slice or an index array selects rows,
    and == compares shapes, dtypes and bytes.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    done: np.ndarray

    def __post_init__(self) -> None:
        arrays = [getattr(self, name) for name in _FIELDS]
        for name, a, want in zip(_FIELDS, arrays, _DTYPES):
            if getattr(a, "dtype", None) != want:
                raise ValueError(f"{name} must be a {want} array, got "
                                 f"{getattr(a, 'dtype', type(a).__name__)}")
        shapes = [a.shape for a in arrays]
        if len(shapes[0]) != 2 or shapes[3] != shapes[0] \
                or any(s != shapes[0][:1] for s in shapes[1:3] + shapes[4:]):
            raise ValueError(f"ragged transitions: shapes {shapes}")

    @classmethod
    def concat(cls, parts: Sequence["Transitions"]) -> "Transitions":
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(p, name) for p in parts]) for name in _FIELDS))

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, rows) -> "Transitions":
        return Transitions(*(getattr(self, name)[rows] for name in _FIELDS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transitions):
            return NotImplemented
        return all((a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
                   for a, b in ((getattr(self, n), getattr(other, n)) for n in _FIELDS))


_FIELDS = ("states", "actions", "rewards", "next_states", "done")
_DTYPES = tuple(map(np.dtype, ("float64", "int64", "float64", "float64", "bool")))


def _on_demand(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A zeroed array on an anonymous memory map, so that pages never
    written take no memory and every page goes back to the system with it."""
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(count * dtype.itemsize, 1)), dtype,
                         count).reshape(shape)


class RandomReplayBuffer:
    """FIFO ring of the most recent transitions, sampled uniformly.

    Arrays of `capacity` rows, allocated at the first push on demand-paged
    memory; logical row 0 is the oldest kept, and a push writes at most two
    slices per array.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rows: Transitions | None = None
        self._len = 0
        self._next = 0  # the physical row the next push writes first

    def push(self, batch: Transitions) -> None:
        cap, at = self.capacity, self._next
        if self._rows is None:
            self._rows = Transitions(*(_on_demand((cap, *getattr(batch, n).shape[1:]), dtype)
                                       for n, dtype in zip(_FIELDS, _DTYPES)))
        batch = batch[len(batch) - cap:] if len(batch) > cap else batch
        k = len(batch)
        head = min(k, cap - at)
        for name in _FIELDS:
            ring, new = getattr(self._rows, name), getattr(batch, name)
            ring[at:at + head] = new[:head]
            ring[:k - head] = new[head:]
        self._next = (at + k) % cap
        self._len = min(self._len + k, cap)

    def sample(self, k: int, rng: np.random.Generator) -> Transitions:
        if k > self._len:
            raise ValueError(f"cannot sample {k} from buffer of {self._len}")
        idx = rng.choice(self._len, size=k, replace=False)
        if self._len == self.capacity:  # the oldest row sits at _next
            idx = (idx + self._next) % self.capacity
        return self._rows[idx]

    def __len__(self) -> int:
        return self._len


class ReservoirReplayBuffer:
    """Uniform sample over every row ever pushed (algorithm R).

    Once full, row number N replaces a uniformly random slot with
    probability capacity / N, so each pushed row is retained with equal
    probability regardless of arrival position.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.seen = 0
        self._rows: Transitions | None = None

    def push(self, batch: Transitions, rng: np.random.Generator) -> None:
        """Offer the batch's rows in order; once full, row N draws `rng.integers(0, N)`.

        One call draws every row's slot: numpy draws an array of bounds as it
        would one scalar call per bound. A slot drawn twice keeps the later row.
        """
        held = len(self)
        fill = min(len(batch), self.capacity - held)  # rows appended while not full
        keep = np.arange(held + fill)  # indexes into the kept rows, then the batch
        bounds = np.arange(self.seen + fill + 1, self.seen + len(batch) + 1)
        self.seen += len(batch)
        if bounds.size:
            slots = rng.integers(0, bounds)
            drawing = np.arange(held + fill, held + len(batch))
            hit = slots < self.capacity
            # reversed, a slot's first index in np.unique is its last write
            slot, last = np.unique(slots[hit][::-1], return_index=True)
            keep[slot] = drawing[hit][::-1][last]
        rows = batch if self._rows is None else Transitions.concat([self._rows, batch])
        self._rows = rows[keep]

    def sample(self, k: int, rng: np.random.Generator) -> Transitions:
        if k > len(self):
            raise ValueError(f"cannot sample {k} from buffer of {len(self)}")
        return self._rows[rng.choice(len(self), size=k, replace=False)]

    def __len__(self) -> int:
        return 0 if self._rows is None else len(self._rows)
