"""Exploration helpers: epsilon-greedy action choice and Ornstein-Uhlenbeck noise."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


def epsilon_at(step: int, start: float = 1.0, end: float = 0.05,
               decay_steps: int = 5000) -> float:
    """Linear decay from start to end over decay_steps decisions, then flat."""
    if step < 0:
        raise ValueError("step must be non-negative")
    if decay_steps <= 0 or step >= decay_steps:
        return end
    return start + (end - start) * (step / decay_steps)


def eps_greedy(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Random action with probability epsilon, else argmax (ties: lowest index)."""
    return eps_greedy_lazy(lambda: q_values, len(q_values), epsilon, rng)


def eps_greedy_lazy(q_of: Callable[[], np.ndarray], n_actions: int, epsilon: float,
                    rng: np.random.Generator) -> int:
    """eps_greedy over n_actions that calls q_of() for the Q-values only when
    it exploits. The uniform is drawn first either way, so the draws match."""
    if rng.random() < epsilon:
        return int(rng.integers(0, n_actions))
    return int(np.argmax(q_of()))


@dataclass(frozen=True)
class OuNoiseState:
    x: np.ndarray
    mu: float = 0.0
    theta: float = 0.15
    sigma: float = 0.2
    dt: float = 1.0

    @classmethod
    def initial(cls, dim: int, mu: float = 0.0, theta: float = 0.15,
                sigma: float = 0.2, dt: float = 1.0) -> "OuNoiseState":
        return cls(np.full(dim, mu, dtype=float), mu, theta, sigma, dt)


def ou_step(state: OuNoiseState, rng: np.random.Generator) -> tuple[OuNoiseState, np.ndarray]:
    """One mean-reverting step; returns the new state and the noise sample."""
    z = rng.standard_normal(state.x.shape)
    x = state.x + state.theta * (state.mu - state.x) * state.dt \
        + state.sigma * np.sqrt(state.dt) * z
    new_state = replace(state, x=x)
    return new_state, x.copy()
