"""DQN agent tying together replay, the network, target bootstrapping, and exploration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .explore import eps_greedy_lazy, epsilon_at
from .network import (
    ACTIVATIONS,
    OPTIMIZERS,
    NetworkParams,
    dqn_update,
    forward,
    make_optimizer,
)
from .replay import RandomReplayBuffer, Transitions


@dataclass
class DqnConfig:
    hidden_sizes: tuple[int, ...] = (64, 64, 32)
    activation: str = "relu"
    learning_rate: float = 0.01
    discount: float = 0.99
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 5000
    buffer_capacity: int = 10000
    batch_size: int = 32
    target_sync_interval: int = 100  # updates between target refreshes
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be a non-empty tuple of positive ints")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ValueError("buffer must hold at least one batch")
        if self.target_sync_interval < 1:
            raise ValueError("target_sync_interval must be positive")
        for name in ("eps_start", "eps_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails too
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.eps_decay_steps < 0:
            raise ValueError("eps_decay_steps must be non-negative")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}: one of {OPTIMIZERS}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}: one of {ACTIVATIONS}")


class DqnAgent:
    """Online/target network pair with epsilon-greedy acting, and a replay
    ring, allocated at its first push, that feeds MSE updates."""

    def __init__(self, state_dim: int, n_actions: int, cfg: DqnConfig | None = None,
                 rng: np.random.Generator | int | None = None) -> None:
        self.cfg = cfg or DqnConfig()
        self.rng = np.random.default_rng(rng)
        sizes = (state_dim, *self.cfg.hidden_sizes, n_actions)
        self.online = NetworkParams.glorot(sizes, self.cfg.activation, self.rng)
        self.target = self.online.copy()
        self.buffer = RandomReplayBuffer(self.cfg.buffer_capacity)
        self.optimizer = make_optimizer(self.cfg.optimizer, self.cfg.learning_rate)
        self.n_actions = n_actions
        self.decisions = 0
        self.updates = 0

    @property
    def epsilon(self) -> float:
        return epsilon_at(self.decisions, self.cfg.eps_start, self.cfg.eps_end,
                          self.cfg.eps_decay_steps)

    def act(self, state: np.ndarray, rng: np.random.Generator | None = None) -> int:
        """Epsilon-greedy decision; advances the decay schedule. The forward
        pass runs only when the decision exploits."""
        gen = rng if rng is not None else self.rng
        action = eps_greedy_lazy(lambda: forward(self.online, state),
                                 self.online.layer_sizes[-1], self.epsilon, gen)
        self.decisions += 1
        return action

    def set_online(self, params: NetworkParams) -> None:
        """Swap in externally trained parameters (distributed policy sync)."""
        self.online = params.copy()

    def _targets_for(self, batch: Transitions) -> np.ndarray:
        next_q = forward(self.target, batch.next_states).max(axis=1)
        # bootstrap target elementwise: reward alone when the transition is terminal
        return batch.rewards + self.cfg.discount * next_q * (~batch.done)

    def train_step(self, batch: Transitions) -> float:
        """One DQN update on a sampled batch; refreshes the target on schedule."""
        targets = self._targets_for(batch)
        loss = dqn_update(self.online, batch.states, batch.actions, targets,
                          self.optimizer)
        self.updates += 1
        if self.updates % self.cfg.target_sync_interval == 0:
            self.target = self.online.copy()
        return loss

    def observe(self, batch: Transitions) -> bool:
        """Push one arrival, then, once a batch is held, run one update on a
        batch sampled with `rng`; True if it did."""
        self.buffer.push(batch)
        if len(self.buffer) < self.cfg.batch_size:
            return False
        self.train_step(self.buffer.sample(self.cfg.batch_size, self.rng))
        return True
