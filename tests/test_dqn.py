import numpy as np
import pytest

from reinfog import dqn
from reinfog.distributed import replay_arrivals
from reinfog.dqn import DqnAgent, DqnConfig
from reinfog.explore import eps_greedy
from reinfog.network import forward
from reinfog.replay import RandomReplayBuffer, Transitions
from test_network import dqn_target


def make_agent(**over) -> DqnAgent:
    cfg = DqnConfig(hidden_sizes=(8, 8), **over)
    return DqnAgent(state_dim=4, n_actions=3, cfg=cfg, rng=np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        DqnConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        DqnConfig(discount=1.5)
    with pytest.raises(ValueError):
        DqnConfig(hidden_sizes=())
    for key, value in (("eps_start", 1.5), ("eps_start", float("nan")),
                       ("eps_end", -0.2), ("eps_end", float("nan")),
                       ("eps_decay_steps", -5), ("optimizer", "adamw"),
                       ("activation", "gelu")):
        with pytest.raises(ValueError, match=key):
            DqnConfig(**{key: value})
    DqnConfig(eps_start=0.0, eps_end=1.0, eps_decay_steps=0, optimizer="sgd",
              activation="tanh")


def test_epsilon_decays_with_decisions():
    agent = make_agent(eps_decay_steps=100)
    assert agent.epsilon == 1.0
    state = np.zeros(4)
    for _ in range(50):
        agent.act(state)
    assert agent.epsilon == pytest.approx(1.0 + (0.05 - 1.0) * 0.5)
    for _ in range(200):
        agent.act(state)
    assert agent.epsilon == 0.05


def batch(rng, n=16) -> Transitions:
    return Transitions(states=rng.normal(size=(n, 4)), actions=rng.integers(3, size=n),
                       rewards=rng.normal(size=n), next_states=rng.normal(size=(n, 4)),
                       done=rng.random(n) < 0.2)


def arrivals(sizes, seed=6) -> list[Transitions]:
    rng = np.random.default_rng(seed)
    return [batch(rng, n) for n in sizes]


def test_observe_updates_once_a_batch_is_buffered(monkeypatch):
    agent = make_agent(batch_size=8, buffer_capacity=64)
    assert agent.buffer._rows is None  # so a worker's agent, which never observes, holds no ring
    sampled = []
    train_step = DqnAgent.train_step
    monkeypatch.setattr(DqnAgent, "train_step",
                        lambda self, b: sampled.append(len(b)) or train_step(self, b))
    got = []  # (what observe returned, the train_steps it ran)
    for b in arrivals([3, 4, 1, 2, 20, 1]):
        before = len(sampled)
        got.append((agent.observe(b), len(sampled) - before))
    assert got == [(False, 0), (False, 0)] + [(True, 1)] * 4
    assert sampled == [8] * 4 and agent.updates == 4 and len(agent.buffer) == 31


def test_replay_arrivals_is_one_observe_per_arrival_bit_for_bit():
    cfg = DqnConfig(hidden_sizes=(8, 8), batch_size=8, buffer_capacity=16,
                    target_sync_interval=3)
    log = [("w0", seq, b) for seq, b in enumerate(arrivals([5, 3, 8, 1, 12, 2, 7]), 1)]
    updates, replayed = replay_arrivals(log, 4, 3, cfg, seed=9)
    agent = DqnAgent(4, 3, cfg, rng=9)
    assert updates == sum(agent.observe(b) for _, _, b in log) == 6
    # the rule written out: a ring of its own, sampled with the agent's generator
    ref, ring = DqnAgent(4, 3, cfg, rng=9), RandomReplayBuffer(cfg.buffer_capacity)
    for _, _, b in log:
        ring.push(b)
        if len(ring) >= cfg.batch_size:
            ref.train_step(ring.sample(cfg.batch_size, ref.rng))
    assert replayed.flat.tobytes() == agent.online.flat.tobytes() == ref.online.flat.tobytes()


def test_train_step_targets_match_scalar_rule():
    agent = make_agent()
    rng = np.random.default_rng(2)
    exps = batch(rng)
    next_q = forward(agent.target, exps.next_states).max(axis=1)
    want = np.array([
        dqn_target(float(r), agent.cfg.discount, float(q), bool(d))
        for r, q, d in zip(exps.rewards, next_q, exps.done)
    ])
    got = agent._targets_for(exps)
    assert np.allclose(got, want, rtol=0, atol=0)


def test_target_network_sync_schedule():
    agent = make_agent(target_sync_interval=5, optimizer="sgd")
    rng = np.random.default_rng(3)
    exps = batch(rng)
    for step in range(1, 11):
        agent.train_step(exps)
        synced = all(
            np.array_equal(a, b)
            for a, b in zip(agent.online.weights, agent.target.weights)
        )
        assert synced == (step % 5 == 0)


def test_set_online_replaces_policy_and_keeps_target():
    agent = make_agent()
    other = make_agent()
    other.online.weights[0][0, 0] = 123.0
    before_target = [w.copy() for w in agent.target.weights]
    agent.set_online(other.online)
    assert agent.online.weights[0][0, 0] == 123.0
    assert agent.online is not other.online
    assert all(np.array_equal(a, b)
               for a, b in zip(before_target, agent.target.weights))


def test_learns_trivial_bandit():
    # single state, gamma 0, rewards fixed per action: greedy should
    # recover the best arm after a few hundred updates
    cfg = DqnConfig(hidden_sizes=(16,), learning_rate=0.05, discount=0.0,
                    eps_decay_steps=1, target_sync_interval=10, optimizer="adam")
    agent = DqnAgent(state_dim=2, n_actions=3, cfg=cfg, rng=np.random.default_rng(4))
    rewards = [0.0, 1.0, 0.2]
    state = (0.5, -0.5)
    rng = np.random.default_rng(5)
    pool = Transitions(np.array([state] * 3), np.arange(3), np.array(rewards),
                       np.array([state] * 3), np.ones(3, dtype=bool))
    for _ in range(300):
        agent.train_step(pool[[int(rng.integers(3)) for _ in range(8)]])
    q = forward(agent.online, np.array(state))
    assert int(np.argmax(q)) == 1
    assert np.allclose(q, rewards, atol=0.15)


@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
def test_act_computes_q_only_when_it_exploits(monkeypatch, epsilon):
    cfg = DqnConfig(hidden_sizes=(8, 8), eps_start=epsilon, eps_end=epsilon)
    agent = DqnAgent(state_dim=4, n_actions=3, cfg=cfg, rng=0)
    states = np.random.default_rng(1).normal(size=(500, 4))
    ref_rng = np.random.default_rng(2)
    want = [eps_greedy(forward(agent.online, s), epsilon, ref_rng) for s in states]
    # the greedy branch is taken when a decision's first uniform is >= epsilon
    probe = np.random.default_rng(2)
    greedy = 0
    for _ in states:
        if probe.random() < epsilon:
            probe.integers(0, 3)
        else:
            greedy += 1
    calls = 0

    def counting_forward(params, x):
        nonlocal calls
        calls += 1
        return forward(params, x)

    monkeypatch.setattr(dqn, "forward", counting_forward)
    rng = np.random.default_rng(2)
    assert [agent.act(s, rng) for s in states] == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert probe.bit_generator.state == ref_rng.bit_generator.state
    assert calls == greedy
    assert greedy == {0.0: 500, 1.0: 0}.get(epsilon, greedy)
    assert epsilon != 0.5 or 150 < greedy < 350  # both branches exercised
