import numpy as np
import pytest

from reinfog import dqn
from reinfog.dqn import DqnAgent, DqnConfig
from reinfog.explore import eps_greedy
from reinfog.network import forward
from reinfog.replay import Transitions
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


def test_greedy_matches_online_argmax():
    agent = make_agent()
    state = np.random.default_rng(1).normal(size=4)
    q = forward(agent.online, state)
    assert agent.greedy(state) == int(np.argmax(q))


def batch(rng, n=16) -> Transitions:
    return Transitions(states=rng.normal(size=(n, 4)), actions=rng.integers(3, size=n),
                       rewards=rng.normal(size=n), next_states=rng.normal(size=(n, 4)),
                       done=rng.random(n) < 0.2)


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
    assert agent.greedy(np.array(state)) == 1
    q = forward(agent.online, np.array(state))
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
