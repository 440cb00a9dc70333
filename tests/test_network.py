import json
import pickle

import numpy as np
import pytest

from reinfog.network import (
    AdamOptimizer,
    NetworkParams,
    PolicyFormatError,
    SgdOptimizer,
    dqn_loss_grads,
    dqn_update,
    forward,
    load_policy,
    make_optimizer,
    policy_from_doc,
    policy_to_doc,
    save_policy,
)


def hand_net(activation="relu") -> NetworkParams:
    return NetworkParams(
        (2, 2, 1),
        weights=[np.array([[1.0, -2.0], [0.5, 1.0]]), np.array([[2.0], [-1.0]])],
        biases=[np.array([0.25, -0.5]), np.array([0.75])],
        activation=activation,
    )


def test_forward_hand_computed_relu():
    # z = [2.25, -0.5] -> relu [2.25, 0] -> 2.25*2 + 0.75 = 5.25
    out = forward(hand_net(), np.array([1.0, 2.0]))
    assert out.shape == (1,)
    assert out[0] == 5.25


def test_forward_hand_computed_tanh():
    out = forward(hand_net("tanh"), np.array([1.0, 2.0]))
    expected = 2.0 * np.tanh(2.25) - np.tanh(-0.5) + 0.75
    assert out[0] == pytest.approx(expected, rel=1e-15)


def test_forward_identity_relu_clamps():
    net = NetworkParams((1, 1, 1),
                        weights=[np.array([[1.0]]), np.array([[1.0]])],
                        biases=[np.zeros(1), np.zeros(1)])
    assert forward(net, np.array([-5.0]))[0] == 0.0
    assert forward(net, np.array([3.0]))[0] == 3.0


def test_forward_batch_matches_single():
    rng = np.random.default_rng(0)
    net = NetworkParams.glorot((4, 8, 3), "tanh", rng)
    batch = rng.normal(size=(5, 4))
    outs = forward(net, batch)
    assert outs.shape == (5, 3)
    # gemm vs gemv rounding may differ in the last bit, so not exact-equal
    for i in range(5):
        assert np.allclose(outs[i], forward(net, batch[i]), rtol=1e-12, atol=1e-15)


def _forward_reference(params, x):
    """forward as it was: a single state lifted to a 1-row batch and read back."""
    single = np.ndim(x) == 1
    a = np.atleast_2d(np.asarray(x, dtype=float))
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = z if l == last else (np.maximum(z, 0.0) if params.activation == "relu"
                                 else np.tanh(z))
    return a[0] if single else a


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("sizes", [(52, 64, 64, 32, 16), (13, 64, 64, 32, 3), (4, 3),
                                   (7, 1, 5), (30, 200, 50, 10)])
def test_forward_on_one_state_equals_a_one_row_batch_bit_for_bit(sizes, activation):
    rng = np.random.default_rng([len(sizes), sizes[0]])
    net = NetworkParams.glorot(sizes, activation, rng)
    net.flat += rng.normal(scale=0.1, size=net.flat.shape)  # biases off zero
    states = rng.random((1000, sizes[0]))
    for x in states:
        kept = x.tobytes()
        out = forward(net, x)
        assert out.shape == (sizes[-1],)
        assert out.tobytes() == forward(net, x[None, :])[0].tobytes()
        assert out.tobytes() == _forward_reference(net, x).tobytes()
        assert x.tobytes() == kept
    assert forward(net, states).tobytes() == _forward_reference(net, states).tobytes()


def _forward_at_operator(params, x):
    """forward written with `@`: `forward` uses `ndarray.dot`, which must give its bits."""
    a = np.asarray(x, dtype=float)
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w + b
        if l != last:
            a = np.maximum(a, 0.0) if params.activation == "relu" else np.tanh(a)
    return a


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("sizes", [(52, 64, 64, 32, 16), (13, 64, 64, 32, 3)])
def test_forward_dot_equals_the_at_operator_bit_for_bit(sizes, activation):
    rng = np.random.default_rng([7, sizes[0]])
    net = NetworkParams.glorot(sizes, activation, rng)
    net.flat += rng.normal(scale=0.1, size=net.flat.shape)  # biases off zero
    states = rng.random((4096, sizes[0]))
    for x in states:
        assert forward(net, x).tobytes() == _forward_at_operator(net, x).tobytes()
    for batch in states.reshape(64, 64, sizes[0]):
        assert forward(net, batch).tobytes() == _forward_at_operator(net, batch).tobytes()


def test_glorot_bounds_and_seeding():
    net = NetworkParams.glorot((10, 20, 5), rng=7)
    for l, w in enumerate(net.weights):
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
    assert all(np.all(b == 0.0) for b in net.biases)
    again = NetworkParams.glorot((10, 20, 5), rng=7)
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, again.weights))


def test_params_validation():
    with pytest.raises(ValueError):
        NetworkParams((3,), [], [])
    with pytest.raises(ValueError):
        NetworkParams((2, 2), [np.zeros((3, 2))], [np.zeros(2)])
    with pytest.raises(ValueError):
        NetworkParams.glorot((2, 2), activation="sigmoid")


def numeric_grad(net, states, actions, targets, tensor, i, j=None, h=1e-6):
    old = tensor[i, j] if tensor.ndim == 2 else tensor[i]
    def loss_at(v):
        if tensor.ndim == 2:
            tensor[i, j] = v
        else:
            tensor[i] = v
        loss, _, _ = dqn_loss_grads(net, states, actions, targets)
        return loss
    lo = loss_at(old - h)
    hi = loss_at(old + h)
    loss_at(old)
    return (hi - lo) / (2 * h)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(3)
    net = NetworkParams.glorot((3, 5, 4, 2), activation, rng)
    states = rng.normal(size=(6, 3))
    actions = rng.integers(0, 2, size=6)
    targets = rng.normal(size=6)
    _, grads_w, grads_b = dqn_loss_grads(net, states, actions, targets)
    for _ in range(30):
        l = int(rng.integers(0, len(net.weights)))
        if rng.random() < 0.8:
            w = net.weights[l]
            i, j = int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1]))
            num = numeric_grad(net, states, actions, targets, w, i, j)
            ana = grads_w[l][i, j]
        else:
            b = net.biases[l]
            i = int(rng.integers(len(b)))
            num = numeric_grad(net, states, actions, targets, b, i)
            ana = grads_b[l][i]
        denom = max(abs(num) + abs(ana), 1e-8)
        assert abs(num - ana) / denom <= 1e-4


def dqn_target(reward: float, discount: float, next_q_max: float, done: bool) -> float:
    """Bootstrap target: reward alone on terminal transitions. The scalar
    oracle for `DqnAgent._targets_for`, which applies it elementwise."""
    return reward if done else reward + discount * next_q_max


def test_dqn_target_cases():
    assert dqn_target(2.0, 0.99, 10.0, done=True) == 2.0
    assert dqn_target(2.0, 0.5, 10.0, done=False) == 7.0


def test_update_noop_when_targets_equal_predictions():
    rng = np.random.default_rng(1)
    for opt in (SgdOptimizer(0.1), AdamOptimizer(0.1)):
        net = NetworkParams.glorot((3, 4, 2), "tanh", rng)
        states = rng.normal(size=(4, 3))
        actions = np.array([0, 1, 0, 1])
        targets = forward(net, states)[np.arange(4), actions]
        before = [w.copy() for w in net.weights]
        loss = dqn_update(net, states, actions, targets, opt)
        assert loss == 0.0
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))


def test_loss_decreases_on_fixed_batch():
    rng = np.random.default_rng(2)
    net = NetworkParams.glorot((3, 8, 2), "tanh", rng)
    states = rng.normal(size=(8, 3))
    actions = rng.integers(0, 2, size=8)
    targets = rng.normal(size=8)
    opt = SgdOptimizer(0.05)
    losses = [dqn_update(net, states, actions, targets, opt) for _ in range(60)]
    assert losses[-1] < losses[0] * 0.5
    assert all(l >= 0.0 for l in losses)


def test_sync_target_is_deep_copy():
    from reinfog.dqn import DqnAgent, DqnConfig
    from reinfog.replay import Transitions

    agent = DqnAgent(4, 3, DqnConfig(hidden_sizes=(5,), target_sync_interval=1), rng=0)
    rng = np.random.default_rng(3)
    agent.train_step(Transitions(rng.normal(size=(8, 4)), rng.integers(3, size=8),
                                 rng.normal(size=8), rng.normal(size=(8, 4)),
                                 np.zeros(8, dtype=bool)))
    net, tgt = agent.online, agent.target
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, tgt.weights))
    assert not np.shares_memory(tgt.flat, net.flat)
    net.weights[0][0, 0] += 1.0
    assert tgt.weights[0][0, 0] != net.weights[0][0, 0]


def test_policy_round_trip_bit_identical(tmp_path):
    net = NetworkParams.glorot((4, 6, 3), "tanh", rng=11)
    path = tmp_path / "p.json"
    save_policy(net, str(path), metadata={"episodes": 12})
    loaded, meta = load_policy(str(path))
    assert loaded.layer_sizes == net.layer_sizes
    assert loaded.activation == "tanh"
    assert meta == {"episodes": 12}
    for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)


def test_policy_version_and_corruption_errors(tmp_path):
    net = NetworkParams.glorot((2, 2), rng=0)
    doc = policy_to_doc(net)
    doc["version"] = "999"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(PolicyFormatError):
        load_policy(str(bad))
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"version": "1", "layer_')
    with pytest.raises(PolicyFormatError):
        load_policy(str(trunc))
    with pytest.raises(PolicyFormatError):
        policy_from_doc({"version": "1", "layer_sizes": [2, 2], "weights": [[[1.0]]],
                         "biases": [[0.0]], "activation": "relu"})


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", 0.1)


@pytest.mark.parametrize("where, value", [
    ("weights", np.inf), ("weights", -np.inf), ("biases", np.nan)])
def test_policy_with_non_finite_values_rejected(tmp_path, where, value):
    net = NetworkParams.glorot((3, 4, 2), rng=0)
    getattr(net, where)[1][0] = value
    path = tmp_path / "p.json"
    save_policy(net, str(path))
    with pytest.raises(PolicyFormatError, match="must be finite"):
        load_policy(str(path))


# -- one flat parameter buffer ---------------------------------------------------


def assert_views_of_flat(net: NetworkParams) -> None:
    views = list(net.weights) + list(net.biases)
    assert sum(v.size for v in views) == net.flat.size
    for v in views:
        assert v.base is net.flat
        assert np.shares_memory(v, net.flat)


def test_every_constructor_binds_views_into_flat():
    from reinfog.dqn import DqnAgent, DqnConfig

    net = NetworkParams.glorot((4, 6, 5, 3), "tanh", rng=3)
    loaded, _ = policy_from_doc(json.loads(json.dumps(policy_to_doc(net))))
    agent = DqnAgent(4, 3, DqnConfig(hidden_sizes=(6, 5)), rng=0)
    agent.set_online(net)
    unpacked = NetworkParams.from_flat(net.layer_sizes, net.flat, "tanh")
    for made in (net, hand_net(), net.copy(), loaded,
                 pickle.loads(pickle.dumps(net)), agent.online, agent.target, unpacked):
        assert_views_of_flat(made)
        assert made.flat.ndim == 1 and made.flat.flags.c_contiguous
    for made in (net.copy(), loaded, pickle.loads(pickle.dumps(net)), agent.online,
                 unpacked):
        assert made.flat.tobytes() == net.flat.tobytes()


def test_write_through_a_view_shows_in_flat():
    net = hand_net()
    assert net.flat.tolist() == [1.0, -2.0, 0.5, 1.0, 0.25, -0.5, 2.0, -1.0, 0.75]
    net.weights[1][1, 0] = 9.0
    net.biases[0][1] += 1.0
    assert net.flat[7] == 9.0 and net.flat[5] == 0.5
    net.flat[0] = -3.0
    assert net.weights[0][0, 0] == -3.0


def test_copies_share_no_memory_with_their_source():
    net = NetworkParams.glorot((3, 4, 2), rng=1)
    for other in (net.copy(), pickle.loads(pickle.dumps(net)),
                  NetworkParams.from_flat(net.layer_sizes, net.flat)):
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, other.weights))
        assert not np.shares_memory(other.flat, net.flat)
        other.flat += 1.0
        assert not np.array_equal(other.flat, net.flat)


def test_equality_is_by_sizes_activation_and_bytes():
    net = NetworkParams.glorot((3, 4, 2), rng=0)
    assert net == net.copy() == pickle.loads(pickle.dumps(net))
    assert net != NetworkParams.glorot((3, 4, 2), rng=1)
    assert net != NetworkParams(net.layer_sizes, net.weights, net.biases, "tanh")
    for byte in (0, 40, net.flat.nbytes - 1):
        flipped = net.copy()
        flipped.flat.view(np.uint8)[byte] ^= 1
        assert net != flipped
    zero, negative_zero = hand_net(), hand_net()
    zero.biases[-1][0], negative_zero.biases[-1][0] = 0.0, -0.0
    assert np.array_equal(zero.flat, negative_zero.flat) and zero != negative_zero


def test_optimizer_step_on_unpickled_copy_changes_forward():
    rng = np.random.default_rng(4)
    net = pickle.loads(pickle.dumps(NetworkParams.glorot((3, 5, 2), "relu", rng)))
    states = rng.normal(size=(6, 3))
    before = forward(net, states)
    dqn_update(net, states, np.array([0, 1, 0, 1, 1, 0]), rng.normal(size=6),
               AdamOptimizer(0.05))
    assert not np.array_equal(forward(net, states), before)


class PerTensorAdam:
    """The per-tensor Adam step the flat one replaces, as a reference."""

    def __init__(self, learning_rate, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = learning_rate, b1, b2, eps
        self.t, self.ms, self.vs = 0, None, None

    def step(self, params, grads_w, grads_b):
        tensors = list(params.weights) + list(params.biases)
        if self.ms is None:
            self.ms = [np.zeros_like(a) for a in tensors]
            self.vs = [np.zeros_like(a) for a in tensors]
        self.t += 1
        b1, b2 = self.b1, self.b2
        for i, (tensor, g) in enumerate(zip(tensors, list(grads_w) + list(grads_b))):
            self.ms[i] = b1 * self.ms[i] + (1 - b1) * g
            self.vs[i] = b2 * self.vs[i] + (1 - b2) * g * g
            m_hat = self.ms[i] / (1 - b1 ** self.t)
            v_hat = self.vs[i] / (1 - b2 ** self.t)
            tensor -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_flat_optimizers_match_per_tensor_steps_bit_for_bit():
    rng = np.random.default_rng(6)
    net = NetworkParams.glorot((5, 7, 6, 3), "tanh", rng)
    adam_net, sgd_net, ref_adam, ref_sgd = net.copy(), net.copy(), net.copy(), net.copy()
    adam, sgd, reference = AdamOptimizer(0.01), SgdOptimizer(0.05), PerTensorAdam(0.01)
    for _ in range(5):
        states = rng.normal(size=(8, 5))
        actions = rng.integers(0, 3, size=8)
        targets = rng.normal(size=8)
        for opt, stepped in ((adam, adam_net), (sgd, sgd_net), (reference, ref_adam)):
            _, gw, gb = dqn_loss_grads(stepped, states, actions, targets)
            opt.step(stepped, gw, gb)
        _, gw, gb = dqn_loss_grads(ref_sgd, states, actions, targets)
        for w, b, g_w, g_b in zip(ref_sgd.weights, ref_sgd.biases, gw, gb):
            w -= 0.05 * g_w
            b -= 0.05 * g_b
        assert adam_net.flat.tobytes() == ref_adam.flat.tobytes()
        assert sgd_net.flat.tobytes() == ref_sgd.flat.tobytes()
