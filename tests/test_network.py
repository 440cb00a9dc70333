import json

import numpy as np
import pytest

from reinfog.network import (
    AdamOptimizer,
    NetworkParams,
    PolicyFormatError,
    SgdOptimizer,
    dqn_loss_grads,
    dqn_target,
    dqn_update,
    forward,
    load_policy,
    make_optimizer,
    policy_from_doc,
    policy_to_doc,
    save_policy,
    sync_target,
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
    net = NetworkParams.glorot((2, 3, 2), rng=0)
    tgt = sync_target(net)
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, tgt.weights))
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
