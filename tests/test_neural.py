"""Network kernel: Glorot init, forward/backward against finite
differences, the adaptive-moment optimizer, and the softmax policy head."""

from bisect import bisect_left

import numpy as np
import pytest

from motorgame.errors import ContractViolationError, TrainingDivergedError
from motorgame.kvtext import format_array, parse_array
from motorgame.neural import (
    AdamState,
    Categorical,
    MlpParams,
    adam_step,
    backward,
    clip_grad_norm,
    forward,
    init,
)


def _net(sizes, *tensors):
    """A net of ``sizes`` whose tensors (W0, b0, W1, b1, ...) are filled in
    place from ``tensors``; the rest stay zero."""
    params = MlpParams(sizes)
    for view, t in zip(params.tensors(), tensors):
        view[...] = t
    return params


# --- init -------------------------------------------------------------------------


def test_init_deterministic():
    a = init((11, 64, 64, 6), seed=3)
    b = init((11, 64, 64, 6), seed=3)
    for x, y in zip(a.tensors(), b.tensors()):
        assert np.array_equal(x, y)


def test_init_seed_sensitivity():
    a = init((11, 64, 64, 6), seed=3)
    b = init((11, 64, 64, 6), seed=4)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_init_zero_biases_and_glorot_bound():
    params = init((11, 64, 64, 6), seed=0)
    for b in params.biases:
        assert np.all(b == 0.0)
    assert np.abs(params.weights[0]).max() < 0.282842712474619  # sqrt(6/75)
    for w, (fan_in, fan_out) in zip(params.weights,
                                    zip(params.sizes[:-1], params.sizes[1:])):
        assert w.shape == (fan_in, fan_out)
        assert np.abs(w).max() < np.sqrt(6.0 / (fan_in + fan_out))


def test_init_rejects_bad_sizes():
    with pytest.raises(ContractViolationError):
        init((11,), seed=0)
    with pytest.raises(ContractViolationError):
        init((11, 0, 6), seed=0)


def test_params_copy_into_one_flat_vector_and_check_shapes():
    params = MlpParams((2, 3, 1))
    assert [t.shape for t in params.tensors()] == [(2, 3), (3,), (3, 1), (1,)]
    assert params.flat.tolist() == [0.0] * 13
    for t in params.tensors():
        assert np.shares_memory(t, params.flat) and t.flags.c_contiguous
    w0 = np.arange(6.0).reshape(2, 3)
    params = _net((2, 3, 1), w0, [6.0, 7.0, 8.0], [[9.0], [10.0], [11.0]], [12.0])
    assert params.flat.tolist() == list(np.arange(13.0))  # W0, b0, W1, b1
    params.flat[:] = 0.0
    assert w0[0, 1] == 1.0 and params.weights[0][0, 1] == 0.0
    with pytest.raises(ContractViolationError):  # sizes shorter than 2
        MlpParams((2,))
    with pytest.raises(ContractViolationError):  # an empty layer
        MlpParams((2, 0, 1))


# --- forward ----------------------------------------------------------------------


def test_forward_all_zero_params():
    out, _ = forward(MlpParams((11, 64, 64, 6)), np.ones((1, 11)))
    assert np.all(out == 0.0)
    assert out.shape == (1, 6)


def test_forward_output_bias_passthrough():
    params = MlpParams((2, 3, 2))
    params.biases[-1][:] = (0.7, -0.3)
    out, _ = forward(params, np.array([[5.0, -1.0]]))
    assert out.tolist() == [[0.7, -0.3]]


def test_forward_one_unit_toy_net():
    params = _net((1, 1, 1), [[1.0]], [0.0], [[1.0]], [0.0])
    out, cache = forward(params, np.array([[0.5]]))
    assert out[0, 0] == pytest.approx(0.46211715726000974, abs=1e-15)  # tanh(0.5)
    assert cache[1][0, 0] == out[0, 0]  # identity output layer


def test_forward_batch_matches_single_rows():
    params = init((4, 8, 3), seed=1)
    batch = np.random.default_rng(2).normal(size=(5, 4))
    out_batch, _ = forward(params, batch)
    assert out_batch.shape == (5, 3)
    for row, x in zip(out_batch, batch):
        single, _ = forward(params, x[None])
        # batched and one-row matmuls may differ in the last bit
        assert np.allclose(row, single[0], rtol=1e-13, atol=1e-15)


def test_forward_leaves_its_input_unchanged():
    params = init((11, 64, 64, 6), seed=2)
    x = np.random.default_rng(3).normal(size=(9, 11))
    kept = x.copy()
    out, cache = forward(params, x)
    assert np.array_equal(x, kept)
    assert cache[0] is x  # the cache holds the input itself, unwritten
    assert all(a is not x for a in cache[1:] + [out])


def test_forward_dimension_mismatch():
    with pytest.raises(ContractViolationError):
        forward(init((4, 8, 3), seed=0), np.ones((1, 5)))


def test_kernel_takes_batches_only():
    params = init((4, 8, 3), seed=0)
    with pytest.raises(ContractViolationError):
        forward(params, np.ones(4))
    _, cache = forward(params, np.ones((1, 4)))
    with pytest.raises(ContractViolationError):
        backward(params, cache, np.zeros(3), MlpParams(params.sizes))
    with pytest.raises(ContractViolationError):
        Categorical(np.zeros(6))


# --- backward ---------------------------------------------------------------------


def test_backward_zero_output_grad():
    params = init((3, 5, 2), seed=0)
    _, cache = forward(params, np.ones((1, 3)))
    grads = backward(params, cache, np.zeros((1, 2)), MlpParams(params.sizes))
    for g in grads.tensors():
        assert np.all(g == 0.0)


def test_backward_linear_case():
    # single-layer net y = w*x: loss y at x = 2 gives dw = 2
    params = MlpParams((1, 1))
    params.weights[0][0, 0] = 3.0
    _, cache = forward(params, np.array([[2.0]]))
    grads = backward(params, cache, np.array([[1.0]]), MlpParams(params.sizes))
    assert grads.weights[0][0, 0] == 2.0
    assert grads.biases[0][0] == 1.0


def test_backward_matches_finite_differences():
    """Analytic reverse-mode vs central differences, 20 random draws."""
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for draw in range(20):
        params = init((3, 5, 4, 2), seed=100 + draw)
        x = rng.normal(size=(1, 3))
        out_grad = rng.normal(size=(1, 2))

        def loss():
            out, _ = forward(params, x)
            return float(np.sum(out * out_grad))

        _, cache = forward(params, x)
        analytic = backward(params, cache, out_grad, MlpParams(params.sizes))
        for tensor, grad in zip(params.tensors(), analytic.tensors()):
            flat_t, flat_g = tensor.ravel(), grad.ravel()
            for idx in range(flat_t.size):
                keep = flat_t[idx]
                flat_t[idx] = keep + h
                up = loss()
                flat_t[idx] = keep - h
                down = loss()
                flat_t[idx] = keep
                fd = (up - down) / (2 * h)
                err = abs(flat_g[idx] - fd) / max(abs(flat_g[idx]), abs(fd), 1e-6)
                worst = max(worst, err)
    assert worst < 1e-4


def test_backward_batched_sums_rows():
    params = init((3, 4, 2), seed=9)
    batch = np.random.default_rng(0).normal(size=(6, 3))
    grad = np.random.default_rng(1).normal(size=(6, 2))
    _, cache = forward(params, batch)
    combined = backward(params, cache, grad, MlpParams(params.sizes))
    summed = [np.zeros_like(t) for t in combined.tensors()]
    for x, g in zip(batch, grad):
        _, c = forward(params, x[None])
        part = backward(params, c, g[None], MlpParams(params.sizes))
        for acc, t in zip(summed, part.tensors()):
            acc += t
    for got, want in zip(combined.tensors(), summed):
        assert np.allclose(got, want, atol=1e-12)


def test_backward_cache_mismatch():
    params = init((3, 5, 2), seed=0)
    other = init((3, 7, 2), seed=0)
    _, cache = forward(params, np.ones((1, 3)))
    with pytest.raises(ContractViolationError):
        backward(other, cache, np.zeros((1, 2)), MlpParams(other.sizes))
    with pytest.raises(ContractViolationError):
        backward(params, cache, np.zeros((1, 3)), MlpParams(params.sizes))
    with pytest.raises(ContractViolationError):
        backward(params, cache, np.zeros((1, 2)), MlpParams(other.sizes))


def test_backward_overwrites_its_buffer():
    """A reused buffer holds only the latest call's gradients: a NaN-filled
    one gives exactly what a fresh one does."""
    params = init((11, 64, 64, 6), seed=4)
    rng = np.random.default_rng(5)
    _, cache = forward(params, rng.normal(size=(37, 11)))
    out_grad = rng.normal(size=(37, 6))
    fresh = backward(params, cache, out_grad, MlpParams(params.sizes))
    stale = MlpParams(params.sizes)
    stale.flat.fill(np.nan)
    assert backward(params, cache, out_grad, stale) is stale
    assert np.array_equal(stale.flat, fresh.flat)


# --- adam -------------------------------------------------------------------------


def _scalar(value=0.0):
    """A 1-1 net (or its gradient) with weight ``value`` and bias 0."""
    return _net((1, 1), [[value]])


def test_adam_zero_grad_noop():
    params = init((3, 4, 2), seed=1)
    before = [t.copy() for t in params.tensors()]
    state = AdamState.for_params(params)
    adam_step(params, MlpParams(params.sizes), state, 0.01)
    assert state.step == 1
    for t, b in zip(params.tensors(), before):
        assert np.array_equal(t, b)


def test_adam_first_step_value():
    params = _scalar(0.0)
    state = AdamState.for_params(params)
    adam_step(params, _scalar(0.25), state, 0.001)
    # bias-corrected first step: -lr * g / (|g| + eps)
    assert params.weights[0][0, 0] == -0.0009999999600000017


def test_adam_first_step_sign_and_magnitude():
    rng = np.random.default_rng(4)
    params = init((3, 4, 2), seed=2)
    before = [t.copy() for t in params.tensors()]
    grads = _net(params.sizes, *(rng.normal(size=t.shape) for t in params.tensors()))
    state = AdamState.for_params(params)
    adam_step(params, grads, state, 0.01)
    for t, b, g in zip(params.tensors(), before, grads.tensors()):
        delta = t - b
        assert np.all(np.sign(delta) == -np.sign(g))
        assert np.all(np.abs(delta) < 0.01 + 1e-15)


def test_adam_deterministic():
    runs = []
    for _ in range(2):
        params = _scalar(1.0)
        state = AdamState.for_params(params)
        for _ in range(5):
            adam_step(params, _scalar(0.3), state, 0.01)
        runs.append(params.weights[0][0, 0])
    assert runs[0] == runs[1]


def test_adam_rejects_non_finite():
    params = _scalar()
    state = AdamState.for_params(params)
    with pytest.raises(TrainingDivergedError):
        adam_step(params, _scalar(np.nan), state, 0.01)


def test_adam_rejects_shape_mismatch():
    params = init((3, 4, 2), seed=0)
    state = AdamState.for_params(params)
    with pytest.raises(ContractViolationError):
        adam_step(params, _scalar(0.1), state, 0.01)


# --- gradient clipping -------------------------------------------------------------


def test_clip_grad_norm_scales_down():
    grads = _net((1, 1), [[3.0]], [4.0])
    assert clip_grad_norm(grads, 0.5) == 5.0
    assert grads.weights[0][0, 0] == pytest.approx(0.3)
    assert grads.biases[0][0] == pytest.approx(0.4)


def test_clip_grad_norm_leaves_small_grads():
    grads = _net((1, 1), [[0.3]], [0.4])
    norm = clip_grad_norm(grads, 0.5)
    assert norm == 0.5
    assert grads.weights[0][0, 0] == 0.3


def _per_tensor_clip_and_adam(tensors, grads, m, v, step, learning_rate,
                              max_norm, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: the per-tensor clip and Adam formulas, one list entry per
    W/b array, as the kernel computed them before the flat layout."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > max_norm and total > 0.0:
        for g in grads:
            g *= max_norm / total
    b1c = 1.0 - beta1 ** step
    b2c = 1.0 - beta2 ** step
    for t, g, mt, vt in zip(tensors, grads, m, v):
        mt *= beta1
        mt += (1.0 - beta1) * g
        vt *= beta2
        vt += (1.0 - beta2) * g * g
        t -= learning_rate * (mt / b1c) / (np.sqrt(vt / b2c) + eps)
    return total


# The 11-64-64-6 actor's tensors run past 128 elements, where numpy's
# pairwise summation recurses; the small net's never do.  small_scale
# keeps the even steps' gradients under the clip on either net.
@pytest.mark.parametrize("sizes,small_scale", [((5, 7, 6, 3), 0.01),
                                               ((11, 64, 64, 6), 0.001)],
                         ids=["5-7-6-3", "11-64-64-6"])
def test_flat_clip_and_adam_bitwise_match_per_tensor_reference(sizes, small_scale):
    rng = np.random.default_rng(11)
    params = init(sizes, seed=12)
    state = AdamState.for_params(params)
    ref = [t.copy() for t in params.tensors()]
    ref_m = [np.zeros_like(t) for t in ref]
    ref_v = [np.zeros_like(t) for t in ref]
    clipped = 0
    for step in range(1, 7):
        raw = [rng.normal(size=t.shape) * (10.0 if step % 2 else small_scale)
               for t in ref]
        grads = _net(params.sizes, *raw)
        norm = clip_grad_norm(grads, 0.5)
        adam_step(params, grads, state, 0.01)
        want = _per_tensor_clip_and_adam(ref, raw, ref_m, ref_v, step, 0.01, 0.5)
        assert norm == want
        clipped += norm > 0.5
        for got, expect in zip(params.tensors() + state.m.tensors() + state.v.tensors(),
                               ref + ref_m + ref_v):
            assert np.array_equal(got, expect)
    assert clipped == 3  # odd steps clip, even steps do not


# --- categorical head ---------------------------------------------------------------


def test_categorical_uniform():
    dist = Categorical(np.full((1, 6), 2.5))
    assert np.allclose(dist.probs, 1.0 / 6.0, atol=1e-15)
    assert abs(dist.probs.sum() - 1.0) < 1e-12
    assert dist.entropy()[0] == pytest.approx(1.791759469228055, abs=1e-12)  # ln 6


def test_categorical_shift_stability():
    logits = np.array([[1000.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    dist = Categorical(logits)
    assert np.all(np.isfinite(dist.probs))
    assert dist.probs[0, 0] > 1.0 - 1e-12
    shifted = Categorical(logits - 987.0)
    assert np.allclose(dist.probs, shifted.probs, atol=1e-12)


def test_categorical_log_prob_matches_direct():
    logits = np.array([[0.3, -1.2, 2.0, 0.0, 1.1, -0.4]])
    dist = Categorical(logits)
    direct = np.log(np.exp(logits[0]) / np.exp(logits[0]).sum())
    for a in range(6):
        assert dist.logits_log_probs[0, a] == pytest.approx(direct[a], abs=1e-12)
    assert abs(np.exp(dist.logits_log_probs).sum() - 1.0) < 1e-12


def test_categorical_sample_deterministic_and_in_range():
    logits = np.array([[0.3, -1.2, 2.0, 0.0, 1.1, -0.4]])
    a = [int(Categorical(logits).sample(np.random.default_rng(5))[0]) for _ in range(20)]
    b = [int(Categorical(logits).sample(np.random.default_rng(5))[0]) for _ in range(20)]
    assert a == b
    assert all(0 <= s < 6 for s in a)


def test_categorical_sample_tracks_probabilities():
    logits = np.array([[4.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    rng = np.random.default_rng(6)
    dist = Categorical(logits)
    draws = [int(dist.sample(rng)[0]) for _ in range(500)]
    freq0 = draws.count(0) / len(draws)
    assert abs(freq0 - dist.probs[0, 0]) < 0.05


def test_categorical_batch_mode():
    logits = np.random.default_rng(8).normal(size=(4, 6))
    dist = Categorical(logits)
    assert dist.probs.shape == (4, 6)
    actions = np.array([0, 3, 5, 2])
    lp = dist.logits_log_probs[np.arange(4), actions]
    ent = dist.entropy()
    assert lp.shape == (4,) and ent.shape == (4,)
    for row in range(4):
        single = Categorical(logits[row:row + 1])
        assert lp[row] == single.logits_log_probs[0, actions[row]]
        assert ent[row] == single.entropy()[0]
    samples = dist.sample(np.random.default_rng(0))
    assert samples.shape == (4,)



class _FixedDraw:
    """A generator stub: ``random()`` returns ``u``, ``random(n)`` n copies."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def _counted(cdf, u):
    """The rule written out: count the CDF entries below u, clip to the last."""
    return min(sum(c < u for c in cdf), len(cdf) - 1)


@pytest.mark.parametrize("logits, draws", [
    # u exactly equal to each CDF entry
    ([0.3, -1.2, 2.0, 0.0, 1.1, -0.4], "entries"),
    # zero-probability actions 1, 3 and 4 repeat CDF values
    ([0.0, -np.inf, 1.0, -np.inf, -np.inf, 0.5], "entries"),
    # rounding leaves cdf[-1] = 1 - 2**-53, so u can land above it
    ([-2.3, -0.2, -1.2, -0.7, -0.5, -0.3], "above_last"),
])
def test_inverse_cdf_lookup_matches_categorical_sample(logits, draws):
    dist = Categorical(np.array([logits]))
    cdf = np.cumsum(dist.probs, -1)[0]  # the raw CDF, last entry unclipped
    row = dist.cdf[0].tolist()  # evaluate's memo row
    # the case's row at table rows 1 and 3, between rows of other shapes
    table = Categorical(np.array([[0.0] * 6, logits, [3.0, -1.0, 0.5, -np.inf, 2.0, 1.0],
                                  logits, [-4.0, -3.0, -2.0, -1.0, 0.0, 9.0]]))
    rows = np.array([1, 0, 3, 2, 1, 4, 3])
    table_cdf = np.cumsum(table.probs, -1)
    assert np.array_equal(table_cdf[1], cdf) and np.array_equal(table_cdf[3], cdf)
    if draws == "entries":  # each entry, and the next double above it
        us = [float(c) for c in cdf] + [float(np.nextafter(c, 2.0)) for c in cdf[:-1]]
    else:
        assert cdf[-1] < 1.0
        us = [float(np.nextafter(cdf[-1], 2.0)), float(np.nextafter(1.0, 0.0))]
    for u in us:
        want = _counted(cdf, u)
        assert bisect_left(row, u) == want
        assert int(dist.sample(_FixedDraw(u))[0]) == want
        got = table.sample(_FixedDraw(u), rows)
        assert got.dtype == np.intp
        assert got.tolist() == [_counted(table_cdf[r], u) for r in rows]
    if draws == "above_last":
        assert want == len(logits) - 1
    else:
        # a zero-probability action's repeated entry is skipped past
        chosen = {_counted(cdf, u) for u in us}
        assert chosen == {a for a, z in enumerate(logits) if z > -np.inf}


# --- text serialization --------------------------------------------------------------


def test_format_parse_round_trip():
    rng = np.random.default_rng(10)
    arr = rng.normal(size=(3, 4)) * np.array([1e-300, 1e-3, 1.0, 1e300])
    text = format_array(arr)
    back = parse_array(text, (3, 4))
    assert np.array_equal(arr, back)


def test_parse_array_count_mismatch():
    with pytest.raises(ContractViolationError, match="expected 4 values, got 3"):
        parse_array("1.0 2.0 3.0", (2, 2))


def test_sampling_rows_of_a_table_equals_a_categorical_on_the_gathered_rows():
    """The rollout samples rows of one Categorical over all 1,701
    observations; that equals, bit for bit, a Categorical built on the
    gathered logits of each step, drawn from the same generator state."""
    from motorgame.env import ALL_OBSERVATIONS
    from motorgame.ppo import ACTOR_SIZES

    logits = forward(init(ACTOR_SIZES, 3), ALL_OBSERVATIONS)[0]
    table = Categorical(logits)
    pick, rng_table, rng_rows = (np.random.default_rng(s) for s in (1, 2, 2))
    for size in (1, 8, 64, 1701) * 10:
        rows = pick.integers(len(logits), size=size)
        gathered = Categorical(logits[rows])
        assert np.array_equal(table.probs[rows], gathered.probs)
        assert np.array_equal(table.logits_log_probs[rows], gathered.logits_log_probs)
        assert np.array_equal(table.sample(rng_table, rows), gathered.sample(rng_rows))
