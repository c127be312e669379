"""PPO trainer: rollout collection, advantage estimation, the clipped
surrogate update, deterministic training/resume, and evaluation."""

from dataclasses import astuple, fields, replace
from itertools import product

import numpy as np
import pytest

from motorgame import catalog as catalog_module
from motorgame.agents import greedy_agent, oracle_shortest
from motorgame.catalog import (
    Bounds,
    MachineVariant,
    TargetBands,
    builtin_catalog,
    feasible_mask,
    generate_variants,
    machine_by_id,
    save_catalog,
)
from motorgame.env import (
    ALL_OBSERVATIONS,
    FLAG_CODE_WEIGHTS,
    NUM_ACTIONS,
    OBSERVATION_DIM,
    Action,
    DesignEnv,
    RewardConfig,
    all_flags_zero,
    encode,
    move,
    run_episode,
)
from motorgame.errors import (
    CheckpointFormatError,
    ContractViolationError,
    TrainingDivergedError,
)
from motorgame.kvtext import parse_array, read_sections
from motorgame.neural import (
    AdamState,
    Categorical,
    MlpParams,
    adam_step,
    backward,
    forward,
    init,
)
from motorgame.ppo import (
    ACTOR_SIZES,
    CHECKPOINT_VERSION_LINE,
    CRITIC_SIZES,
    GRAD_CLIP_NORM,
    EnvPool,
    Hyperparams,
    UpdateStats,
    clipped_objective,
    collect_rollout,
    derive_seed,
    evaluate,
    evaluate_agent,
    explained_variance,
    format_eval_table,
    gae,
    load_checkpoint,
    new_checkpoint,
    normalize_advantages,
    ppo_update,
    save_checkpoint,
    train,
    write_episode_csv,
)
from motorgame.surrogate import design_at, lattice_index, lattice_shape

BASE = machine_by_id(1)


def _variant(b_gap=(0.5, 2.5), t_break=(0.2, 2.8), i_start=(0.2, 2.8),
             d_temp=(0.2, 2.8), tooth_tip=(1.0, 4.0), variant_seed=0):
    bands = TargetBands(b_gap=b_gap, t_break=t_break, i_start=i_start,
                        d_temp=d_temp, tooth_tip=tooth_tip)
    return MachineVariant(base=BASE, variant_seed=variant_seed,
                          initial_design=BASE.base_design, target_bands=bands)


# initial design already inside every band: every episode wins in one step
FEASIBLE_A = _variant(b_gap=(0.9, 1.1), t_break=(0.9, 1.1), i_start=(0.9, 1.1),
                      d_temp=(0.9, 1.1), variant_seed=101)
FEASIBLE_B = _variant(b_gap=(0.8, 1.2), t_break=(0.8, 1.2), i_start=(0.8, 1.2),
                      d_temp=(0.8, 1.2), variant_seed=202)

TRAIN_VARIANTS = generate_variants(BASE, 4, 0)

SMALL = Hyperparams(epochs=2, minibatch_size=8, horizon=16, env_count=2,
                    total_steps=32, seed=5)


# --- seed derivation ---------------------------------------------------------------


def test_derive_seed_properties():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(0) != derive_seed(1)
    for parts in ((0,), (1, 2), (2**62, 7)):
        s = derive_seed(*parts)
        assert 0 <= s < 2**63


# --- hyperparameters ----------------------------------------------------------------


def test_hyperparams_defaults():
    h = Hyperparams()
    assert (h.discount, h.gae_lambda, h.clip_ratio) == (0.99, 0.95, 0.2)
    assert h.learning_rate == 3e-4
    assert (h.epochs, h.minibatch_size, h.horizon) == (4, 64, 1024)
    assert (h.value_coef, h.entropy_coef) == (0.5, 0.01)
    assert (h.total_steps, h.env_count) == (400_000, 8)


def test_hyperparams_validation():
    with pytest.raises(ContractViolationError):
        Hyperparams(discount=0.0)
    with pytest.raises(ContractViolationError):
        Hyperparams(gae_lambda=1.5)
    with pytest.raises(ContractViolationError):
        Hyperparams(clip_ratio=0.0)
    with pytest.raises(ContractViolationError):
        Hyperparams(learning_rate=-1e-4)
    with pytest.raises(ContractViolationError):
        Hyperparams(env_count=0)


@pytest.mark.parametrize("name", ["discount", "gae_lambda", "clip_ratio", "learning_rate",
                                  "value_coef", "entropy_coef"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_hyperparams_reject_non_finite_values(name, value):
    with pytest.raises(ContractViolationError, match=f"{name} .* is not finite"):
        Hyperparams(**{name: value})


@pytest.mark.parametrize("name", ["value_coef", "entropy_coef"])
def test_hyperparams_reject_negative_loss_weights(name):
    with pytest.raises(ContractViolationError, match=f"{name} -1.0 must be >= 0"):
        Hyperparams(**{name: -1.0})
    assert getattr(Hyperparams(**{name: 0.0}), name) == 0.0


# --- generalized advantage estimation -------------------------------------------------


def test_gae_one_step_case():
    rewards = np.array([2.0, -1.0, 0.5])
    values = np.array([0.3, 0.7, -0.2])
    adv, ret = gae(rewards, values, np.zeros(3), 0.0, discount=0.0,
                   gae_lambda=0.7)
    assert np.array_equal(adv, rewards - values)
    assert np.array_equal(ret, adv + values)
    assert np.allclose(ret, rewards, atol=1e-15)


def test_gae_hand_example():
    adv, ret = gae([1.0, 1.0], [0.5, 0.5], [0.0, 1.0], bootstrap=9.9,
                   discount=1.0, gae_lambda=1.0)
    assert adv.tolist() == [1.5, 0.5]
    assert ret.tolist() == [2.0, 1.0]


def test_gae_bootstrap_masked_on_terminal():
    args = ([1.0, 1.0], [0.5, 0.5], [0.0, 1.0])
    a1, _ = gae(*args, bootstrap=0.0, discount=0.9, gae_lambda=0.8)
    a2, _ = gae(*args, bootstrap=123.0, discount=0.9, gae_lambda=0.8)
    assert np.array_equal(a1, a2)


def test_gae_matches_bruteforce_sum():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t_len = int(rng.integers(1, 7))
        rewards = rng.normal(size=t_len)
        values = rng.normal(size=t_len)
        dones = (rng.random(t_len) < 0.3).astype(float)
        bootstrap = float(rng.normal())
        discount, lam = 0.97, 0.9
        adv, _ = gae(rewards, values, dones, bootstrap, discount, lam)
        nxt = np.append(values[1:], bootstrap)
        deltas = rewards + discount * nxt * (1.0 - dones) - values
        for t in range(t_len):
            total, weight = 0.0, 1.0
            for k in range(t, t_len):
                total += weight * deltas[k]
                if dones[k]:
                    break
                weight *= discount * lam
            assert abs(adv[t] - total) < 1e-10


def test_gae_time_major_matches_columns():
    rng = np.random.default_rng(4)
    rewards = rng.normal(size=(5, 3))
    values = rng.normal(size=(5, 3))
    dones = (rng.random((5, 3)) < 0.25).astype(float)
    bootstrap = rng.normal(size=3)
    adv, ret = gae(rewards, values, dones, bootstrap, 0.99, 0.95)
    for e in range(3):
        col_adv, col_ret = gae(rewards[:, e], values[:, e], dones[:, e],
                               bootstrap[e], 0.99, 0.95)
        assert np.array_equal(adv[:, e], col_adv)
        assert np.array_equal(ret[:, e], col_ret)


def test_gae_shape_mismatch():
    with pytest.raises(ContractViolationError):
        gae([1.0, 2.0], [0.5], [0.0], 0.0, 0.9, 0.9)


# --- advantage normalization and the clip --------------------------------------------


def test_normalize_advantages_statistics():
    rng = np.random.default_rng(5)
    for scale in (0.5, 1.0, 1e4):
        a = normalize_advantages(rng.normal(size=256) * scale)
        assert abs(a.mean()) < 1e-9
        assert abs(a.std() - 1.0) < 1e-6
    # the epsilon guard damps (never amplifies) near-constant inputs
    damped = normalize_advantages(rng.normal(size=256) * 1e-12)
    assert damped.std() < 1.0


def test_normalize_constant_advantages():
    assert np.all(normalize_advantages(np.full(8, 3.3)) == 0.0)


def test_clipped_objective_hand_cases():
    # identity ratio: both branches coincide
    assert clipped_objective(1.0, 0.7, 0.2) == 0.7
    # positive advantage, ratio beyond 1 + eps: clipped branch wins
    assert clipped_objective(2.0, 1.0, 0.2) == 1.2
    # negative advantage, ratio below 1 - eps: min() takes the clipped,
    # more pessimistic value
    assert clipped_objective(0.5, -1.0, 0.2) == -0.8


def test_clipped_objective_min_property():
    rng = np.random.default_rng(6)
    ratio = rng.uniform(0.0, 3.0, size=500)
    adv = rng.normal(size=500)
    obj = clipped_objective(ratio, adv, 0.2)
    assert np.all(obj <= ratio * adv + 1e-15)
    positive = adv > 0
    assert np.all(np.abs(obj[positive]) <= 1.2 * adv[positive] + 1e-15)


# --- env pool and rollouts -------------------------------------------------------------


def test_pool_round_robin_and_autoreset():
    pool = EnvPool([FEASIBLE_A, FEASIBLE_B], env_count=1)
    assert pool.variants[0] is FEASIBLE_A
    # the feasible start makes every step a win, cycling the variants
    for expected in (FEASIBLE_B, FEASIBLE_A, FEASIBLE_B):
        rewards, dones = pool.step(np.zeros(1, dtype=int))
        assert rewards[0] == 98.0 and dones[0] == 1.0
        assert pool.variants[0] is expected
    finished = pool.drain_finished()
    assert [(s, w) for s, _, w in finished] == [(1, True)] * 3
    assert pool.drain_finished() == []


def test_pool_validation():
    with pytest.raises(ContractViolationError):
        EnvPool([], env_count=1)
    with pytest.raises(ContractViolationError):
        EnvPool([FEASIBLE_A], env_count=0)


class _LoopPool:
    """The env pool as a Python loop over DesignEnvs, one env at a time;
    kept as the reference that EnvPool's array step must match.  Its step
    also returns each env's cause code, so a replay can check that it saw
    wins and truncations."""

    CAUSE_CODES = {"win": 1, "truncation": 2}  # 0: the episode goes on

    def __init__(self, variants, env_count, reward_config):
        self._variants, self._cursor, self._config = tuple(variants), 0, reward_config
        self._episode_reward = np.zeros(env_count)
        self._finished = []
        self.envs = [self._fresh_env() for _ in range(env_count)]
        self._obs = np.array([env.reset() for env in self.envs])

    def _fresh_env(self):
        variant = self._variants[self._cursor % len(self._variants)]
        self._cursor += 1
        return DesignEnv(variant, config=self._config)

    def observations(self):
        return self._obs.copy()

    def step(self, actions):
        e_count = len(self.envs)
        rewards = np.zeros(e_count)
        dones = np.zeros(e_count)
        causes = np.zeros(e_count, dtype=np.int8)
        for e in range(e_count):
            obs, reward, done, info = self.envs[e].step(int(actions[e]))
            rewards[e] = reward
            self._episode_reward[e] += reward
            if done:
                dones[e] = 1.0
                causes[e] = self.CAUSE_CODES[info.cause]
                self._finished.append(
                    (self.envs[e].steps, float(self._episode_reward[e]), info.win))
                self._episode_reward[e] = 0.0
                self.envs[e] = self._fresh_env()
                obs = self.envs[e].reset()
            self._obs[e] = obs
        return rewards, dones, causes

    def drain_finished(self):
        out, self._finished = self._finished, []
        return out


def _replay_variants():
    """Generated variants of all three machines, each also started on a
    feasible point, one step beside it, and at both lattice corners."""
    out = []
    for base in builtin_catalog():
        shape = lattice_shape(base)
        for v in generate_variants(base, 3, 7):
            feasible = tuple(np.argwhere(feasible_mask(base, v.target_bands))[0])
            starts = (feasible, move(feasible, Action.TURNS_DOWN, shape),
                      (0, 0, 0), tuple(n - 1 for n in shape))
            out += [v] + [replace(v, initial_design=design_at(base, *ijk))
                          for ijk in starts]
    return out


# non-unit rewards and weights, so any change in summation order shows
REPLAY_CONFIG = RewardConfig(right_direction_reward=1.3, wrong_direction_reward=-0.7,
                             revisit_penalty=-2.9, win_reward=41.1,
                             priority_weights=(4.7, 3.1, 2.3, 1.9, 0.3), max_steps=6)


@pytest.mark.parametrize("env_count,steps", [(1, 400), (8, 120), (64, 40)])
def test_pool_replays_the_loop_over_design_envs(env_count, steps):
    variants = _replay_variants()
    rng = np.random.default_rng(env_count)
    rng.shuffle(variants)
    pool = EnvPool(variants, env_count, REPLAY_CONFIG)
    reference = _LoopPool(variants, env_count, REPLAY_CONFIG)
    assert np.array_equal(ALL_OBSERVATIONS[pool.codes()], reference.observations())
    seen_causes = set()
    for t in range(steps):
        actions = rng.integers(NUM_ACTIONS, size=env_count)
        got, (*want, causes) = pool.step(actions), reference.step(actions)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(ALL_OBSERVATIONS[pool.codes()], reference.observations())
        assert pool.variants == tuple(env.variant for env in reference.envs)
        seen_causes.update(causes.tolist())
        if t % 10 == 9:
            assert pool.drain_finished() == reference.drain_finished()
    assert pool.drain_finished() == reference.drain_finished()
    assert seen_causes == {0, 1, 2}


def _assert_replays(variants, env_count, steps, seed):
    """EnvPool and _LoopPool agree, bit for bit, over random actions."""
    rng = np.random.default_rng(seed)
    pool = EnvPool(variants, env_count, REPLAY_CONFIG)
    reference = _LoopPool(variants, env_count, REPLAY_CONFIG)
    for _ in range(steps):
        actions = rng.integers(NUM_ACTIONS, size=env_count)
        (rewards, dones), (want_rewards, want_dones, _) = (
            pool.step(actions), reference.step(actions))
        assert np.array_equal(rewards, want_rewards) and np.array_equal(dones, want_dones)
        assert np.array_equal(ALL_OBSERVATIONS[pool.codes()], reference.observations())
    assert pool.drain_finished() == reference.drain_finished()


@pytest.mark.parametrize("machine_id", [1, 2, 3])
def test_pool_over_one_machine_replays_the_loop(machine_id):
    variants = [v for v in _replay_variants() if v.base_id == machine_id]
    _assert_replays(variants, 8, 120, machine_id)


def test_pool_over_lattices_of_two_shapes_replays_the_loop(monkeypatch):
    """Machine 2 with fewer turns steps (shape 31 x 13 x 21) beside the
    stock machines 1 and 3: two move tables, at their own offsets."""
    stock = machine_by_id(2)
    turns = stock.base_design.turns
    narrow = replace(stock, bounds=Bounds(stock.bounds.length, (turns - 6, turns + 6),
                                          stock.bounds.tooth_tip))
    monkeypatch.setitem(catalog_module._MACHINES, 2, narrow)
    variants = _replay_variants()
    assert {lattice_shape(machine_by_id(v.base_id)) for v in variants} == {
        (31, 21, 21), (31, 13, 21)}
    np.random.default_rng(5).shuffle(variants)
    _assert_replays(variants, 8, 150, 5)


def test_pool_over_more_points_than_uint16_holds_replays_the_loop(monkeypatch):
    """Machine 2 with a 100-point length axis puts the three lattices past
    65,535 points together: the move table must hold the largest point."""
    stock = machine_by_id(2)
    lo, step = stock.bounds.length[0], stock.step_sizes.length
    long = replace(stock, bounds=Bounds((lo, lo + 99 * step), stock.bounds.turns,
                                        stock.bounds.tooth_tip))
    monkeypatch.setitem(catalog_module._MACHINES, 2, long)
    variants = _replay_variants()
    np.random.default_rng(6).shuffle(variants)
    pool = EnvPool(variants, 8, REPLAY_CONFIG)
    points = sum(np.prod(lattice_shape(base)) for base in builtin_catalog())
    assert pool._after.shape == (NUM_ACTIONS, points) and points > 65_535
    assert np.iinfo(pool._after.dtype).max >= points - 1
    _assert_replays(variants, 8, 150, 6)


def test_pool_move_table_is_the_move_rule():
    """The pool's move table is move() on each machine's lattice, through
    the point index over the machines end to end, for every point and
    action."""
    pool = EnvPool([v for base in builtin_catalog() for v in generate_variants(base, 1, 3)], 1)
    want, offset = [], 0
    for base in builtin_catalog():
        shape = lattice_shape(base)
        want.append([[offset + np.ravel_multi_index(move(ijk, action, shape), shape)
                      for ijk in np.ndindex(*shape)] for action in Action])
        offset += np.prod(shape)
    assert pool._after.dtype == np.uint16
    assert np.array_equal(pool._after, np.concatenate(want, axis=1))


def test_observation_codes_index_all_observations():
    """7 * (the flags + 1 as base-3 digits) + (0 or the previous action + 1)
    is the row of ALL_OBSERVATIONS holding encode(flags, previous action)."""
    codes = [FLAG_CODE_WEIGHTS @ (np.array(f) + 1) + (0 if a is None else a + 1)
             for f in product((-1, 0, 1), repeat=5) for a in (None, *Action)]
    assert sorted(codes) == list(range(len(ALL_OBSERVATIONS))) == list(range(1701))
    for (f, a), code in zip(product(product((-1, 0, 1), repeat=5), (None, *Action)), codes):
        assert np.array_equal(ALL_OBSERVATIONS[code], encode(f, a))


@pytest.mark.parametrize("env_count", [1, 8, 64])
def test_observation_codes_are_exact_for_pool_observations(env_count):
    variants = _replay_variants()
    pool = EnvPool(variants, env_count, REPLAY_CONFIG)
    reference = _LoopPool(variants, env_count, REPLAY_CONFIG)
    rng = np.random.default_rng(env_count)
    for _ in range(60):
        codes = pool.codes()
        assert codes.dtype == np.intp
        assert np.array_equal(ALL_OBSERVATIONS[codes], reference.observations())
        codes[:] = 0  # a copy: the pool's state is untouched
        actions = rng.integers(NUM_ACTIONS, size=env_count)
        pool.step(actions)
        reference.step(actions)


@pytest.mark.parametrize("actions", [
    [0, 1, 6], [0, 1, -1], [0, 1, 2, 3], [0, 1], [[0, 1, 2]], [0.0, 1.0, 2.0]])
def test_pool_rejects_bad_actions_before_any_env_moves(actions):
    variants = [FEASIBLE_A] + TRAIN_VARIANTS
    pool, twin = EnvPool(variants, 3), EnvPool(variants, 3)
    for p in (pool, twin):
        p.step(np.array([4, 2, 5]))  # env 0 wins, so an episode is waiting
    before = pool.codes()
    with pytest.raises(ContractViolationError):
        pool.step(np.array(actions))
    assert np.array_equal(pool.codes(), before)
    assert pool.drain_finished() == twin.drain_finished() != []
    for a, b in zip(pool.step(np.array([3, 1, 0])), twin.step(np.array([3, 1, 0]))):
        assert np.array_equal(a, b)
    assert np.array_equal(pool.codes(), twin.codes())


def test_collect_rollout_minimal():
    ckpt = new_checkpoint(SMALL)
    pool = EnvPool([FEASIBLE_A], env_count=1)
    buf = collect_rollout(pool, ckpt.actor, ckpt.critic, horizon=1,
                          rng=np.random.default_rng(0))
    assert len(buf) == 1
    assert ALL_OBSERVATIONS[buf.codes].shape == (1, 1, 11)
    assert buf.dones[0, 0] == 1.0
    assert buf.rewards[0, 0] == 98.0


def test_collect_rollout_deterministic():
    ckpt = new_checkpoint(SMALL)
    bufs = []
    for _ in range(2):
        pool = EnvPool(TRAIN_VARIANTS, env_count=2)
        bufs.append(collect_rollout(pool, ckpt.actor, ckpt.critic, horizon=12,
                                    rng=np.random.default_rng(9)))
    for name in ("codes", "actions", "log_probs", "rewards", "values",
                 "dones", "bootstrap"):
        assert np.array_equal(getattr(bufs[0], name), getattr(bufs[1], name))


def test_collect_rollout_is_on_policy():
    """Stored behavior log-probs match a recomputation at the same params."""
    ckpt = new_checkpoint(SMALL)
    pool = EnvPool(TRAIN_VARIANTS, env_count=3)
    buf = collect_rollout(pool, ckpt.actor, ckpt.critic, horizon=8,
                          rng=np.random.default_rng(1))
    flat_obs = ALL_OBSERVATIONS[buf.codes.reshape(-1)]
    flat_act = buf.actions.reshape(-1)
    logits, _ = forward(ckpt.actor, flat_obs)
    recomputed = Categorical(logits).log_prob(flat_act)
    assert np.max(np.abs(recomputed - buf.log_probs.reshape(-1))) < 1e-12


@pytest.mark.parametrize("horizon", [1, 7, 40])
def test_collect_rollout_runs_each_net_once_and_samples_once_per_step(monkeypatch, horizon):
    forwarded, sampled = [], []
    sample = Categorical.sample

    def counting_forward(params, x):
        forwarded.append((params.sizes[-1], len(x)))
        return forward(params, x)

    def counting_sample(dist, rng):
        sampled.append(len(dist.probs))
        return sample(dist, rng)

    monkeypatch.setattr("motorgame.ppo.forward", counting_forward)
    monkeypatch.setattr(Categorical, "sample", counting_sample)
    ckpt = new_checkpoint(SMALL)
    collect_rollout(EnvPool(TRAIN_VARIANTS, env_count=3), ckpt.actor, ckpt.critic,
                    horizon, rng=np.random.default_rng(4))
    assert sorted(forwarded) == [(1, len(ALL_OBSERVATIONS)), (NUM_ACTIONS, len(ALL_OBSERVATIONS))]
    assert sampled == [3] * horizon


def test_collect_rollout_rewards_replayable():
    """Stepping a twin pool with the recorded actions reproduces rewards."""
    ckpt = new_checkpoint(SMALL)
    pool_a = EnvPool(TRAIN_VARIANTS, env_count=2)
    buf = collect_rollout(pool_a, ckpt.actor, ckpt.critic, horizon=10,
                          rng=np.random.default_rng(2))
    pool_b = EnvPool(TRAIN_VARIANTS, env_count=2)
    for t in range(10):
        rewards, dones = pool_b.step(buf.actions[t])
        assert np.array_equal(rewards, buf.rewards[t])
        assert np.array_equal(dones, buf.dones[t])


# --- ppo update --------------------------------------------------------------------


def _advantages(buf, hyper):
    return gae(buf.rewards, buf.values, buf.dones, buf.bootstrap,
               hyper.discount, hyper.gae_lambda)


def _small_buffer(horizon=16, env_count=2, seed=7):
    """A checkpoint, a rollout under it, and the rollout's advantages and returns."""
    ckpt = new_checkpoint(SMALL)
    pool = EnvPool(TRAIN_VARIANTS, env_count=env_count)
    buf = collect_rollout(pool, ckpt.actor, ckpt.critic, horizon,
                          rng=np.random.default_rng(seed))
    return ckpt, buf, *_advantages(buf, SMALL)


def test_ppo_update_identity_ratio_zero_policy_loss():
    """Whole buffer in one minibatch before any step: ratios are 1 and the
    policy loss is the mean normalized advantage, which is zero."""
    ckpt, buf, advantages, returns = _small_buffer()
    hyper = replace(SMALL, epochs=1, minibatch_size=len(buf))
    stats = ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                       buf, advantages, returns, hyper, np.random.default_rng(3))
    assert abs(stats.policy_loss) < 1e-9
    assert stats.clip_fraction == 0.0
    assert stats.grad_norm >= 0.0
    assert np.isfinite(stats.value_loss) and stats.value_loss > 0.0


def test_ppo_update_moves_parameters():
    ckpt, buf, advantages, returns = _small_buffer()
    before = [t.copy() for t in ckpt.actor.tensors() + ckpt.critic.tensors()]
    ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
               buf, advantages, returns, SMALL, np.random.default_rng(3))
    after = ckpt.actor.tensors() + ckpt.critic.tensors()
    assert any(not np.array_equal(b, a) for b, a in zip(before, after))
    assert ckpt.actor_opt.step > 0


def test_ppo_update_deterministic():
    results = []
    for _ in range(2):
        ckpt, buf, advantages, returns = _small_buffer()
        ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                   buf, advantages, returns, SMALL, np.random.default_rng(3))
        results.append([t.copy() for t in ckpt.actor.tensors()])
    for x, y in zip(*results):
        assert np.array_equal(x, y)


def test_ppo_update_detects_divergence():
    ckpt, buf, advantages, returns = _small_buffer()
    with pytest.raises(TrainingDivergedError):
        ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                   buf, np.full_like(advantages, np.nan), returns, SMALL,
                   np.random.default_rng(3))


def _reference_forward(params, x):
    a, cache = x, [x]
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = z if layer == last else np.tanh(z)
        if layer != last:
            cache.append(a)
    return a, cache


def _reference_backward(params, cache, g):
    grads = MlpParams(params.sizes)
    for layer in range(len(params.weights) - 1, -1, -1):
        a_in = cache[layer]
        np.matmul(a_in.T, g, out=grads.weights[layer])
        g.sum(axis=0, out=grads.biases[layer])
        if layer > 0:
            g = (g @ params.weights[layer].T) * (1.0 - a_in * a_in)
    return grads


def _reference_clip(grads):
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.tensors())))
    if total > GRAD_CLIP_NORM:
        grads.flat *= GRAD_CLIP_NORM / total
    return total


def _reference_update(actor, critic, actor_opt, critic_opt, buffer, advantages, returns,
                      hyper, rng, norms, per_row=False):
    """The update as a loop over fancy-indexed minibatches, with np.mean,
    a fresh gradient per backward and a per-tensor clip norm.  Each net
    runs on a minibatch's distinct codes, in code order (grouped in plain
    Python), every sample reads its code's row, and the samples' output
    gradients are summed per code in sample order; ppo_update must match
    this bit for bit.  With ``per_row`` every sample is its own row, the
    update before it ran each net once per distinct observation.  Appends
    each minibatch's (actor, critic) pre-clip norms to ``norms``."""
    batch = len(buffer)
    codes = buffer.codes.reshape(batch)
    acts = buffer.actions.reshape(batch)
    old_log_probs = buffer.log_probs.reshape(batch)
    advantages = normalize_advantages(advantages.reshape(batch))
    returns = returns.reshape(batch)
    pol_losses, val_losses, entropies, clip_fracs, grad_norms, kls = [], [], [], [], [], []
    for _ in range(hyper.epochs):
        perm = rng.permutation(batch)
        for start in range(0, batch, hyper.minibatch_size):
            idx = perm[start:start + hyper.minibatch_size]
            b = idx.size
            mb_codes = codes[idx].tolist()
            if per_row:
                forward_codes, rows = mb_codes, list(range(b))
            else:
                forward_codes = sorted(set(mb_codes))
                rows = [forward_codes.index(code) for code in mb_codes]
            obs = ALL_OBSERVATIONS[forward_codes]

            mb_adv = advantages[idx]
            logits, actor_cache = _reference_forward(actor, obs)
            dist = Categorical(logits)
            probs, log_probs = dist.probs[rows], dist.logits_log_probs[rows]
            new_log_prob = log_probs[np.arange(b), acts[idx]]
            entropy = dist.entropy()[rows]
            ratio = np.exp(new_log_prob - old_log_probs[idx])
            objective = clipped_objective(ratio, mb_adv, hyper.clip_ratio)
            live = (ratio * mb_adv == objective).astype(np.float64)
            onehot = np.zeros((b, NUM_ACTIONS))
            onehot[np.arange(b), acts[idx]] = 1.0
            coeff = -(live * mb_adv * ratio) / b
            logit_grad = coeff[:, None] * (onehot - probs)
            logit_grad += (hyper.entropy_coef / b) * probs * (log_probs + entropy[:, None])
            vals, critic_cache = _reference_forward(critic, obs)
            err = vals[rows, 0] - returns[idx]
            value_grad = (2.0 * hyper.value_coef / b) * err

            summed_logit_grad = np.zeros((len(obs), NUM_ACTIONS))
            summed_value_grad = np.zeros((len(obs), 1))
            for row, g, v in zip(rows, logit_grad, value_grad):
                summed_logit_grad[row] += g
                summed_value_grad[row] += v

            actor_grads = _reference_backward(actor, actor_cache, summed_logit_grad)
            actor_norm = _reference_clip(actor_grads)
            adam_step(actor, actor_grads, actor_opt)
            critic_grads = _reference_backward(critic, critic_cache, summed_value_grad)
            norms.append((actor_norm, _reference_clip(critic_grads)))
            adam_step(critic, critic_grads, critic_opt)

            pol_losses.append(-float(np.mean(objective)))
            val_losses.append(float(np.mean(err * err)))
            entropies.append(float(np.mean(entropy)))
            clip_fracs.append(float(np.mean(np.abs(ratio - 1.0) > hyper.clip_ratio)))
            grad_norms.append(actor_norm)
            kls.append(float(np.mean(old_log_probs[idx] - new_log_prob)))
    return UpdateStats(*(float(np.mean(x)) for x in (
        pol_losses, val_losses, entropies, clip_fracs, grad_norms, kls)))


def _update_pairs(hyper, per_row):
    """Run ppo_update and _reference_update side by side on the same three
    rollouts; returns each update's (stats, reference stats,
    [(tensor, reference tensor)]) and the reference's pre-clip norms."""
    ckpt, ref = new_checkpoint(hyper), new_checkpoint(hyper)
    pool = EnvPool(TRAIN_VARIANTS, hyper.env_count)
    updates, norms = [], []
    for update in range(3):
        buf = collect_rollout(pool, ckpt.actor, ckpt.critic, hyper.horizon,
                              np.random.default_rng(update))
        advantages, returns = _advantages(buf, hyper)
        got = ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                         buf, advantages, returns, hyper, np.random.default_rng([9, update]))
        want = _reference_update(ref.actor, ref.critic, ref.actor_opt, ref.critic_opt,
                                 buf, advantages, returns, hyper,
                                 np.random.default_rng([9, update]), norms, per_row=per_row)
        assert ckpt.actor_opt.step == ref.actor_opt.step == ckpt.critic_opt.step == (
            (update + 1) * hyper.epochs * -(-len(buf) // hyper.minibatch_size))
        updates.append((got, want, [(a.flat.copy(), b.flat.copy()) for a, b in (
            (ckpt.actor, ref.actor), (ckpt.critic, ref.critic),
            (ckpt.actor_opt.m, ref.actor_opt.m), (ckpt.actor_opt.v, ref.actor_opt.v),
            (ckpt.critic_opt.m, ref.critic_opt.m), (ckpt.critic_opt.v, ref.critic_opt.v))]))
    return updates, norms


# stock, wide, and a minibatch that leaves a short last slice of 1024
@pytest.mark.parametrize("minibatch_size", [64, 512, 300])
def test_ppo_update_matches_the_minibatch_loop_reference(minibatch_size):
    # a learning rate and entropy bonus high enough that both the PPO clip
    # and the gradient-norm clip fire
    hyper = Hyperparams(horizon=128, env_count=8, minibatch_size=minibatch_size,
                        learning_rate=0.05, entropy_coef=1.0, seed=9)
    updates, norms = _update_pairs(hyper, per_row=False)
    for got, want, tensors in updates:
        assert got == want
        for a, b in tensors:
            assert np.array_equal(a, b)
    assert max(got.clip_fraction for got, _, _ in updates) > 0
    assert any(a > GRAD_CLIP_NORM for a, _ in norms)
    assert any(c > GRAD_CLIP_NORM for _, c in norms)


@pytest.mark.parametrize("minibatch_size", [64, 512, 300])
def test_ppo_update_agrees_with_the_per_row_update(minibatch_size):
    """Grouping a minibatch's samples by observation changes only the
    forward batches and the summation order of the gradients.  At the
    stock learning rate and entropy bonus: at 0.05 and 1.0, the 192 Adam
    steps of 64-row minibatches amplify the last-bit differences up to a
    relative 1e3 in the critic."""
    hyper = Hyperparams(horizon=128, env_count=8, minibatch_size=minibatch_size, seed=9)
    updates, norms = _update_pairs(hyper, per_row=True)
    for got, want, tensors in updates:
        assert np.allclose(astuple(got), astuple(want), rtol=1e-9, atol=0.0)
        for a, b in tensors:
            assert np.allclose(a, b, rtol=1e-9, atol=0.0)
    assert max(got.clip_fraction for got, _, _ in updates) > 0
    assert any(c > GRAD_CLIP_NORM for _, c in norms)


@pytest.mark.parametrize("minibatch_size", [64, 300])
def test_ppo_update_runs_each_net_on_the_minibatch_distinct_rows(monkeypatch, minibatch_size):
    hyper = Hyperparams(horizon=128, env_count=8, minibatch_size=minibatch_size, epochs=2)
    ckpt = new_checkpoint(hyper)
    buf = collect_rollout(EnvPool(TRAIN_VARIANTS, hyper.env_count), ckpt.actor, ckpt.critic,
                          hyper.horizon, rng=np.random.default_rng(2))
    codes = buf.codes.reshape(-1)
    expected, rng = [], np.random.default_rng(6)
    for _ in range(hyper.epochs):
        perm = rng.permutation(len(codes))
        for start in range(0, len(codes), minibatch_size):
            distinct = ALL_OBSERVATIONS[sorted(set(codes[perm[start:start + minibatch_size]]))]
            expected += [(NUM_ACTIONS, distinct), (1, distinct)]
    forwarded, backwarded = [], []

    def recording_forward(params, x):
        forwarded.append((params.sizes[-1], np.array(x)))
        return forward(params, x)

    def recording_backward(params, cache, output_grad, grads):
        backwarded.append((params.sizes[-1], cache[0], output_grad.shape))
        return backward(params, cache, output_grad, grads)

    monkeypatch.setattr("motorgame.ppo.forward", recording_forward)
    monkeypatch.setattr("motorgame.ppo.backward", recording_backward)
    ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt, buf,
               *_advantages(buf, hyper), hyper, np.random.default_rng(6))
    assert len(forwarded) == len(backwarded) == len(expected)
    assert len(expected[0][1]) < minibatch_size
    for (out, x), (want_out, want_x), (grad_out, cache_x, grad_shape) in zip(
            forwarded, expected, backwarded):
        assert out == want_out == grad_out
        assert np.array_equal(x, want_x)
        assert np.array_equal(cache_x, want_x) and grad_shape == (len(want_x), out)


# --- training loop -----------------------------------------------------------------


def test_train_single_update_accounting():
    ckpt, report = train(TRAIN_VARIANTS, SMALL)
    assert len(report.rows) == 1
    assert ckpt.update_index == 1
    assert ckpt.env_steps == SMALL.horizon * SMALL.env_count
    row = report.rows[0]
    assert row.update == 1 and row.env_steps == 32
    assert 0 <= row.clip_fraction <= 1


@pytest.mark.parametrize("hyper", [
    replace(SMALL, total_steps=64),
    # one minibatch over the whole buffer, taken before any step: the
    # policy is still the rollout's, up to the forward's batch shape
    replace(SMALL, total_steps=64, epochs=1, minibatch_size=32)])
def test_train_rows_carry_grad_norm_and_approx_kl(monkeypatch, hyper):
    updates = []

    def recorded(*args):
        updates.append(ppo_update(*args))
        return updates[-1]

    monkeypatch.setattr("motorgame.ppo.ppo_update", recorded)
    _, report = train(TRAIN_VARIANTS, hyper)
    assert len(report.rows) == len(updates) == 2
    for row, stats in zip(report.rows, updates):
        assert row.grad_norm == stats.grad_norm > 0
        assert row.approx_kl == stats.approx_kl
        assert np.isfinite(row.approx_kl)
        assert row.as_line().endswith(
            f"grad_norm={row.grad_norm!r} approx_kl={row.approx_kl!r} "
            f"explained_variance={row.explained_variance!r}")
        if hyper.epochs == 1:
            assert abs(row.approx_kl) < 1e-12


def test_train_rows_carry_explained_variance(monkeypatch):
    buffers = []

    def recorded(*args):
        buffers.append(collect_rollout(*args))
        return buffers[-1]

    monkeypatch.setattr("motorgame.ppo.collect_rollout", recorded)
    _, report = train(TRAIN_VARIANTS, replace(SMALL, total_steps=64))
    assert len(report.rows) == len(buffers) == 2
    for row, buf in zip(report.rows, buffers):
        returns = _advantages(buf, SMALL)[1].ravel().tolist()
        errors = [r - v for r, v in zip(returns, buf.values.ravel().tolist())]

        def variance(xs):
            mean = sum(xs) / len(xs)
            return sum((x - mean) ** 2 for x in xs) / len(xs)

        assert variance(returns) > 0
        assert row.explained_variance == pytest.approx(
            1.0 - variance(errors) / variance(returns), rel=1e-9, abs=1e-12)


def test_explained_variance_cases():
    returns = np.array([[1.0, -2.0], [0.5, 3.0]])
    assert explained_variance(returns, returns) == 1.0
    assert explained_variance(np.full((2, 2), returns.mean()), returns) == \
        pytest.approx(0.0, abs=1e-12)
    # values off by a constant explain all of the variance
    assert explained_variance(returns - 7.0, returns) == 1.0
    assert np.isnan(explained_variance(np.arange(4.0), np.full(4, 2.0)))


def test_train_bit_identical_given_seed():
    a, _ = train(TRAIN_VARIANTS, SMALL)
    b, _ = train(TRAIN_VARIANTS, SMALL)
    for x, y in zip(a.actor.tensors() + a.critic.tensors(),
                    b.actor.tensors() + b.critic.tensors()):
        assert np.array_equal(x, y)
    for x, y in zip(a.actor_opt.m.tensors() + a.actor_opt.v.tensors(),
                    b.actor_opt.m.tensors() + b.actor_opt.v.tensors()):
        assert np.array_equal(x, y)
    assert a.actor_opt.step == b.actor_opt.step


def test_train_seed_changes_results():
    a, _ = train(TRAIN_VARIANTS, SMALL)
    b, _ = train(TRAIN_VARIANTS, replace(SMALL, seed=6))
    assert any(not np.array_equal(x, y)
               for x, y in zip(a.actor.tensors(), b.actor.tensors()))


def test_train_requires_variants():
    with pytest.raises(ContractViolationError):
        train([], SMALL)


def test_train_resume_continues_numbering(tmp_path):
    ckpt, _ = train(TRAIN_VARIANTS, SMALL)
    ckpt.hyper = replace(ckpt.hyper, total_steps=96)
    resumed, report = train(TRAIN_VARIANTS, ckpt.hyper, checkpoint=ckpt)
    assert [r.update for r in report.rows] == [2, 3]
    assert resumed.env_steps == 96


def test_train_resume_deterministic(tmp_path):
    ckpt, _ = train(TRAIN_VARIANTS, SMALL)
    ckpt.hyper = replace(ckpt.hyper, total_steps=64)
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    tails = []
    for _ in range(2):
        loaded = load_checkpoint(str(path))
        done, _ = train(TRAIN_VARIANTS, loaded.hyper, checkpoint=loaded)
        tails.append([t.copy() for t in done.actor.tensors()])
    for x, y in zip(*tails):
        assert np.array_equal(x, y)


def test_train_diverged_reports_update_index():
    ckpt = new_checkpoint(SMALL)
    ckpt.actor.weights[0].fill(np.nan)
    with pytest.raises(TrainingDivergedError) as err:
        train(TRAIN_VARIANTS, SMALL, checkpoint=ckpt)
    assert err.value.update_index == 0


# --- evaluation --------------------------------------------------------------------


def test_evaluate_feasible_start_steps_at_most_one():
    ckpt = new_checkpoint(SMALL)
    report = evaluate(ckpt.actor, [FEASIBLE_A], episodes_per_variant=4,
                      mode="stochastic", seed=0)
    assert all(row.win and row.steps <= 1 for row in report.rows)
    stats = report.per_machine[BASE.id]
    assert stats.win_rate == 1.0 and stats.mean_winning_steps <= 1.0


def test_evaluate_row_count_and_indexing():
    ckpt = new_checkpoint(SMALL)
    report = evaluate(ckpt.actor, TRAIN_VARIANTS, episodes_per_variant=3,
                      mode="stochastic", seed=1)
    assert len(report.rows) == len(TRAIN_VARIANTS) * 3
    assert [row.episode for row in report.rows] == list(range(len(report.rows)))
    # per-machine stats recomputed from the raw rows
    stats = report.per_machine[BASE.id]
    wins = [r.steps for r in report.rows if r.win]
    assert stats.episodes == len(report.rows)
    assert stats.wins == len(wins)
    assert stats.win_rate == len(wins) / len(report.rows)
    if wins:
        assert stats.mean_winning_steps == pytest.approx(np.mean(wins))
    assert stats.mean_steps_all == pytest.approx(
        np.mean([r.steps for r in report.rows]))


def test_evaluate_argmax_repeatable():
    ckpt = new_checkpoint(SMALL)
    a = evaluate(ckpt.actor, TRAIN_VARIANTS[:2], episodes_per_variant=2,
                 mode="argmax")
    b = evaluate(ckpt.actor, TRAIN_VARIANTS[:2], episodes_per_variant=2,
                 mode="argmax")
    assert a.rows == b.rows
    for x, y in zip(a.per_machine.values(), b.per_machine.values()):
        assert (x.episodes, x.wins, x.win_rate) == (y.episodes, y.wins, y.win_rate)
        assert x.mean_steps_all == y.mean_steps_all
        # mean over zero wins is nan, which never compares equal to itself
        assert (x.mean_winning_steps == y.mean_winning_steps
                or (np.isnan(x.mean_winning_steps) and np.isnan(y.mean_winning_steps)))


def test_evaluate_stochastic_seed_determinism():
    ckpt = new_checkpoint(SMALL)
    a = evaluate(ckpt.actor, TRAIN_VARIANTS[:2], episodes_per_variant=2,
                 mode="stochastic", seed=7)
    b = evaluate(ckpt.actor, TRAIN_VARIANTS[:2], episodes_per_variant=2,
                 mode="stochastic", seed=7)
    assert a.rows == b.rows


def test_evaluate_mode_validation():
    ckpt = new_checkpoint(SMALL)
    with pytest.raises(ContractViolationError):
        evaluate(ckpt.actor, TRAIN_VARIANTS, mode="greedy")
    with pytest.raises(ContractViolationError):
        evaluate(ckpt.actor, TRAIN_VARIANTS, episodes_per_variant=0)


def test_eval_table_mentions_reference_steps():
    ckpt = new_checkpoint(SMALL)
    report = evaluate(ckpt.actor, [FEASIBLE_A], episodes_per_variant=1)
    table = format_eval_table(report, label="ppo")
    assert "2500" in table and "10000" in table
    assert "11.0" in table  # reference step count for machine 1
    assert "agent=ppo" in table


def test_write_episode_csv(tmp_path):
    ckpt = new_checkpoint(SMALL)
    report = evaluate(ckpt.actor, [FEASIBLE_A], episodes_per_variant=3)
    path = tmp_path / "episodes.csv"
    write_episode_csv(str(path), report.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode_index,steps,win"
    assert len(lines) == 4
    assert lines[1] == "0,1,1"



def _reference_evaluate(actor, variants, episodes_per_variant, mode, seed):
    """evaluate with a forward pass and a fresh Categorical on every step,
    and the sampling rule spelled out in numpy; kept as the reference that
    the per-call memo must match bit for bit."""
    def play(env, rng):
        def policy(obs):
            logits, _ = forward(actor, obs[None])
            if mode == "argmax":
                return int(np.argmax(logits[0]))
            cdf = np.cumsum(Categorical(logits).probs, axis=-1)
            u = rng.random(1)
            return int(np.minimum((cdf < u[:, None]).sum(axis=-1), NUM_ACTIONS - 1)[0])

        return run_episode(env, policy)

    return evaluate_agent(play, variants, episodes_per_variant, mode, seed)


def _assert_same_report(got, want):
    assert got.rows == want.rows
    # repr tells floats apart bit for bit and prints every nan alike
    assert repr(got.per_machine) == repr(want.per_machine)


# two variants of each stock machine, so one call spans all three
EVAL_VARIANTS = [v for machine in builtin_catalog() for v in generate_variants(machine, 2, 3)]


@pytest.mark.parametrize("seed", [0, 4, 11])
@pytest.mark.parametrize("mode", ["stochastic", "argmax"])
def test_evaluate_matches_the_per_step_reference(mode, seed):
    actor = _trained_checkpoint().actor
    got = evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=mode, seed=seed)
    assert set(got.per_machine) == {1, 2, 3}
    _assert_same_report(got, _reference_evaluate(actor, EVAL_VARIANTS, 3, mode, seed))


@pytest.mark.parametrize("mode", ["stochastic", "argmax"])
def test_evaluate_runs_the_actor_once_per_distinct_observation(monkeypatch, mode):
    forwarded, seen = [], []

    def counting_forward(params, x):
        forwarded.append(x.tobytes())
        return forward(params, x)

    def recording_run_episode(env, policy):
        return run_episode(env, lambda obs: seen.append(obs.tobytes()) or policy(obs))

    monkeypatch.setattr("motorgame.ppo.forward", counting_forward)
    monkeypatch.setattr("motorgame.ppo.run_episode", recording_run_episode)
    evaluate(new_checkpoint(SMALL).actor, EVAL_VARIANTS, episodes_per_variant=3,
             mode=mode, seed=2)
    assert sorted(forwarded) == sorted(set(seen))
    assert len(seen) > len(forwarded)  # the memo was hit


@pytest.mark.parametrize("mode", ["stochastic", "argmax"])
def test_evaluate_keeps_no_policy_across_calls(mode):
    actor = new_checkpoint(SMALL).actor
    before = evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=mode, seed=5)
    actor.flat += np.random.default_rng(6).normal(scale=0.5, size=actor.flat.shape)
    after = evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=mode, seed=5)
    assert after.rows != before.rows  # the perturbed actor plays differently
    _assert_same_report(after, _reference_evaluate(actor, EVAL_VARIANTS, 3, mode, 5))


# --- machines beyond the stock three ------------------------------------------------

# machine 1 under a new id, and machine 1 with its length axis starting at
# 0.7 pu instead of 0.5, so its lattice points are not the stock ones
MACHINE_4 = replace(BASE, id=4)
SHIFTED_1 = replace(BASE, bounds=replace(BASE.bounds, length=(
    0.7 * BASE.base_design.length, 0.7 * BASE.base_design.length + 30 * BASE.step_sizes.length)))


def _witness_replays(variant, result):
    env = DesignEnv(variant)
    env.reset()
    info = None
    for action in result.witness:
        _, _, _, info = env.step(action)
    return (all_flags_zero(env.flags) and env.steps == result.shortest_steps
            and (info is None or info.win))


def test_a_machine_under_a_new_id_plays_trains_and_reports():
    variants = generate_variants(MACHINE_4, 30, 0)
    assert {v.base for v in variants} == {MACHINE_4} and variants[0].base_id == 4
    env = DesignEnv(variants[0])
    env.reset()
    env.step(Action.LENGTH_UP)
    assert env.base is MACHINE_4 and env.index[0] == lattice_index(
        MACHINE_4, variants[0].initial_design)[0] + 1
    for v in variants:
        assert _witness_replays(v, oracle_shortest(v))
    ckpt, report = train(variants, SMALL)
    assert len(report.rows) == 1 and ckpt.update_index == 1
    evaluation = evaluate(ckpt.actor, variants, episodes_per_variant=1, seed=0)
    assert list(evaluation.per_machine) == [4]
    assert evaluation.per_machine[4].machine is MACHINE_4
    table = format_eval_table(evaluation).splitlines()
    assert table[1].split()[:3] == ["4", "2500", "10000"] and table[1].split()[5] == "-"


def test_a_shifted_lattice_plays_its_own_points_beside_the_stock_machine():
    shifted = generate_variants(SHIFTED_1, 30, 0)
    assert lattice_shape(SHIFTED_1) == lattice_shape(BASE)
    for v in shifted:
        env = DesignEnv(v)
        env.reset()
        assert env.base is SHIFTED_1 and env.design == v.initial_design
        assert _witness_replays(v, oracle_shortest(v))
    variants = shifted[:10] + generate_variants(BASE, 10, 0)
    np.random.default_rng(8).shuffle(variants)
    pool = EnvPool(variants, 8, REPLAY_CONFIG)
    assert pool._perf_table.shape[1] == 2 * np.prod(lattice_shape(BASE))
    _assert_replays(variants, 8, 150, 8)


def test_evaluation_rejects_two_machines_that_share_an_id():
    """The summary is keyed by machine id: machine 1 rated 3000 kW beside
    the stock machine 1 would merge into one row at the last rating."""
    rerated = replace(BASE, rated_power=3000.0)
    variants = generate_variants(BASE, 3, 0) + generate_variants(rerated, 3, 0)

    def greedy(env, rng):
        return greedy_agent(env)

    with pytest.raises(ContractViolationError, match="two different machines share id 1"):
        evaluate_agent(greedy, variants, 2, "greedy")
    with pytest.raises(ContractViolationError, match="share id 1"):
        evaluate(new_checkpoint(SMALL).actor, variants, episodes_per_variant=1)
    alone = evaluate_agent(greedy, variants[3:], 2, "greedy").per_machine
    assert alone[1].machine == rerated and alone[1].episodes == 6


@pytest.mark.parametrize("machine", [MACHINE_4, SHIFTED_1], ids=["id_4", "shifted_1"])
def test_a_machine_that_is_not_stock_is_not_saved_nor_swapped(tmp_path, machine):
    variant = generate_variants(machine, 1, 0)[0]
    path = tmp_path / "catalog.txt"
    with pytest.raises(ContractViolationError, match="not a stock machine"):
        save_catalog([generate_variants(BASE, 1, 0)[0], variant], path)
    assert not path.exists()
    for other in (BASE, machine_by_id(2)):
        with pytest.raises(ContractViolationError):
            DesignEnv(variant, other)
        with pytest.raises(ContractViolationError):
            oracle_shortest(variant, other)
    assert DesignEnv(variant, machine).base is machine
    assert oracle_shortest(variant, machine) == oracle_shortest(variant)


# --- checkpoint persistence -----------------------------------------------------------


def _trained_checkpoint():
    ckpt, _ = train(TRAIN_VARIANTS, SMALL)
    return ckpt


def test_checkpoint_round_trip(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.hyper == ckpt.hyper
    assert loaded.update_index == ckpt.update_index
    assert loaded.env_steps == ckpt.env_steps
    for x, y in zip(ckpt.actor.tensors() + ckpt.critic.tensors(),
                    loaded.actor.tensors() + loaded.critic.tensors()):
        assert np.array_equal(x, y)
    for opt, back in ((ckpt.actor_opt, loaded.actor_opt),
                      (ckpt.critic_opt, loaded.critic_opt)):
        for x, y in zip(opt.m.tensors() + opt.v.tensors(),
                        back.m.tensors() + back.v.tensors()):
            assert np.array_equal(x, y)
    assert loaded.actor_opt.step == ckpt.actor_opt.step
    assert loaded.actor.sizes == ACTOR_SIZES
    assert loaded.critic.sizes == CRITIC_SIZES


def test_checkpoint_v2_stores_each_value_once_and_round_trips_bytewise(tmp_path):
    ckpt = _trained_checkpoint()
    path, again = tmp_path / "ckpt.txt", tmp_path / "again.txt"
    save_checkpoint(ckpt, str(path))
    save_checkpoint(load_checkpoint(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()

    sections = read_sections(path, CheckpointFormatError, "motor-design-ckpt v2")
    assert [(s.name, list(s.values)) for s in sections] == [
        ("meta", ["update_index", "env_steps"]),
        ("hyper", [f.name for f in fields(Hyperparams)]),
        ("actor", ["sizes", "flat"]), ("critic", ["sizes", "flat"]),
        ("actor_opt", ["step", "m", "v"]), ("critic_opt", ["step", "m", "v"])]
    assert path.read_text().count("learning_rate") == 1
    values = {s.name: s.values for s in sections}
    for name, params in (("actor", ckpt.actor), ("critic", ckpt.critic)):
        layers = np.concatenate([t.ravel() for t in params.tensors()])
        assert np.array_equal(parse_array(values[name]["flat"], layers.shape), layers)
    for name, opt in (("actor_opt", ckpt.actor_opt), ("critic_opt", ckpt.critic_opt)):
        for key, moment in (("m", opt.m), ("v", opt.v)):
            assert np.array_equal(
                parse_array(values[name][key], moment.flat.shape), moment.flat)


@pytest.mark.parametrize("section,extra", [
    ("actor_opt", "bogus = 1"),
    ("actor_opt", "learning_rate = 0.0003"),  # v1 kept the rate here too
    ("critic_opt", "beta1 = 0.9"),
    ("critic", "W0 = 0.0"),
    (None, "[nonsense]"),
])
def test_checkpoint_rejects_unknown_sections_and_keys(tmp_path, section, extra):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    lines = path.read_text().splitlines()
    at = lines.index(f"[{section}]") + 1 if section else len(lines)
    lines.insert(at, extra)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError, match="unknown") as err:
        load_checkpoint(str(path))
    assert err.value.line == at + 1


def test_checkpoint_rejects_missing_keys(tmp_path):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    lines = path.read_text().splitlines()
    header = lines.index("[critic_opt]")
    del lines[header + 1]  # its step
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError, match=r"\[critic_opt\] is missing step") as err:
        load_checkpoint(str(path))
    assert err.value.line == header + 1


def test_checkpoint_rejects_a_second_section_at_its_header(tmp_path):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    lines = path.read_text().splitlines()
    actor = lines.index("[actor]")
    path.write_text("\n".join(lines + lines[actor:actor + 3]) + "\n")  # a whole second [actor]
    with pytest.raises(CheckpointFormatError, match=r"duplicate section \[actor\]") as err:
        load_checkpoint(str(path))
    assert err.value.line == len(lines) + 1


def test_checkpoint_version_error(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    text = path.read_text()
    for version in ("v1", "v9"):
        path.write_text(text.replace(CHECKPOINT_VERSION_LINE,
                                     f"motor-design-ckpt {version}", 1))
        with pytest.raises(CheckpointFormatError, match=version):
            load_checkpoint(str(path))


def test_checkpoint_missing_section(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    lines = path.read_text().splitlines()
    start = lines.index("[critic_opt]")
    path.write_text("\n".join(lines[:start]))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(path))


def test_checkpoint_corrupt_tensor(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    text = path.read_text().replace("sizes = 11 64 64 6", "sizes = 11 64 6", 1)
    path.write_text(text)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_actor_without_layers(tmp_path):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    actor_sizes = "sizes = " + " ".join(str(s) for s in ACTOR_SIZES)
    path.write_text(path.read_text().replace(actor_sizes,
                                             f"sizes = {OBSERVATION_DIM}", 1))
    with pytest.raises(CheckpointFormatError, match=r"\[actor\]"):
        load_checkpoint(str(path))


def _rewrite_checkpoint_value(path, section, key, rewrite):
    """Replace the value of ``key`` in ``[section]`` with rewrite(value)."""
    lines = path.read_text().splitlines()
    at = lines.index(f"[{section}]") + 1
    at += [line.split(" = ")[0] for line in lines[at:]].index(key)
    lines[at] = f"{key} = {rewrite(lines[at].split(' = ')[1])}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("section,key", [
    ("meta", "update_index"), ("meta", "env_steps"),
    ("actor_opt", "step"), ("critic_opt", "step")])
def test_checkpoint_rejects_negative_counts(tmp_path, section, key):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    _rewrite_checkpoint_value(path, section, key, lambda _: "-1")
    with pytest.raises(CheckpointFormatError, match=f"{key} = -1 is negative"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", [
    ("actor", "flat"), ("critic", "flat"), ("actor_opt", "m"), ("actor_opt", "v"),
    ("critic_opt", "m"), ("critic_opt", "v")])
def test_checkpoint_rejects_non_finite_arrays(tmp_path, section, key, value):
    def poison(text):
        tokens = text.split()
        tokens[len(tokens) // 2] = value
        return " ".join(tokens)

    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    _rewrite_checkpoint_value(path, section, key, poison)
    with pytest.raises(CheckpointFormatError,
                       match=rf"\[{section}\] section: {key} holds a non-finite value"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("net,sizes", [
    ("actor", (OBSERVATION_DIM, 64, 64, NUM_ACTIONS + 1)),
    ("actor", (OBSERVATION_DIM + 1, 64, 64, NUM_ACTIONS)),
    ("critic", (OBSERVATION_DIM, 64, 64, 2)),
])
def test_checkpoint_rejects_networks_that_do_not_fit_the_game(tmp_path, net, sizes):
    params = init(sizes, seed=0)
    ckpt = replace(new_checkpoint(SMALL), **{
        net: params, f"{net}_opt": AdamState.for_params(params, 1e-3)})
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    with pytest.raises(CheckpointFormatError, match=rf"\[{net}\]"):
        load_checkpoint(str(path))
