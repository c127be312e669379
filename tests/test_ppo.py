"""PPO trainer: rollout collection, advantage estimation, the clipped
surrogate update, deterministic training/resume, and evaluation."""

import os
import re
import subprocess
import sys
import threading
import weakref
from contextlib import nullcontext
from dataclasses import astuple, fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from motorgame import agents as agents_module
from motorgame import catalog as catalog_module
from motorgame import env as env_module
from motorgame import ppo as ppo_module
from motorgame.agents import oracle_shortest, play_greedy, play_oracle, play_random
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
    move_table,
    run_episode,
)
from motorgame.errors import (
    ContractViolationError,
    TextFormatError,
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
    CriticWorker,
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
from motorgame.surrogate import lattice_index

BASE = machine_by_id(1)


def _variant(b_gap=(0.5, 2.5), t_break=(0.2, 2.8), i_start=(0.2, 2.8),
             d_temp=(0.2, 2.8), tooth_tip=(1.0, 4.0), variant_seed=0):
    bands = TargetBands(b_gap=b_gap, t_break=t_break, i_start=i_start,
                        d_temp=d_temp, tooth_tip=tooth_tip)
    return MachineVariant(base=BASE, variant_seed=variant_seed,
                          start=lattice_index(BASE, BASE.base_design), target_bands=bands)


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


@pytest.mark.parametrize("name", ["epochs", "minibatch_size", "horizon", "total_steps",
                                  "env_count", "seed"])
def test_hyperparams_reject_counts_that_are_not_integers(name):
    for value in (1.5, 2.0, True):
        with pytest.raises(ContractViolationError, match=f"{name} must be an integer"):
            Hyperparams(**{name: value})
    assert getattr(Hyperparams(**{name: np.int64(2)}), name) == 2


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
        shape = base.shape
        for v in generate_variants(base, 3, 7):
            feasible = tuple(np.argwhere(feasible_mask(base, v.target_bands))[0])
            starts = (feasible, move(feasible, Action.TURNS_DOWN, shape),
                      (0, 0, 0), tuple(n - 1 for n in shape))
            out += [v] + [replace(v, start=ijk) for ijk in starts]
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
    assert {machine_by_id(v.base_id).shape for v in variants} == {
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
    points = sum(np.prod(base.shape) for base in builtin_catalog())
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
        shape = base.shape
        want.append([[offset + np.ravel_multi_index(move(ijk, action, shape), shape)
                      for ijk in np.ndindex(*shape)] for action in Action])
        offset += np.prod(shape)
    assert pool._after.dtype == np.uint16
    assert np.array_equal(pool._after, np.concatenate(want, axis=1))


@pytest.mark.parametrize("shape", [BASE.shape, (31, 13, 21)],
                         ids=["stock", "narrow_turns"])
def test_move_table_is_the_move_rule_and_read_only(shape):
    """move_table(shape) is move() at every point and action, through the
    flat C-order point index, and cannot be written to."""
    table = move_table(shape)
    want = [[np.ravel_multi_index(move(ijk, action, shape), shape)
             for ijk in np.ndindex(*shape)] for action in Action]
    assert np.array_equal(table, want)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = table[0, 1]


def test_pools_and_the_oracle_reuse_one_move_table_per_shape(monkeypatch):
    """After a warm-up, a second pool over the stock machines calls move()
    nowhere, since it reads move_table()'s cached tables, and neither does
    the oracle, which takes its steps from L1 offsets."""
    variants = [v for base in builtin_catalog() for v in generate_variants(base, 1, 3)]
    EnvPool(variants, 1)
    assert oracle_shortest(variants[0]).shortest_steps >= 1  # a non-empty witness, built without move()
    calls, real_move = [], move

    def counting_move(*args):
        calls.append(args)
        return real_move(*args)

    monkeypatch.setattr(env_module, "move", counting_move)
    monkeypatch.setattr(agents_module, "move", counting_move)
    EnvPool(variants, 1)
    oracle_shortest(variants[0])
    assert calls == []


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
    recomputed = Categorical(logits).logits_log_probs[np.arange(len(flat_act)), flat_act]
    assert np.max(np.abs(recomputed - buf.log_probs.reshape(-1))) < 1e-12


@pytest.mark.parametrize("horizon", [1, 7, 40])
def test_collect_rollout_runs_each_net_once_and_samples_once_per_step(monkeypatch, horizon):
    """One forward per net and one Categorical per rollout, over all 1,701
    observations; each step samples the pool's 3 rows of that table."""
    forwarded, built, sampled = [], [], []
    sample = Categorical.sample

    def counting_forward(params, x):
        forwarded.append((params.sizes[-1], len(x)))
        return forward(params, x)

    class CountingCategorical(Categorical):
        def __init__(self, logits):
            built.append(len(logits))
            super().__init__(logits)

    def counting_sample(dist, rng, rows=None):
        sampled.append((len(dist.probs), len(rows)))
        return sample(dist, rng, rows)

    monkeypatch.setattr("motorgame.ppo.forward", counting_forward)
    monkeypatch.setattr("motorgame.ppo.Categorical", CountingCategorical)
    monkeypatch.setattr(Categorical, "sample", counting_sample)
    ckpt = new_checkpoint(SMALL)
    collect_rollout(EnvPool(TRAIN_VARIANTS, env_count=3), ckpt.actor, ckpt.critic,
                    horizon, rng=np.random.default_rng(4))
    assert sorted(forwarded) == [(1, len(ALL_OBSERVATIONS)), (NUM_ACTIONS, len(ALL_OBSERVATIONS))]
    assert built == [len(ALL_OBSERVATIONS)]
    assert sampled == [(len(ALL_OBSERVATIONS), 3)] * horizon


def _reference_rollout(pool, actor, critic, horizon, rng):
    """collect_rollout as a per-step loop: a Categorical on the step's
    gathered table rows, its sample and their log-probs, and the step's
    values; kept as the reference that the one-table rollout must match
    bit for bit."""
    table_logits = forward(actor, ALL_OBSERVATIONS)[0]
    table_values = forward(critic, ALL_OBSERVATIONS)[0][:, 0]
    shape = (horizon, pool.env_count)
    codes, actions = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.intp)
    log_probs, rewards, values, dones = (np.zeros(shape) for _ in range(4))
    for t in range(horizon):
        codes[t] = code = pool.codes()
        dist = Categorical(table_logits[code])
        actions[t] = act = dist.sample(rng)
        log_probs[t] = dist.logits_log_probs[np.arange(pool.env_count), act]
        values[t] = table_values[code]
        rewards[t], dones[t] = pool.step(act)
    return codes, actions, log_probs, rewards, values, dones, table_values[pool.codes()]


@pytest.mark.parametrize("env_count", [1, 3, 64])
def test_collect_rollout_matches_the_per_step_loop(env_count):
    ckpt = new_checkpoint(replace(SMALL, seed=env_count))
    variants = [v for base in builtin_catalog() for v in generate_variants(base, 4, 11)]
    # REPLAY_CONFIG's 6-step cap restarts episodes inside the rollout
    got = collect_rollout(EnvPool(variants, env_count, REPLAY_CONFIG), ckpt.actor,
                          ckpt.critic, 30, np.random.default_rng(env_count))
    want = _reference_rollout(EnvPool(variants, env_count, REPLAY_CONFIG), ckpt.actor,
                              ckpt.critic, 30, np.random.default_rng(env_count))
    assert got.dones.any()
    for name, expected in zip(("codes", "actions", "log_probs", "rewards", "values",
                               "dones", "bootstrap"), want):
        value = getattr(got, name)
        assert value.dtype == expected.dtype and np.array_equal(value, expected), name


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
            adam_step(actor, actor_grads, actor_opt, hyper.learning_rate)
            critic_grads = _reference_backward(critic, critic_cache, summed_value_grad)
            norms.append((actor_norm, _reference_clip(critic_grads)))
            adam_step(critic, critic_grads, critic_opt, hyper.learning_rate)

            pol_losses.append(-float(np.mean(objective)))
            val_losses.append(float(np.mean(err * err)))
            entropies.append(float(np.mean(entropy)))
            clip_fracs.append(float(np.mean(np.abs(ratio - 1.0) > hyper.clip_ratio)))
            grad_norms.append(actor_norm)
            kls.append(float(np.mean(old_log_probs[idx] - new_log_prob)))
    return UpdateStats(*(float(np.mean(x)) for x in (
        pol_losses, val_losses, entropies, clip_fracs, grad_norms, kls)))


def _update_pairs(hyper, per_row, worker=False):
    """Run ppo_update and _reference_update side by side on the same three
    rollouts, ppo_update with a CriticWorker if ``worker``; returns each
    update's (stats, reference stats, [(tensor, reference tensor)]) and
    the reference's pre-clip norms."""
    ckpt, ref = new_checkpoint(hyper), new_checkpoint(hyper)
    pool = EnvPool(TRAIN_VARIANTS, hyper.env_count)
    updates, norms = [], []
    with CriticWorker(ckpt.critic) if worker else nullcontext() as critic_worker:
        for update in range(3):
            buf = collect_rollout(pool, ckpt.actor, ckpt.critic, hyper.horizon,
                                  np.random.default_rng(update))
            advantages, returns = _advantages(buf, hyper)
            got = ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                             buf, advantages, returns, hyper, np.random.default_rng([9, update]),
                             critic_worker)
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


# --- the critic worker -------------------------------------------------------------

# The tests named critic_worker fork a CriticWorker in this process, which
# is safe only where it has one OS thread: NumPy's BLAS starts its threads
# at import unless OPENBLAS_NUM_THREADS=1.  Elsewhere
# test_one_blas_thread_runs_the_worker_path_tests runs them in a fresh
# pytest with one BLAS thread.
needs_worker = pytest.mark.skipif(
    not ppo_module._worker_can_run(),
    reason="forks a worker: needs os.fork, 2 CPUs and one OS thread")
ROOT = Path(__file__).resolve().parent.parent


def _can_use_two_cpus() -> bool:
    return hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2


@pytest.mark.skipif(ppo_module._worker_can_run() or not _can_use_two_cpus(),
                    reason="the critic_worker tests run in this process, or cannot run")
def test_one_blas_thread_runs_the_worker_path_tests():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", "critic_worker",
         str(ROOT / "tests" / "test_ppo.py"), str(ROOT / "tests" / "test_cli.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = done.stdout.strip().splitlines()[-1]
    assert "passed" in summary and "skipped" not in summary, summary


# several epochs; stock; a short last minibatch of 1024; one minibatch
# larger than the batch
@needs_worker
@pytest.mark.parametrize("minibatch_size,epochs", [(64, 4), (300, 3), (2000, 2)])
def test_critic_worker_update_matches_the_minibatch_loop_reference(minibatch_size, epochs):
    hyper = Hyperparams(horizon=128, env_count=8, minibatch_size=minibatch_size,
                        epochs=epochs, learning_rate=0.05, entropy_coef=1.0, seed=9)
    updates, norms = _update_pairs(hyper, per_row=False, worker=True)
    for got, want, tensors in updates:
        assert got == want
        for a, b in tensors:
            assert np.array_equal(a, b)
    assert any(c > GRAD_CLIP_NORM for _, c in norms)


def _record_forks(monkeypatch) -> list[int]:
    """The pids of the processes os.fork starts from now on."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _spoiled_value_loss(at):
    """forward, with the critic's output on its ``at``-th minibatch NaN."""
    calls = []

    def spoiled(params, x):
        out, cache = forward(params, x)
        if params.sizes[-1] == 1 and len(x) < len(ALL_OBSERVATIONS):
            calls.append(1)
            if len(calls) == at:
                out[0, 0] = np.nan
        return out, cache

    return "forward", spoiled


def _spoiled_critic_gradient(at):
    """clip_grad_norm, with the critic's gradient on its ``at``-th
    minibatch NaN before the clip."""
    calls, clip = [], ppo_module.clip_grad_norm

    def spoiled(grads, max_norm):
        if grads.sizes[-1] == 1:
            calls.append(1)
            if len(calls) == at:
                grads.flat[5] = np.nan
        return clip(grads, max_norm)

    return "clip_grad_norm", spoiled


def _diverged_train(monkeypatch, spoil, at, worker):
    """Train two updates of 8 minibatches each with ``spoil(at)`` in place,
    in-process or with the worker; returns the error and the checkpoint."""
    hyper = replace(SMALL, total_steps=64)
    ckpt = new_checkpoint(hyper)
    with monkeypatch.context() as patch:
        patch.setattr(ppo_module, "_worker_can_run", lambda: worker)
        patch.setattr(ppo_module, *spoil(at))
        pids = _record_forks(patch)
        with pytest.raises(TrainingDivergedError) as err:
            train(TRAIN_VARIANTS, hyper, checkpoint=ckpt)
    assert len(pids) == worker
    _assert_reaped(pids)
    return err.value, ckpt


@needs_worker
@pytest.mark.parametrize("spoil,message,steps_before", [
    # raised before either Adam step
    (_spoiled_value_loss, r"non-finite loss \(policy=.*, value=nan, ", (-1, -1)),
    # raised by the critic's Adam step, after the actor's
    (_spoiled_critic_gradient, "non-finite gradient", (0, -1))],
    ids=["value_loss", "critic_gradient"])
def test_critic_worker_diverges_as_the_in_process_update(monkeypatch, spoil, message,
                                                        steps_before):
    at = 11  # the second update's third minibatch
    (error, ckpt), (want_error, want) = (
        _diverged_train(monkeypatch, spoil, at, worker) for worker in (True, False))
    assert str(error) == str(want_error) and re.match(message, str(error))
    assert error.update_index == want_error.update_index == 1
    assert (ckpt.actor_opt.step, ckpt.critic_opt.step) == (
        want.actor_opt.step, want.critic_opt.step) == tuple(at + s for s in steps_before)
    for got, expected in zip(
            (ckpt.actor, ckpt.critic, ckpt.actor_opt.m, ckpt.actor_opt.v,
             ckpt.critic_opt.m, ckpt.critic_opt.v),
            (want.actor, want.critic, want.actor_opt.m, want.actor_opt.v,
             want.critic_opt.m, want.critic_opt.v)):
        assert np.array_equal(got.flat, expected.flat)


@needs_worker
def test_critic_worker_train_is_the_in_process_train_and_leaves_no_process(monkeypatch):
    hyper = replace(SMALL, total_steps=64)
    pids = _record_forks(monkeypatch)
    with_worker, _ = train(TRAIN_VARIANTS, hyper)
    assert len(pids) == 1
    _assert_reaped(pids)
    monkeypatch.setattr(ppo_module, "_worker_can_run", lambda: False)
    in_process, _ = train(TRAIN_VARIANTS, hyper)
    assert len(pids) == 1
    for got, want in ((with_worker.critic, in_process.critic),
                      (with_worker.critic_opt.v, in_process.critic_opt.v)):
        assert np.array_equal(got.flat, want.flat)


@needs_worker
def test_critic_worker_that_dies_is_an_os_error(monkeypatch):
    parent = os.getpid()

    def dies(*args):
        assert os.getpid() != parent, "the critic ran in the parent"
        os._exit(3)

    monkeypatch.setattr(ppo_module, "_critic_loss", dies)
    pids = _record_forks(monkeypatch)
    with pytest.raises(OSError, match=r"critic worker \d+ exited"):
        train(TRAIN_VARIANTS, SMALL)
    assert len(pids) == 1
    _assert_reaped(pids)


def test_train_forks_a_worker_only_where_the_rule_allows(monkeypatch):
    """The worker needs os.fork, at least 2 allowed CPUs and a process with
    one OS thread; each condition is probed here without forking."""
    class Forked(Exception):
        pass

    def fork():
        raise Forked

    listdir = os.listdir
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "listdir", lambda path: (
        ["1"] if path == "/proc/self/task" else listdir(path)))
    with pytest.raises(Forked):
        train(TRAIN_VARIANTS, SMALL)
    for name, value in (("fork", None), ("sched_getaffinity", lambda pid: {0}),
                        ("listdir", lambda path: ["1", "2"])):
        with monkeypatch.context() as patch:
            if value is None:
                patch.delattr(os, name)
            else:
                patch.setattr(os, name, value)
            assert not ppo_module._worker_can_run()
            ckpt, _ = train(TRAIN_VARIANTS, SMALL)
            assert ckpt.update_index == 1


def test_a_second_thread_keeps_training_in_process():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("the OS thread count is read from /proc")
    before = len(os.listdir("/proc/self/task"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert len(os.listdir("/proc/self/task")) == before + 1
        assert not ppo_module._worker_can_run()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # the OS thread may outlive join() briefly; later tests count on it gone
    for _ in range(1000):
        if len(os.listdir("/proc/self/task")) == before:
            break
        threading.Event().wait(0.001)
    assert len(os.listdir("/proc/self/task")) == before


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


def test_a_changed_learning_rate_steps_as_it_does_after_a_round_trip(tmp_path):
    """The learning rate is held in hyper alone: one update after it is
    changed in place moves the nets as one update after a save and load."""
    ckpt, _ = train(TRAIN_VARIANTS, SMALL)
    ckpt.hyper = replace(ckpt.hyper, learning_rate=3e-3)
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    loaded = load_checkpoint(str(path))
    _, buf, advantages, returns = _small_buffer()
    for net in (ckpt, loaded):
        ppo_update(net.actor, net.critic, net.actor_opt, net.critic_opt,
                   buf, advantages, returns, net.hyper, np.random.default_rng(3))
    for x, y in zip(ckpt.actor.tensors() + ckpt.critic.tensors(),
                    loaded.actor.tensors() + loaded.critic.tensors()):
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


COUNTED_CALLS = {  # function.parameter -> a call passing that count
    "evaluate_agent.episodes_per_variant": lambda ckpt, n: evaluate_agent(
        play_greedy, [FEASIBLE_A], n, "greedy"),
    "evaluate.episodes_per_variant": lambda ckpt, n: evaluate(
        ckpt.actor, [FEASIBLE_A], episodes_per_variant=n),
    "EnvPool.env_count": lambda ckpt, n: EnvPool([FEASIBLE_A], n),
    "collect_rollout.horizon": lambda ckpt, n: collect_rollout(
        EnvPool([FEASIBLE_A], 1), ckpt.actor, ckpt.critic, n, np.random.default_rng(0)),
}


@pytest.mark.parametrize("value", [True, 2.5])
@pytest.mark.parametrize("call", COUNTED_CALLS)
def test_counts_that_are_not_integers_are_rejected(call, value):
    """A bool is not a count of 1, though int() takes it, and a float is
    not a count: each is a ContractViolationError, not a bare TypeError."""
    name = call.split(".")[1]
    with pytest.raises(ContractViolationError, match=f"{name} must be an integer"):
        COUNTED_CALLS[call](new_checkpoint(SMALL), value)


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



def _reference_evaluate(actor, variants, episodes_per_variant, mode, seed,
                        reward_config=None, seen=None):
    """evaluate played on DesignEnv, with a 1-row forward pass and a fresh
    Categorical on every step, and the sampling rule spelled out in numpy;
    kept as the reference for the rows that the lattice walk reads from the
    1,701-row policy table.  The two forwards may differ in the last bits
    of a logit, so the match is one of rows, checked on these cases, not a
    bit-for-bit identity of the tables.  Each observation the policy sees
    is appended to ``seen``, when given, as bytes.  Its player builds one
    DesignEnv per variant."""
    def play(variant, seeds, config):
        env = DesignEnv(variant, config=config)
        for seed in seeds:
            rng = np.random.default_rng(seed)

            def policy(obs):
                if seen is not None:
                    seen.append(obs.tobytes())
                logits, _ = forward(actor, obs[None])
                if mode == "argmax":
                    return int(np.argmax(logits[0]))
                cdf = np.cumsum(Categorical(logits).probs, axis=-1)
                u = rng.random(1)
                return int(np.minimum((cdf < u[:, None]).sum(axis=-1), NUM_ACTIONS - 1)[0])

            record = run_episode(env, policy)
            yield record.steps, record.win

    return evaluate_agent(play, variants, episodes_per_variant, mode, seed, reward_config)


def _assert_same_report(got, want):
    assert got.rows == want.rows
    # repr tells floats apart bit for bit and prints every nan alike
    assert repr(got.per_machine) == repr(want.per_machine)


# two variants of each stock machine, so one call spans all three
EVAL_VARIANTS = [v for machine in builtin_catalog() for v in generate_variants(machine, 2, 3)]

# machine 1 under a new id, and machine 1 with its length axis starting at
# 0.7 pu instead of 0.5, so its lattice points are not the stock ones
MACHINE_4 = replace(BASE, id=4)
SHIFTED_1 = replace(BASE, bounds=replace(BASE.bounds, length=(
    0.7 * BASE.base_design.length, 0.7 * BASE.base_design.length + 30 * BASE.step_sizes.length)))

# (variants, reward config, machine ids) per case: stock episodes;
# episodes cut short at 3 steps; a feasible start, which wins without
# moving; and machines that are not stock, whose episodes run into their
# lattice edges
EVAL_CASES = {
    "stock": (EVAL_VARIANTS, RewardConfig(), {1, 2, 3}),
    "max_steps_3": (EVAL_VARIANTS, RewardConfig(max_steps=3), {1, 2, 3}),
    "feasible_start": ([FEASIBLE_A, *EVAL_VARIANTS], RewardConfig(), {1, 2, 3}),
    "not_stock": (generate_variants(MACHINE_4, 3, 3) + generate_variants(SHIFTED_1, 3, 3),
                  RewardConfig(), {1, 4}),
}


# the stock case keeps the ids it had before the other cases were added
@pytest.mark.parametrize("mode, seed, case", [
    pytest.param(mode, seed, case, id=f"{mode}-{seed}" + (case != "stock") * f"-{case}")
    for case in EVAL_CASES for mode in ("stochastic", "argmax") for seed in (0, 4, 11)])
def test_evaluate_matches_the_per_step_reference(mode, seed, case):
    variants, config, machine_ids = EVAL_CASES[case]
    actor = _trained_checkpoint().actor
    got = evaluate(actor, variants, episodes_per_variant=3, mode=mode, seed=seed,
                   reward_config=config)
    assert set(got.per_machine) == machine_ids
    _assert_same_report(got, _reference_evaluate(actor, variants, 3, mode, seed, config))


def test_argmax_evaluation_plays_each_variant_once(monkeypatch):
    """Argmax draws nothing, so every episode of a variant is the same: at
    20 episodes per variant, each variant's walk gets one policy, and the
    rows are the per-step reference's."""
    actor, policies = _trained_checkpoint().actor, []

    def recording_walk(variant, given, max_steps):
        given = list(given)
        policies.append(len(given))
        return env_module.walk(variant, given, max_steps)

    monkeypatch.setattr(ppo_module, "walk", recording_walk)
    variants = EVAL_CASES["feasible_start"][0]
    got = evaluate(actor, variants, episodes_per_variant=20, mode="argmax", seed=3)
    assert policies == [1] * len(variants)
    _assert_same_report(got, _reference_evaluate(actor, variants, 20, "argmax", 3))


@pytest.mark.parametrize("mode", ["stochastic", "argmax"])
def test_evaluate_runs_the_actor_once_per_distinct_observation(monkeypatch, mode):
    """The policy table forwards each observation once, however often eval
    meets it: every observation the per-step reference sees is a row of
    the actor's forwards, and no row is forwarded twice."""
    actor, forwarded, seen = new_checkpoint(SMALL).actor, [], []

    def counting_forward(params, x):
        if params.sizes[-1] == NUM_ACTIONS:
            forwarded.extend(row.tobytes() for row in x)
        return forward(params, x)

    monkeypatch.setattr("motorgame.ppo.forward", counting_forward)
    evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=mode, seed=2)
    _reference_evaluate(actor, EVAL_VARIANTS, 3, mode, 2, seen=seen)
    assert len(forwarded) == len(set(forwarded))
    assert set(seen) <= set(forwarded)
    assert len(seen) > len(set(seen))  # a forward per step would repeat rows


def _count_actor_forwards(monkeypatch):
    """Patch ppo's forward to record the row count of each actor call."""
    forwarded = []

    def counting_forward(params, x):
        if params.sizes[-1] == NUM_ACTIONS:
            forwarded.append(len(x))
        return forward(params, x)

    monkeypatch.setattr("motorgame.ppo.forward", counting_forward)
    return forwarded


def test_one_policy_table_per_actor_value(monkeypatch):
    """evaluate builds its policy table once per actor value, for both
    modes, and each rollout builds its own, which leaves evaluate's alone:
    an in-place change to the actor makes evaluate build again, and an
    equal actor built apart gets its own."""
    ckpt, forwarded = new_checkpoint(SMALL), _count_actor_forwards(monkeypatch)
    table = [len(ALL_OBSERVATIONS)]

    def evaluate_both(actor):
        for mode in ("stochastic", "argmax"):
            evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=mode, seed=2)

    evaluate_both(ckpt.actor)
    evaluate_both(ckpt.actor)
    assert forwarded == table
    for _ in range(2):
        collect_rollout(EnvPool(TRAIN_VARIANTS, env_count=3), ckpt.actor, ckpt.critic,
                        horizon=5, rng=np.random.default_rng(4))
    assert forwarded == 3 * table
    evaluate_both(ckpt.actor)
    assert forwarded == 3 * table
    ckpt.actor.flat += 1e-3
    evaluate_both(ckpt.actor)
    assert forwarded == 4 * table
    twin = MlpParams(ckpt.actor.sizes)
    twin.flat[:] = ckpt.actor.flat
    evaluate_both(twin)
    assert forwarded == 5 * table


@pytest.mark.parametrize("mode", ["stochastic", "argmax"])
def test_per_variant_calls_play_one_call_and_build_one_table(monkeypatch, mode):
    """evaluate once per variant, as perfbench's eval phase calls it, gives
    the rows of one call over all the variants, and only the first call
    builds the policy table."""
    def key(rows):
        return [(r.machine_id, r.variant_seed, r.steps, r.win) for r in rows]

    actor, forwarded = _trained_checkpoint().actor, _count_actor_forwards(monkeypatch)
    variants = EVAL_CASES["feasible_start"][0]
    per_variant = [row for v in variants for row in evaluate(
        actor, [v], episodes_per_variant=3, mode=mode, seed=7).rows]
    assert forwarded == [len(ALL_OBSERVATIONS)]
    whole = evaluate(actor, variants, episodes_per_variant=3, mode=mode, seed=7).rows
    assert key(per_variant) == key(whole) and forwarded == [len(ALL_OBSERVATIONS)]


def test_each_rollout_reads_a_table_of_the_updated_actor(monkeypatch):
    """ppo_update changes the actor in place, so a 3-update train builds
    one table per rollout: none samples from a stale one."""
    forwarded = _count_actor_forwards(monkeypatch)
    train(TRAIN_VARIANTS, replace(SMALL, total_steps=3 * SMALL.horizon * SMALL.env_count))
    assert forwarded.count(len(ALL_OBSERVATIONS)) == 3


def _caches_holding(actor):
    """ppo's weak per-actor caches that hold an entry for ``actor``."""
    return [name for name, value in vars(ppo_module).items()
            if isinstance(value, weakref.WeakKeyDictionary) and actor in value]


def test_train_returns_an_actor_with_no_cached_policy():
    """Training reads no cached table, so the actor it returns holds none
    until evaluate builds one."""
    ckpt, _ = train(TRAIN_VARIANTS, replace(SMALL, total_steps=2 * SMALL.horizon * SMALL.env_count))
    assert _caches_holding(ckpt.actor) == []
    evaluate(ckpt.actor, EVAL_VARIANTS, episodes_per_variant=1)
    assert len(_caches_holding(ckpt.actor)) == 1


@pytest.mark.parametrize("agent", ["stochastic", "argmax", "random", "greedy", "oracle"])
def test_only_a_player_that_draws_derives_episode_seeds(monkeypatch, agent):
    """Stochastic PPO and the random agent derive one seed per episode;
    argmax PPO, greedy and the oracle draw nothing, derive none, and each
    variant's one row stands for all its episodes."""
    actor, derived = new_checkpoint(SMALL).actor, []
    monkeypatch.setattr("motorgame.ppo.derive_seed",
                        lambda *parts: derived.append(parts) or derive_seed(*parts))
    players = {"random": play_random, "greedy": play_greedy, "oracle": play_oracle}
    if agent in players:
        report = evaluate_agent(players[agent], EVAL_VARIANTS, 3, agent, seed=2)
    else:
        report = evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=agent, seed=2)
    assert len(report.rows) == 3 * len(EVAL_VARIANTS)
    draws = agent in ("stochastic", "random")
    assert derived == draws * [(2, v.variant_seed, ep) for v in EVAL_VARIANTS for ep in range(3)]
    if not draws:
        steps_win = [(row.steps, row.win) for row in report.rows]
        assert steps_win == [row for row in steps_win[::3] for _ in range(3)]


@pytest.mark.parametrize("mode", ["stochastic", "argmax"])
def test_evaluate_never_reads_a_stale_table_of_a_changed_actor(mode):
    actor = new_checkpoint(SMALL).actor
    before = evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=mode, seed=5)
    actor.flat += np.random.default_rng(6).normal(scale=0.5, size=actor.flat.shape)
    after = evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=mode, seed=5)
    assert after.rows != before.rows  # the perturbed actor plays differently
    _assert_same_report(after, _reference_evaluate(actor, EVAL_VARIANTS, 3, mode, 5))


@pytest.mark.parametrize("mode", ["stochastic", "argmax"])
def test_evaluate_seeds_a_generator_only_to_sample(monkeypatch, mode):
    """Stochastic evaluation seeds one generator per episode from (seed,
    variant seed, episode); argmax draws nothing and seeds none."""
    actor, seeded, default_rng = new_checkpoint(SMALL).actor, [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: seeded.append(s) or default_rng(s))
    evaluate(actor, EVAL_VARIANTS, episodes_per_variant=3, mode=mode, seed=2)
    assert seeded == (mode == "stochastic") * [
        derive_seed(2, v.variant_seed, ep) for v in EVAL_VARIANTS for ep in range(3)]


# --- machines beyond the stock three ------------------------------------------------

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
    assert SHIFTED_1.shape == BASE.shape
    for v in shifted:
        env = DesignEnv(v)
        env.reset()
        assert env.base is SHIFTED_1 and env.design == v.initial_design
        assert _witness_replays(v, oracle_shortest(v))
    variants = shifted[:10] + generate_variants(BASE, 10, 0)
    np.random.default_rng(8).shuffle(variants)
    pool = EnvPool(variants, 8, REPLAY_CONFIG)
    assert pool._perf_table.shape[1] == 2 * np.prod(BASE.shape)
    _assert_replays(variants, 8, 150, 8)


def test_evaluation_rejects_two_machines_that_share_an_id():
    """The summary is keyed by machine id: machine 1 rated 3000 kW beside
    the stock machine 1 would merge into one row at the last rating."""
    rerated = replace(BASE, rated_power=3000.0)
    variants = generate_variants(BASE, 3, 0) + generate_variants(rerated, 3, 0)
    with pytest.raises(ContractViolationError, match="two different machines share id 1"):
        evaluate_agent(play_greedy, variants, 2, "greedy")
    with pytest.raises(ContractViolationError, match="share id 1"):
        evaluate(new_checkpoint(SMALL).actor, variants, episodes_per_variant=1)
    alone = evaluate_agent(play_greedy, variants[3:], 2, "greedy").per_machine
    assert alone[1].machine == rerated and alone[1].episodes == 6


@pytest.mark.parametrize("count", [0, 2])
def test_evaluation_rejects_a_player_with_the_wrong_row_count(count):
    """A player gives one row, or one per episode: 2 rows at 5 episodes
    per variant would report 5, and no rows would divide by zero."""
    variants = generate_variants(BASE, 2, 0)
    with pytest.raises(ContractViolationError, match=(
            f"{count} rows for variant {variants[0].variant_seed} of machine 1, "
            "not 1 or episodes_per_variant 5")):
        evaluate_agent(lambda variant, seeds, config: [(3, True)] * count, variants, 5, "fixed")


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


def test_checkpoint_round_trips_numpy_float_hyperparams(tmp_path):
    """Hyperparams takes a numpy float, and the checkpoint writes it as the
    Python float it equals, which loads back."""
    trained = _trained_checkpoint()
    ckpt = replace(trained, hyper=replace(trained.hyper, learning_rate=np.float64(3e-4)))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    assert "learning_rate = 0.0003\n" in path.read_text()
    assert load_checkpoint(str(path)).hyper == ckpt.hyper


def test_checkpoint_with_integral_float_hyperparams_round_trips_bytewise(tmp_path):
    """A float field given as an int holds a float, so the checkpoint writes
    what it loads back: saved, loaded and saved again, it is the same bytes."""
    hyper = Hyperparams(discount=1, learning_rate=1, entropy_coef=0)
    assert all(type(getattr(hyper, f.name)) is float for f in fields(hyper)
               if f.type == "float")
    path, again = tmp_path / "ckpt.txt", tmp_path / "again.txt"
    save_checkpoint(new_checkpoint(hyper), str(path))
    save_checkpoint(load_checkpoint(str(path)), str(again))
    assert "discount = 1.0\n" in path.read_text()
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_v2_stores_each_value_once_and_round_trips_bytewise(tmp_path):
    ckpt = _trained_checkpoint()
    path, again = tmp_path / "ckpt.txt", tmp_path / "again.txt"
    save_checkpoint(ckpt, str(path))
    save_checkpoint(load_checkpoint(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()

    sections = read_sections(path, "motor-design-ckpt v2")
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
    with pytest.raises(TextFormatError, match="unknown") as err:
        load_checkpoint(str(path))
    assert err.value.line == at + 1


def test_checkpoint_rejects_missing_keys(tmp_path):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    lines = path.read_text().splitlines()
    header = lines.index("[critic_opt]")
    del lines[header + 1]  # its step
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TextFormatError, match=r"\[critic_opt\] is missing step") as err:
        load_checkpoint(str(path))
    assert err.value.line == header + 1


def test_checkpoint_rejects_a_second_section_at_its_header(tmp_path):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    lines = path.read_text().splitlines()
    actor = lines.index("[actor]")
    path.write_text("\n".join(lines + lines[actor:actor + 3]) + "\n")  # a whole second [actor]
    with pytest.raises(TextFormatError, match=r"duplicate section \[actor\]") as err:
        load_checkpoint(str(path))
    assert err.value.line == len(lines) + 1


def test_checkpoint_rejects_sections_out_of_order(tmp_path):
    """Sections come in save_checkpoint's order, so one swapped with the
    next fails at the header of the first out of place."""
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    lines = path.read_text().splitlines()
    actor, critic, actor_opt = (lines.index(f"[{name}]") for name in ("actor", "critic", "actor_opt"))
    lines[actor:actor_opt] = lines[critic:actor_opt] + lines[actor:critic]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TextFormatError,
                       match=r"expected section \[actor\], got \[critic\]") as err:
        load_checkpoint(str(path))
    assert err.value.line == actor + 1


def test_checkpoint_version_error(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    text = path.read_text()
    for version in ("v1", "v9"):
        path.write_text(text.replace(CHECKPOINT_VERSION_LINE,
                                     f"motor-design-ckpt {version}", 1))
        with pytest.raises(TextFormatError, match=version):
            load_checkpoint(str(path))


def test_checkpoint_missing_section(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    lines = path.read_text().splitlines()
    start = lines.index("[critic_opt]")
    path.write_text("\n".join(lines[:start]))
    with pytest.raises(TextFormatError):
        load_checkpoint(str(path))


def test_checkpoint_corrupt_tensor(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    text = path.read_text().replace("sizes = 11 64 64 6", "sizes = 11 64 6", 1)
    path.write_text(text)
    with pytest.raises(TextFormatError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_actor_without_layers(tmp_path):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    actor_sizes = "sizes = " + " ".join(str(s) for s in ACTOR_SIZES)
    path.write_text(path.read_text().replace(actor_sizes,
                                             f"sizes = {OBSERVATION_DIM}", 1))
    with pytest.raises(TextFormatError,
                       match=rf"bad value for sizes: \({OBSERVATION_DIM},\) do not map") as err:
        load_checkpoint(str(path))
    assert err.value.line == path.read_text().splitlines().index("[actor]") + 2


def test_checkpoint_rejects_an_empty_layer_at_its_sizes_line(tmp_path):
    """MlpParams' own size rule fails at the line of the sizes it breaks."""
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    sizes = (OBSERVATION_DIM, 0, NUM_ACTIONS)
    line = _rewrite_checkpoint_value(path, "actor", "sizes", lambda _: " ".join(map(str, sizes)))
    with pytest.raises(TextFormatError, match=re.escape(
            f"bad value for sizes: invalid layer sizes {sizes}")) as err:
        load_checkpoint(str(path))
    assert err.value.line == line


def _rewrite_checkpoint_value(path, section, key, rewrite) -> int:
    """Replace the value of ``key`` in ``[section]`` with rewrite(value);
    the number of its line."""
    lines = path.read_text().splitlines()
    at = lines.index(f"[{section}]") + 1
    at += [line.split(" = ")[0] for line in lines[at:]].index(key)
    lines[at] = f"{key} = {rewrite(lines[at].split(' = ')[1])}"
    path.write_text("\n".join(lines) + "\n")
    return at + 1


def _drop_last_token(text):
    return text.rsplit(" ", 1)[0]


def _spoil_middle_token(new):
    def spoil(text):
        tokens = text.split()
        tokens[len(tokens) // 2] = new
        return " ".join(tokens)
    return spoil


@pytest.mark.parametrize("section,key", [
    ("meta", "update_index"), ("meta", "env_steps"),
    ("actor_opt", "step"), ("critic_opt", "step")])
def test_checkpoint_rejects_negative_counts(tmp_path, section, key):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    line = _rewrite_checkpoint_value(path, section, key, lambda _: "-1")
    with pytest.raises(TextFormatError, match=f"bad value for {key}: -1 is negative") as err:
        load_checkpoint(str(path))
    assert err.value.line == line


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", [
    ("actor", "flat"), ("critic", "flat"), ("actor_opt", "m"), ("actor_opt", "v"),
    ("critic_opt", "m"), ("critic_opt", "v")])
def test_checkpoint_rejects_non_finite_arrays(tmp_path, section, key, value):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    line = _rewrite_checkpoint_value(path, section, key, _spoil_middle_token(value))
    with pytest.raises(TextFormatError,
                       match=rf"bad value for {key}: non-finite value at index \d+$") as err:
        load_checkpoint(str(path))
    assert err.value.line == line


@pytest.mark.parametrize("net,sizes", [
    ("actor", (OBSERVATION_DIM, 64, 64, NUM_ACTIONS + 1)),
    ("actor", (OBSERVATION_DIM + 1, 64, 64, NUM_ACTIONS)),
    ("critic", (OBSERVATION_DIM, 64, 64, 2)),
])
def test_checkpoint_rejects_networks_that_do_not_fit_the_game(tmp_path, net, sizes):
    params = init(sizes, seed=0)
    ckpt = replace(new_checkpoint(SMALL), **{
        net: params, f"{net}_opt": AdamState.for_params(params)})
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    outputs = NUM_ACTIONS if net == "actor" else 1
    with pytest.raises(TextFormatError, match=re.escape(
            f"bad value for sizes: {sizes} do not map {OBSERVATION_DIM} -> {outputs}")) as err:
        load_checkpoint(str(path))
    assert err.value.line == path.read_text().splitlines().index(f"[{net}]") + 2


# (section, key, rewrite, reason) for one key of each kind; the reason
# of text that does not parse is the text, cut short for an array
BAD_VALUES = [
    ("meta", "update_index", lambda _: "-1", "-1 is negative"),
    ("meta", "env_steps", lambda _: "1.5", "'1.5'"),
    ("hyper", "epochs", lambda _: "four", "'four'"),
    ("hyper", "discount", lambda _: "0.99x", "'0.99x'"),
    ("critic", "sizes", lambda _: "11 64 64 6", "(11, 64, 64, 6) do not map 11 -> 1"),
    ("actor", "flat", _spoil_middle_token("nan"), "non-finite value at index"),
    ("critic_opt", "step", lambda _: "-3", "-3 is negative"),
    ("actor_opt", "m", _spoil_middle_token("x"), "'0.0 0.0 0.0"),
    ("critic_opt", "v", _drop_last_token, "expected 4993 values, got 4992"),
]


@pytest.mark.parametrize("section,key,rewrite,reason",
                         [pytest.param(*case, id=case[1]) for case in BAD_VALUES])
def test_a_bad_checkpoint_value_fails_at_its_own_line(tmp_path, section, key, rewrite, reason):
    """Each value is parsed at its own line, with its key and reason, and
    no message copies a whole array."""
    path = tmp_path / "ckpt.txt"
    save_checkpoint(new_checkpoint(SMALL), str(path))
    line = _rewrite_checkpoint_value(path, section, key, rewrite)
    with pytest.raises(TextFormatError) as err:
        load_checkpoint(str(path))
    assert f"bad value for {key}: {reason}" in str(err.value)
    assert err.value.line == line
    assert len(str(err.value)) < 300
