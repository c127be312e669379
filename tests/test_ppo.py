"""PPO trainer: rollout collection, advantage estimation, the clipped
surrogate update, deterministic training/resume, and evaluation."""

from dataclasses import replace

import numpy as np
import pytest

from motorgame.catalog import (
    MachineVariant,
    TargetBands,
    generate_variants,
    machine_by_id,
)
from motorgame.env import NUM_ACTIONS, OBSERVATION_DIM, RewardConfig
from motorgame.errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    ContractViolationError,
    TrainingDivergedError,
)
from motorgame.neural import AdamState, Categorical, forward, init
from motorgame.ppo import (
    ACTOR_SIZES,
    CHECKPOINT_VERSION_LINE,
    CRITIC_SIZES,
    EnvPool,
    Hyperparams,
    clipped_objective,
    collect_rollout,
    derive_seed,
    evaluate,
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

BASE = machine_by_id(1)


def _variant(b_gap=(0.5, 2.5), t_break=(0.2, 2.8), i_start=(0.2, 2.8),
             d_temp=(0.2, 2.8), tooth_tip=(1.0, 4.0), variant_seed=0):
    bands = TargetBands(b_gap=b_gap, t_break=t_break, i_start=i_start,
                        d_temp=d_temp, tooth_tip=tooth_tip)
    return MachineVariant(base_id=BASE.id, variant_seed=variant_seed,
                          initial_design=BASE.base_design, target_bands=bands,
                          feasible_exists=True)


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
    assert h.updates == 49  # ceil(400000 / 8192)


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
    assert pool.envs[0].variant is FEASIBLE_A
    # the feasible start makes every step a win, cycling the variants
    for expected in (FEASIBLE_B, FEASIBLE_A, FEASIBLE_B):
        rewards, dones, causes = pool.step(np.zeros(1, dtype=int))
        assert rewards[0] == 98.0 and dones[0] == 1.0
        assert pool.envs[0].variant is expected
    finished = pool.drain_finished()
    assert [(s, w) for s, _, w in finished] == [(1, True)] * 3
    assert pool.drain_finished() == []


def test_pool_validation():
    with pytest.raises(ContractViolationError):
        EnvPool([], env_count=1)
    with pytest.raises(ContractViolationError):
        EnvPool([FEASIBLE_A], env_count=0)


def test_collect_rollout_minimal():
    ckpt = new_checkpoint(SMALL)
    pool = EnvPool([FEASIBLE_A], env_count=1)
    buf = collect_rollout(pool, ckpt.actor, ckpt.critic, horizon=1,
                          rng=np.random.default_rng(0))
    assert len(buf) == 1
    assert buf.observations.shape == (1, 1, 11)
    assert buf.dones[0, 0] == 1.0
    assert buf.causes[0, 0] == 1  # win
    assert buf.rewards[0, 0] == 98.0


def test_collect_rollout_deterministic():
    ckpt = new_checkpoint(SMALL)
    bufs = []
    for _ in range(2):
        pool = EnvPool(TRAIN_VARIANTS, env_count=2)
        bufs.append(collect_rollout(pool, ckpt.actor, ckpt.critic, horizon=12,
                                    rng=np.random.default_rng(9)))
    for name in ("observations", "actions", "log_probs", "rewards", "values",
                 "dones", "causes", "bootstrap"):
        assert np.array_equal(getattr(bufs[0], name), getattr(bufs[1], name))


def test_collect_rollout_is_on_policy():
    """Stored behavior log-probs match a recomputation at the same params."""
    ckpt = new_checkpoint(SMALL)
    pool = EnvPool(TRAIN_VARIANTS, env_count=3)
    buf = collect_rollout(pool, ckpt.actor, ckpt.critic, horizon=8,
                          rng=np.random.default_rng(1))
    flat_obs = buf.observations.reshape(-1, 11)
    flat_act = buf.actions.reshape(-1)
    logits, _ = forward(ckpt.actor, flat_obs)
    recomputed = Categorical(logits).log_prob(flat_act)
    assert np.max(np.abs(recomputed - buf.log_probs.reshape(-1))) < 1e-12


def test_collect_rollout_rewards_replayable():
    """Stepping a twin pool with the recorded actions reproduces rewards."""
    ckpt = new_checkpoint(SMALL)
    pool_a = EnvPool(TRAIN_VARIANTS, env_count=2)
    buf = collect_rollout(pool_a, ckpt.actor, ckpt.critic, horizon=10,
                          rng=np.random.default_rng(2))
    pool_b = EnvPool(TRAIN_VARIANTS, env_count=2)
    for t in range(10):
        rewards, dones, _ = pool_b.step(buf.actions[t])
        assert np.array_equal(rewards, buf.rewards[t])
        assert np.array_equal(dones, buf.dones[t])


# --- ppo update --------------------------------------------------------------------


def _small_buffer(horizon=16, env_count=2, seed=7):
    ckpt = new_checkpoint(SMALL)
    pool = EnvPool(TRAIN_VARIANTS, env_count=env_count)
    buf = collect_rollout(pool, ckpt.actor, ckpt.critic, horizon,
                          rng=np.random.default_rng(seed))
    buf.compute_advantages(SMALL.discount, SMALL.gae_lambda)
    return ckpt, buf


def test_ppo_update_requires_advantages():
    ckpt = new_checkpoint(SMALL)
    pool = EnvPool(TRAIN_VARIANTS, env_count=2)
    buf = collect_rollout(pool, ckpt.actor, ckpt.critic, 4,
                          rng=np.random.default_rng(0))
    with pytest.raises(ContractViolationError):
        ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                   buf, SMALL, np.random.default_rng(0))


def test_ppo_update_identity_ratio_zero_policy_loss():
    """Whole buffer in one minibatch before any step: ratios are 1 and the
    policy loss is the mean normalized advantage, which is zero."""
    ckpt, buf = _small_buffer()
    hyper = replace(SMALL, epochs=1, minibatch_size=len(buf))
    stats = ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt,
                       ckpt.critic_opt, buf, hyper, np.random.default_rng(3))
    assert abs(stats.policy_loss) < 1e-9
    assert stats.clip_fraction == 0.0
    assert stats.grad_norm >= 0.0
    assert np.isfinite(stats.value_loss) and stats.value_loss > 0.0


def test_ppo_update_moves_parameters():
    ckpt, buf = _small_buffer()
    before = [t.copy() for t in ckpt.actor.tensors() + ckpt.critic.tensors()]
    ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
               buf, SMALL, np.random.default_rng(3))
    after = ckpt.actor.tensors() + ckpt.critic.tensors()
    assert any(not np.array_equal(b, a) for b, a in zip(before, after))
    assert ckpt.actor_opt.step > 0


def test_ppo_update_deterministic():
    results = []
    for _ in range(2):
        ckpt, buf = _small_buffer()
        ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                   buf, SMALL, np.random.default_rng(3))
        results.append([t.copy() for t in ckpt.actor.tensors()])
    for x, y in zip(*results):
        assert np.array_equal(x, y)


def test_ppo_update_detects_divergence():
    ckpt, buf = _small_buffer()
    buf.advantages[:] = np.nan
    with pytest.raises(TrainingDivergedError):
        ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                   buf, SMALL, np.random.default_rng(3))


# --- training loop -----------------------------------------------------------------


def test_train_single_update_accounting():
    ckpt, report = train(TRAIN_VARIANTS, SMALL)
    assert len(report.rows) == 1
    assert ckpt.update_index == 1
    assert ckpt.env_steps == SMALL.horizon * SMALL.env_count
    row = report.rows[0]
    assert row.update == 1 and row.env_steps == 32
    assert 0 <= row.clip_fraction <= 1


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


def test_train_metrics_file(tmp_path):
    path = tmp_path / "metrics.txt"
    hyper = replace(SMALL, total_steps=64)  # two updates
    train(TRAIN_VARIANTS, hyper, metrics_path=str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = dict(kv.split("=", 1) for kv in lines[0].split())
    assert first["update"] == "1" and first["env_steps"] == "32"
    float(first["policy_loss"])  # parses
    second = dict(kv.split("=", 1) for kv in lines[1].split())
    assert second["update"] == "2" and second["env_steps"] == "64"


def test_train_fresh_run_truncates_metrics(tmp_path):
    path = tmp_path / "metrics.txt"
    for _ in range(2):
        train(TRAIN_VARIANTS, SMALL, metrics_path=str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("update=1 ")


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


def test_checkpoint_version_error(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, str(path))
    text = path.read_text().replace(CHECKPOINT_VERSION_LINE,
                                    "motor-design-ckpt v9", 1)
    path.write_text(text)
    with pytest.raises(CheckpointVersionError):
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
