"""Release acceptance suite.

Each criterion prints one ``[ACCEPTANCE] <name>: PASS|FAIL`` line before
asserting, echoed outside pytest's capture so the lines show up in a live
run.  The expensive pieces (a full default training run and its holdout
evaluations) are module-scoped fixtures shared by the criteria that need
them; the analytical oracles run standalone and first.
"""

import time

import numpy as np
import pytest

from motorgame.agents import oracle_shortest, random_agent
from motorgame.catalog import TargetBands, builtin_catalog, generate_variants, with_split
from motorgame.env import (
    NUM_ACTIONS,
    DesignEnv,
    RewardConfig,
    all_flags_zero,
    flags,
    reward_for,
)
from motorgame.neural import MlpParams, backward, forward, init
from motorgame.ppo import (
    REFERENCE_MEAN_STEPS,
    Hyperparams,
    clipped_objective,
    derive_seed,
    evaluate,
    format_eval_table,
    gae,
    train,
)
from motorgame.surrogate import Performance, evaluate_grid, lattice_index

TRAIN_BUDGET_SECONDS = 900.0
WIN_RATE_FLOOR = 0.90
MEAN_STEPS_CEILING = 30.0
ORACLE_STEP_FACTOR = 3.0
BASELINE_RATE_FACTOR = 0.5
BASELINE_STEP_FACTOR = 5.0


def _say(capsys, text: str) -> None:
    """Print to the live terminal and leave a captured copy for reports."""
    with capsys.disabled():
        print(text)
    print(text)


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _say(capsys, line)
    assert ok, line


# --- shared fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def split_catalog():
    """Stock 75/15 split: 30 variants per machine, last 5 held out."""
    train_variants, holdout = [], []
    for base in builtin_catalog():
        batch = generate_variants(base, 30, 0)
        train_variants.extend(batch[:25])
        holdout.extend(with_split(v, "holdout") for v in batch[25:])
    return train_variants, holdout


@pytest.fixture(scope="module")
def trained(split_catalog):
    """One full training run at stock hyperparameters, wall clock recorded."""
    start = time.perf_counter()
    checkpoint, report = train(split_catalog[0], Hyperparams())
    return checkpoint, report, time.perf_counter() - start


@pytest.fixture(scope="module")
def ppo_holdout(trained, split_catalog):
    """Stochastic holdout evaluation: 5 variants x 20 episodes per machine."""
    checkpoint, _, _ = trained
    return evaluate(checkpoint.actor, split_catalog[1],
                    episodes_per_variant=20, mode="stochastic", seed=1)


# --- analytical criteria (no training needed) ---------------------------------


def test_acceptance_surrogate_couplings(capsys):
    """Directional couplings hold at every interior lattice point.

    Air-gap flux, breakdown torque, starting current and temperature must
    move the documented way along each axis for all three machines; the
    temperature-over-turns coupling is a strict convexity (so at most one
    sign change per column) with an interior minimum somewhere.
    """
    start = time.perf_counter()
    ok = True
    saw_interior_min = False
    for base in builtin_catalog():
        b_gap, t_break, i_start, d_temp, tooth = evaluate_grid(base)
        ok &= bool(np.all(np.diff(b_gap, axis=0) < 0))
        ok &= bool(np.all(np.diff(b_gap, axis=1) < 0))
        ok &= bool(np.all(np.diff(b_gap, axis=2) == 0))
        ok &= bool(np.all(np.diff(t_break, axis=0) > 0))
        ok &= bool(np.all(np.diff(t_break, axis=1) < 0))
        ok &= bool(np.all(np.diff(t_break, axis=2) < 0))
        ok &= bool(np.all(np.diff(i_start, axis=0) < 0))
        ok &= bool(np.all(np.diff(i_start, axis=1) < 0))
        ok &= bool(np.all(np.diff(i_start, axis=2) < 0))
        ok &= bool(np.all(np.diff(d_temp, axis=0) < 0))
        ok &= bool(np.all(np.diff(d_temp, axis=2) == 0))
        over_turns = np.diff(d_temp, axis=1)
        ok &= bool(np.all(np.diff(over_turns, axis=1) > 0))
        saw_interior_min |= bool(
            np.any((over_turns[:, 0, :] < 0) & (over_turns[:, -1, :] > 0)))
        ok &= bool(np.all(np.diff(tooth, axis=0) == 0))
        ok &= bool(np.all(np.diff(tooth, axis=1) == 0))
        ok &= bool(np.all(np.diff(tooth, axis=2) > 0))
    elapsed = time.perf_counter() - start
    ok = ok and saw_interior_min and elapsed < 5.0
    _report(capsys, "surrogate-couplings", ok,
            f"3 machines exhaustive, interior_min={saw_interior_min}, {elapsed:.2f}s")


def test_acceptance_reward_semantics(capsys, split_catalog):
    """Shaping sign, band-exit penalty, revisit penalty and win bonus are
    each exact: positive contribution if and only if a flagged value moves
    the right way, the revisit penalty fires exactly on already-visited
    lattice points, and the win bonus lands exactly when all flags clear.
    """
    config = RewardConfig()
    rng = np.random.default_rng(23)
    ok = True

    # one isolated nonzero flag: reward sign tracks the move direction
    wide = (1e-6, 1e6)
    for idx in range(5):
        weight = config.priority_weights[idx]
        for flag_sign in (1, -1):
            for _ in range(40):
                prev_vals = rng.uniform(0.5, 2.0, size=5)
                new_vals = prev_vals.copy()
                new_vals[idx] += rng.uniform(-0.5, 0.5)
                band_list = [wide] * 5
                v = prev_vals[idx]
                band_list[idx] = (v - 0.2, v - 0.1) if flag_sign == 1 else (v + 0.1, v + 0.2)
                bands = TargetBands(*band_list)
                prev = Performance(*prev_vals)
                new = Performance(*new_vals)
                flag_values = flags(prev, bands)
                ok &= flag_values[idx] == flag_sign
                toward = (new_vals[idx] < v) if flag_sign == 1 else (new_vals[idx] > v)
                got = reward_for(prev, new, flag_values, bands, config)
                want = weight * (config.right_direction_reward if toward
                                 else config.wrong_direction_reward)
                ok &= (got > 0) == toward and got == want

    # all flags zero: contributions only from values that leave their band
    for _ in range(100):
        prev_vals = rng.uniform(0.5, 2.0, size=5)
        bands = TargetBands(*((v - 0.3, v + 0.3) for v in prev_vals))
        new_vals = prev_vals + rng.uniform(-0.6, 0.6, size=5)
        prev = Performance(*prev_vals)
        new = Performance(*new_vals)
        flag_values = flags(prev, bands)
        ok &= all_flags_zero(flag_values)
        want = sum(w * config.wrong_direction_reward
                   for w, v, (lo, hi) in zip(config.priority_weights, new_vals,
                                             bands.as_tuple())
                   if not lo <= v <= hi)
        got = reward_for(prev, new, flag_values, bands, config)
        ok &= got == want and got <= 0.0

    # random walks: step reward decomposes exactly into shaping + revisit + win
    train_variants, holdout = split_catalog
    for variant in (train_variants + holdout)[::9]:
        env = DesignEnv(variant, config=config)
        env.reset()
        seen = {lattice_index(env.base, env.design)}
        while not env.done and env.steps < 60:
            prev_perf, prev_flags = env.performance, env.flags
            _, reward, done, info = env.step(int(rng.integers(NUM_ACTIONS)))
            ijk = lattice_index(env.base, info.design)
            revisit = ijk in seen
            win = all_flags_zero(info.flags)
            want = reward_for(prev_perf, info.performance, prev_flags,
                              env.variant.target_bands, config)
            if revisit:
                want += config.revisit_penalty
            if win:
                want += config.win_reward
            ok &= info.revisit == revisit and info.win == win
            ok &= reward == want
            ok &= done == (win or env.steps >= config.max_steps)
            seen.add(ijk)
    _report(capsys, "reward-semantics", bool(ok),
            "direction sign, band exit, revisit and win bonus all exact")


def test_acceptance_env_determinism(capsys, split_catalog):
    """1000 random (variant, action sequence) pairs replay bit-identically."""
    train_variants, holdout = split_catalog
    pool = train_variants + holdout
    rng = np.random.default_rng(2026)

    def trajectory(variant, actions):
        env = DesignEnv(variant)
        records = [env.reset().tobytes()]
        for action in actions:
            obs, reward, done, info = env.step(int(action))
            records.append((obs.tobytes(), reward, done, info.flags,
                            info.cause, info.revisit))
            if done:
                break
        return records

    ok = True
    for _ in range(1000):
        variant = pool[int(rng.integers(len(pool)))]
        actions = rng.integers(0, NUM_ACTIONS, size=int(rng.integers(1, 41)))
        if trajectory(variant, actions) != trajectory(variant, actions):
            ok = False
            break
    _report(capsys, "env-determinism", ok, "1000 replay pairs bit-identical")


def test_acceptance_gradient_oracle(capsys):
    """Backprop matches central finite differences on 20 random networks."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    step = 1e-5
    for _ in range(20):
        depth = int(rng.integers(2, 4))
        sizes = tuple(int(rng.integers(2, 7)) for _ in range(depth + 1))
        params = init(sizes, int(rng.integers(1, 2**31)))
        x = rng.normal(size=(1, sizes[0]))  # the kernel takes batches only
        grad_out = rng.normal(size=(1, sizes[-1]))
        # loss(theta) = grad_out . forward(theta, x)
        _, cache = forward(params, x)
        grads = backward(params, cache, grad_out, MlpParams(params.sizes))
        for tensor, grad in zip(params.tensors(), grads.tensors()):
            flat, flat_grad = tensor.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = float(grad_out[0] @ forward(params, x)[0][0])
                flat[i] = orig - step
                down = float(grad_out[0] @ forward(params, x)[0][0])
                flat[i] = orig
                fd = (up - down) / (2 * step)
                denom = max(abs(fd), abs(flat_grad[i]), 1e-6)
                worst = max(worst, abs(fd - flat_grad[i]) / denom)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _report(capsys, "gradient-oracle", ok, f"max_rel_err={worst:.2e}, {elapsed:.1f}s")


def test_acceptance_gae_oracle(capsys):
    """The advantage recursion equals the explicit discounted-delta sum."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(1, 7))
        rewards = rng.normal(size=length)
        values = rng.normal(size=length)
        dones = rng.random(size=length) < 0.3
        bootstrap = float(rng.normal())
        discount = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        advantages, _ = gae(rewards, values, dones, bootstrap, discount, lam)
        for t in range(length):
            total, factor = 0.0, 1.0
            for k in range(t, length):
                next_value = bootstrap if k == length - 1 else values[k + 1]
                delta = rewards[k] - values[k]
                if not dones[k]:
                    delta += discount * next_value
                total += factor * delta
                if dones[k]:
                    break
                factor *= discount * lam
            worst = max(worst, abs(total - advantages[t]))
    _report(capsys, "gae-oracle", worst < 1e-10, f"max_abs_err={worst:.1e}")


def test_acceptance_ppo_clip_cases(capsys):
    """The three hand-derived clip cases: an unclipped ratio passes the
    advantage through, a high ratio with positive advantage caps at
    (1 + eps) * advantage, and a low ratio with negative advantage keeps
    the more pessimistic clipped term (1 - eps) * advantage."""
    cases = [
        (1.0, 0.7, 0.7),
        (2.0, 1.3, 1.2 * 1.3),
        (0.5, -0.7, 0.8 * -0.7),
    ]
    worst = max(abs(float(clipped_objective(ratio, adv, 0.2)) - want)
                for ratio, adv, want in cases)
    _report(capsys, "ppo-clip-cases", worst < 1e-12, f"3 cases, max_abs_err={worst:.1e}")


# --- end-to-end criteria (shared training run) ---------------------------------


def test_acceptance_reference_comparability(capsys, trained, ppo_holdout):
    """Stock training wins at least 90% of holdout episodes per machine
    with mean winning steps within 3x of the bundled reference step counts."""
    _, _, train_seconds = trained
    _say(capsys, format_eval_table(ppo_holdout, label="ppo"))
    ok = train_seconds < TRAIN_BUDGET_SECONDS
    ok = ok and set(ppo_holdout.per_machine) == {1, 2, 3}
    details = [f"train={train_seconds:.0f}s"]
    for machine_id, stats in sorted(ppo_holdout.per_machine.items()):
        ok = ok and stats.win_rate >= WIN_RATE_FLOOR
        ok = ok and stats.mean_winning_steps <= MEAN_STEPS_CEILING
        details.append(
            f"m{machine_id} win_rate={stats.win_rate:.3f} "
            f"steps={stats.mean_winning_steps:.1f}"
            f"/ref={REFERENCE_MEAN_STEPS[machine_id]:.0f}")
    _report(capsys, "reference-comparability", ok, ", ".join(details))


def test_training_win_rate_trend(trained):
    """Rollout win rate trends upward: the 10-update moving average never
    regresses materially and ends near perfect."""
    _, report, _ = trained
    rates = np.array([row.win_rate for row in report.rows])
    smoothed = np.convolve(rates, np.ones(10) / 10.0, mode="valid")
    assert smoothed[-1] >= 0.9
    assert smoothed[-1] >= smoothed[0]
    assert np.all(np.diff(smoothed) >= -0.05)


def test_acceptance_oracle_bound(capsys, ppo_holdout, split_catalog):
    """Shortest-path search certifies every catalog variant, and the
    trained policy stays within 3x the optimal step count per machine."""
    train_variants, holdout = split_catalog
    shortest = {}
    missing = 0
    for variant in train_variants + holdout:
        result = oracle_shortest(variant)
        if result.shortest_steps is None:
            missing += 1
        else:
            shortest[(variant.base_id, variant.variant_seed)] = result.shortest_steps
    ok = missing == 0
    details = [f"certified={len(shortest)}/{len(train_variants) + len(holdout)}"]
    for machine_id, stats in sorted(ppo_holdout.per_machine.items()):
        optimal = [shortest[(v.base_id, v.variant_seed)] for v in holdout
                   if v.base_id == machine_id
                   and (v.base_id, v.variant_seed) in shortest]
        oracle_mean = float(np.mean(optimal)) if optimal else float("nan")
        ok = ok and stats.mean_winning_steps <= ORACLE_STEP_FACTOR * oracle_mean
        details.append(f"m{machine_id} ppo={stats.mean_winning_steps:.1f} "
                       f"oracle={oracle_mean:.1f}")
    _report(capsys, "oracle-bound", bool(ok), ", ".join(details))


def test_acceptance_baseline_separation(capsys, ppo_holdout, split_catalog):
    """The trained policy dominates uniform random play: per machine the
    random win rate is at most half the policy's, or random wins take at
    least 5x as many steps on the variants both agents manage to win."""
    _, holdout = split_catalog
    config = RewardConfig()
    random_rows = []
    for variant in holdout:
        env = DesignEnv(variant, config=config)
        for ep in range(20):
            rng = np.random.default_rng(derive_seed(1, variant.variant_seed, ep))
            record = random_agent(env, rng)
            random_rows.append((variant.base_id, variant.variant_seed,
                                record.steps, record.win))

    ok = True
    details = []
    for machine_id in (1, 2, 3):
        ppo_stats = ppo_holdout.per_machine[machine_id]
        machine_rows = [r for r in random_rows if r[0] == machine_id]
        rand_wins = [r for r in machine_rows if r[3]]
        rand_rate = len(rand_wins) / len(machine_rows)
        rate_ok = rand_rate <= BASELINE_RATE_FACTOR * ppo_stats.win_rate

        ppo_won = {row.variant_seed for row in ppo_holdout.rows
                   if row.machine_id == machine_id and row.win}
        common = ppo_won & {r[1] for r in rand_wins}
        ppo_steps = [row.steps for row in ppo_holdout.rows
                     if row.machine_id == machine_id and row.win
                     and row.variant_seed in common]
        rand_steps = [r[2] for r in rand_wins if r[1] in common]
        steps_ok = bool(common) and (
            float(np.mean(rand_steps))
            >= BASELINE_STEP_FACTOR * float(np.mean(ppo_steps)))

        ok = ok and (rate_ok or steps_ok)
        ratio = (float(np.mean(rand_steps)) / float(np.mean(ppo_steps))
                 if common else float("nan"))
        details.append(f"m{machine_id} rand_rate={rand_rate:.2f} "
                       f"ppo_rate={ppo_stats.win_rate:.2f} step_ratio={ratio:.1f}x")
    _report(capsys, "baseline-separation", ok,
            f"100 episodes per machine, {', '.join(details)}")
