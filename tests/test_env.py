"""Design-game environment: ternary flags, priority-weighted shaping
rewards, revisit penalty, win bonus, and episode mechanics."""

import itertools

import numpy as np
import pytest

from motorgame.catalog import (
    MachineVariant,
    TargetBands,
    builtin_catalog,
    generate_variants,
    machine_by_id,
)
from motorgame.env import (
    ACTION_MOVES,
    DEFAULT_PRIORITY_WEIGHTS,
    FLAG_CODE_WEIGHTS,
    NUM_ACTIONS,
    OBSERVATION_DIM,
    Action,
    DesignEnv,
    EnvPool,
    RewardConfig,
    all_flags_zero,
    encode,
    flags,
    move,
    reward_for,
    reward_table,
    run_episode,
    walk,
)
from motorgame.errors import ContractViolationError
from motorgame.surrogate import (
    DesignPoint,
    Performance,
    evaluate_grid,
    lattice_index,
)


BASE = machine_by_id(1)  # length 1.2 m, 20 turns, tooth tip 2.0 mm


def _bands(b_gap=(0.5, 2.5), t_break=(0.2, 2.8), i_start=(0.2, 2.8),
           d_temp=(0.2, 2.8), tooth_tip=(1.0, 4.0)):
    return TargetBands(b_gap=b_gap, t_break=t_break, i_start=i_start,
                       d_temp=d_temp, tooth_tip=tooth_tip)


def _variant(design=None, **band_kwargs):
    if design is None:
        design = BASE.base_design
    return MachineVariant(base=BASE, variant_seed=0, start=lattice_index(BASE, design),
                          target_bands=_bands(**band_kwargs))


# torque below its band at the start; one length step up wins
TORQUE_LOW = _variant(b_gap=(0.9, 1.1), t_break=(1.02, 1.2),
                      i_start=(0.9, 1.1), d_temp=(0.9, 1.1))

# every value already inside its band
FEASIBLE = _variant(b_gap=(0.9, 1.1), t_break=(0.9, 1.1),
                    i_start=(0.9, 1.1), d_temp=(0.9, 1.1))

# initial design on the short-length lattice edge with flux density high
EDGE = _variant(design=DesignPoint(0.6, 20, 2.0), b_gap=(0.8, 1.2))


# --- flags and encoding -----------------------------------------------------------


def test_flag_rule():
    """Python and numpy floats flag alike: on numpy floats, + of the band
    test's two bools would be or, and a value above its band would read as
    inside it."""
    bands = _bands(b_gap=(0.8, 1.2))
    for kind in (float, np.float64):
        perf = lambda b: Performance(*map(kind, (b, 1.0, 1.0, 1.0, 2.0)))
        assert flags(perf(1.3), bands) == (1, 0, 0, 0, 0)
        assert flags(perf(0.7), bands) == (-1, 0, 0, 0, 0)
        # band edges are inclusive
        assert flags(perf(1.2), bands) == (0, 0, 0, 0, 0)
        assert flags(perf(0.8), bands) == (0, 0, 0, 0, 0)


def test_all_flags_zero():
    assert all_flags_zero((0, 0, 0, 0, 0))
    assert not all_flags_zero((0, 0, -1, 0, 0))


def test_encode_zero_one_hot_at_start():
    obs = encode((0, -1, 1, 0, 0), None)
    assert obs.shape == (OBSERVATION_DIM,)
    assert obs.dtype == np.float64
    assert obs.tolist() == [0.0, -1.0, 1.0, 0.0, 0.0] + [0.0] * 6


def test_encode_previous_action_one_hot():
    obs = encode((0, 0, 0, 0, 0), Action.TURNS_DOWN)
    assert obs[5 + 3] == 1.0
    assert obs[5:].sum() == 1.0


# --- reward decomposition ----------------------------------------------------------


def test_reward_single_right_direction_flag():
    """One +1 flag moved the right way earns exactly its priority weight."""
    config = RewardConfig()
    bands = _bands(b_gap=(0.8, 1.2))
    prev = Performance(1.3, 1.0, 1.0, 1.0, 2.0)
    new = Performance(1.1, 1.0, 1.0, 1.0, 2.0)
    assert reward_for(prev, new, (1, 0, 0, 0, 0), bands, config) == 5.0


def test_reward_wrong_direction_and_stalls():
    config = RewardConfig()
    bands = _bands(b_gap=(0.8, 1.2))
    prev = Performance(1.3, 1.0, 1.0, 1.0, 2.0)
    # moved further out: wrong direction
    worse = Performance(1.4, 1.0, 1.0, 1.0, 2.0)
    assert reward_for(prev, worse, (1, 0, 0, 0, 0), bands, config) == -5.0
    # unchanged value counts as the wrong direction too
    assert reward_for(prev, prev, (1, 0, 0, 0, 0), bands, config) == -5.0


def test_reward_zero_flag_leaving_band_is_penalized():
    config = RewardConfig()
    bands = _bands(t_break=(0.9, 1.1))
    prev = Performance(1.0, 1.0, 1.0, 1.0, 2.0)
    new = Performance(1.0, 1.3, 1.0, 1.0, 2.0)
    assert reward_for(prev, new, (0, 0, 0, 0, 0), bands, config) == -4.0


def test_reward_decomposes_per_flag():
    """Reference recomputation flag by flag matches the combined reward."""
    rng = np.random.default_rng(11)
    config = RewardConfig()
    bands = _bands(b_gap=(0.8, 1.2), t_break=(0.8, 1.2), i_start=(0.8, 1.2),
                   d_temp=(0.8, 1.2), tooth_tip=(1.5, 2.5))
    for _ in range(200):
        prev = Performance(*rng.uniform(0.5, 1.5, size=4), rng.uniform(1.0, 3.0))
        new = Performance(*rng.uniform(0.5, 1.5, size=4), rng.uniform(1.0, 3.0))
        prev_flags = flags(prev, bands)
        expected = 0.0
        for p, n, f, (lo, hi), w in zip(prev.as_tuple(), new.as_tuple(),
                                        prev_flags, bands.as_tuple(),
                                        DEFAULT_PRIORITY_WEIGHTS):
            if f == 1:
                expected += w * (1.0 if n < p else -1.0)
            elif f == -1:
                expected += w * (1.0 if n > p else -1.0)
            elif not lo <= n <= hi:
                expected -= w
        assert reward_for(prev, new, prev_flags, bands, config) == expected


def test_reward_config_validation():
    with pytest.raises(ContractViolationError):
        RewardConfig(right_direction_reward=-1.0)
    with pytest.raises(ContractViolationError):
        RewardConfig(revisit_penalty=0.0)
    with pytest.raises(ContractViolationError):
        RewardConfig(win_reward=10.0)  # below the max one-step shaping sum
    with pytest.raises(ContractViolationError):
        RewardConfig(priority_weights=(5.0, 4.0, 3.0))
    with pytest.raises(ContractViolationError):
        RewardConfig(max_steps=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["right_direction_reward", "wrong_direction_reward",
                                   "revisit_penalty", "win_reward", "priority_weights"])
def test_reward_config_rejects_non_finite_values(field, value):
    if field == "priority_weights":
        value = (value, *DEFAULT_PRIORITY_WEIGHTS[1:])
    with pytest.raises(ContractViolationError, match="reward values must be finite"):
        RewardConfig(**{field: value})


@pytest.mark.parametrize("max_steps", [2.5, 3.0, True, "3"])
def test_reward_config_rejects_a_max_steps_that_is_not_an_integer(max_steps):
    """int() would take each of these, and a DesignEnv would play them;
    RewardConfig and walk() both reject them."""
    with pytest.raises(ContractViolationError, match="max_steps must be an integer"):
        RewardConfig(max_steps=max_steps)
    with pytest.raises(ContractViolationError, match="max_steps must be an integer"):
        walk(TORQUE_LOW, [lambda code: 0], max_steps)
    config = RewardConfig(max_steps=np.int64(3))
    assert walk(TORQUE_LOW, [lambda code: Action.LENGTH_DOWN], config.max_steps) == [(3, False)]


def test_reward_config_holds_its_priority_weights_as_a_tuple_of_floats():
    """A list or array of weights is copied into a tuple of floats, so the
    frozen config hashes, and a change to the caller's array changes no
    config."""
    weights = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    for given in ([5, 4, 3, 2, 1], weights):
        config = RewardConfig(priority_weights=given)
        assert config.priority_weights == DEFAULT_PRIORITY_WEIGHTS
        assert all(type(w) is float for w in config.priority_weights)
        assert hash(config) == hash(RewardConfig()) and config == RewardConfig()
    weights[0] = 50.0
    assert config.priority_weights[0] == 5.0


def test_default_reward_constants():
    config = RewardConfig()
    assert config.right_direction_reward == 1.0
    assert config.wrong_direction_reward == -1.0
    assert config.revisit_penalty == -2.0
    assert config.win_reward == 100.0
    assert config.priority_weights == (5.0, 4.0, 3.0, 2.0, 1.0)
    assert config.max_steps == 300


# --- environment mechanics ----------------------------------------------------------


def test_reset_observation_marks_low_torque():
    env = DesignEnv(TORQUE_LOW)
    obs = env.reset()
    assert obs.tolist() == [0.0, -1.0, 0.0, 0.0, 0.0] + [0.0] * 6
    assert env.steps == 0
    assert not env.done
    assert len(env.visited) == 1


def test_winning_step():
    env = DesignEnv(TORQUE_LOW)
    env.reset()
    obs, reward, done, info = env.step(Action.LENGTH_UP)
    # torque rises back into its band: +4 shaping, +100 win bonus
    assert reward == 104.0
    assert done and info.win and info.cause == "win"
    assert all_flags_zero(info.flags)
    assert obs[:5].tolist() == [0.0] * 5
    assert obs[5 + int(Action.LENGTH_UP)] == 1.0
    assert env.steps == 1


def test_feasible_start_closes_without_moving():
    env = DesignEnv(FEASIBLE)
    obs = env.reset()
    assert obs.tolist() == [0.0] * OBSERVATION_DIM
    design_before = env.design
    obs, reward, done, info = env.step(Action.TURNS_UP)
    assert env.design == design_before
    # win bonus less the revisit penalty for staying put
    assert reward == 98.0
    assert done and info.win and info.cause == "win"
    assert env.steps == 1


def test_clamped_edge_step_is_penalized_noop():
    env = DesignEnv(EDGE)
    env.reset()
    design_before = env.design
    obs, reward, done, info = env.step(Action.LENGTH_DOWN)
    assert env.design == design_before
    assert info.revisit and not info.win and info.cause is None
    # flux flag unmoved (-5) plus the revisit penalty (-2)
    assert reward == -7.0
    assert not done


def test_truncation_cause():
    env = DesignEnv(EDGE, config=RewardConfig(max_steps=3))
    env.reset()
    for action, expect_done in ((Action.TOOTH_TIP_UP, False),
                                (Action.TOOTH_TIP_DOWN, False),
                                (Action.TOOTH_TIP_UP, True)):
        obs, reward, done, info = env.step(action)
        assert done is expect_done
    assert info.cause == "truncation"
    assert not info.win
    assert env.done


def test_visited_set_growth_and_revisit():
    env = DesignEnv(_variant(d_temp=(0.4, 0.6)))
    env.reset()
    assert len(env.visited) == 1
    _, _, _, info = env.step(Action.TURNS_UP)
    assert len(env.visited) == 2 and not info.revisit
    _, _, _, info = env.step(Action.TURNS_DOWN)
    assert len(env.visited) == 2 and info.revisit


def test_revisit_penalty_offsets_right_direction():
    env = DesignEnv(_variant(d_temp=(0.4, 0.6)))
    env.reset()
    _, r1, _, _ = env.step(Action.TURNS_UP)     # heat rises: wrong way
    _, r2, _, _ = env.step(Action.TURNS_DOWN)   # right way, but a revisit
    assert r1 == -2.0
    assert r2 == 0.0  # +2 shaping - 2 revisit


def test_step_contract_errors():
    env = DesignEnv(FEASIBLE)
    with pytest.raises(ContractViolationError):
        env.step(Action.LENGTH_UP)  # before reset()
    env.reset()
    with pytest.raises(ContractViolationError):
        env.step(9)
    env.step(Action.LENGTH_UP)
    with pytest.raises(ContractViolationError):
        env.step(Action.LENGTH_UP)  # episode already ended


@pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(1.0), True, np.True_, "2", None])
def test_step_rejects_bools_and_non_integral_actions(bad):
    variant = _variant(d_temp=(0.4, 0.6))  # heat out of band: every action moves
    env, twin = DesignEnv(variant), DesignEnv(variant)
    env.reset(), twin.reset()
    with pytest.raises(ContractViolationError):
        env.step(bad)
    assert (env.index, env.steps, env.visited) == (twin.index, 0, twin.visited)
    for action in (np.int64(2), Action.LENGTH_DOWN, 4):  # integral actions stay valid
        got, want = env.step(action), twin.step(Action(action))
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    with pytest.raises(ContractViolationError):
        run_episode(DesignEnv(variant), lambda obs: bad)


def test_reset_allows_replay():
    env = DesignEnv(TORQUE_LOW)
    env.reset()
    first = env.step(Action.LENGTH_UP)
    env.reset()
    second = env.step(Action.LENGTH_UP)
    assert first[1] == second[1]
    assert np.array_equal(first[0], second[0])


def test_design_env_finds_its_start_once(monkeypatch):
    """The env starts at the variant's start index: no reset looks the start
    up from a design, its design, performance and flags are found again on
    every reset, like any other point's, and every reset starts the same
    episode."""
    def no_lookup(*args):
        raise AssertionError("the start was looked up from a design")

    monkeypatch.setattr("motorgame.surrogate.lattice_index", no_lookup)
    monkeypatch.setattr(MachineVariant, "initial_design", property(no_lookup))
    env = DesignEnv(TORQUE_LOW)
    episodes = []
    for _ in range(3):
        obs = env.reset()
        assert env.index == TORQUE_LOW.start
        episodes.append((obs.tobytes(), env.index, env.design, env.performance, env.flags,
                         env.step(Action.LENGTH_UP)[1:]))
        env.reset()
        env.step(Action.TURNS_UP)
    assert episodes[0] == episodes[1] == episodes[2]


def test_observations_are_fresh_writable_encodings():
    """reset() and step() return writable arrays equal, bit for bit, to
    encode(flags, previous action), and writing into one changes no later
    observation: not on a revisit, nor in the next episode."""
    env = DesignEnv(_variant(d_temp=(0.4, 0.6)))  # heat out of band: every action moves

    def check(obs, prev_action):
        assert obs.flags.writeable
        assert obs.tobytes() == encode(env.flags, prev_action).tobytes()
        obs[:] = 7.0  # the caller writes into its observation

    for episode in range(2):
        check(env.reset(), None)
        for action in (Action.TURNS_UP, Action.TURNS_DOWN) * 2:
            check(env.step(action)[0], action)
    assert len(env.visited) == 2


def test_base_variant_mismatch():
    with pytest.raises(ContractViolationError):
        DesignEnv(TORQUE_LOW, base=machine_by_id(2))


def test_action_moves_cover_all_axes():
    assert len(ACTION_MOVES) == NUM_ACTIONS
    assert sorted(ACTION_MOVES.values()) == [
        (0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)]
    # move() at every face and corner of machine 1's lattice: a step off
    # the lattice stays put, every other step changes one index by one
    shape = BASE.shape
    top = tuple(n - 1 for n in shape)
    assert move((0, 0, 0), Action.LENGTH_DOWN, shape) == (0, 0, 0)
    assert move((0, 0, 0), Action.TURNS_UP, shape) == (0, 1, 0)
    assert move(top, Action.TOOTH_TIP_UP, shape) == top
    assert move(top, Action.TOOTH_TIP_DOWN, shape) == top[:2] + (top[2] - 1,)
    center = tuple(n // 2 for n in shape)
    faces = [center[:axis] + (end,) + center[axis + 1:]
             for axis in range(3) for end in (0, shape[axis] - 1)]
    corners = list(itertools.product(*((0, n - 1) for n in shape)))
    for points, stuck in ((faces, 1), (corners, 3), ([center], 0)):
        for point in points:
            moved = {action: move(point, action, shape) for action in Action}
            assert sum(m == point for m in moved.values()) == stuck
            for action, m in moved.items():
                axis, delta = ACTION_MOVES[action]
                if m != point:
                    assert np.subtract(m, point).tolist() == [
                        delta if a == axis else 0 for a in range(3)]
                    assert all(0 <= i < n for i, n in zip(m, shape))


# --- episode driver -----------------------------------------------------------------


def test_run_episode_and_step_log():
    logged = []
    env = DesignEnv(TORQUE_LOW)
    record = run_episode(env, lambda obs: Action.LENGTH_UP,
                         log=lambda step, action, reward, info:
                         logged.append((step, action, reward, info.cause, info.flags)))
    assert record.steps == 1
    assert record.total_reward == 104.0
    assert record.win and record.cause == "win"
    assert logged == [(1, Action.LENGTH_UP, 104.0, "win", (0, 0, 0, 0, 0))]


def test_run_episode_truncates():
    env = DesignEnv(EDGE, config=RewardConfig(max_steps=5))
    record = run_episode(env, lambda obs: Action.TOOTH_TIP_UP)
    assert record.steps == 5
    assert not record.win and record.cause == "truncation"


# --- the training pool's rewards -----------------------------------------------------

# weights and direction rewards whose weighted sum rounds differently when
# the flags are added in another order
ORDER_DEPENDENT = RewardConfig(right_direction_reward=0.3, wrong_direction_reward=-1.7,
                               priority_weights=(0.1, 0.2, 0.3, 0.7, 1e-3), max_steps=40)


@pytest.mark.parametrize("config", [RewardConfig(), ORDER_DEPENDENT], ids=["stock", "order"])
def test_reward_table_adds_each_flag_term_in_priority_order(config):
    """Entry i of reward_table() is the sum of the flag terms spelled by i's
    base-3 digits (0: none, 1: right direction, 2: wrong), first flag
    highest, weighted and added in priority order; the table is built once
    per config."""
    term_values = (0.0, config.right_direction_reward, config.wrong_direction_reward)
    table = reward_table(config)
    assert len(table) == 3 ** 5
    for index, terms in enumerate(itertools.product(range(3), repeat=5)):
        want = 0.0
        for term, weight in zip(terms, config.priority_weights):
            want += weight * term_values[term]
        assert table[index].hex() == want.hex(), terms
    assert reward_table(RewardConfig(**vars(config))) is table


def test_pool_rewards_equal_design_env_rewards_under_an_order_dependent_sum():
    """EnvPool's reward table sums each combination of flag terms in
    priority order, as reward_for() does, so its rewards equal DesignEnv's
    bit for bit where another order would round differently."""
    def weighted(terms, weights):
        total = 0.0
        for term, weight in zip(terms, weights):
            total += weight * term
        return total

    weights, term_values = ORDER_DEPENDENT.priority_weights, (0.0, 0.3, -1.7)
    assert any(weighted(terms, weights) != weighted(terms[::-1], weights[::-1])
               for terms in itertools.product(term_values, repeat=5))

    variants = [v for machine_id in (1, 2, 3)
                for v in generate_variants(machine_by_id(machine_id), 3, machine_id)]
    env_count, rng = 3, np.random.default_rng(0)
    pool = EnvPool(variants, env_count, ORDER_DEPENDENT)
    envs, cursor = [], 0
    for _ in range(env_count):
        envs.append(DesignEnv(variants[cursor % len(variants)], config=ORDER_DEPENDENT))
        envs[-1].reset()
        cursor += 1
    ended = 0
    for _ in range(300):
        actions = rng.integers(NUM_ACTIONS, size=env_count)
        rewards, dones = pool.step(actions)
        for e, env in enumerate(envs):
            _, reward, done, _ = env.step(int(actions[e]))
            assert rewards[e].hex() == reward.hex() and dones[e] == done
            if done:  # the pool restarts a finished env on the next variant
                envs[e] = DesignEnv(variants[cursor % len(variants)], config=ORDER_DEPENDENT)
                envs[e].reset()
                cursor += 1
                ended += 1
    assert ended >= len(variants)  # every variant was played


# --- the evaluation walk -------------------------------------------------------------


@pytest.mark.parametrize("bad", [6, -1, np.int64(6), 2.0, np.float64(1.0), 2.7, True, np.True_,
                                 "2", None])
def test_walk_rejects_bad_actions(bad):
    """walk() takes DesignEnv.step's actions: -1 does not wrap to action 5,
    6 is off the move table, and bools and floats are not actions."""
    variant = _variant(d_temp=(0.4, 0.6))  # heat out of band: every action moves
    for first in (bad, 2):  # a bad first action, and a bad second one
        actions = iter((first, bad))
        with pytest.raises(ContractViolationError, match="invalid action"):
            walk(variant, [lambda code: next(actions)], 300)
    with pytest.raises(ContractViolationError, match="invalid action"):
        walk(FEASIBLE, [lambda code: bad], 300)  # a feasible start checks its action too


def test_walk_takes_every_integral_action():
    """Plain ints, numpy integers and Actions walk alike."""
    variant = _variant(d_temp=(0.4, 0.6))
    rows = [walk(variant, [lambda code, kind=kind: kind(code % NUM_ACTIONS)], 40)
            for kind in (int, np.int64, np.uint8, Action)]
    assert rows[1:] == rows[:1] * 3


@pytest.mark.parametrize("max_steps", [0, -1])
def test_walk_rejects_max_steps_below_one(max_steps):
    """No DesignEnv can play an episode of no steps, so walk() plays none."""
    calls = []
    with pytest.raises(ContractViolationError, match="max_steps"):
        walk(FEASIBLE, [calls.append], max_steps)
    assert not calls


def _face_variant(base, start, edges):
    """A variant that starts at lattice point ``start``, with each value's
    band spanning its values at the lattice points ``edges``, so that a band
    edge equals a lattice value exactly."""
    grid = evaluate_grid(base)
    values = [sorted(float(grid[(f, *ijk)]) for ijk in edges) for f in range(5)]
    return MachineVariant(base=base, variant_seed=0, start=start,
                          target_bands=TargetBands(*((v[0], v[-1]) for v in values)))


def test_walk_flag_codes_at_band_edges_equal_flags():
    """On all three stock machines, walks that start on lattice faces and
    corners, where off-lattice moves stay put, see at each step the flag
    code that flags() gives, also where a value equals its band's low or
    high, and their random-policy rows equal DesignEnv's episodes."""
    for base in builtin_catalog():
        edge_hits, stays = [0, 0], 0  # (values at a low, at a high); off-lattice moves
        n_i, n_j, n_k = base.shape
        for start, edges in (
                ((0, n_j // 2, n_k - 1), [(2, n_j // 2 + 1, n_k - 1), (1, n_j // 2 - 1, n_k - 2)]),
                ((n_i - 1, 0, 0), [(n_i - 2, 2, 0), (n_i - 3, 1, 1)])):
            variant = _face_variant(base, start, edges)
            bands = variant.target_bands.as_tuple()
            config = RewardConfig(max_steps=60)
            episodes = [([], np.random.default_rng(seed)) for seed in range(12)]
            rows = walk(variant, [lambda code, seen=seen, rng=rng: seen.append(code) or int(
                rng.integers(NUM_ACTIONS)) for seen, rng in episodes], config.max_steps)
            assert any(steps > 1 for steps, _ in rows)  # the starts are not feasible
            for (seen, _), (seed, row) in zip(episodes, enumerate(rows)):
                env, rng = DesignEnv(variant, config=config), np.random.default_rng(seed)
                env.reset()
                previous, done = -1, False
                for code in seen:
                    assert not done
                    assert code == FLAG_CODE_WEIGHTS @ np.add(
                        flags(env.performance, variant.target_bands), 1) + previous + 1
                    for value, band in zip(env.performance.as_tuple(), bands):
                        edge_hits[0] += value == band[0]
                        edge_hits[1] += value == band[1]
                    index, previous = env.index, int(rng.integers(NUM_ACTIONS))
                    _, _, done, info = env.step(previous)
                    stays += env.index == index and not info.win
                assert done and row == (env.steps, info.win)
        assert min(edge_hits) > 0 and stays > 0
