"""Baseline agents and the shortest-path oracle."""

from collections import deque
from dataclasses import replace
from functools import cache
from itertools import islice

import numpy as np
import pytest

import motorgame.agents
import motorgame.env
from motorgame.agents import greedy_agent, oracle_shortest, play_random, random_agent
from motorgame.catalog import (
    BaseMachine,
    Bounds,
    MachineVariant,
    StepSizes,
    TargetBands,
    builtin_catalog,
    feasible_mask,
    generate_variants,
    machine_by_id,
)
from motorgame.env import (
    ACTION_MOVES,
    NUM_ACTIONS,
    Action,
    DesignEnv,
    RewardConfig,
    StepInfo,
    all_flags_zero,
    encode,
    flags,
    move,
    reward_for,
    run_episode,
)
from motorgame.errors import ContractViolationError
from motorgame.surrogate import (
    DesignPoint,
    design_at,
    evaluate,
    evaluate_grid,
    lattice_index,
)


def _variant(base, b_gap=(0.5, 2.5), t_break=(0.2, 2.8), i_start=(0.2, 2.8),
             d_temp=(0.2, 2.8), tooth_pu=(0.5, 2.0), design=None):
    h0 = base.base_design.tooth_tip
    bands = TargetBands(b_gap=b_gap, t_break=t_break, i_start=i_start,
                        d_temp=d_temp,
                        tooth_tip=(tooth_pu[0] * h0, tooth_pu[1] * h0))
    return MachineVariant(base=base, variant_seed=0,
                          start=lattice_index(base, design or base.base_design),
                          target_bands=bands)


M1 = machine_by_id(1)
M3 = machine_by_id(3)

# flux density the only violated target (too high at the unit design)
FLUX_HIGH_M1 = _variant(M1, b_gap=(0.5, 0.8))
FLUX_HIGH_M3 = _variant(M3, b_gap=(0.5, 0.8))

# all targets met at the initial design
FEASIBLE = _variant(M1, b_gap=(0.9, 1.1), t_break=(0.9, 1.1),
                    i_start=(0.9, 1.1), d_temp=(0.9, 1.1))

# torque below its band; one length increment restores it
TORQUE_LOW = _variant(M1, b_gap=(0.9, 1.1), t_break=(1.02, 1.2),
                      i_start=(0.9, 1.1), d_temp=(0.9, 1.1))

# no lattice point can reach this flux band
IMPOSSIBLE = _variant(M1, b_gap=(0.05, 0.1))


# --- random agent -----------------------------------------------------------------


def test_random_agent_single_step_cap():
    env = DesignEnv(IMPOSSIBLE, config=RewardConfig(max_steps=1))
    record = random_agent(env, np.random.default_rng(0))
    assert record.steps == 1
    assert not record.win and record.cause == "truncation"


def test_random_agent_deterministic_in_rng():
    runs = []
    for _ in range(2):
        env = DesignEnv(IMPOSSIBLE, config=RewardConfig(max_steps=40))
        actions = []
        record = random_agent(env, np.random.default_rng(123),
                              log=lambda s, a, r, i: actions.append(int(a)))
        runs.append((record, actions))
    assert runs[0] == runs[1]


def test_random_agent_action_frequencies():
    """Over 1000 episodes every action lands within 2% absolute of 1/6."""
    rng = np.random.default_rng(7)
    env = DesignEnv(IMPOSSIBLE, config=RewardConfig(max_steps=25))
    counts = np.zeros(6, dtype=int)

    def tally(step, action, reward, info):
        counts[int(action)] += 1

    for _ in range(1000):
        random_agent(env, rng, log=tally)
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1.0 / 6.0) < 0.02)


STOCK_VARIANTS = [v for m in builtin_catalog() for v in generate_variants(m, 3, 5)]
WALK_CASES = {  # (variants, config) per case
    "stock": (STOCK_VARIANTS, RewardConfig()),
    "feasible_start": ([FEASIBLE], RewardConfig()),
    "max_steps_3": (STOCK_VARIANTS, RewardConfig(max_steps=3)),
}


@pytest.mark.parametrize("case", WALK_CASES)
def test_play_random_walks_the_design_env_episodes(monkeypatch, case):
    """play_random's env.walk gives, per episode seed, the (steps, win) of
    random_agent on a DesignEnv, and reads each point's values, to find its
    flag code, once per variant however many episodes visit it."""
    variants, config = WALK_CASES[case]
    read, rows = [], []

    class RecordingGrid(np.ndarray):
        """A grid that records the flat point of each column read."""

        def __getitem__(self, key):
            read.append(key[1])
            return super().__getitem__(key)

    for variant in variants:
        seeds = [1000 * variant.variant_seed + ep for ep in range(4)]
        env, visited = DesignEnv(variant, config=config), set()
        want = []
        for seed in seeds:
            record = random_agent(env, np.random.default_rng(seed))
            want.append((record.steps, record.win))
            visited |= env.visited
        with monkeypatch.context() as patched:
            patched.setattr(motorgame.env, "evaluate_grid",
                            lambda base: evaluate_grid(base).view(RecordingGrid))
            read.clear()
            got = play_random(variant, iter(seeds), config)
        assert got == want
        assert sorted(read) == sorted(
            np.ravel_multi_index(ijk, variant.base.shape) for ijk in visited)
        rows += got
    if case == "feasible_start":
        assert rows == [(1, True)] * 4
    if case == "max_steps_3":
        assert (3, False) in rows and max(steps for steps, _ in rows) == 3


# --- greedy agent ------------------------------------------------------------------


def _first_action(env):
    actions = []
    record = greedy_agent(env, log=lambda s, a, r, i: actions.append(Action(a)))
    return record, actions


def test_greedy_flux_high_picks_best_candidate():
    """The first move matches an independent evaluation of all six
    one-step candidates against the flux band (lowest index on ties)."""
    lo, hi = FLUX_HIGH_M1.target_bands.b_gap
    best_action, best_viol = 0, float("inf")
    for action, (axis, delta) in sorted(ACTION_MOVES.items()):
        ijk = [10, 10, 5]
        ijk[axis] += delta
        value = evaluate(design_at(M1, *ijk), M1).b_gap
        viol = max(value - hi, lo - value, 0.0)
        if viol < best_viol:
            best_action, best_viol = int(action), viol
    record, actions = _first_action(DesignEnv(FLUX_HIGH_M1))
    assert actions[0] == best_action
    assert best_action in (Action.LENGTH_UP, Action.TURNS_UP)


def test_greedy_tie_breaks_by_action_index():
    """At the top corner of the lattice both upward moves clamp and the
    tooth moves never touch flux density, a four-way exact tie; the
    lowest action index wins."""
    corner = _variant(M1, b_gap=(0.05, 0.1), design=design_at(M1, 30, 20, 10))
    env = DesignEnv(corner, config=RewardConfig(max_steps=2))
    record, actions = _first_action(env)
    assert actions[0] == Action.LENGTH_UP


def test_greedy_flux_high_prefers_larger_reduction():
    """Machine 3 has 18 base turns, so one turn moves flux further than
    one length step; greedy picks the turns increment."""
    lam_up = evaluate(design_at(M3, 11, 10, 5), M3).b_gap
    nu_up = evaluate(design_at(M3, 10, 11, 5), M3).b_gap
    assert nu_up < lam_up
    record, actions = _first_action(DesignEnv(FLUX_HIGH_M3))
    assert actions[0] == Action.TURNS_UP


def test_greedy_feasible_start_wins_first_step():
    record = greedy_agent(DesignEnv(FEASIBLE))
    assert record.steps == 1 and record.win


def test_greedy_restores_low_torque_in_one_step():
    record, actions = _first_action(DesignEnv(TORQUE_LOW))
    assert actions == [Action.LENGTH_UP]
    assert record.steps == 1 and record.win


def test_greedy_deterministic():
    a = greedy_agent(DesignEnv(FLUX_HIGH_M3))
    b = greedy_agent(DesignEnv(FLUX_HIGH_M3))
    assert a == b


def test_greedy_wins_generated_variants():
    """The heuristic should handle most sampled variants; require all of
    a small deterministic batch to finish, win or not, within the cap."""
    wins = 0
    for variant in generate_variants(M1, 6, 2):
        record = greedy_agent(DesignEnv(variant))
        assert record.steps <= 300
        wins += record.win
    assert wins >= 3


# --- per-episode memoization against the unmemoized step and look-ahead ------------


class _UnmemoizedEnv:
    """The design game as it was before memoization, standalone: every
    step evaluates the point it lands on with surrogate.evaluate, and the
    visited set holds indices only.  It shares no state with DesignEnv,
    only the rules move, flags and reward_for and the encoding, and is kept
    as the reference that DesignEnv must match."""

    def __init__(self, variant, config=None):
        self.variant, self.base = variant, variant.base
        self.config = config if config is not None else RewardConfig()

    @property
    def visited(self):
        return frozenset(self._visited)

    def _land(self, ijk):
        self.index = ijk
        self.design = design_at(self.base, *ijk)
        self.performance = evaluate(self.design, self.base)
        self.flags = flags(self.performance, self.variant.target_bands)

    def reset(self):
        self._land(lattice_index(self.base, self.variant.initial_design))
        self.steps, self._visited = 0, {self.index}
        return encode(self.flags, None)

    def step(self, action):
        action = Action(action)
        prev_perf, prev_flags = self.performance, self.flags
        # a feasible start closes out as a win without moving
        self._land(self.index if all_flags_zero(prev_flags)
                   else move(self.index, action, self.base.shape))
        revisit = self.index in self._visited
        win = all_flags_zero(self.flags)
        reward = reward_for(prev_perf, self.performance, prev_flags,
                            self.variant.target_bands, self.config)
        if revisit:
            reward += self.config.revisit_penalty
        if win:
            reward += self.config.win_reward
        self._visited.add(self.index)
        self.steps += 1
        done = win or self.steps >= self.config.max_steps
        cause = "win" if win else ("truncation" if done else None)
        info = StepInfo(design=self.design, performance=self.performance, flags=self.flags,
                        cause=cause, revisit=revisit, win=win)
        return encode(self.flags, action), reward, done, info


def _unmemoized_greedy(env, log=None, looked=None, decided=None):
    """greedy_agent with its look-ahead as it was before memoization: six
    evaluate() calls per step.  Adds each neighbour looked at to ``looked``
    and appends each point it looks ahead from to ``decided``."""
    bands = env.variant.target_bands.as_tuple()
    weights = env.config.priority_weights
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    shape = env.base.shape

    def policy(obs):
        target = next((i for i in order if env.flags[i] != 0), None)
        if target is None:
            return 0
        if decided is not None:
            decided.append(env.index)
        best_action, best_viol = 0, float("inf")
        for action in range(NUM_ACTIONS):
            near = move(env.index, action, shape)
            if looked is not None:
                looked.add(near)
            lo, hi = bands[target]
            value = evaluate(design_at(env.base, *near), env.base).as_tuple()[target]
            viol = max(value - hi, lo - value, 0.0)
            if viol < best_viol:
                best_action, best_viol = action, viol
        return best_action

    return run_episode(env, policy, log)


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


def _memo_variants():
    """Generated variants of all three machines, each also started on a
    feasible point and at both lattice corners, machines interleaved so
    that equal lattice indices of different machines follow each other."""
    per_machine = []
    for base in builtin_catalog():
        shape = base.shape
        out = []
        for v in generate_variants(base, 3, 4):
            feasible = tuple(np.argwhere(feasible_mask(base, v.target_bands))[0])
            out += [v] + [replace(v, start=ijk)
                          for ijk in (feasible, (0, 0, 0), tuple(n - 1 for n in shape))]
        per_machine.append(out)
    return [v for group in zip(*per_machine) for v in group]


@cache
def _looping_variants():
    """The first two generated variants of each machine on which the
    reference greedy comes back to a point and loses at the step cap."""
    out = []
    for base in builtin_catalog():
        loops = (v for v in generate_variants(base, 20, 0)
                 if _unmemoized_greedy(_UnmemoizedEnv(v)).cause == "truncation")
        out += islice(loops, 2)
    return out


def _logger(out):
    def log(step, action, reward, info):
        out.append((step, action, reward, _bits(reward), info,
                    _bits(*info.performance.as_tuple())))
    return log


@pytest.mark.parametrize("max_steps", [300, 6, 9])
def test_memoized_episodes_match_the_unmemoized_reference(max_steps):
    """Random and greedy episodes log the same StepInfos, rewards (by value
    and by float bits) and EpisodeRecords as the unmemoized env step and
    look-ahead.  Each env plays two episodes of each kind, so a memo that
    outlives reset() or is shared across machines shows.  On the looping
    variants greedy repeats its cycle of revisits, and the caps end some
    such episodes on a revisit."""
    config = RewardConfig(max_steps=max_steps)
    causes = set()
    for variant in _memo_variants() + _looping_variants():
        env, reference = DesignEnv(variant, config=config), _UnmemoizedEnv(variant, config=config)
        for episode in range(2):
            plays = (
                (lambda log: greedy_agent(env, log),
                 lambda log: _unmemoized_greedy(reference, log)),
                (lambda log: random_agent(env, np.random.default_rng(episode), log),
                 lambda log: random_agent(reference, np.random.default_rng(episode), log)))
            for play, play_reference in plays:
                got, want = [], []
                record, expected = play(_logger(got)), play_reference(_logger(want))
                assert got == want
                assert record == expected
                assert _bits(record.total_reward) == _bits(expected.total_reward)
                assert env.visited == reference.visited
                causes.add((expected.cause, got[-1][4].revisit))
    assert causes >= {("win", False), ("truncation", False), ("truncation", True)}


def test_each_point_is_evaluated_once_per_episode(monkeypatch):
    """The env makes no env.evaluate call: it reads the performance grid.
    The greedy look-ahead makes one agents.evaluate call per distinct
    neighbour it looks at in an episode, and runs once per distinct point
    it decides at, six agents.move calls each; a second episode on the same
    env starts afresh."""
    look_calls, env_calls, moves = [], [], []

    def counting(calls, original):
        return lambda *args: calls.append(args) or original(*args)

    monkeypatch.setattr(motorgame.agents, "evaluate", counting(look_calls, evaluate))
    monkeypatch.setattr(motorgame.env, "evaluate", counting(env_calls, evaluate))
    monkeypatch.setattr(motorgame.agents, "move", counting(moves, move))
    steps = looks = looked_at = 0
    for variant in _memo_variants():
        base, env = variant.base, DesignEnv(variant)
        for episode in range(2):
            look_calls.clear(), moves.clear()
            looked, decided = set(), []
            record = greedy_agent(env)
            _unmemoized_greedy(_UnmemoizedEnv(variant), looked=looked, decided=decided)
            assert len(look_calls) == len(set(look_calls)) == len(looked)
            assert set(look_calls) == {(design_at(base, *ijk), base) for ijk in looked}
            assert sorted(ijk for ijk, _, _ in moves) == sorted(
                ijk for ijk in set(decided) for _ in range(NUM_ACTIONS))
            steps, looks = steps + record.steps, looks + len(look_calls)
            looked_at += len(set(decided))
    assert env_calls == []
    assert looks < steps and looked_at < steps  # episodes that bounce among a few points


# --- oracle ------------------------------------------------------------------------


def test_oracle_feasible_start():
    result = oracle_shortest(FEASIBLE)
    assert result.shortest_steps == 0
    assert result.witness == ()


def test_oracle_one_step_away():
    result = oracle_shortest(TORQUE_LOW)
    assert result.shortest_steps == 1
    assert len(result.witness) == 1


def test_oracle_unreachable_band():
    result = oracle_shortest(IMPOSSIBLE)
    assert result.shortest_steps is None
    assert result.witness == ()


def test_oracle_base_mismatch():
    with pytest.raises(ContractViolationError):
        oracle_shortest(FLUX_HIGH_M1, base=machine_by_id(2))


def test_oracle_witness_replays_to_win():
    """Replaying each witness wins in exactly shortest_steps env steps."""
    for base in builtin_catalog():
        for variant in generate_variants(base, 4, 1):
            result = oracle_shortest(variant, base)
            assert result.shortest_steps is not None  # certified feasible
            if result.shortest_steps == 0:
                assert result.witness == ()
                continue
            env = DesignEnv(variant, base)
            env.reset()
            for last, action in enumerate(result.witness, start=1):
                _, _, done, info = env.step(action)
                assert done is (last == result.shortest_steps)
            assert info.win and env.steps == result.shortest_steps


def test_oracle_optimality_against_frontier_search():
    """Independent breadth-first frontier expansion with the scalar
    surrogate confirms no shorter path exists (depth capped at 6)."""
    checked = 0
    for base in builtin_catalog():
        shape = base.shape
        for variant in generate_variants(base, 4, 3):
            result = oracle_shortest(variant, base)
            assert result.shortest_steps is not None
            bands = variant.target_bands

            def is_goal(ijk):
                perf = evaluate(design_at(base, *ijk), base)
                return all(f == 0 for f in flags(perf, bands))

            start = lattice_index(base, variant.initial_design)
            if result.shortest_steps == 0:
                assert is_goal(start)
                checked += 1
                continue
            seen = {start}
            frontier = {start}
            depth_limit = min(result.shortest_steps, 6)
            for depth in range(1, depth_limit + 1):
                nxt = set()
                for node in frontier:
                    for axis, delta in ACTION_MOVES.values():
                        cand = list(node)
                        cand[axis] += delta
                        if 0 <= cand[axis] < shape[axis]:
                            cand = tuple(cand)
                            if cand not in seen:
                                seen.add(cand)
                                nxt.add(cand)
                frontier = nxt
                hit = any(is_goal(node) for node in frontier)
                if depth < result.shortest_steps:
                    assert not hit  # nothing shorter may exist
                elif depth == result.shortest_steps:
                    assert hit
            checked += 1
    assert checked == 12


def test_oracle_results_for_all_certified_variants():
    for base in builtin_catalog():
        for variant in generate_variants(base, 10, 0):
            result = oracle_shortest(variant, base)
            assert result.shortest_steps is not None
            assert result.shortest_steps >= 0


def _reference_oracle(variant, base):
    """Forward breadth-first search from the start with parent pointers,
    actions tried in index order; stops at the first feasible point it
    discovers.  Returns (shortest_steps, witness)."""
    shape = base.shape
    goal = feasible_mask(base, variant.target_bands)
    start = lattice_index(base, variant.initial_design)
    if goal[start]:
        return 0, ()
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for action in Action:
            axis, delta = ACTION_MOVES[action]
            cand = list(node)
            cand[axis] += delta
            cand = tuple(cand)
            if not 0 <= cand[axis] < shape[axis] or cand in parent:
                continue
            parent[cand] = (node, action)
            if goal[cand]:
                path = []
                while parent[cand] is not None:
                    cand, step = parent[cand]
                    path.append(step)
                return len(path), tuple(reversed(path))
            queue.append(cand)
    return None, ()


# machine 2 with fewer turns steps, a (31, 13, 21) lattice; machine 1
# with its length axis starting at 0.7 pu instead of 0.5; and machine 2 on
# a coarser length axis, a (19, 21, 21) lattice whose top length value,
# 0.3 + 18 * 0.03, lies one ulp above the upper bound it was laid out from
M2 = machine_by_id(2)
NARROW_2 = replace(M2, bounds=Bounds(M2.bounds.length, (M2.base_design.turns - 6,
                                                        M2.base_design.turns + 6),
                                     M2.bounds.tooth_tip))
SHIFTED_1 = replace(M1, bounds=replace(M1.bounds, length=(
    0.7 * M1.base_design.length, 0.7 * M1.base_design.length + 30 * M1.step_sizes.length)))
COARSE_2 = replace(M2, bounds=replace(M2.bounds, length=(0.3, 0.84)),
                   step_sizes=replace(M2.step_sizes, length=0.03))


def test_oracle_matches_reference_search():
    """The oracle returns the reference search's step count and witness
    (the lexicographically first shortest path) on every generated variant
    of several catalog seeds and of three machines that are not stock, two
    of other lattice shapes, on a feasible start, an unreachable band and
    starts at the lattice corners of all three shapes."""
    cases = [(v, base) for base in builtin_catalog() for seed in (0, 1, 2)
             for v in generate_variants(base, 25, seed)]
    cases += [(v, base) for base in (NARROW_2, SHIFTED_1, COARSE_2) for seed in (0, 1)
              for v in generate_variants(base, 25, seed)]
    assert len({M1.shape, NARROW_2.shape, COARSE_2.shape}) == 3
    assert COARSE_2.axes[0][-1] > COARSE_2.bounds.length[1]
    corners = [(_variant(base, b_gap=(0.9, 1.1), t_break=(0.9, 1.1),
                         i_start=(0.9, 1.1), d_temp=(0.9, 1.1),
                         design=design_at(base, *ijk)), base)
               for base in (M1, NARROW_2, COARSE_2)
               for ijk in ((0, 0, 0), tuple(n - 1 for n in base.shape))]
    cases += [(v, M1) for v in (FEASIBLE, IMPOSSIBLE)] + corners
    lengths = set()
    for variant, base in cases:
        result = oracle_shortest(variant, base)
        expected = _reference_oracle(variant, base)
        assert (result.shortest_steps, result.witness) == expected
        lengths.add(result.shortest_steps)
    assert {None, 0} < lengths and max(lengths - {None}) >= 20


# a (5, 7, 4) lattice: three axes of different lengths, the tooth axis shortest
SMALL = BaseMachine(id=9, rated_power=2100.0, line_voltage=6000.0,
                    base_design=DesignPoint(1.0, 20, 2.0),
                    bounds=Bounds(length=(0.8, 1.2), turns=(17, 23), tooth_tip=(1.6, 2.2)),
                    step_sizes=StepSizes(length=0.1, turns=1, tooth_tip=0.2))


def test_oracle_matches_reference_search_from_every_start_of_a_small_lattice():
    """From every start of a (5, 7, 4) lattice, under bands met at one point
    only (a corner, an inner point, the far corner), a 30-70 % quantile band
    and a band no point meets, the oracle returns the reference search's
    step count and witness.  This pins the flat-index arithmetic on unequal
    axes and every tie-break of the descent."""
    assert SMALL.shape == (5, 7, 4)
    grid = evaluate_grid(SMALL)
    band_sets = [TargetBands(*zip(grid[:, i, j, k], grid[:, i, j, k]))
                 for i, j, k in ((0, 0, 0), (2, 3, 1), (4, 6, 3))]
    band_sets += [TargetBands(*(np.quantile(values, (0.3, 0.7)) for values in grid)),
                  TargetBands(*((values.max() + 1,) * 2 for values in grid))]
    steps = set()
    for bands in band_sets:
        for start in np.ndindex(SMALL.shape):
            variant = MachineVariant(base=SMALL, variant_seed=0, start=start,
                                     target_bands=bands)
            result = oracle_shortest(variant, SMALL)
            assert (result.shortest_steps, result.witness) == _reference_oracle(variant, SMALL)
            steps.add(result.shortest_steps)
    assert steps == {None, *range(14)}
