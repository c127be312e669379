"""Baseline agents and the breadth-first shortest-path oracle."""

from collections import deque

import numpy as np
import pytest

from motorgame.agents import greedy_agent, oracle_shortest, random_agent
from motorgame.catalog import (
    MachineVariant,
    TargetBands,
    builtin_catalog,
    feasible_mask,
    generate_variants,
    machine_by_id,
)
from motorgame.env import ACTION_MOVES, Action, DesignEnv, RewardConfig, flags
from motorgame.errors import ContractViolationError
from motorgame.surrogate import design_at, evaluate, lattice_index, lattice_shape


def _variant(base, b_gap=(0.5, 2.5), t_break=(0.2, 2.8), i_start=(0.2, 2.8),
             d_temp=(0.2, 2.8), tooth_pu=(0.5, 2.0), design=None):
    h0 = base.base_design.tooth_tip
    bands = TargetBands(b_gap=b_gap, t_break=t_break, i_start=i_start,
                        d_temp=d_temp,
                        tooth_tip=(tooth_pu[0] * h0, tooth_pu[1] * h0))
    return MachineVariant(base_id=base.id, variant_seed=0,
                          initial_design=design or base.base_design,
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


# --- oracle ------------------------------------------------------------------------


def test_oracle_feasible_start():
    result = oracle_shortest(FEASIBLE)
    assert result.shortest_steps == 0
    assert result.witness == ()
    assert result.base_id == 1 and result.variant_seed == 0


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
        shape = lattice_shape(base)
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
    shape = lattice_shape(base)
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


def test_oracle_matches_reference_search():
    """The distance-field oracle returns the reference search's step count
    and witness (the lexicographically first shortest path) on every
    generated variant of several catalog seeds, on a feasible start, an
    unreachable band and starts at two lattice corners."""
    cases = [(v, base) for base in builtin_catalog() for seed in (0, 1, 2)
             for v in generate_variants(base, 25, seed)]
    shape = lattice_shape(M1)
    corners = [_variant(M1, b_gap=(0.9, 1.1), t_break=(0.9, 1.1),
                        i_start=(0.9, 1.1), d_temp=(0.9, 1.1),
                        design=design_at(M1, *ijk))
               for ijk in ((0, 0, 0), tuple(n - 1 for n in shape))]
    cases += [(v, M1) for v in (FEASIBLE, IMPOSSIBLE, *corners)]
    lengths = set()
    for variant, base in cases:
        result = oracle_shortest(variant, base)
        expected = _reference_oracle(variant, base)
        assert (result.shortest_steps, result.witness) == expected
        lengths.add(result.shortest_steps)
    assert {None, 0} < lengths and max(lengths - {None}) >= 20
