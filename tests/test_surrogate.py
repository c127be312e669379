"""Surrogate model: normalization, the S1-S5 formulas, lattice helpers,
and the scalar/grid bit-identity contract.

Expected numbers were derived with an independent one-off script that
re-implements the formulas from scratch; they are frozen here as
constants.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from motorgame.catalog import builtin_catalog, machine_by_id
from motorgame.errors import ContractViolationError
from motorgame.surrogate import (
    DesignPoint,
    Performance,
    check_bounds,
    design_at,
    evaluate,
    evaluate_grid,
    lattice_index,
    normalize,
)

M1 = machine_by_id(1)
M2 = machine_by_id(2)
# machine 2 on a coarser length axis: its top value, 0.3 + 18 * 0.03, is
# 0.8400000000000001, one ulp above the upper bound it was laid out from
COARSE_2 = replace(M2, bounds=replace(M2.bounds, length=(0.3, 0.84)),
                   step_sizes=replace(M2.step_sizes, length=0.03))


# --- DesignPoint validation ---------------------------------------------------


def test_design_point_coerces_numeric_types():
    d = DesignPoint(length=np.float64(1.2), turns=20.0, tooth_tip=2)
    assert isinstance(d.length, float) and isinstance(d.turns, int)
    assert d == DesignPoint(1.2, 20, 2.0)


def test_design_point_rejects_fractional_turns():
    with pytest.raises(ContractViolationError):
        DesignPoint(length=1.2, turns=20.5, tooth_tip=2.0)


def test_design_point_rejects_nonpositive_values():
    with pytest.raises(ContractViolationError):
        DesignPoint(length=0.0, turns=20, tooth_tip=2.0)
    with pytest.raises(ContractViolationError):
        DesignPoint(length=1.2, turns=0, tooth_tip=2.0)
    with pytest.raises(ContractViolationError):
        DesignPoint(length=1.2, turns=20, tooth_tip=-1.0)


# --- normalize ------------------------------------------------------------------


def test_normalize_base_design_is_unit():
    assert normalize(M1.base_design, M1) == (1.0, 1.0, 1.0)


def test_normalize_double_length():
    d = DesignPoint(2 * M1.base_design.length, M1.base_design.turns,
                    M1.base_design.tooth_tip)
    assert normalize(d, M1) == (2.0, 1.0, 1.0)


def test_normalize_turns_ratio():
    d = DesignPoint(M1.base_design.length, M1.base_design.turns + 10,
                    M1.base_design.tooth_tip)
    assert normalize(d, M1)[1] == 1.5  # N0 = 20


def test_normalize_rejects_out_of_bounds():
    with pytest.raises(ContractViolationError):
        normalize(DesignPoint(99.0, 20, 2.0), M1)


# --- evaluate -------------------------------------------------------------------


def test_unit_design_all_ones():
    for base in builtin_catalog():
        perf = evaluate(base.base_design, base)
        assert perf.as_tuple() == (1.0, 1.0, 1.0, 1.0, base.base_design.tooth_tip)


def test_double_length_frozen_values():
    # independent script: (lam, nu, eta) = (2, 1, 1)
    d = DesignPoint(2 * M1.base_design.length, M1.base_design.turns,
                    M1.base_design.tooth_tip)
    perf = evaluate(d, M1)
    assert perf.b_gap == 0.5
    assert perf.t_break == 2.0
    assert perf.i_start == 0.5
    assert perf.d_temp == pytest.approx(0.775, abs=1e-15)
    assert perf.tooth_tip == d.tooth_tip


def test_double_tooth_tip_frozen_values():
    # independent script: (lam, nu, eta) = (1, 1, 2), sigma = 1.4
    d = DesignPoint(M1.base_design.length, M1.base_design.turns,
                    2 * M1.base_design.tooth_tip)
    perf = evaluate(d, M1)
    assert perf.b_gap == 1.0
    assert perf.t_break == 0.7142857142857143
    assert perf.i_start == 0.7142857142857143
    assert perf.d_temp == 1.0
    assert perf.tooth_tip == d.tooth_tip


def test_evaluate_is_pure():
    d = design_at(M1, 7, 3, 15)
    a = evaluate(d, M1).as_tuple()
    b = evaluate(DesignPoint(d.length, d.turns, d.tooth_tip), M1).as_tuple()
    assert a == b


def test_performance_strictly_positive_everywhere():
    for base in builtin_catalog():
        assert np.all(evaluate_grid(base) > 0.0)


# --- directional couplings (spot checks; exhaustive scan in acceptance) ---------


def test_length_up_directions_at_base():
    i, j, k = lattice_index(M1, M1.base_design)
    p0 = evaluate(M1.base_design, M1)
    p1 = evaluate(design_at(M1, i + 1, j, k), M1)
    assert p1.b_gap < p0.b_gap
    assert p1.t_break > p0.t_break
    assert p1.i_start < p0.i_start
    assert p1.d_temp < p0.d_temp
    assert p1.tooth_tip == p0.tooth_tip


def test_tooth_tip_up_directions_at_base():
    i, j, k = lattice_index(M1, M1.base_design)
    p0 = evaluate(M1.base_design, M1)
    p1 = evaluate(design_at(M1, i, j, k + 1), M1)
    assert p1.t_break < p0.t_break
    assert p1.i_start < p0.i_start
    assert p1.b_gap == p0.b_gap
    assert p1.d_temp == p0.d_temp
    assert p1.tooth_tip > p0.tooth_tip


def test_turns_temperature_tradeoff_is_non_monotone():
    # d_temp along the turns axis dips then rises for machine 2 at lam = 1
    base = machine_by_id(2)
    grid = evaluate_grid(base)
    i = lattice_index(base, base.base_design)[0]
    column = grid[3, i, :, 0]  # d_temp
    diffs = np.diff(column)
    assert np.any(diffs < 0) and np.any(diffs > 0)


# --- lattice helpers ------------------------------------------------------------


def test_lattice_shape_is_31_21_21():
    for base in builtin_catalog():
        assert base.shape == (31, 21, 21)


def test_design_at_index_round_trip():
    """Every lattice point round-trips, also on a machine whose top length
    value lies past its upper bound, and its top face evaluates as the grid
    does, bit for bit."""
    assert COARSE_2.axes[0][-1] > COARSE_2.bounds.length[1]
    for base in (*builtin_catalog(), COARSE_2):
        for ijk in np.ndindex(base.shape):
            assert lattice_index(base, design_at(base, *ijk)) == ijk
    top, grid = COARSE_2.shape[0] - 1, evaluate_grid(COARSE_2)
    for j, k in np.ndindex(COARSE_2.shape[1:]):
        perf = evaluate(design_at(COARSE_2, top, j, k), COARSE_2)
        assert perf.as_tuple() == tuple(grid[:, top, j, k])


def test_design_at_rejects_out_of_range_index():
    with pytest.raises(ContractViolationError):
        design_at(M1, 31, 0, 0)
    with pytest.raises(ContractViolationError):
        design_at(M1, 0, -1, 0)


def test_lattice_index_rejects_off_lattice_point():
    """A point between lattice values, even one ulp off one, is not on the
    lattice, and neither is one outside the bounds."""
    on = design_at(M1, 3, 5, 7)
    for length in (on.length + 0.001, math.nextafter(on.length, math.inf)):
        with pytest.raises(ContractViolationError, match="is not a lattice point"):
            lattice_index(M1, DesignPoint(length, on.turns, on.tooth_tip))
    with pytest.raises(ContractViolationError, match="outside bounds"):
        lattice_index(M1, DesignPoint(2 * M1.bounds.length[1], on.turns, on.tooth_tip))


def test_base_design_lies_on_every_lattice():
    for base in builtin_catalog():
        ijk = lattice_index(base, base.base_design)
        assert design_at(base, *ijk) == base.base_design


def test_bounds_corners_are_inclusive():
    for base in builtin_catalog():
        shape = base.shape
        check_bounds(design_at(base, 0, 0, 0), base)
        check_bounds(design_at(base, shape[0] - 1, shape[1] - 1, shape[2] - 1),
                     base)


# --- grid vs scalar bit-identity -----------------------------------------------


def test_grid_matches_scalar_evaluation_bitwise():
    rng = np.random.default_rng(11)
    for base in builtin_catalog():
        grid = evaluate_grid(base)
        assert grid.shape == (5, *base.shape) and grid.dtype == np.float64
        for _ in range(40):
            ijk = tuple(int(rng.integers(n)) for n in grid.shape[1:])
            perf = evaluate(design_at(base, *ijk), base)
            assert perf.as_tuple() == tuple(grid[(slice(None), *ijk)])


def test_grid_arrays_are_read_only():
    grid = evaluate_grid(M1)
    with pytest.raises(ValueError):
        grid[0, 0, 0, 0] = 5.0


def test_grid_is_cached_per_machine_value():
    assert evaluate_grid(M1) is evaluate_grid(machine_by_id(1))


def test_performance_as_tuple_order():
    p = Performance(1.0, 2.0, 3.0, 4.0, 5.0)
    assert p.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0)
