"""Closed-form per-unit performance model of the design game.

A design point is normalized against its base machine to the per-unit
triple (lam, nu, eta) = (length/L0, turns/N0, tooth_tip/h0).  The five
performance values are then:

    b_gap   = 1 / (nu * lam)                    airgap flux density [pu]
    sigma   = 1 + 0.4 * (eta - 1)               slot-leakage factor
    t_break = lam / (nu^2 * sigma)              breakdown torque [pu]
    i_start = 1 / (nu^2 * lam * sigma)          starting current [pu]
    d_temp  = 0.7*nu^2 + 0.3 / (nu^2 * lam^2)   temperature rise [pu]
    tooth_tip passed through unchanged [mm]

This is a qualitative scaling model (constant flux per pole spread over
pole area, leakage growing with turns-squared and tooth-tip height,
copper loss over cooling area plus iron loss), not a field solver.  It
reproduces the directional couplings a designer exploits and nothing
more.  All arithmetic is 64-bit and branch-free, so the helpers accept
plain floats or numpy arrays and return bit-identical values either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError

if TYPE_CHECKING:
    from .catalog import BaseMachine

TOOTH_TIP_LEAKAGE_GAIN = 0.4  # k_h: sigma sensitivity to tooth-tip height
COPPER_LOSS_SHARE = 0.7
IRON_LOSS_SHARE = 0.3


@dataclass(frozen=True)
class DesignPoint:
    """The three free design variables."""

    length: float     # stack length, m
    turns: int        # coil turns per phase
    tooth_tip: float  # rotor tooth tip height, mm

    def __post_init__(self):
        if isinstance(self.turns, float) and not self.turns.is_integer():
            raise ContractViolationError(f"turns must be integral, got {self.turns}")
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "turns", int(self.turns))
        object.__setattr__(self, "tooth_tip", float(self.tooth_tip))
        if self.length <= 0 or self.tooth_tip <= 0 or self.turns < 1:
            raise ContractViolationError(f"invalid design point {self!r}")


@dataclass(frozen=True)
class Performance:
    """The five checked performance values, in fixed priority order."""

    b_gap: float      # pu
    t_break: float    # pu
    i_start: float    # pu
    d_temp: float     # pu
    tooth_tip: float  # mm, equals the design variable exactly

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.b_gap, self.t_break, self.i_start, self.d_temp, self.tooth_tip)


def _perf_values(lam, nu, eta):
    """S1-S5 on per-unit inputs; works elementwise on floats or arrays."""
    sigma = 1.0 + TOOTH_TIP_LEAKAGE_GAIN * (eta - 1.0)
    b_gap = 1.0 / (nu * lam)
    t_break = lam / (nu * nu * sigma)
    i_start = 1.0 / (nu * nu * lam * sigma)
    d_temp = COPPER_LOSS_SHARE * nu * nu + IRON_LOSS_SHARE / (nu * nu * lam * lam)
    return b_gap, t_break, i_start, d_temp


def check_bounds(design: DesignPoint, base: "BaseMachine") -> None:
    """Raise ContractViolationError unless each variable of ``design`` lies
    between the ends of its axis in the machine's lattice."""
    lengths, turns, tooths = base.axes
    ok = (
        lengths[0] <= design.length <= lengths[-1]
        and turns[0] <= design.turns <= turns[-1]
        and tooths[0] <= design.tooth_tip <= tooths[-1]
    )
    if not ok:
        raise ContractViolationError(
            f"design {design!r} outside bounds of machine {base.id}"
        )


def normalize(design: DesignPoint, base: "BaseMachine") -> tuple[float, float, float]:
    """Per-unit triple (lam, nu, eta) of a design against its base machine."""
    check_bounds(design, base)
    d0 = base.base_design
    return (design.length / d0.length, design.turns / d0.turns, design.tooth_tip / d0.tooth_tip)


def evaluate(design: DesignPoint, base: "BaseMachine") -> Performance:
    """Evaluate the five performance values at one design point.

    Pure and deterministic: equal inputs give bit-identical outputs.
    """
    lam, nu, eta = normalize(design, base)
    b_gap, t_break, i_start, d_temp = _perf_values(lam, nu, eta)
    return Performance(b_gap, t_break, i_start, d_temp, design.tooth_tip)


# --- lattice helpers -------------------------------------------------------
#
# Every action moves one variable by exactly one step, so the reachable
# designs form a finite grid.  Its axis values have one owner,
# BaseMachine.axes, so equal lattice points are bit-identical no matter
# which code path produced them.


def design_at(base: "BaseMachine", i: int, j: int, k: int) -> DesignPoint:
    """Design point at lattice indices (i, j, k)."""
    n_l, n_n, n_h = base.shape
    if not (0 <= i < n_l and 0 <= j < n_n and 0 <= k < n_h):
        raise ContractViolationError(f"lattice index ({i}, {j}, {k}) out of range")
    lengths, turns, tooths = base.axes
    return DesignPoint(length=lengths[i], turns=turns[j], tooth_tip=tooths[k])


def lattice_index(base: "BaseMachine", design: DesignPoint) -> tuple[int, int, int]:
    """Indices of a design point that lies on the lattice.

    Raises ContractViolationError if the point is off-lattice or out of
    bounds.
    """
    check_bounds(design, base)
    try:
        return tuple(axis.index(value) for axis, value in
                     zip(base.axes, (design.length, design.turns, design.tooth_tip)))
    except ValueError:
        raise ContractViolationError(f"design {design!r} is not a lattice point") from None


@lru_cache(maxsize=None)
def evaluate_grid(base: "BaseMachine") -> np.ndarray:
    """Vectorized evaluate() over every lattice point (cached per machine).

    One read-only float64 array of shape (5, n_length, n_turns, n_tooth),
    the five performance values in flag order, computed with exactly the
    same expressions as the scalar path: grid[:, i, j, k] equals
    evaluate(design_at(base, i, j, k)).as_tuple() bitwise.
    """
    lengths, turns, tooths = np.ix_(*map(np.array, base.axes))
    d0 = base.base_design
    grid = np.empty((5, *base.shape))
    grid[:4] = np.broadcast_arrays(*_perf_values(
        lengths / d0.length, turns / d0.turns, tooths / d0.tooth_tip))
    grid[4] = tooths
    grid.setflags(write=False)
    return grid
