"""Stock machine definitions, variant generation, and catalog persistence.

Three built-in base machines span the study's power/voltage grid.  Each
training or evaluation case is a MachineVariant: a machine, a starting
design on its lattice and target bands for the five performance values,
certified at generation time to admit at least one feasible point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import surrogate
from .errors import ContractViolationError, GenerationExhaustedError, MalformedCatalogError, is_int
from .kvtext import Section, check_layout, format_value, read_sections, write_text
from .surrogate import DesignPoint, Performance, evaluate_grid

CATALOG_VERSION_LINE = "motor-design-catalog v2"

# Variant sampler: each start index is drawn uniformly between the lattice
# indices nearest its window's ends, length and tooth tip per unit of the
# base design and turns as an offset from its turns; target bands are
# center +- half-width.
INITIAL_LENGTH_PU = (0.8, 1.3)
INITIAL_TURNS_OFFSET = (-5, 5)
INITIAL_TOOTH_PU = (0.7, 1.6)
BAND_CENTER_SPREAD = (0.03, 0.05, 0.05, 0.03)   # b_gap, t_break, i_start, d_temp
BAND_HALF_WIDTH = (0.08, 0.15, 0.15, 0.10)
TOOTH_BAND_PU = (0.6, 2.2)
MAX_DRAW_ATTEMPTS = 1000

_MASK64 = (1 << 64) - 1

# the five checked quantities in flag order, as Performance names them
_QUANTITIES = tuple(f.name for f in fields(Performance))


@dataclass(frozen=True)
class StepSizes:
    length: float   # m
    turns: int
    tooth_tip: float  # mm


@dataclass(frozen=True)
class Bounds:
    """Per-variable lattice bounds: BaseMachine lays its axes out from them."""

    length: tuple[float, float]
    turns: tuple[int, int]
    tooth_tip: tuple[float, float]


@dataclass(frozen=True)
class BaseMachine:
    """A machine and its design lattice: ``axes`` holds each axis's values,
    ``lo + index * step``, and ``shape`` counts them."""

    id: int
    rated_power: float   # kW
    line_voltage: float  # V
    base_design: DesignPoint
    bounds: Bounds
    step_sizes: StepSizes
    axes: tuple[tuple, tuple, tuple] = field(init=False, compare=False, repr=False)
    shape: tuple[int, int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.rated_power <= 0 or self.line_voltage <= 0:
            raise ContractViolationError("rated power and voltage must be positive")
        s = self.step_sizes
        if s.length <= 0 or s.turns <= 0 or s.tooth_tip <= 0:
            raise ContractViolationError("step sizes must be positive")
        if not all(map(is_int, (s.turns, *self.bounds.turns))):
            raise ContractViolationError("turns step and bounds must be whole turns")
        axes = []
        for name, (lo, hi), step in (
            ("length", self.bounds.length, s.length),
            ("turns", self.bounds.turns, s.turns),
            ("tooth_tip", self.bounds.tooth_tip, s.tooth_tip),
        ):
            if lo >= hi:
                raise ContractViolationError(f"{name} bounds are empty")
            n = (hi - lo) / step
            if abs(n - round(n)) > 1e-6:
                raise ContractViolationError(f"{name} bound width is not a step multiple")
            axes.append(tuple(lo + i * step for i in range(round(n) + 1)))
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "shape", tuple(map(len, axes)))
        surrogate.check_bounds(self.base_design, self)


def _stock_machine(mid: int, power_kw: float, voltage_v: float,
                   length0: float, turns0: int, tooth0: float) -> BaseMachine:
    step_l = 0.05 * length0
    lo_l = 0.5 * length0
    step_h = 0.1 * tooth0
    lo_h = 0.5 * tooth0
    return BaseMachine(
        id=mid,
        rated_power=power_kw,
        line_voltage=voltage_v,
        base_design=DesignPoint(length0, turns0, tooth0),
        bounds=Bounds(
            length=(lo_l, lo_l + 30 * step_l),
            turns=(turns0 - 10, turns0 + 10),
            tooth_tip=(lo_h, lo_h + 20 * step_h),
        ),
        step_sizes=StepSizes(length=step_l, turns=1, tooth_tip=step_h),
    )


# The stock machines by id, in id order; built once, they are immutable.
_MACHINES = {m.id: m for m in (
    _stock_machine(1, 2500.0, 10000.0, length0=1.2, turns0=20, tooth0=2.0),
    _stock_machine(2, 600.0, 6000.0, length0=0.6, turns0=28, tooth0=1.5),
    _stock_machine(3, 2100.0, 6000.0, length0=1.0, turns0=18, tooth0=2.0),
)}


def builtin_catalog() -> list[BaseMachine]:
    """The three stock machines, in id order."""
    return list(_MACHINES.values())


def machine_by_id(mid: int) -> BaseMachine:
    try:
        return _MACHINES[mid]
    except KeyError:
        raise ContractViolationError(f"unknown machine id {mid}") from None


@dataclass(frozen=True)
class TargetBands:
    """Inclusive [low, high] target bands, one per performance value.

    The first four are per-unit, tooth_tip is in millimetres.
    """

    b_gap: tuple[float, float]
    t_break: tuple[float, float]
    i_start: tuple[float, float]
    d_temp: tuple[float, float]
    tooth_tip: tuple[float, float]

    def __post_init__(self):
        for name in _QUANTITIES:
            lo, hi = getattr(self, name)
            object.__setattr__(self, name, (float(lo), float(hi)))
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ContractViolationError(f"band {name} is not finite")
            if lo > hi:
                raise ContractViolationError(f"band {name} has low > high")

    def as_tuple(self) -> tuple[tuple[float, float], ...]:
        return (self.b_gap, self.t_break, self.i_start, self.d_temp, self.tooth_tip)


@dataclass(frozen=True)
class MachineVariant:
    """A design request: a machine, its start's (i, j, k) lattice index and target bands."""

    base: BaseMachine
    variant_seed: int
    start: tuple[int, int, int]
    target_bands: TargetBands
    split: str = "train"

    def __post_init__(self):
        if not (len(self.start) == 3 and all(
                is_int(i) and 0 <= i < n for i, n in zip(self.start, self.base.shape))):
            raise ContractViolationError(
                f"start {self.start!r} is off the lattice of machine {self.base_id}")
        object.__setattr__(self, "start", tuple(map(int, self.start)))
        if self.split not in ("train", "holdout"):
            raise ContractViolationError(f"split {self.split!r} is not 'train' or 'holdout'")

    @property
    def base_id(self) -> int:
        return self.base.id

    @property
    def initial_design(self) -> DesignPoint:
        return surrogate.design_at(self.base, *self.start)


def variant_seed_for(catalog_seed: int, base_id: int, index: int) -> int:
    """Arithmetic 64-bit mix so each variant is individually reproducible."""
    if not is_int(catalog_seed) or catalog_seed < 0:
        raise ContractViolationError(
            f"catalog seed must be a non-negative integer, got {catalog_seed!r}")
    x = (int(catalog_seed) * 6364136223846793005 + 1442695040888963407) & _MASK64
    x = (x + base_id * 11400714819323198485) & _MASK64
    x = (x * 6364136223846793005 + index * 2862933555777941757 + 3037000493) & _MASK64
    return x


def feasible_mask(base: BaseMachine, bands: TargetBands) -> np.ndarray:
    """Boolean grid marking lattice points that satisfy all five bands."""
    grid = evaluate_grid(base)
    lo, hi = np.array(bands.as_tuple()).T[..., None, None, None]
    return ((grid >= lo) & (grid <= hi)).all(axis=0)


def target_bands(base: BaseMachine, centers) -> TargetBands:
    """Bands ``center +- BAND_HALF_WIDTH`` for the four per-unit values, in
    flag order, and the TOOTH_BAND_PU window of the base tooth tip."""
    h0 = base.base_design.tooth_tip
    return TargetBands(*((c - w, c + w) for c, w in zip(centers, BAND_HALF_WIDTH)),
                       tooth_tip=(TOOTH_BAND_PU[0] * h0, TOOTH_BAND_PU[1] * h0))


def generate_variants(base: BaseMachine, count: int, seed: int) -> list[MachineVariant]:
    """Draw ``count`` certified-feasible variants of ``base``.

    Each start index is drawn uniformly from its axis's window: the
    indices in ``base.axes`` nearest the window's two ends (the lower one
    on a tie, the lattice's end for an end past it).  Deterministic in
    (base, count, seed).  Raises GenerationExhaustedError after
    MAX_DRAW_ATTEMPTS consecutive infeasible draws for one slot.
    """
    if not is_int(count) or count < 1:
        raise ContractViolationError(f"count must be an integer >= 1, got {count!r}")
    d0 = base.base_design
    ends = ([pu * d0.length for pu in INITIAL_LENGTH_PU],
            [d0.turns + off for off in INITIAL_TURNS_OFFSET],
            [pu * d0.tooth_tip for pu in INITIAL_TOOTH_PU])
    windows = [[min(range(len(axis)), key=lambda i: abs(axis[i] - end)) for end in pair]
               for axis, pair in zip(base.axes, ends)]

    variants = []
    for index in range(count):
        slot_seed = variant_seed_for(seed, base.id, index)
        rng = np.random.default_rng(slot_seed)
        for _ in range(MAX_DRAW_ATTEMPTS):
            start = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in windows)
            bands = target_bands(base, [rng.uniform(1.0 - spread, 1.0 + spread)
                                        for spread in BAND_CENTER_SPREAD])

            if feasible_mask(base, bands).any():
                variants.append(MachineVariant(
                    base=base,
                    variant_seed=slot_seed,
                    start=start,
                    target_bands=bands,
                ))
                break
        else:
            raise GenerationExhaustedError(
                f"no feasible variant for machine {base.id} after "
                f"{MAX_DRAW_ATTEMPTS} draws; check the band configuration"
            )
    return variants


# --- persistence -----------------------------------------------------------

_BAND_KEYS = tuple(f"band_{name}" for name in _QUANTITIES)
_REQUIRED_KEYS = ("base_id", "variant_seed", "split", "length", "turns",  # in file order
                  "tooth_tip", *_BAND_KEYS)


def save_catalog(variants: list[MachineVariant], path) -> None:
    """Write variants atomically as key = value text; floats keep full precision."""
    lines = [CATALOG_VERSION_LINE, ""]
    for v in variants:
        if v.base != _MACHINES.get(v.base_id):  # the file holds only the machine's id
            raise ContractViolationError(f"cannot save machine {v.base_id}: not a stock machine")
        values = (v.base_id, v.variant_seed, v.split,
                  *(axis[i] for axis, i in zip(v.base.axes, v.start)),
                  *(f"{format_value(lo)}, {format_value(hi)}"
                    for lo, hi in v.target_bands.as_tuple()))
        lines.append("[variant]")
        lines += [f"{key} = {format_value(value)}"
                  for key, value in zip(_REQUIRED_KEYS, values)]
        lines.append("")
    write_text(path, "\n".join(lines))


def _parse_band(text: str) -> tuple[float, float]:
    """``lo, hi``; a ValueError unless the text holds two floats."""
    lo, hi = map(float, text.split(","))
    return lo, hi


def _build_variant(section: Section) -> MachineVariant:
    try:
        base = machine_by_id(section.parse("base_id", int))
        return MachineVariant(
            base=base,
            variant_seed=section.parse("variant_seed", int),
            start=surrogate.lattice_index(base, DesignPoint(
                length=section.parse("length", float),
                turns=section.parse("turns", int),
                tooth_tip=section.parse("tooth_tip", float),
            )),
            target_bands=TargetBands(*(section.parse(k, _parse_band) for k in _BAND_KEYS)),
            split=section.values["split"],
        )
    except ContractViolationError as exc:
        raise section.fail(str(exc)) from None


def load_catalog(path) -> list[MachineVariant]:
    """Parse a catalog file; inverse of save_catalog, field-for-field.  Every
    section's layout is checked before any value is parsed, and a variant
    whose start is off its machine's lattice fails at its header line."""
    sections = read_sections(path, MalformedCatalogError, CATALOG_VERSION_LINE)
    if not sections:
        raise MalformedCatalogError("catalog contains no variants", path, 1)
    check_layout(sections, {"variant": _REQUIRED_KEYS})
    return [_build_variant(section) for section in sections]


def with_split(variant: MachineVariant, split: str) -> MachineVariant:
    return replace(variant, split=split)
