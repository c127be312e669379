"""Stock machine definitions, variant generation, and catalog persistence.

Three built-in base machines span the study's power/voltage grid.  Each
training or evaluation case is a MachineVariant: a starting design plus
target bands for the five performance values, certified at generation
time to admit at least one feasible lattice point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import surrogate
from .errors import (
    CatalogVersionError,
    ContractViolationError,
    GenerationExhaustedError,
    MalformedCatalogError,
)
from .kvtext import Section, format_value, read_sections
from .surrogate import DesignPoint, evaluate_grid

CATALOG_VERSION_LINE = "motor-design-catalog v1"

# Variant sampler: starting designs are drawn uniformly from this
# per-unit window of the lattice, target bands as center +- half-width.
INITIAL_LENGTH_PU = (0.8, 1.3)
INITIAL_TURNS_OFFSET = (-5, 5)
INITIAL_TOOTH_PU = (0.7, 1.6)
BAND_CENTER_SPREAD = (0.03, 0.05, 0.05, 0.03)   # b_gap, t_break, i_start, d_temp
BAND_HALF_WIDTH = (0.08, 0.15, 0.15, 0.10)
TOOTH_BAND_PU = (0.6, 2.2)
MAX_DRAW_ATTEMPTS = 1000

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class StepSizes:
    length: float   # m
    turns: int
    tooth_tip: float  # mm


@dataclass(frozen=True)
class Bounds:
    """Inclusive per-variable lattice bounds."""

    length: tuple[float, float]
    turns: tuple[int, int]
    tooth_tip: tuple[float, float]


@dataclass(frozen=True)
class SiAnchors:
    """Multipliers that turn per-unit results into SI figures in reports.

    Game logic never uses these.
    """

    b_gap: float    # T
    t_break: float  # N*m
    i_start: float  # A
    d_temp: float   # K


@dataclass(frozen=True)
class BaseMachine:
    id: int
    rated_power: float   # kW
    line_voltage: float  # V
    base_design: DesignPoint
    si_anchors: SiAnchors
    bounds: Bounds
    step_sizes: StepSizes
    frequency: float = 50.0  # Hz
    pole_pairs: int = 2

    def __post_init__(self):
        if self.rated_power <= 0 or self.line_voltage <= 0:
            raise ContractViolationError("rated power and voltage must be positive")
        s = self.step_sizes
        if s.length <= 0 or s.turns <= 0 or s.tooth_tip <= 0:
            raise ContractViolationError("step sizes must be positive")
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
        surrogate.check_bounds(self.base_design, self)


def _stock_machine(mid: int, power_kw: float, voltage_v: float,
                   length0: float, turns0: int, tooth0: float) -> BaseMachine:
    step_l = 0.05 * length0
    lo_l = 0.5 * length0
    step_h = 0.1 * tooth0
    lo_h = 0.5 * tooth0
    sync_rad_s = 2.0 * np.pi * 50.0 / 2.0  # 4-pole, 50 Hz
    rated_amps = power_kw * 1e3 / (np.sqrt(3.0) * voltage_v * 0.9)  # pf*eff ~ 0.9
    return BaseMachine(
        id=mid,
        rated_power=power_kw,
        line_voltage=voltage_v,
        base_design=DesignPoint(length0, turns0, tooth0),
        si_anchors=SiAnchors(
            b_gap=0.85,
            t_break=power_kw * 1e3 / sync_rad_s,
            i_start=5.0 * rated_amps,
            d_temp=80.0,
        ),
        # upper bounds stored as lo + count*step so the top lattice point
        # passes the inclusive check bitwise
        bounds=Bounds(
            length=(lo_l, lo_l + 30 * step_l),
            turns=(turns0 - 10, turns0 + 10),
            tooth_tip=(lo_h, lo_h + 20 * step_h),
        ),
        step_sizes=StepSizes(length=step_l, turns=1, tooth_tip=step_h),
    )


def builtin_catalog() -> list[BaseMachine]:
    """The three stock machines, in id order."""
    return [
        _stock_machine(1, 2500.0, 10000.0, length0=1.2, turns0=20, tooth0=2.0),
        _stock_machine(2, 600.0, 6000.0, length0=0.6, turns0=28, tooth0=1.5),
        _stock_machine(3, 2100.0, 6000.0, length0=1.0, turns0=18, tooth0=2.0),
    ]


def machine_by_id(mid: int) -> BaseMachine:
    for machine in builtin_catalog():
        if machine.id == mid:
            return machine
    raise ContractViolationError(f"unknown machine id {mid}")


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
        for name in ("b_gap", "t_break", "i_start", "d_temp", "tooth_tip"):
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
    base_id: int
    variant_seed: int
    initial_design: DesignPoint
    target_bands: TargetBands
    feasible_exists: bool
    split: str = "train"

    def __post_init__(self):
        surrogate.check_bounds(self.initial_design, machine_by_id(self.base_id))


def variant_seed_for(catalog_seed: int, base_id: int, index: int) -> int:
    """Arithmetic 64-bit mix so each variant is individually reproducible."""
    if catalog_seed < 0:
        raise ContractViolationError("catalog seed must be non-negative")
    x = (catalog_seed * 6364136223846793005 + 1442695040888963407) & _MASK64
    x = (x + base_id * 11400714819323198485) & _MASK64
    x = (x * 6364136223846793005 + index * 2862933555777941757 + 3037000493) & _MASK64
    return x


def feasible_mask(base: BaseMachine, bands: TargetBands) -> np.ndarray:
    """Boolean grid marking lattice points that satisfy all five bands."""
    grid = evaluate_grid(base)
    mask = np.ones(grid.shape, dtype=bool)
    for values, (lo, hi) in zip(grid.perf_arrays(), bands.as_tuple()):
        mask &= (values >= lo) & (values <= hi)
    return mask


def _index_window(lo_pu: float, hi_pu: float, axis_lo_pu: float, step_pu: float) -> tuple[int, int]:
    i_lo = int(round((lo_pu - axis_lo_pu) / step_pu))
    i_hi = int(round((hi_pu - axis_lo_pu) / step_pu))
    return i_lo, i_hi


def generate_variants(base: BaseMachine, count: int, seed: int) -> list[MachineVariant]:
    """Draw ``count`` certified-feasible variants of ``base``.

    Deterministic in (base, count, seed).  Raises GenerationExhaustedError
    after MAX_DRAW_ATTEMPTS consecutive infeasible draws for one slot.
    """
    if count < 1:
        raise ContractViolationError("count must be >= 1")
    i_window = _index_window(*INITIAL_LENGTH_PU, axis_lo_pu=0.5, step_pu=0.05)
    k_window = _index_window(*INITIAL_TOOTH_PU, axis_lo_pu=0.5, step_pu=0.1)
    turns_mid = (base.bounds.turns[1] + base.bounds.turns[0]) // 2

    variants = []
    for index in range(count):
        slot_seed = variant_seed_for(seed, base.id, index)
        rng = np.random.default_rng(slot_seed)
        for _ in range(MAX_DRAW_ATTEMPTS):
            i = int(rng.integers(i_window[0], i_window[1] + 1))
            off = int(rng.integers(INITIAL_TURNS_OFFSET[0], INITIAL_TURNS_OFFSET[1] + 1))
            k = int(rng.integers(k_window[0], k_window[1] + 1))
            j = turns_mid + off - base.bounds.turns[0]
            initial = surrogate.design_at(base, i, j, k)

            pu_bands = []
            for spread, half_width in zip(BAND_CENTER_SPREAD, BAND_HALF_WIDTH):
                center = rng.uniform(1.0 - spread, 1.0 + spread)
                pu_bands.append((center - half_width, center + half_width))
            h0 = base.base_design.tooth_tip
            bands = TargetBands(*pu_bands, tooth_tip=(TOOTH_BAND_PU[0] * h0, TOOTH_BAND_PU[1] * h0))

            if feasible_mask(base, bands).any():
                variants.append(MachineVariant(
                    base_id=base.id,
                    variant_seed=slot_seed,
                    initial_design=initial,
                    target_bands=bands,
                    feasible_exists=True,
                ))
                break
        else:
            raise GenerationExhaustedError(
                f"no feasible variant for machine {base.id} after "
                f"{MAX_DRAW_ATTEMPTS} draws; check the band configuration"
            )
    return variants


# --- persistence -----------------------------------------------------------

_BAND_KEYS = ("band_b_gap", "band_t_break", "band_i_start", "band_d_temp", "band_tooth_tip")
_REQUIRED_KEYS = (  # in file order
    "base_id", "variant_seed", "split", "length", "turns", "tooth_tip",
    *_BAND_KEYS, "feasible_exists",
)


def save_catalog(variants: list[MachineVariant], path) -> None:
    """Write variants as versioned key = value text; floats keep full precision."""
    lines = [CATALOG_VERSION_LINE, ""]
    for v in variants:
        d = v.initial_design
        values = (v.base_id, v.variant_seed, v.split, d.length, d.turns, d.tooth_tip,
                  *(f"{format_value(lo)}, {format_value(hi)}"
                    for lo, hi in v.target_bands.as_tuple()),
                  "true" if v.feasible_exists else "false")
        lines.append("[variant]")
        lines += [f"{key} = {format_value(value)}"
                  for key, value in zip(_REQUIRED_KEYS, values)]
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _parse_band(raw: str, line_no: int) -> tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise MalformedCatalogError(f"band needs two comma-separated values, got {raw!r}", line_no)
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise MalformedCatalogError(f"bad band value in {raw!r}", line_no) from None


def _build_variant(section: Section) -> MachineVariant:
    if section.name != "variant":
        raise MalformedCatalogError(f"unknown section [{section.name}]", section.line)
    for key, line in section.lines.items():
        if key not in _REQUIRED_KEYS:
            raise MalformedCatalogError(f"unknown key {key!r}", line)
    missing = [k for k in _REQUIRED_KEYS if k not in section.values]
    if missing:
        raise MalformedCatalogError(f"variant is missing fields: {', '.join(missing)}", section.line)

    def text(key: str) -> str:
        return section.values[key]

    def line(key: str) -> int:
        return section.lines[key]

    def parse(key: str, conv):
        try:
            return conv(text(key))
        except ValueError:
            raise MalformedCatalogError(f"bad value for {key}: {text(key)!r}", line(key)) from None

    flag = text("feasible_exists")
    if flag not in ("true", "false"):
        raise MalformedCatalogError(f"feasible_exists must be true or false, got {flag!r}",
                                    line("feasible_exists"))
    try:
        return MachineVariant(
            base_id=parse("base_id", int),
            variant_seed=parse("variant_seed", int),
            initial_design=DesignPoint(
                length=parse("length", float),
                turns=parse("turns", int),
                tooth_tip=parse("tooth_tip", float),
            ),
            target_bands=TargetBands(*(
                _parse_band(text(k), line(k)) for k in _BAND_KEYS
            )),
            feasible_exists=flag == "true",
            split=text("split"),
        )
    except ContractViolationError as exc:
        raise MalformedCatalogError(str(exc), section.line) from None


def load_catalog(path) -> list[MachineVariant]:
    """Parse a catalog file; inverse of save_catalog, field-for-field."""
    sections = read_sections(path, MalformedCatalogError, CATALOG_VERSION_LINE,
                             CatalogVersionError)
    if not sections:
        raise MalformedCatalogError("catalog contains no variants", 1)
    return [_build_variant(section) for section in sections]


def with_split(variant: MachineVariant, split: str) -> MachineVariant:
    return replace(variant, split=split)
