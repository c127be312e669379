"""Base-machine catalog: stock machine data, variant sampling with
feasibility certification, and the versioned text persistence format."""

from dataclasses import fields, replace

import numpy as np
import pytest

from motorgame import catalog as catalog_mod
from motorgame.catalog import (
    BAND_HALF_WIDTH,
    CATALOG_VERSION_LINE,
    INITIAL_LENGTH_PU,
    INITIAL_TOOTH_PU,
    MAX_DRAW_ATTEMPTS,
    TOOTH_BAND_PU,
    BaseMachine,
    Bounds,
    StepSizes,
    TargetBands,
    builtin_catalog,
    feasible_mask,
    generate_variants,
    load_catalog,
    machine_by_id,
    save_catalog,
    variant_seed_for,
    with_split,
)
from motorgame.env import all_flags_zero, flags
from motorgame.errors import (
    ContractViolationError,
    GenerationExhaustedError,
    TextFormatError,
)
from motorgame.surrogate import (
    Performance,
    check_bounds,
    design_at,
    evaluate,
    lattice_index,
)


# --- stock machines ------------------------------------------------------------


def test_builtin_catalog_rated_data():
    machines = builtin_catalog()
    assert [(m.id, m.rated_power, m.line_voltage) for m in machines] == [
        (1, 2500.0, 10000.0),
        (2, 600.0, 6000.0),
        (3, 2100.0, 6000.0),
    ]


def test_builtin_catalog_defaults():
    for m in builtin_catalog():
        assert m.step_sizes.turns == 1
        check_bounds(m.base_design, m)


def test_machine_by_id_unknown():
    with pytest.raises(ContractViolationError):
        machine_by_id(9)


def test_builtin_catalog_is_a_fresh_list_of_the_one_machine_table():
    machines = builtin_catalog()
    assert [machine_by_id(m.id) for m in machines] == machines
    assert all(machine_by_id(m.id) is m for m in machines)
    machines.clear()
    assert [m.id for m in builtin_catalog()] == [1, 2, 3]
    assert [machine_by_id(mid).id for mid in (1, 2, 3)] == [1, 2, 3]


def test_base_machine_validation():
    m = machine_by_id(1)
    with pytest.raises(ContractViolationError):
        BaseMachine(id=4, rated_power=-1.0, line_voltage=6000.0,
                    base_design=m.base_design,
                    bounds=m.bounds, step_sizes=m.step_sizes)
    # bound width not an integer multiple of the step
    bad = Bounds(length=m.bounds.length, turns=m.bounds.turns,
                 tooth_tip=(m.bounds.tooth_tip[0], m.bounds.tooth_tip[1] + 0.03))
    with pytest.raises(ContractViolationError):
        BaseMachine(id=4, rated_power=100.0, line_voltage=6000.0,
                    base_design=m.base_design,
                    bounds=bad, step_sizes=m.step_sizes)


@pytest.mark.parametrize("turns,step", [((15, 25), 0.5), ((15.0, 25.0), 1),
                                        ((15, 25.5), 1), ((15, 25), True)],
                         ids=["half-turn step", "float bounds", "half-turn bound", "bool step"])
def test_base_machine_rejects_turns_that_are_not_whole(turns, step):
    """A design's turns are whole turns, so a lattice of half turns or a
    float turns bound is refused where the machine is built."""
    m = machine_by_id(1)
    with pytest.raises(ContractViolationError, match="whole turns"):
        replace(m, bounds=Bounds(m.bounds.length, turns, m.bounds.tooth_tip),
                step_sizes=StepSizes(m.step_sizes.length, step, m.step_sizes.tooth_tip))


def test_machine_shape_counts_the_points_on_each_axis():
    """Each axis holds lo + i * step for i up to round((hi - lo) / step), and
    shape counts them, found again when replace() builds a machine with
    other bounds and steps; repr leaves both out."""
    stock = machine_by_id(2)
    custom = replace(stock,
                     bounds=Bounds(length=(0.3, 0.3 + 12 * 0.03), turns=(20, 32),
                                   tooth_tip=stock.bounds.tooth_tip),
                     step_sizes=StepSizes(length=0.03, turns=2,
                                          tooth_tip=stock.step_sizes.tooth_tip))
    for base in (*builtin_catalog(), custom):
        b, s = base.bounds, base.step_sizes
        spans = ((b.length, s.length), (b.turns, s.turns), (b.tooth_tip, s.tooth_tip))
        assert base.shape == tuple(int(round((hi - lo) / step)) + 1 for (lo, hi), step in spans)
        assert base.axes == tuple(tuple(lo + i * step for i in range(n))
                                  for ((lo, _), step), n in zip(spans, base.shape))
        assert base.shape == tuple(map(len, base.axes))
    assert stock.shape == (31, 21, 21) and custom.shape == (13, 7, 21)
    assert "shape" not in repr(custom) and "axes" not in repr(custom)


# --- variant seeds --------------------------------------------------------------


def test_variant_seed_deterministic_and_distinct():
    seen = set()
    for base_id in (1, 2, 3):
        for index in range(25):
            s = variant_seed_for(0, base_id, index)
            assert s == variant_seed_for(0, base_id, index)
            assert s >= 0
            seen.add(s)
    assert len(seen) == 75


def test_variant_seed_rejects_negative_catalog_seed():
    """A catalog seed is a non-negative integer, not a float or a bool."""
    for seed in (-1, 1.5, True):
        with pytest.raises(ContractViolationError):
            variant_seed_for(seed, 1, 0)
        with pytest.raises(ContractViolationError):
            generate_variants(machine_by_id(1), 1, seed)


def test_variant_seed_takes_a_numpy_integer():
    assert variant_seed_for(np.int64(3), 1, 0) == variant_seed_for(3, 1, 0)


# --- variant generation ----------------------------------------------------------


def test_generate_deterministic():
    m1 = machine_by_id(1)
    assert generate_variants(m1, 25, 7) == generate_variants(m1, 25, 7)


def test_generate_seed_changes_output():
    m1 = machine_by_id(1)
    a = generate_variants(m1, 25, 7)
    b = generate_variants(m1, 25, 8)
    assert any(x.initial_design != y.initial_design for x, y in zip(a, b))


def test_generate_count_validation():
    for count in (0, True, 2.0):
        with pytest.raises(ContractViolationError):
            generate_variants(machine_by_id(1), count, 7)


def test_variant_fields_and_sampler_windows():
    for base in builtin_catalog():
        shape = base.shape
        h0 = base.base_design.tooth_tip
        for index, v in enumerate(generate_variants(base, 10, 3)):
            assert v.base_id == base.id
            assert v.variant_seed == variant_seed_for(3, base.id, index)
            assert v.split == "train"
            check_bounds(v.initial_design, base)
            i, j, k = lattice_index(base, v.initial_design)
            assert 6 <= i <= 16        # lam in [0.8, 1.3]
            assert 5 <= j <= 15        # turns offset in [-5, +5] around N0
            assert 2 <= k <= 11        # eta in [0.7, 1.6]
            assert 0 <= i < shape[0] and 0 <= j < shape[1] and 0 <= k < shape[2]
            for (lo, hi), half in zip(v.target_bands.as_tuple()[:4], BAND_HALF_WIDTH):
                assert lo <= hi
                assert hi - lo == pytest.approx(2 * half)
                assert lo <= 1.0 <= hi  # center drawn within the half-width
            assert v.target_bands.tooth_tip == (TOOTH_BAND_PU[0] * h0,
                                                TOOTH_BAND_PU[1] * h0)


def test_sampler_windows_follow_the_machines_lattice():
    """The start windows are per-unit of the base design wherever the
    lattice begins: here at 0.7 pu on the length and tooth-tip axes, where
    the stock lattices begin at 0.5 pu."""
    stock = machine_by_id(1)
    d0, step = stock.base_design, stock.step_sizes
    lo_l, lo_h = 0.7 * d0.length, 0.7 * d0.tooth_tip
    base = replace(stock, bounds=Bounds(length=(lo_l, lo_l + 26 * step.length),
                                        turns=stock.bounds.turns,
                                        tooth_tip=(lo_h, lo_h + 15 * step.tooth_tip)))
    for v in generate_variants(base, 30, 3):
        lam = v.initial_design.length / d0.length
        eta = v.initial_design.tooth_tip / d0.tooth_tip
        assert INITIAL_LENGTH_PU[0] - 1e-9 <= lam <= INITIAL_LENGTH_PU[1] + 1e-9
        assert INITIAL_TOOTH_PU[0] - 1e-9 <= eta <= INITIAL_TOOTH_PU[1] + 1e-9


_M1 = machine_by_id(1)
_B1, _S1 = _M1.bounds, _M1.step_sizes


# (machine, its start windows as (lo, hi) lattice indices per axis): the
# indices nearest INITIAL_LENGTH_PU x L0, N0 + INITIAL_TURNS_OFFSET and
# INITIAL_TOOTH_PU x h0, the lower one on a tie and the lattice's end for
# an end past it
SAMPLER_CASES = {
    **{f"stock {m.id}": (m, ((6, 16), (5, 15), (2, 11))) for m in builtin_catalog()},
    # 10, 12, ..., 30 turns: 15 and 25 fall halfway, so 14 and 24 turns
    "turns step 2": (replace(_M1, bounds=Bounds(_B1.length, (10, 30), _B1.tooth_tip),
                             step_sizes=StepSizes(_S1.length, 2, _S1.tooth_tip)),
                     ((6, 16), (2, 7), (2, 11))),
    "turns 18-22": (replace(_M1, bounds=Bounds(_B1.length, (18, 22), _B1.tooth_tip)),
                    ((6, 16), (0, 4), (2, 11))),
    "length 0.6-1.2": (replace(_M1, bounds=Bounds((0.6, 1.2), _B1.turns, _B1.tooth_tip)),
                       ((6, 10), (5, 15), (2, 11))),
    # length and tooth tip from 0.7 pu (L0 = 1.2 m, h0 = 2.0 mm), where the
    # stock lattices begin at 0.5 pu
    "lattice from 0.7 pu": (replace(_M1, bounds=Bounds((0.7 * 1.2, 0.7 * 1.2 + 26 * _S1.length),
                                                       _B1.turns,
                                                       (0.7 * 2.0, 0.7 * 2.0 + 15 * _S1.tooth_tip))),
                            ((2, 12), (5, 15), (0, 9))),
    # N0 = 20 at index 6, so N0 +- 5 is 15 to 25 turns, not the axis middle
    "turns 14-30": (replace(_M1, bounds=Bounds(_B1.length, (14, 30), _B1.tooth_tip)),
                    ((6, 16), (1, 11), (2, 11))),
}


@pytest.mark.parametrize("base,windows", SAMPLER_CASES.values(), ids=SAMPLER_CASES)
def test_sampler_draws_each_start_between_the_nearest_indices_of_its_window(base, windows):
    """One window rule on every axis of every lattice: 200 draws stay on
    the lattice and span exactly the nearest indices of the window's ends."""
    starts = np.array([v.start for v in generate_variants(base, 200, 3)])
    assert np.all((starts >= 0) & (starts < base.shape))
    assert list(zip(starts.min(axis=0), starts.max(axis=0))) == list(windows)


def test_certified_feasibility_independent_scan():
    """A full scalar lattice scan finds a feasible point for every
    generated variant."""
    base = machine_by_id(2)
    for v in generate_variants(base, 3, 5):
        bands = v.target_bands.as_tuple()
        found = False
        ni, nj, nk = base.shape
        for i in range(ni):
            for j in range(nj):
                for k in range(nk):
                    perf = evaluate(catalog_mod.surrogate.design_at(base, i, j, k), base)
                    if all(lo <= p <= hi for p, (lo, hi)
                           in zip(perf.as_tuple(), bands)):
                        found = True
                        break
                if found:
                    break
            if found:
                break
        assert found


def test_feasible_mask_matches_certification():
    for base in builtin_catalog():
        for v in generate_variants(base, 25, 0):
            assert bool(feasible_mask(base, v.target_bands).any())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feasible_mask_is_the_scalar_flag_rule_at_every_point(seed):
    """On every machine and at every lattice point, feasible_mask equals
    all_flags_zero(flags(evaluate(...))).  Each band runs between the
    values of two lattice points, which both lie on band edges, so an
    inclusive edge read as exclusive changes the mask."""
    rng = np.random.default_rng(seed)
    for base in builtin_catalog():
        shape = base.shape
        p, q = (evaluate(design_at(base, *(int(rng.integers(n)) for n in shape)), base)
                for _ in range(2))
        bands = TargetBands(*((min(a, b), max(a, b))
                              for a, b in zip(p.as_tuple(), q.as_tuple())))
        want = [all_flags_zero(flags(evaluate(design_at(base, *ijk), base), bands))
                for ijk in np.ndindex(*shape)]
        mask = feasible_mask(base, bands)
        assert mask.shape == shape and np.array_equal(mask.ravel(), want)


def test_75_variant_protocol():
    total = sum(len(generate_variants(m, 25, 0)) for m in builtin_catalog())
    assert total == 75


def test_generation_exhausted_after_max_attempts(monkeypatch):
    calls = {"n": 0}

    def never_feasible(base, bands):
        calls["n"] += 1
        return np.zeros((1,), dtype=bool)

    monkeypatch.setattr(catalog_mod, "feasible_mask", never_feasible)
    with pytest.raises(GenerationExhaustedError):
        generate_variants(machine_by_id(1), 1, 0)
    assert calls["n"] == MAX_DRAW_ATTEMPTS


# --- target bands / variants -----------------------------------------------------


def test_target_bands_name_the_performance_values_in_order():
    assert [f.name for f in fields(TargetBands)] == [f.name for f in fields(Performance)]


def test_target_bands_reject_inverted():
    with pytest.raises(ContractViolationError):
        TargetBands(b_gap=(1.1, 0.9), t_break=(0.9, 1.1), i_start=(0.9, 1.1),
                    d_temp=(0.9, 1.1), tooth_tip=(1.0, 4.0))


def test_variant_rejects_out_of_bounds_initial():
    """A start at -1 or at n on any axis is off the lattice, and so is one
    that is not three integers; an off-lattice variant cannot be built."""
    v = generate_variants(machine_by_id(1), 1, 0)[0]
    starts = [v.start[:axis] + (index,) + v.start[axis + 1:]
              for axis, n in enumerate(v.base.shape) for index in (-1, n)]
    starts += [(99, 10, 5), (10.0, 10, 5), (True, 10, 5), (10, 10), (10, 10, 5, 0)]
    for start in starts:
        with pytest.raises(ContractViolationError, match="lattice"):
            replace(v, start=start)
    start = replace(v, start=np.array(v.start)).start  # numpy integers are taken
    assert start == v.start and {type(i) for i in start} == {int}


def test_with_split():
    v = generate_variants(machine_by_id(1), 1, 0)[0]
    h = with_split(v, "holdout")
    assert h.split == "holdout" and v.split == "train"
    assert h.initial_design == v.initial_design
    assert h.target_bands == v.target_bands


def test_with_split_rejects_an_unknown_split():
    v = generate_variants(machine_by_id(1), 1, 0)[0]
    with pytest.raises(ContractViolationError, match="split 'trian'"):
        with_split(v, "trian")


# --- persistence ------------------------------------------------------------------


def _full_catalog():
    variants = []
    for m in builtin_catalog():
        batch = generate_variants(m, 30, 0)
        variants += batch[:25] + [with_split(v, "holdout") for v in batch[25:]]
    return variants


def test_save_load_round_trip(tmp_path):
    variants = _full_catalog()
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    assert load_catalog(path) == variants
    again = tmp_path / "again.txt"
    save_catalog(load_catalog(path), again)
    assert again.read_bytes() == path.read_bytes()
    assert path.read_text().startswith("motor-design-catalog v2\n")


def test_v1_catalog_is_rejected_and_feasible_exists_is_gone(tmp_path):
    path = tmp_path / "catalog.txt"
    save_catalog(generate_variants(machine_by_id(1), 2, 0), path)
    v1_body = path.read_text().replace(
        "\n[variant]", "\n[variant]\nfeasible_exists = true").split("\n", 1)[1]
    path.write_text("motor-design-catalog v1\n" + v1_body)
    with pytest.raises(TextFormatError, match="v1"):
        load_catalog(path)
    path.write_text(CATALOG_VERSION_LINE + "\n" + v1_body)
    with pytest.raises(TextFormatError, match="feasible_exists") as err:
        load_catalog(path)
    assert err.value.line == 4


def test_save_is_deterministic(tmp_path):
    variants = _full_catalog()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_catalog(variants, a)
    save_catalog(variants, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_missing_band_field(tmp_path):
    variants = generate_variants(machine_by_id(1), 1, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    lines = [l for l in path.read_text().splitlines()
             if not l.startswith("band_d_temp")]
    path.write_text("\n".join(lines))
    with pytest.raises(TextFormatError) as err:
        load_catalog(path)
    assert "band_d_temp" in str(err.value)


def test_load_empty_file(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text("")
    with pytest.raises(TextFormatError):
        load_catalog(path)


def test_load_header_only(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_VERSION_LINE + "\n")
    with pytest.raises(TextFormatError):
        load_catalog(path)


def test_load_version_mismatch(tmp_path):
    variants = generate_variants(machine_by_id(1), 1, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    text = path.read_text().replace(CATALOG_VERSION_LINE, "motor-design-catalog v9", 1)
    path.write_text(text)
    with pytest.raises(TextFormatError):
        load_catalog(path)


def test_load_unknown_key(tmp_path):
    variants = generate_variants(machine_by_id(1), 1, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    path.write_text(path.read_text().replace("turns =", "bogus_key = 1\nturns ="))
    with pytest.raises(TextFormatError) as err:
        load_catalog(path)
    assert "bogus_key" in str(err.value)


def test_load_duplicate_key(tmp_path):
    variants = generate_variants(machine_by_id(1), 1, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    path.write_text(path.read_text().replace("turns =", "base_id = 1\nturns =", 1))
    with pytest.raises(TextFormatError):
        load_catalog(path)


def test_load_key_outside_section(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_VERSION_LINE + "\nbase_id = 1\n")
    with pytest.raises(TextFormatError):
        load_catalog(path)


def test_malformed_error_carries_line_number(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_VERSION_LINE + "\n[variant]\nnot a key value line\n")
    with pytest.raises(TextFormatError) as err:
        load_catalog(path)
    assert err.value.line == 3


def test_load_rejects_nan_band(tmp_path):
    variants = generate_variants(machine_by_id(1), 1, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    lines = path.read_text().splitlines()
    band = next(i for i, l in enumerate(lines) if l.startswith("band_b_gap"))
    lines[band] = "band_b_gap = nan, nan"
    path.write_text("\n".join(lines))
    with pytest.raises(TextFormatError) as err:
        load_catalog(path)
    assert str(err.value) == (
        f"{path}:{band + 1}: bad value for band_b_gap: band b_gap is not finite")


def _one_variant_catalog(tmp_path):
    path = tmp_path / "catalog.txt"
    save_catalog(generate_variants(machine_by_id(1), 1, 0), path)
    return path, path.read_text().splitlines()


def test_load_reports_a_band_with_low_above_high_at_its_line(tmp_path):
    path, lines = _one_variant_catalog(tmp_path)
    at = next(i for i, line in enumerate(lines) if line.startswith("band_b_gap ="))
    lines[at] = "band_b_gap = 2.0, 1.0"
    path.write_text("\n".join(lines))
    with pytest.raises(TextFormatError) as err:
        load_catalog(path)
    assert str(err.value) == (
        f"{path}:{at + 1}: bad value for band_b_gap: band b_gap has low > high")


def test_load_reports_an_unknown_machine_at_its_base_id_line(tmp_path):
    path, lines = _one_variant_catalog(tmp_path)
    lines[lines.index("base_id = 1")] = "base_id = 9"
    path.write_text("\n".join(lines))
    with pytest.raises(TextFormatError) as err:
        load_catalog(path)
    assert str(err.value) == f"{path}:4: bad value for base_id: unknown machine id 9"


def test_load_rejects_an_unknown_section_at_its_header(tmp_path):
    path, lines = _one_variant_catalog(tmp_path)
    lines += ["[machine]", "id = 4"]
    path.write_text("\n".join(lines))
    with pytest.raises(TextFormatError, match=r"unknown section \[machine\]") as err:
        load_catalog(path)
    assert err.value.line == len(lines) - 1


@pytest.mark.parametrize("key,value", [
    ("band_b_gap", "0.9"), ("band_t_break", "0.9, 1.0, 1.1"), ("band_d_temp", "0.9, x"),
    ("turns", "20.5"), ("length", "long")])
def test_load_reports_a_bad_value_at_its_line(tmp_path, key, value):
    path, lines = _one_variant_catalog(tmp_path)
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    lines[at] = f"{key} = {value}"
    path.write_text("\n".join(lines))
    with pytest.raises(TextFormatError, match=f"bad value for {key}: '{value}'") as err:
        load_catalog(path)
    assert err.value.line == at + 1


@pytest.mark.parametrize("key", ["length", "tooth_tip"])
def test_load_rejects_a_start_off_the_lattice_at_its_header(tmp_path, key):
    path, lines = _one_variant_catalog(tmp_path)
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    lines[at] = f"{key} = {float(lines[at].split(' = ')[1]) + 0.001!r}"
    path.write_text("\n".join(lines))
    with pytest.raises(TextFormatError, match="not a lattice point") as err:
        load_catalog(path)
    assert err.value.line == lines.index("[variant]") + 1


def test_load_rejects_a_misspelled_split_at_its_line(tmp_path):
    """The loader's split converter is MachineVariant's split rule."""
    path, lines = _one_variant_catalog(tmp_path)
    at = lines.index("split = train")
    lines[at] = "split = trian"
    path.write_text("\n".join(lines))
    with pytest.raises(TextFormatError) as err:
        load_catalog(path)
    assert str(err.value) == (
        f"{path}:{at + 1}: bad value for split: split 'trian' is not 'train' or 'holdout'")


def test_load_ignores_comments_and_blanks(tmp_path):
    variants = generate_variants(machine_by_id(1), 2, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    path.write_text("# leading comment\n" + path.read_text() + "\n# trailing\n")
    assert load_catalog(path) == variants
