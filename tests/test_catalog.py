"""Base-machine catalog: stock machine data, variant sampling with
feasibility certification, and the versioned text persistence format."""

import numpy as np
import pytest

from motorgame import catalog as catalog_mod
from motorgame.catalog import (
    BAND_HALF_WIDTH,
    CATALOG_VERSION_LINE,
    MAX_DRAW_ATTEMPTS,
    TOOTH_BAND_PU,
    BaseMachine,
    Bounds,
    MachineVariant,
    SiAnchors,
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
from motorgame.errors import (
    CatalogVersionError,
    ContractViolationError,
    GenerationExhaustedError,
    MalformedCatalogError,
)
from motorgame.surrogate import DesignPoint, check_bounds, evaluate, lattice_index, lattice_shape


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
        assert m.frequency == 50.0
        assert m.pole_pairs == 2
        assert m.step_sizes.turns == 1
        check_bounds(m.base_design, m)


def test_machine_by_id_unknown():
    with pytest.raises(ContractViolationError):
        machine_by_id(9)


def test_base_machine_validation():
    m = machine_by_id(1)
    with pytest.raises(ContractViolationError):
        BaseMachine(id=4, rated_power=-1.0, line_voltage=6000.0,
                    base_design=m.base_design, si_anchors=m.si_anchors,
                    bounds=m.bounds, step_sizes=m.step_sizes)
    # bound width not an integer multiple of the step
    bad = Bounds(length=m.bounds.length, turns=m.bounds.turns,
                 tooth_tip=(m.bounds.tooth_tip[0], m.bounds.tooth_tip[1] + 0.03))
    with pytest.raises(ContractViolationError):
        BaseMachine(id=4, rated_power=100.0, line_voltage=6000.0,
                    base_design=m.base_design, si_anchors=m.si_anchors,
                    bounds=bad, step_sizes=m.step_sizes)


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
    with pytest.raises(ContractViolationError):
        variant_seed_for(-1, 1, 0)


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
    with pytest.raises(ContractViolationError):
        generate_variants(machine_by_id(1), 0, 7)


def test_variant_fields_and_sampler_windows():
    for base in builtin_catalog():
        shape = lattice_shape(base)
        h0 = base.base_design.tooth_tip
        for index, v in enumerate(generate_variants(base, 10, 3)):
            assert v.base_id == base.id
            assert v.variant_seed == variant_seed_for(3, base.id, index)
            assert v.feasible_exists is True
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


def test_certified_feasibility_independent_scan():
    """Full scalar lattice scan agrees with the certification flag."""
    base = machine_by_id(2)
    for v in generate_variants(base, 3, 5):
        bands = v.target_bands.as_tuple()
        found = False
        ni, nj, nk = lattice_shape(base)
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
        assert found == v.feasible_exists is True


def test_feasible_mask_matches_certification():
    for base in builtin_catalog():
        for v in generate_variants(base, 25, 0):
            assert bool(feasible_mask(base, v.target_bands).any())


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


def test_target_bands_reject_inverted():
    with pytest.raises(ContractViolationError):
        TargetBands(b_gap=(1.1, 0.9), t_break=(0.9, 1.1), i_start=(0.9, 1.1),
                    d_temp=(0.9, 1.1), tooth_tip=(1.0, 4.0))


def test_variant_rejects_out_of_bounds_initial():
    v = generate_variants(machine_by_id(1), 1, 0)[0]
    with pytest.raises(ContractViolationError):
        MachineVariant(base_id=1, variant_seed=0,
                       initial_design=DesignPoint(99.0, 20, 2.0),
                       target_bands=v.target_bands, feasible_exists=True)


def test_with_split():
    v = generate_variants(machine_by_id(1), 1, 0)[0]
    h = with_split(v, "holdout")
    assert h.split == "holdout" and v.split == "train"
    assert h.initial_design == v.initial_design
    assert h.target_bands == v.target_bands


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
    with pytest.raises(MalformedCatalogError) as err:
        load_catalog(path)
    assert "band_d_temp" in str(err.value)


def test_load_empty_file(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text("")
    with pytest.raises(MalformedCatalogError):
        load_catalog(path)


def test_load_header_only(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_VERSION_LINE + "\n")
    with pytest.raises(MalformedCatalogError):
        load_catalog(path)


def test_load_version_mismatch(tmp_path):
    variants = generate_variants(machine_by_id(1), 1, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    text = path.read_text().replace(CATALOG_VERSION_LINE, "motor-design-catalog v2", 1)
    path.write_text(text)
    with pytest.raises(CatalogVersionError):
        load_catalog(path)


def test_load_unknown_key(tmp_path):
    variants = generate_variants(machine_by_id(1), 1, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    path.write_text(path.read_text().replace("turns =", "bogus_key = 1\nturns ="))
    with pytest.raises(MalformedCatalogError) as err:
        load_catalog(path)
    assert "bogus_key" in str(err.value)


def test_load_duplicate_key(tmp_path):
    variants = generate_variants(machine_by_id(1), 1, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    path.write_text(path.read_text().replace("turns =", "base_id = 1\nturns =", 1))
    with pytest.raises(MalformedCatalogError):
        load_catalog(path)


def test_load_key_outside_section(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_VERSION_LINE + "\nbase_id = 1\n")
    with pytest.raises(MalformedCatalogError):
        load_catalog(path)


def test_malformed_error_carries_line_number(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(CATALOG_VERSION_LINE + "\n[variant]\nnot a key value line\n")
    with pytest.raises(MalformedCatalogError) as err:
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
    with pytest.raises(MalformedCatalogError) as err:
        load_catalog(path)
    assert err.value.line == lines.index("[variant]") + 1


def test_load_ignores_comments_and_blanks(tmp_path):
    variants = generate_variants(machine_by_id(1), 2, 0)
    path = tmp_path / "catalog.txt"
    save_catalog(variants, path)
    path.write_text("# leading comment\n" + path.read_text() + "\n# trailing\n")
    assert load_catalog(path) == variants
