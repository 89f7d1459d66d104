import numpy as np
import pytest

from besselsim.chambers import (
    CHAMBER_A,
    CHAMBER_B,
    FULL_SPACE,
    ChamberPoint,
    Reflection,
    _gaps,
    apply_reflection,
    project_to_chamber,
)


def test_project_a_sorts_descending():
    p = project_to_chamber([1.0, 3.0, 2.0], CHAMBER_A)
    assert np.array_equal(p.coords, [3.0, 2.0, 1.0])


def test_project_b_takes_abs_then_sorts():
    p = project_to_chamber([-2.0, 1.0], CHAMBER_B)
    assert np.array_equal(p.coords, [2.0, 1.0])


def test_project_identity_on_chamber():
    p = project_to_chamber([3.0, 2.0, 1.0], CHAMBER_A)
    assert np.array_equal(p.coords, [3.0, 2.0, 1.0])


@pytest.mark.parametrize("chamber", [CHAMBER_A, CHAMBER_B, FULL_SPACE])
def test_projection_idempotent(chamber):
    rng = np.random.default_rng(3)
    x = rng.normal(size=17)
    once = project_to_chamber(x, chamber)
    twice = project_to_chamber(once.coords, chamber)
    assert np.array_equal(once.coords, twice.coords)


def test_projection_preserves_multisets():
    rng = np.random.default_rng(5)
    x = rng.normal(size=11)
    a = project_to_chamber(x, CHAMBER_A)
    assert sorted(a.coords) == sorted(x)
    b = project_to_chamber(x, CHAMBER_B)
    assert sorted(b.coords) == sorted(np.abs(x))


def test_non_finite_input_rejected():
    with pytest.raises(ValueError):
        project_to_chamber([1.0, np.inf], CHAMBER_A)
    with pytest.raises(ValueError):
        project_to_chamber([np.nan], CHAMBER_B)


def test_reflections_match_definitions():
    p = ChamberPoint(np.array([2.0, -1.0]), FULL_SPACE)
    assert np.array_equal(apply_reflection(p, Reflection("flip", 0)).coords, [-2.0, -1.0])
    assert np.array_equal(apply_reflection(p, Reflection("sign_swap", 0, 1)).coords, [1.0, -2.0])
    assert np.array_equal(apply_reflection(p, Reflection("swap", 0, 1)).coords, [-1.0, 2.0])


@pytest.mark.parametrize(
    "refl",
    [Reflection("flip", 2), Reflection("swap", 0, 3), Reflection("sign_swap", 1, 4)],
)
def test_reflections_are_involutions(refl):
    rng = np.random.default_rng(11)
    p = ChamberPoint(rng.normal(size=6), FULL_SPACE)
    back = apply_reflection(apply_reflection(p, refl), refl)
    assert np.array_equal(back.coords, p.coords)


def test_reflection_index_out_of_range():
    p = ChamberPoint(np.array([1.0, 2.0]), FULL_SPACE)
    with pytest.raises(IndexError):
        apply_reflection(p, Reflection("flip", 5))


def test_reflection_validation():
    with pytest.raises(ValueError):
        Reflection("swap", 1, 1)
    with pytest.raises(ValueError):
        Reflection("rot", 0)


def test_b_projection_invariant_under_reflections():
    rng = np.random.default_rng(7)
    x = rng.normal(size=8)
    target = project_to_chamber(x, CHAMBER_B)
    p = ChamberPoint(x.copy(), FULL_SPACE)
    for refl in (
        Reflection("flip", 3),
        Reflection("sign_swap", 0, 5),
        Reflection("swap", 2, 6),
        Reflection("flip", 0),
    ):
        p = apply_reflection(p, refl)
    assert np.allclose(project_to_chamber(p.coords, CHAMBER_B).coords, target.coords)


def test_fullspace_and_a_projection_give_same_atoms():
    rng = np.random.default_rng(13)
    x = rng.normal(size=9)
    full = project_to_chamber(x, FULL_SPACE)
    proj = project_to_chamber(x, CHAMBER_A)
    assert np.array_equal(np.sort(full.coords), np.sort(proj.coords))


def _regularity_gap(x, chamber):
    """Distance to the nearest reflecting hyperplane, through the raw gap routine."""
    mags = x if chamber == CHAMBER_A else np.sort(np.abs(x))[::-1]
    return _gaps(mags, chamber != CHAMBER_A)[1]


def test_regularity_gap_examples():
    assert _regularity_gap(np.array([3.0, 1.0]), CHAMBER_A) == 2.0
    assert _regularity_gap(np.array([2.0, 2.0]), CHAMBER_B) == 0.0
    # min over {|3-1|, 3+1, 3, 1}
    assert _regularity_gap(np.array([3.0, 1.0]), CHAMBER_B) == 1.0
    # full space: min over {|x_i - x_j|, |x_i + x_j|, |x_i|}
    assert _regularity_gap(np.array([-3.0, 2.5, 1.0]), FULL_SPACE) == 0.5
    d, g = _gaps(np.array([4.0, 1.5, 1.0]), False)
    assert d.tolist() == [2.5, 0.5] and g == 0.5


def test_regularity_gap_single_particle_conventions():
    assert _regularity_gap(np.array([5.0]), CHAMBER_A) == np.inf
    assert _regularity_gap(np.array([5.0]), CHAMBER_B) == 5.0


def test_drift_gap_ignores_wall_when_nu_zero():
    x = np.array([3.0, 0.001])
    assert _gaps(x, False)[1] == pytest.approx(2.999)
    assert _gaps(x, True)[1] == pytest.approx(0.001)


def test_chamber_point_validation():
    with pytest.raises(ValueError):
        ChamberPoint(np.array([1.0, 2.0]), CHAMBER_A)  # increasing
    with pytest.raises(ValueError):
        ChamberPoint(np.array([2.0, -1.0]), CHAMBER_B)  # negative
