"""Unit tests for seeded scene generation."""

import math

import pytest

from sapa_rrm.scenario import (
    TYPE_RANGES,
    SceneConfig,
    TargetType,
    generate_scene,
)


def test_generation_is_deterministic():
    cfg = SceneConfig(n_targets=40, seed=12)
    assert generate_scene(cfg) == generate_scene(cfg)
    other = generate_scene(SceneConfig(n_targets=40, seed=13))
    assert generate_scene(cfg) != other


def test_targets_respect_configured_intervals():
    cfg = SceneConfig(seed=0)
    scene = generate_scene(cfg)
    assert len(scene.tasks) == 200
    seen = set()
    for task in scene.tasks:
        env = task.environment
        assert cfg.range_interval[0] <= env.range <= cfg.range_interval[1]
        bearing_deg = math.degrees(env.bearing)
        assert cfg.bearing_interval[0] <= bearing_deg <= \
            cfg.bearing_interval[1]
        rcs_db = 10.0 * math.log10(env.rcs)
        assert cfg.rcs_interval_dbsm[0] - 1e-9 <= rcs_db <= \
            cfg.rcs_interval_dbsm[1] + 1e-9
        ranges = TYPE_RANGES[task.target_type]
        lo, hi = ranges.maneuver_std_range
        assert lo <= env.maneuver_std <= hi
        lo, hi = ranges.corr_time_range
        assert lo <= env.corr_time <= hi
        seen.add(task.target_type)
    # both Singer classes show up in a 200-target draw at p = 0.5
    assert seen == {TargetType.TYPE_I, TargetType.TYPE_II}


def test_weights_are_normalized():
    scene = generate_scene(SceneConfig(n_targets=64, seed=3))
    weights = [t.weight for t in scene.tasks]
    assert all(w > 0.0 for w in weights)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    # each weight is its target's raw draw over the scene's sum, so the
    # ratio of two targets' weights holds in a larger scene of one seed
    larger = generate_scene(SceneConfig(n_targets=80, seed=3))
    assert [t.weight / larger.tasks[0].weight
            for t in larger.tasks[:64]] == \
        pytest.approx([w / weights[0] for w in weights], rel=1e-12)


def test_target_draws_do_not_depend_on_scene_size():
    # per-target child streams: the first ten targets are identical no
    # matter how many more follow (weights renormalize, of course)
    small = generate_scene(SceneConfig(n_targets=10, seed=77))
    large = generate_scene(SceneConfig(n_targets=25, seed=77))
    for a, b in zip(small.tasks, large.tasks):
        assert a.environment == b.environment
        assert a.target_type == b.target_type


def test_type_probabilities_are_honored():
    all_agile = generate_scene(SceneConfig(n_targets=50, seed=5,
                                           type_probabilities=(1.0, 0.0)))
    assert {t.target_type for t in all_agile.tasks} == {TargetType.TYPE_I}
    all_sedate = generate_scene(SceneConfig(n_targets=50, seed=5,
                                            type_probabilities=(0.0, 1.0)))
    assert {t.target_type for t in all_sedate.tasks} == {TargetType.TYPE_II}


@pytest.mark.parametrize("kwargs", [
    dict(n_targets=0),
    dict(range_interval=(0.0, 70e3)),
    dict(range_interval=(70e3, 10e3)),
    dict(bearing_interval=(-95.0, 60.0)),
    dict(bearing_interval=(-60.0, 90.0)),
    dict(rcs_interval_dbsm=(10.0, -10.0)),
    dict(weight_interval=(0.0, 0.8)),
    dict(type_probabilities=(0.6, 0.6)),
    dict(type_probabilities=(-0.2, 1.2)),
    # NaN at either end of a bound fails every comparison
    dict(rcs_interval_dbsm=(math.nan, 10.0)),
    dict(rcs_interval_dbsm=(-10.0, math.nan)),
    dict(weight_interval=(math.nan, 0.8)),
    dict(weight_interval=(0.2, math.nan)),
    dict(type_probabilities=(math.nan, 0.5)),
    dict(type_probabilities=(0.5, math.nan)),
    dict(seed=-1),
    # range^4 or the rcs in m^2 overflows or underflows
    dict(range_interval=(10e3, 1e103)),
    dict(range_interval=(1e-87, 10e3)),
    dict(rcs_interval_dbsm=(-10.0, 1e306)),
    dict(rcs_interval_dbsm=(-4000.0, 10.0)),
    # generate_scene cannot draw from an infinite weight interval
    dict(weight_interval=(0.2, math.inf)),
    # the weights' sum would overflow, and normalize to zeros
    dict(weight_interval=(0.2, 1e308)),
    # counts that are not integers, and a probability whose sum overflows
    dict(n_targets=3.5),
    dict(seed=1.5),
    dict(type_probabilities=(10**400, 0.5)),
    # numeric strings, which used to fail later in generate_scene
    dict(range_interval=("10000", "70000")),
    dict(rcs_interval_dbsm=("-10", 10.0)),
    dict(weight_interval=(0.2, "0.8")),
])
def test_invalid_scene_configs_raise(kwargs):
    with pytest.raises(ValueError):
        SceneConfig(**kwargs)
