"""Task configurations: labelling, evidence masking, rebalancing."""

import json
import re

import pytest

from geotile.geo import TileId, tile_extent_m, tile_origin
from geotile.model import Entity, Geometry, Tile
from geotile.seeds import rng_for
from geotile.tasks import (
    BUNDLED_TASKS,
    MPH_TO_KMH,
    LabelDiagnostics,
    MaskRule,
    TagPattern,
    TaskError,
    TaskSpec,
    apply_mask,
    compute_label,
    load_task,
    mask_entity,
    parse_numeric_value,
    read_labels,
    synthesize_task,
    write_labels,
)
from geotile.tef import tile_to_json

TID = TileId(16, 18052, 25957)


def _entity(eid, tags, kind="node", geom=None):
    return Entity(eid, kind, tuple(tags), geom or Geometry.point((0.5, 0.5)))


def _tile(entities, x=18052):
    tid = TileId(16, x, 25957)
    return Tile(tid, tile_origin(tid), tile_extent_m(tid), tuple(entities))


# --------------------------------------------------------------- patterns


def test_pattern_parse_and_match():
    p = TagPattern.parse("highway=traffic_signals")
    assert (p.key, p.value) == ("highway", "traffic_signals")
    assert p.matches("highway", "traffic_signals")
    assert not p.matches("highway", "residential")

    anyvalue = TagPattern.parse("building=*")
    assert anyvalue.matches("building", "yes") and anyvalue.matches("building", "ruins")
    anykey = TagPattern.parse("*=bridge")
    assert anykey.matches("man_made", "bridge") and not anykey.matches("bridge", "yes")


def test_pattern_rejects_degenerate_forms():
    with pytest.raises(ValueError, match="both"):
        TagPattern("*", "*")
    with pytest.raises(ValueError, match="key=value"):
        TagPattern.parse("no-equals-sign")


def test_parse_numeric_values():
    assert MPH_TO_KMH == 1.6
    assert parse_numeric_value("50") == 50.0
    assert parse_numeric_value("12.5") == 12.5
    assert parse_numeric_value("40 mph") == 64.0
    assert parse_numeric_value("65 MPH") == 104.0
    assert parse_numeric_value("30mph") == 48.0
    assert parse_numeric_value(" 80 ") == 80.0
    assert parse_numeric_value("walk") is None
    assert parse_numeric_value("50;60") is None
    assert parse_numeric_value("") is None


# ---------------------------------------------------------------- loading


def test_bundled_tasks_load():
    specs = {name: load_task(name) for name in BUNDLED_TASKS}
    assert specs["traffic_signals"].label_kind == "count"
    assert specs["bridge"].label_kind == "binary"
    assert specs["car_bridge"].require_all == (TagPattern("highway", "*"),)
    assert specs["buildings"].rebalance_zero_keep == 0.1
    assert specs["buildings"].clamp_range == (0.0, 1250.0)
    assert specs["max_speed"].label_kind == "max_value"
    assert specs["max_speed"].sentinel_value == -100.0
    assert specs["max_speed"].mask_counted is False and specs["max_speed"].mask_rules == ()
    assert specs["max_speed"].prune_when_unlabelled is True


def test_load_task_from_json_path(tmp_path):
    path = tmp_path / "speed_cameras.json"
    path.write_text(json.dumps({
        "name": "speed_cameras",
        "counted": ["highway=speed_camera"],
        "label": "count",
        "clamp": [0, 50],
    }))
    spec = load_task(str(path))
    assert spec.name == "speed_cameras"
    assert spec.counted == (TagPattern("highway", "speed_camera"),)
    assert spec.mask_counted is True and spec.mask_rules == ()


@pytest.mark.parametrize("key", ["name", "counted", "label", "clamp"])
def test_load_task_names_file_and_missing_key(tmp_path, key):
    obj = {"name": "cams", "counted": ["highway=speed_camera"], "label": "count", "clamp": [0, 50]}
    del obj[key]
    path = tmp_path / "cams.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(TaskError, match=f"{re.escape(str(path))}: .*'{key}'"):
        load_task(str(path))


def test_load_task_rejects_a_json_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps(["name", "counted", "label", "clamp"]))
    with pytest.raises(TaskError, match="JSON object"):
        load_task(str(path))


_CAMS = '"name": "cams", "counted": ["highway=speed_camera"], "label": "count"'


@pytest.mark.parametrize("text,message", [
    ('{' + _CAMS + ', "clamp": [0, 50]', "Expecting ',' delimiter"),
    (b'{"name": "caf\xe9", "counted": ["a=*"], "label": "count", "clamp": [0, 5]}', "can't decode byte 0xe9"),
    ('{' + _CAMS + ', "clamp": 5}', "'clamp' must be a list"),
    ('{' + _CAMS + ', "clamp": [0, "50"]}', "'clamp' must be a number"),
    ('{' + _CAMS + ', "clamp": [0, true]}', "'clamp' must be a number"),
    ('{' + _CAMS + ', "clamp": [0]}', "'clamp' must hold two numbers"),
    ('{' + _CAMS + ', "clamp": [0, 1' + "0" * 400 + ']}', "int too large"),
    ('{' + _CAMS + ', "clamp": [0, 50], "mask": []}', "'mask' must be a JSON object"),
    ('{' + _CAMS + ', "clamp": [0, 50], "mask": {"rules": [{"action": "remove_tag"}]}}', "needs 'action' and 'pattern'"),
    ('{' + _CAMS + ', "clamp": [0, 50], "mask": {"counted": 1}}', "'counted' must be true or false"),
    ('{' + _CAMS + ', "clamp": [0, 50], "rebalance": {}}', "'rebalance' needs 'zero_keep'"),
    ('{' + _CAMS + ', "clamp": [0, 50], "sentinel": {"when_no_match": ["a=*"]}}', "'when_no_match' must be a string"),
    ('{' + _CAMS + ', "clamp": [0, 50], "sentinel": {"when_no_match": "highway=*"}}',
     "a sentinel with 'when_no_match' needs a 'value'"),
    ('{"name": "cams", "counted": "ab", "label": "count", "clamp": [0, 50]}', "'counted' must be a list"),
    ('{"name": 3, "counted": ["a=*"], "label": "count", "clamp": [0, 50]}', "'name' must be a string"),
    ('{"name": "../escaped", "counted": ["a=*"], "label": "count", "clamp": [0, 50]}', "plain file name part"),
    ('{"name": "..", "counted": ["a=*"], "label": "count", "clamp": [0, 50]}', "plain file name part"),
    ('{"name": "cams", "counted": ["a=*"], "label": "median", "clamp": [0, 50]}', "unknown label kind"),
    ('{"name": "cams", "counted": ["a=*"], "label": "count", "clamp": [50, 0]}', "lo < hi"),
    ('{' + _CAMS + ', "clamp": [0, Infinity]}', "'clamp' must be finite, got inf"),
    ('{' + _CAMS + ', "clamp": [-1e999, 0]}', "'clamp' must be finite, got -inf"),
    ('{' + _CAMS + ', "clamp": [0, 50], "sentinel": {"value": NaN}}', "'value' must be finite, got nan"),
    ('{' + _CAMS + ', "clamp": [0, 50], "rebalance": {"zero_keep": NaN}}', "'zero_keep' must be finite, got nan"),
    ('{' + _CAMS + ', "clamp": [0, 50], "rebalance": {"zero_keep": 7.5}}', "'zero_keep' must lie in [0, 1], got 7.5"),
    ('{' + _CAMS + ', "clamp": [0, 50], "rebalance": {"zero_keep": -0.1}}', "'zero_keep' must lie in [0, 1]"),
], ids=["json", "utf8", "clamp-kind", "clamp-string", "clamp-bool", "clamp-length", "clamp-overflow",
        "mask-kind", "mask-rule-keys", "mask-counted-kind", "rebalance-keys", "sentinel-kind", "sentinel-no-value",
        "counted-string", "name-kind", "name-path", "name-dots", "label-value", "clamp-order",
        "clamp-infinity", "clamp-float-overflow", "sentinel-nan", "zero-keep-nan", "zero-keep-above-one",
        "zero-keep-negative"])
def test_load_task_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(TaskError, match=re.escape(message)) as err:
        load_task(str(path))
    assert str(err.value).startswith(f"{path}: ")


def test_spec_validation():
    with pytest.raises(ValueError, match="label kind"):
        TaskSpec("x", (TagPattern("a", "*"),), "mean", (0, 1))
    with pytest.raises(ValueError, match="clamp"):
        TaskSpec("x", (TagPattern("a", "*"),), "count", (1, 1))
    with pytest.raises(ValueError, match="counted"):
        TaskSpec("x", (), "count", (0, 1))
    with pytest.raises(ValueError, match="zero_keep"):
        TaskSpec("x", (TagPattern("a", "*"),), "count", (0, 1), rebalance_zero_keep=1.5)
    for keep in (0.0, 1.0):
        assert TaskSpec("x", (TagPattern("a", "*"),), "count", (0, 1), rebalance_zero_keep=keep).rebalance_zero_keep == keep


# --------------------------------------------------------------- labelling


def test_traffic_signals_counts_every_spelling():
    spec = load_task("traffic_signals")
    tile = _tile([
        _entity(1, [("highway", "traffic_signals")]),
        _entity(2, [("traffic_signals", "signal")]),
        _entity(3, [("crossing:signals", "yes")]),
        _entity(4, [("highway", "crossing")]),
    ])
    assert compute_label(tile, spec) == 3.0


def test_bridge_label_is_binary():
    spec = load_task("bridge")
    none = _tile([_entity(1, [("highway", "residential")])])
    one = _tile([_entity(1, [("bridge", "yes")])])
    many = _tile([_entity(i, [("bridge", "viaduct")]) for i in range(5)])
    assert compute_label(none, spec) == 0.0
    assert compute_label(one, spec) == 1.0
    assert compute_label(many, spec) == 1.0


def test_car_bridge_needs_highway_on_same_entity():
    spec = load_task("car_bridge")
    foot = _tile([_entity(1, [("bridge", "yes"), ("railway", "rail")])])
    car = _tile([_entity(1, [("bridge", "yes"), ("highway", "primary")])])
    elsewhere = _tile([
        _entity(1, [("bridge", "yes")]),
        _entity(2, [("highway", "primary")]),
    ])
    assert compute_label(foot, spec) == 0.0
    assert compute_label(car, spec) == 1.0
    assert compute_label(elsewhere, spec) == 0.0


def test_buildings_count_clamps():
    spec = load_task("buildings")
    tile = _tile([_entity(i, [("building", "yes")]) for i in range(3)])
    assert compute_label(tile, spec) == 3.0
    crowded = _tile([_entity(i, [("building", "hut")]) for i in range(1251)])
    assert compute_label(crowded, spec) == 1250.0


def test_max_speed_takes_maximum_in_kmh():
    spec = load_task("max_speed")
    tile = _tile([
        _entity(1, [("highway", "primary"), ("maxspeed", "40 mph")]),
        _entity(2, [("highway", "residential"), ("maxspeed", "50")]),
    ])
    assert compute_label(tile, spec) == 64.0


def test_max_speed_sentinel_only_without_any_road():
    spec = load_task("max_speed")
    roadless = _tile([_entity(1, [("building", "yes")])])
    assert compute_label(roadless, spec) == -100.0
    unlabelled_road = _tile([_entity(1, [("highway", "service")])])
    assert compute_label(unlabelled_road, spec) is None


def test_max_speed_unparseable_is_diagnosed():
    spec = load_task("max_speed")
    tile = _tile([_entity(1, [("highway", "primary"), ("maxspeed", "walk")])])
    diag = LabelDiagnostics()
    assert compute_label(tile, spec, diag) is None
    assert diag.unparseable_values == 1


# ----------------------------------------------------------------- masking


def test_traffic_signals_mask_removes_counted_points():
    spec = load_task("traffic_signals")
    signal = _entity(1, [("highway", "traffic_signals")])
    assert mask_entity(signal, spec) is None
    way_signal = _entity(2, [("highway", "traffic_signals"), ("name", "x")], kind="way",
                         geom=Geometry.polyline([(0.1, 0.1), (0.2, 0.2)]))
    masked = mask_entity(way_signal, spec)
    assert masked is not None and masked.tags == (("name", "x"),)


def test_bridge_mask_strips_evidence_and_layer():
    spec = load_task("bridge")
    e = _entity(1, [("bridge", "yes"), ("layer", "1"), ("highway", "primary")])
    masked = mask_entity(e, spec)
    assert masked.tags == (("highway", "primary"),)


def test_car_bridge_mask_keeps_highway():
    spec = load_task("car_bridge")
    e = _entity(1, [("bridge", "yes"), ("layer", "1"), ("highway", "primary")])
    masked = mask_entity(e, spec)
    assert masked.tags == (("highway", "primary"),)


def test_buildings_mask_removes_whole_feature():
    spec = load_task("buildings")
    house = _entity(1, [("building", "yes"), ("name", "mill")])
    bench = _entity(2, [("amenity", "bench")])
    tile = _tile([house, bench])
    masked = apply_mask(tile, spec)
    assert [e.id for e in masked.entities] == [2]


def test_max_speed_mask_is_identity():
    spec = load_task("max_speed")
    tile = _tile([_entity(1, [("highway", "primary"), ("maxspeed", "50")])])
    assert tile_to_json(apply_mask(tile, spec)) == tile_to_json(tile)


def test_mask_drops_entity_stripped_of_every_tag():
    spec = load_task("bridge")
    only_evidence = _entity(1, [("bridge", "yes")], kind="way",
                            geom=Geometry.polyline([(0.1, 0.1), (0.2, 0.2)]))
    assert mask_entity(only_evidence, spec) is None


def test_mask_keeps_untagged_entity():
    spec = load_task("bridge")
    bare = _entity(1, (), kind="way", geom=Geometry.polyline([(0.1, 0.1), (0.2, 0.2)]))
    assert mask_entity(bare, spec) is bare


def test_masked_tiles_relabel_to_nothing():
    signals = load_task("traffic_signals")
    bridge = load_task("bridge")
    buildings = load_task("buildings")
    tile = _tile([
        _entity(1, [("highway", "traffic_signals")]),
        _entity(2, [("bridge", "yes"), ("highway", "primary")]),
        _entity(3, [("building", "yes")]),
        _entity(4, [("amenity", "bench")]),
    ])
    for spec in (signals, bridge, buildings):
        assert compute_label(tile, spec) >= 1.0
        assert compute_label(apply_mask(tile, spec), spec) == 0.0


# ---------------------------------------------------------------- pipeline


def test_synthesize_prunes_and_sorts():
    spec = load_task("max_speed")
    tiles = [
        _tile([_entity(1, [("highway", "primary"), ("maxspeed", "50")])], x=18053),
        _tile([_entity(1, [("highway", "service")])], x=18052),
        _tile([_entity(1, [("building", "yes")])], x=18054),
    ]
    result = synthesize_task(tiles, spec, seed=0)
    assert result.pruned == 1
    assert result.labels == {"16_18053_25957": 50.0, "16_18054_25957": -100.0}


def test_synthesize_without_prune_raises():
    spec = TaskSpec("strict", (TagPattern("maxspeed", "*"),), "max_value", (0, 200))
    with pytest.raises(ValueError, match="no label"):
        synthesize_task([_tile([_entity(1, [("amenity", "bench")])])], spec, seed=0)


def test_rebalance_keeps_about_a_tenth():
    spec = load_task("buildings")
    tiles = [_tile([_entity(1, [("amenity", "bench")])], x=18000 + i) for i in range(200)]
    result = synthesize_task(tiles, spec, seed=21)
    kept = len(result.labels)
    assert kept + result.rebalance_dropped == 200
    # binomial(200, 0.1): mean 20, sigma about 4.24
    assert abs(kept - 20) <= 13
    # The draws are numpy's: one uniform per zero-labelled tile, in id order.
    rng = rng_for(21, "rebalance", spec.name)
    in_order = sorted(t.id.key for t in tiles)
    assert list(result.labels) == [tid for tid in in_order if rng.uniform() < spec.rebalance_zero_keep]
    again = synthesize_task(tiles, spec, seed=21)
    assert again.labels == result.labels
    other = synthesize_task(tiles, spec, seed=22)
    assert other.labels != result.labels


def test_rebalance_ignores_nonzero_tiles_randomness():
    spec = load_task("buildings")
    zeros = [_tile([_entity(1, [("amenity", "bench")])], x=18000 + 2 * i) for i in range(50)]
    built = [_tile([_entity(1, [("building", "yes")])], x=18001 + 2 * i) for i in range(50)]
    sparse = synthesize_task(zeros, spec, seed=9)
    mixed = synthesize_task(zeros + built, spec, seed=9)
    zero_kept_sparse = {t for t, v in sparse.labels.items() if v == 0.0}
    zero_kept_mixed = {t for t, v in mixed.labels.items() if v == 0.0}
    assert zero_kept_sparse == zero_kept_mixed


def test_labels_csv_roundtrip(tmp_path):
    labels = {"16_18053_25957": 64.0, "16_18052_25957": -100.0}
    path = tmp_path / "labels.csv"
    write_labels(labels, str(path))
    text = path.read_text()
    assert text == "tile_id,label\n16_18052_25957,-100.0\n16_18053_25957,64.0\n"
    assert read_labels(str(path)) == labels


def test_read_labels_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,value\nx,1\n")
    with pytest.raises(TaskError, match="header"):
        read_labels(str(path))


@pytest.mark.parametrize("bad_line, reason", [
    ("16_1_3", "expected 'tile_id,label' fields, got '16_1_3'"),
    ("16_1_3,high", "label 'high' is not a number"),
    ("16_1_3,1,2", "label '1,2' is not a number"),
    ("16_1_2,4.0", "duplicate tile_id '16_1_2'"),
    ("16_1_3,nan", "label 'nan' is not finite"),
])
def test_read_labels_names_path_and_line(tmp_path, bad_line, reason):
    path = tmp_path / "labels.csv"
    path.write_text(f"tile_id,label\n16_1_2,1.0\n\n{bad_line}\n")
    with pytest.raises(TaskError) as err:
        read_labels(str(path))
    assert str(err.value) == f"{path}:4: {reason}"


def test_read_labels_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"tile_id,label\n16_1_2,1.0\n16_1_\xff,2.0\n")
    with pytest.raises(TaskError) as err:
        read_labels(str(path))
    assert str(err.value) == f"{path}:3: invalid UTF-8 at byte 5"


def test_read_labels_takes_the_value_column_name(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("tile_id,prediction\n16_1_2,0.5\n")
    assert read_labels(str(path), "prediction") == {"16_1_2": 0.5}
    with pytest.raises(TaskError, match=f"{re.escape(str(path))}:1: expected 'tile_id,label' header"):
        read_labels(str(path))
