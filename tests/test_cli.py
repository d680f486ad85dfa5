"""Drives every subcommand through cli.main the way a shell would."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import geotile
from conftest import write_grid_pbf
from geotile import cli, evaluation, geo, process, tasks, tef, tokens, training
from geotile.cli import build_parser, main
from geotile.tokens import EmbeddingTable


@pytest.fixture
def pipeline(tmp_path):
    """Extract -> tile store -> processed store, 2x2 block of tiles."""
    extract = tmp_path / "grid.pbf"
    write_grid_pbf(extract, 18052, 25956, 2, 2)
    store = str(tmp_path / "raw")
    proc = str(tmp_path / "proc")
    assert main(["ingest", str(extract), store]) == 0
    assert main(["process", store, proc]) == 0
    return tmp_path, store, proc


def _store_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_ingest_reports_stats(pipeline, capsys):
    tmp_path, store, proc = pipeline
    write_grid_pbf(tmp_path / "again.pbf", 18052, 25956, 2, 2)
    capsys.readouterr()
    assert main(["ingest", str(tmp_path / "again.pbf"), str(tmp_path / "raw2")]) == 0
    out = capsys.readouterr().out
    assert "entities" in out and "tiles" in out
    assert len(tef.read_store(str(tmp_path / "raw2"))) == 4


def test_process_is_deterministic(pipeline):
    tmp_path, store, proc = pipeline
    assert main(["process", store, str(tmp_path / "proc_again")]) == 0
    assert _store_bytes(proc) == _store_bytes(str(tmp_path / "proc_again"))
    for tile in tef.read_store(proc):
        assert 5 <= len(tile.entities) <= 1250


@pytest.fixture
def wide(tmp_path):
    """Raw store of a 4x1 row of tiles; 18050..18053 straddles a group
    boundary, so it holds two group files and two workers get real work."""
    write_grid_pbf(tmp_path / "wide.pbf", 18050, 25956, 4, 1)
    store = str(tmp_path / "raw")
    assert main(["ingest", str(tmp_path / "wide.pbf"), store]) == 0
    assert sorted(set(tef.read_store_index(store).values())) == ["16_4512_6489.tefgz", "16_4513_6489.tefgz"]
    return tmp_path, store


def test_process_jobs_matches_serial(wide):
    tmp_path, store = wide
    assert main(["process", store, str(tmp_path / "serial")]) == 0
    assert main(["process", store, str(tmp_path / "forked"), "--jobs", "2"]) == 0
    assert _store_bytes(str(tmp_path / "serial")) == _store_bytes(str(tmp_path / "forked"))


def test_group_whose_tiles_are_all_dropped_gets_no_file(wide, capsys):
    tmp_path, store = wide
    thinned = str(tmp_path / "thinned")
    tef.write_store(
        [t.with_entities(t.entities[:3]) if t.id.x < 18052 else t for t in tef.read_store(store)], thinned
    )
    capsys.readouterr()
    for jobs in ("1", "2"):
        assert main(["process", thinned, str(tmp_path / f"jobs{jobs}"), "--jobs", jobs]) == 0
        assert capsys.readouterr().out == "processed tiles  2\noutliers dropped 2\n"
    assert _store_bytes(str(tmp_path / "jobs1")) == _store_bytes(str(tmp_path / "jobs2"))
    assert sorted(os.listdir(tmp_path / "jobs1")) == ["16_4513_6489.tefgz", "index.json"]
    assert tef.read_store_index(str(tmp_path / "jobs1")) == {
        "16_18052_25956": "16_4513_6489.tefgz",
        "16_18053_25956": "16_4513_6489.tefgz",
    }


def test_process_into_an_earlier_store_keeps_only_indexed_files(wide):
    # Two different inputs into one --out: the 4x1 row (groups 4512 and 4513),
    # then a 2x2 block (group 4513 only); then the row again, in place.
    tmp_path, row = wide
    write_grid_pbf(tmp_path / "block.pbf", 18052, 25956, 2, 2)
    block = str(tmp_path / "block")
    assert main(["ingest", str(tmp_path / "block.pbf"), block]) == 0
    out = str(tmp_path / "shared")
    for store in (row, block):
        assert main(["process", store, out]) == 0
        names = set(tef.read_store_index(out).values())
        assert sorted(os.listdir(out)) == sorted(names | {tef.INDEX_NAME})
    assert names == {"16_4513_6489.tefgz"}
    assert main(["process", block, str(tmp_path / "fresh")]) == 0
    assert _store_bytes(out) == _store_bytes(str(tmp_path / "fresh"))
    assert main(["process", row, row]) == 0
    assert sorted(os.listdir(row)) == ["16_4512_6489.tefgz", "16_4513_6489.tefgz", tef.INDEX_NAME]
    assert len(tef.read_store(row)) == 4


def test_failed_process_strands_no_group_file_of_the_store_before_it(wide):
    # The 4x1 row into out, then a copy of the 2x2 block with a truncated
    # group file (exit 1, and the row's store left whole), then the block
    # itself: only the block's files may remain.
    tmp_path, row = wide
    write_grid_pbf(tmp_path / "block.pbf", 18052, 25956, 2, 2)
    block = str(tmp_path / "block")
    assert main(["ingest", str(tmp_path / "block.pbf"), block]) == 0
    broken = str(tmp_path / "broken")
    shutil.copytree(block, broken)
    path = os.path.join(broken, "16_4513_6489.tefgz")
    os.truncate(path, os.path.getsize(path) // 2)
    out = str(tmp_path / "out")
    assert main(["process", row, out]) == 0
    before = _store_bytes(out)
    assert main(["process", broken, out]) == 1
    assert _store_bytes(out) == before
    assert len(tef.read_store(out)) == 4
    assert main(["process", block, out]) == 0
    assert sorted(os.listdir(out)) == ["16_4513_6489.tefgz", tef.INDEX_NAME]
    assert main(["process", block, str(tmp_path / "fresh")]) == 0
    assert _store_bytes(out) == _store_bytes(str(tmp_path / "fresh"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_process_in_place_leaves_its_input_whole(wide, jobs):
    # The second group file is cut short: the first is read and processed
    # before the failure, and no file of the input may change.
    tmp_path, store = wide
    path = os.path.join(store, "16_4513_6489.tefgz")
    os.truncate(path, os.path.getsize(path) // 2)
    before = _store_bytes(store)
    assert main(["process", store, store, "--jobs", jobs]) == 1
    assert _store_bytes(store) == before


def test_truncated_group_file_fails_the_process_pool_naming_it(wide, capsys):
    tmp_path, store = wide
    path = os.path.join(store, "16_4513_6489.tefgz")
    os.truncate(path, os.path.getsize(path) // 2)
    capsys.readouterr()
    assert main(["process", store, str(tmp_path / "proc"), "--jobs", "2"]) == 1
    assert capsys.readouterr().err.startswith(f"geotile: {path}: corrupt gzip data: ")


def test_tile_in_the_wrong_group_file_is_rejected(wide, capsys):
    tmp_path, store = wide
    path = os.path.join(store, "16_4513_6489.tefgz")
    with open(os.path.join(store, "16_4512_6489.tefgz"), "rb") as src, open(path, "wb") as dst:
        dst.write(src.read())
    want = (
        f"{path}: holds unlisted tiles ['16_18050_25956', '16_18051_25956'] "
        "and lacks listed tiles ['16_18052_25956', '16_18053_25956']"
    )
    with pytest.raises(tef.TefError) as err:
        tef.read_store(store)
    assert str(err.value) == want
    capsys.readouterr()
    for jobs in ("1", "2"):
        assert main(["process", store, str(tmp_path / "proc"), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"geotile: {want}\n"


def _unlist_a_tile(store):
    index = tef.read_store_index(store)
    del index["16_18053_25956"]
    payload = json.dumps({"tiles": index}, indent=1, sort_keys=True)
    tef.atomic_write_bytes(os.path.join(store, tef.INDEX_NAME), payload.encode("utf-8"))
    return f"{os.path.join(store, '16_4513_6489.tefgz')}: holds unlisted tiles ['16_18053_25956'] and lacks listed tiles []"


def _drop_a_tile(store):
    name, data, _ = tef.encode_group([t for t in tef.read_store(store) if t.id.key == "16_18052_25956"])
    tef.atomic_write_bytes(os.path.join(store, name), data)
    return f"{os.path.join(store, '16_4513_6489.tefgz')}: holds unlisted tiles [] and lacks listed tiles ['16_18053_25956']"


def _remove_a_group_file(store):
    path = os.path.join(store, "16_4513_6489.tefgz")
    os.remove(path)
    return f"{path}: no such file, though the index lists tiles ['16_18052_25956', '16_18053_25956'] in it"


def _remove_the_index(store):
    path = os.path.join(store, tef.INDEX_NAME)
    os.remove(path)
    return f"{path}: no such file; {store} is not a store, or a write to it did not finish"


@pytest.mark.parametrize(
    "fault",
    [_unlist_a_tile, _drop_a_tile, _remove_a_group_file, _remove_the_index],
    ids=["unlisted-tile", "missing-tile", "missing-group-file", "missing-index"],
)
def test_group_file_that_disagrees_with_its_index_is_rejected(wide, capsys, fault):
    tmp_path, store = wide
    want = fault(store)
    with pytest.raises(tef.TefError) as err:
        tef.read_store(store)
    assert str(err.value) == want
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("d=2\nbuilding=yes\t1.0 0.5\n")
    capsys.readouterr()
    out = str(tmp_path / "proc")
    for argv in (
        ["process", store, out],
        ["process", store, out, "--jobs", "2"],
        ["synth-task", store, "--task", "buildings", "--out-dir", str(tmp_path / "tasks")],
        ["encode", store, "--embeddings", str(vectors), "--out", str(tmp_path / "batch.gjtb")],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"geotile: {want}\n"


def test_store_write_that_fails_after_its_first_group_file_leaves_no_readable_store(wide, monkeypatch, capsys):
    # Over the 4x1 row, a row one tile to the east: its first group file
    # replaces the row's, then the write fails before its second.
    tmp_path, store = wide
    shifted = [replace(t, id=geo.TileId(t.id.zoom, t.id.x + 1, t.id.y)) for t in tef.read_store(store)]
    atomic_write_bytes = tef.atomic_write_bytes
    written = []

    def fail_after_one(path, data):
        if written:
            raise OSError("no space left on device")
        atomic_write_bytes(path, data)
        written.append(path)

    monkeypatch.setattr(tef, "atomic_write_bytes", fail_after_one)
    with pytest.raises(OSError):
        tef.write_store(shifted, store)
    monkeypatch.undo()
    assert written == [os.path.join(store, "16_4512_6489.tefgz")]
    assert os.listdir(store) == ["16_4512_6489.tefgz"]
    assert [t.id.key for t in tef.read_group_file(written[0], {"16_18051_25956"})] == ["16_18051_25956"]
    with pytest.raises(tef.TefError, match="is not a store, or a write to it did not finish"):
        tef.read_store(store)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("d=2\nbuilding=yes\t1.0 0.5\n")
    for argv in (
        ["process", store, str(tmp_path / "proc")],
        ["synth-task", store, "--task", "buildings", "--out-dir", str(tmp_path / "tasks")],
        ["encode", store, "--embeddings", str(vectors), "--out", str(tmp_path / "batch.gjtb")],
    ):
        assert main(argv) == 1
        assert tef.INDEX_NAME in capsys.readouterr().err


def test_failed_process_leaves_an_earlier_store_whole(wide):
    tmp_path, store = wide
    out = str(tmp_path / "proc")
    assert main(["process", store, out]) == 0
    before = _store_bytes(out)
    path = os.path.join(store, "16_4513_6489.tefgz")
    os.truncate(path, os.path.getsize(path) - 4)
    assert main(["process", store, out]) == 1
    assert _store_bytes(out) == before
    assert len(tef.read_store(out)) == 4


def test_malformed_index_fails_process_naming_it(wide, capsys):
    tmp_path, store = wide
    index = os.path.join(store, tef.INDEX_NAME)
    with open(index, "w", encoding="utf-8") as fh:
        fh.write('{"tiles": {"16_18050_25956": 12}}')
    capsys.readouterr()
    assert main(["process", store, str(tmp_path / "proc")]) == 1
    assert capsys.readouterr().err == f"geotile: {index}: tile 16_18050_25956 maps to 12, not '16_4512_6489.tefgz'\n"


def test_process_default_eps_is_the_library_default(pipeline):
    tmp_path, store, proc = pipeline
    explicit = str(tmp_path / "explicit")
    assert main(["process", store, explicit, "--eps-m", repr(process.DEFAULT_EPS_M)]) == 0
    assert _store_bytes(proc) == _store_bytes(explicit)


def test_bad_flags_fail_before_any_output(pipeline, capsys):
    tmp_path, store, proc = pipeline
    out_dir = tmp_path / "tasks"
    assert main(["synth-task", proc, "--task", "bridge", "--out-dir", str(out_dir),
                 "--split-ratios", "1.5", "-0.25", "-0.25"]) == 1
    assert "train ratio must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert not out_dir.exists()
    # A NaN tolerance would collapse every polyline; the store already in
    # --out keeps its index.
    before = _store_bytes(proc)
    assert main(["process", store, proc, "--eps-m", "nan"]) == 1
    assert "--eps-m must be a number, got nan" in capsys.readouterr().err
    assert _store_bytes(proc) == before


def test_synth_task_all_bundled(pipeline):
    tmp_path, store, proc = pipeline
    expected = {
        "traffic_signals": 1.0,
        "bridge": 1.0,
        "car_bridge": 1.0,
        "buildings": 1.0,
    }
    for name, label in expected.items():
        out_dir = str(tmp_path / name)
        assert main(["synth-task", proc, "--task", name, "--out-dir", out_dir]) == 0
        labels = tasks.read_labels(os.path.join(out_dir, f"{name}_labels.csv"))
        assert set(labels.values()) == {label}
        assert len(labels) == 4
        masked = tef.read_store(os.path.join(out_dir, f"{name}.masked"))
        assert sorted(t.id.key for t in masked) == sorted(labels)
        with open(os.path.join(out_dir, f"{name}_splits.json")) as fh:
            splits = json.load(fh)
        assert set(splits) == {"train", "val", "test"}


def test_synth_task_max_speed_values(pipeline, capsys):
    tmp_path, store, proc = pipeline
    out_dir = str(tmp_path / "ms")
    assert main(["synth-task", proc, "--task", "max_speed", "--out-dir", out_dir]) == 0
    out = capsys.readouterr().out
    assert "task              max_speed" in out
    labels = tasks.read_labels(os.path.join(out_dir, "max_speed_labels.csv"))
    # (dx+dy)%3==0 tiles carry "30 mph" -> 48.0, the rest plain km/h values
    assert labels["16_18052_25956"] == 48.0
    assert labels["16_18052_25957"] == 40.0
    assert labels["16_18053_25957"] == 50.0
    # masked store for this task keeps tiles verbatim
    masked = {t.id.key: t for t in tef.read_store(os.path.join(out_dir, "max_speed.masked"))}
    source = {t.id.key: t for t in tef.read_store(proc)}
    assert masked.keys() == source.keys()
    for key in masked:
        assert tef.tile_to_json(masked[key]) == tef.tile_to_json(source[key])


def _write_table(path, dim, tags):
    rng = np.random.default_rng(7)
    vectors = {t: rng.normal(size=dim) for t in tags}
    tokens.save_embeddings(EmbeddingTable(dim=dim, vectors=vectors), str(path))


def test_encode_and_mask_plan(pipeline, capsys):
    tmp_path, store, proc = pipeline
    table = tmp_path / "vectors.txt"
    _write_table(table, 6, ["building=yes", "highway=residential", "bridge=yes"])
    dump = str(tmp_path / "batch.gjtb")
    assert main(["encode", proc, "--embeddings", str(table), "--out", dump]) == 0
    out = capsys.readouterr().out
    assert "samples  4" in out
    batch = tokens.load_token_batch(dump)
    assert batch.size == 4 and batch.dim == 6
    with open(dump + ".ids") as fh:
        ids = [line.strip() for line in fh]
    assert ids == ["16_18052_25956", "16_18052_25957", "16_18053_25956", "16_18053_25957"]

    assert main(["mask-plan", dump]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line, tile_id in zip(lines, ids):
        plan = json.loads(line)
        assert plan["tile"] == tile_id
        picked = set(plan["context"])
        for target in plan["targets"]:
            picked |= set(target)
        assert picked <= set(range(int(batch.valid_len.max())))

    assert main(["mask-plan", dump, "--stats"]) == 0
    stats = capsys.readouterr().out
    for name in ("random", "area", "modality"):
        assert f"strategy {name}:" in stats


def test_ids_sidecar_must_match_its_batch(pipeline, capsys):
    tmp_path, store, proc = pipeline
    table = tmp_path / "vectors.txt"
    _write_table(table, 6, ["building=yes", "highway=residential"])
    dump = str(tmp_path / "batch.gjtb")
    assert main(["encode", proc, "--embeddings", str(table), "--out", dump]) == 0
    sidecar = dump + ".ids"
    with open(sidecar, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    capsys.readouterr()

    with open(sidecar, "wb") as fh:
        fh.writelines(lines[:3])
    assert main(["mask-plan", dump]) == 1
    assert capsys.readouterr().err == f"geotile: {sidecar}: 3 ids for a batch of 4 samples\n"
    with pytest.raises(tokens.TokenError, match="3 ids for a batch"):
        cli._load_batch_with_ids(dump)

    with open(sidecar, "wb") as fh:
        fh.writelines(lines[:2] + [b"16_\xff\n"] + lines[3:])
    assert main(["mask-plan", dump, "--stats"]) == 1
    assert capsys.readouterr().err == f"geotile: {sidecar}:3: invalid UTF-8 at byte 3\n"
    with pytest.raises(tokens.TokenError, match="invalid UTF-8"):
        cli._load_batch_with_ids(dump)

    os.remove(sidecar)
    assert main(["mask-plan", dump]) == 0
    assert [json.loads(line)["tile"] for line in capsys.readouterr().out.splitlines()] == ["0", "1", "2", "3"]


# mask-plan --stats on the fixture's dumps: per strategy, the mean context
# fraction, the fallbacks and the ten histogram counts.
MASK_PLAN_STATS = {
    False: {
        "random": ("0.1667", 0, [0, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
        "area": ("0.1667", 0, [0, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
        "modality": ("0.1667", 4, [0, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
    },
    True: {
        "random": ("0.1040", 0, [0, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
        "area": ("0.2884", 0, [0, 0, 3, 1, 0, 0, 0, 0, 0, 0]),
        "modality": ("0.7661", 0, [0, 1, 0, 0, 0, 0, 0, 0, 0, 3]),
    },
}


@pytest.mark.parametrize("include_image", [False, True])
def test_mask_plan_stats_output_is_pinned(pipeline, capsys, include_image):
    tmp_path, store, proc = pipeline
    table = tmp_path / "vectors.txt"
    _write_table(table, 6, ["building=yes", "highway=residential", "bridge=yes"])
    dump = str(tmp_path / "batch.gjtb")
    image = ["--include-image"] if include_image else []
    assert main(["encode", proc, "--embeddings", str(table), "--out", dump, *image]) == 0
    capsys.readouterr()
    assert main(["mask-plan", dump, "--stats"]) == 0
    want = "".join(
        f"strategy {name}: mean context fraction {mean}, fallbacks {fallbacks}\n"
        + "".join(f"  [{i / 10:.1f},{(i + 1) / 10:.1f})  {n}\n" for i, n in enumerate(counts))
        for name, (mean, fallbacks, counts) in MASK_PLAN_STATS[include_image].items()
    )
    assert capsys.readouterr().out == want


def test_truncated_group_file_fails_process_naming_it(pipeline, capsys):
    tmp_path, store, proc = pipeline
    name = sorted(set(tef.read_store_index(store).values()))[0]
    path = os.path.join(store, name)
    os.truncate(path, os.path.getsize(path) // 2)
    capsys.readouterr()
    assert main(["process", store, str(tmp_path / "proc2")]) == 1
    assert capsys.readouterr().err.startswith(f"geotile: {path}: corrupt gzip data: ")


def test_encode_with_image_tokens(pipeline, capsys):
    tmp_path, store, proc = pipeline
    table = tmp_path / "vectors.txt"
    _write_table(table, 3, ["building=yes"])
    dump = str(tmp_path / "img.gjtb")
    assert main(["encode", proc, "--embeddings", str(table), "--out", dump, "--include-image"]) == 0
    batch = tokens.load_token_batch(dump)
    assert batch.max_len == 6 + 196  # entities plus one token per image patch
    assert int(batch.modality.max()) == 2


def test_loss_check_self_is_zero(pipeline, capsys):
    tmp_path, store, proc = pipeline
    table = tmp_path / "vectors.txt"
    _write_table(table, 4, ["building=yes", "highway=residential"])
    dump = str(tmp_path / "batch.gjtb")
    assert main(["encode", proc, "--embeddings", str(table), "--out", dump]) == 0
    capsys.readouterr()
    assert main(["loss-check", dump, dump]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "huber      0.0"
    assert "variance" in out and "covariance" in out and "total" in out


@pytest.mark.parametrize("vicreg_beta", ["nan", "inf", "-1"])
def test_loss_check_rejects_a_bad_vicreg_beta(pipeline, capsys, vicreg_beta):
    tmp_path, store, proc = pipeline
    table = tmp_path / "vectors.txt"
    _write_table(table, 4, ["building=yes", "highway=residential"])
    dump = str(tmp_path / "batch.gjtb")
    assert main(["encode", proc, "--embeddings", str(table), "--out", dump]) == 0
    capsys.readouterr()
    assert main(["loss-check", dump, dump, "--vicreg-beta", vicreg_beta]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"geotile: vicreg_beta must be non-negative and finite, got {float(vicreg_beta)}\n"


def test_eval_prediction_mode(pipeline, capsys):
    tmp_path, store, proc = pipeline
    out_dir = str(tmp_path / "bridge")
    assert main(["synth-task", proc, "--task", "bridge", "--out-dir", out_dir]) == 0
    labels_path = os.path.join(out_dir, "bridge_labels.csv")
    labels = tasks.read_labels(labels_path)
    pred_path = tmp_path / "preds.csv"
    rows = ["tile_id,prediction"] + [f"{t},{labels[t] + 2.0}" for t in sorted(labels)]
    pred_path.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["eval", "--pred", str(pred_path), "--labels", labels_path]) == 0
    out = capsys.readouterr().out
    assert "tiles 4" in out and "mae   2.0" in out
    # clamping to the bridge range pulls every prediction back to 1.0
    assert main(["eval", "--pred", str(pred_path), "--labels", labels_path,
                 "--clamp", "0", "1"]) == 0
    assert "mae   0.0" in capsys.readouterr().out


def test_eval_scoreboard_mode(tmp_path, capsys):
    board = tmp_path / "board.csv"
    rows = ["model,task,mae"]
    for model, a, b in (("alpha", 1.0, 4.0), ("beta", 2.0, 2.0)):
        rows += [f"{model},t1,{a}", f"{model},t2,{b}"]
    board.write_text("\n".join(rows) + "\n")
    out_csv = tmp_path / "ratios.csv"
    assert main(["eval", "--scoreboard", str(board), "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("model")
    assert "alpha" in out and "beta" in out
    saved = out_csv.read_text().splitlines()
    assert saved[0] == "model,t1,t2,score"
    assert saved[1].startswith("alpha,1.0,0.5,")


@pytest.mark.parametrize("bad_line, reason", [
    ("beta,t1", "expected 'model,task,mae' fields, got 'beta,t1'"),
    ("beta,t1,n/a", "mae 'n/a' is not a number"),
    ("alpha,t1,3.0", "duplicate model,task 'alpha,t1'"),
])
def test_eval_scoreboard_errors_name_path_and_line(tmp_path, capsys, bad_line, reason):
    board = tmp_path / "board.csv"
    board.write_text(f"model,task,mae\nalpha,t1,1.0\n{bad_line}\n")
    assert main(["eval", "--scoreboard", str(board)]) == 1
    assert capsys.readouterr().err == f"geotile: {board}:3: {reason}\n"


def test_knn_command(tmp_path, capsys):
    vectors = {
        "q": np.array([1.0, 0.0]),
        "near": np.array([1.1, 0.0]),
        "far": np.array([5.0, 5.0]),
    }
    path = tmp_path / "vecs.txt"
    tokens.save_embeddings(EmbeddingTable(dim=2, vectors=vectors), str(path))
    assert main(["knn", "--vectors", str(path), "--query-id", "q", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"] == "q" and payload["metric"] == "l2"
    assert [n["id"] for n in payload["neighbors"]] == ["near", "far"]
    assert payload["neighbors"][0]["distance"] == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("k", ["-1", "0"])
def test_knn_rejects_k_below_one(tmp_path, capsys, k):
    path = tmp_path / "vecs.txt"
    vectors = {name: np.array([float(i), 0.0]) for i, name in enumerate(("q", "a", "b"))}
    tokens.save_embeddings(EmbeddingTable(dim=2, vectors=vectors), str(path))
    assert main(["knn", "--vectors", str(path), "--query-id", "q", "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"geotile: k must be at least 1, got {k}\n"


def test_knn_default_k_is_the_library_default(tmp_path, capsys):
    n = evaluation.KNN_DEFAULT_K + 2
    vectors = {f"v{i}": np.array([float(i), 0.0]) for i in range(n)}
    path = tmp_path / "vecs.txt"
    tokens.save_embeddings(EmbeddingTable(dim=2, vectors=vectors), str(path))
    assert main(["knn", "--vectors", str(path), "--query-id", "v0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == evaluation.KNN_DEFAULT_K
    assert len(payload["neighbors"]) == evaluation.KNN_DEFAULT_K


def test_schedule_command(tmp_path, capsys):
    dump = tmp_path / "sched.csv"
    assert main(["schedule", "--total-steps", "10", "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "lr        0.0 -> 0.001 (step 1) -> 1e-06" in out
    assert "momentum  0.997 -> 1.0" in out
    wd_line = next(l for l in out.splitlines() if l.startswith("wd"))
    lo, hi = (float(v) for v in wd_line.split()[1::2])
    assert lo == pytest.approx(0.04, abs=1e-9) and hi == 0.4
    lines = dump.read_text().splitlines()
    assert lines[0] == "step,lr,wd,momentum"
    assert len(lines) == 12


def test_flag_defaults_are_the_library_defaults(pipeline, capsys):
    tmp_path, store, proc = pipeline
    explicit = str(tmp_path / "explicit")
    extract = str(tmp_path / "grid.pbf")
    assert main(["ingest", extract, explicit, "--zoom", str(geo.DEFAULT_ZOOM)]) == 0
    assert _store_bytes(store) == _store_bytes(explicit)

    pred, target = str(tmp_path / "pred.gjtb"), str(tmp_path / "target.gjtb")
    for path, tags in ((pred, ["building=yes"]), (target, ["building=yes", "highway=residential"])):
        _write_table(tmp_path / "vectors.txt", 4, tags)
        assert main(["encode", proc, "--embeddings", str(tmp_path / "vectors.txt"), "--out", path]) == 0
    capsys.readouterr()
    assert main(["loss-check", pred, target]) == 0
    default = capsys.readouterr().out
    beta, vicreg_beta = repr(training.HUBER_BETA), repr(training.VICREG_BETA)
    assert main(["loss-check", pred, target, "--beta", beta, "--vicreg-beta", vicreg_beta]) == 0
    assert capsys.readouterr().out == default
    assert main(["loss-check", pred, target, "--beta", "0.5", "--vicreg-beta", "1"]) == 0
    assert capsys.readouterr().out != default

    cfg = training.ScheduleConfig(total_steps=7)
    assert main(["schedule", "--total-steps", "7", "--dump", str(tmp_path / "default.csv")]) == 0
    default = capsys.readouterr().out
    flags = ["--lr-base", repr(cfg.lr_base), "--lr-end", repr(cfg.lr_end),
             "--wd-init", repr(cfg.weight_decay_init), "--wd-end", repr(cfg.weight_decay_end),
             "--momentum-init", repr(cfg.momentum_init), "--momentum-end", repr(cfg.momentum_end)]
    assert main(["schedule", "--total-steps", "7", "--dump", str(tmp_path / "explicit.csv"), *flags]) == 0
    assert capsys.readouterr().out == default
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()
    assert main(["schedule", "--total-steps", "7", "--wd-end", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[2].endswith("-> 0.1")


@pytest.mark.parametrize(
    "flag, value, field",
    [("--lr-base", "nan", "lr_base"), ("--lr-end", "-inf", "lr_end"), ("--wd-end", "inf", "weight_decay_end"),
     ("--momentum-init", "nan", "momentum_init"), ("--momentum-end", "inf", "momentum_end")],
)
def test_schedule_rejects_a_value_that_is_not_finite(tmp_path, capsys, flag, value, field):
    # nan printed "lr nan -> nan" and --momentum-end inf "momentum nan -> inf", both exiting 0.
    dump = tmp_path / "sched.csv"
    assert main(["schedule", "--total-steps", "10", "--dump", str(dump), f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"geotile: {field} must be finite, got {float(value)}\n"
    assert captured.out == "" and not dump.exists()


def test_empty_extract_is_fine(tmp_path, capsys):
    from geotile.pbf import write_pbf

    empty = tmp_path / "empty.pbf"
    write_pbf(str(empty))
    store = str(tmp_path / "raw")
    assert main(["ingest", str(empty), store]) == 0
    assert tef.read_store(store) == []
    assert main(["process", store, str(tmp_path / "proc")]) == 0
    assert "processed tiles  0" in capsys.readouterr().out


def test_errors_exit_one(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "missing.pbf"), str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("geotile:")
    assert main(["eval"]) == 1
    assert "geotile:" in capsys.readouterr().err
    assert main(["synth-task", str(tmp_path / "nostore"), "--task", "parking"]) == 1
    assert "geotile:" in capsys.readouterr().err


# ------------------------------------------------- what each command loads

_LOADED = """
import json, sys
import geotile.cli
imported = sorted(sys.modules)
code = geotile.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "imported": imported, "ran": sorted(sys.modules)}))
"""


def _fresh_run(argv, **env):
    """Run cli.main in a new interpreter; its exit code, modules loaded and stderr."""
    src = os.path.dirname(os.path.dirname(geotile.__file__))
    env = {k: v for k, v in os.environ.items() if k != "GEOTILE_LOG"} | {"PYTHONPATH": src} | env
    done = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, env=env, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], set(result["imported"]), set(result["ran"]), done.stderr


def test_ingest_never_loads_numpy(tmp_path):
    write_grid_pbf(tmp_path / "grid.pbf", 18052, 25956, 2, 2)
    code, imported, ran, err = _fresh_run(["ingest", str(tmp_path / "grid.pbf"), str(tmp_path / "raw")])
    assert code == 0 and err == ""  # nothing at the default warning level
    assert "numpy" not in imported
    assert "numpy" not in ran
    assert len(tef.read_store(str(tmp_path / "raw"))) == 4


def test_synth_task_loads_only_what_it_runs(pipeline):
    tmp_path, store, proc = pipeline
    code, _, ran, _ = _fresh_run(["synth-task", proc, "--task", "bridge", "--out-dir", str(tmp_path / "t")])
    assert code == 0
    unused = {"masking", "training", "evaluation", "process", "geometry", "visibility", "tokens", "pbf"}
    assert not {f"geotile.{name}" for name in unused} & ran
    assert "numpy" not in ran


def test_info_logging_reports_each_command(tmp_path):
    write_grid_pbf(tmp_path / "grid.pbf", 18052, 25956, 1, 1)
    code, _, _, err = _fresh_run(["ingest", str(tmp_path / "grid.pbf"), str(tmp_path / "raw")], GEOTILE_LOG="info")
    assert code == 0
    assert err.startswith("INFO:geotile.cli:ingest exited 0 after ")
    code, _, _, err = _fresh_run(["ingest", str(tmp_path / "missing.pbf"), str(tmp_path / "out")], GEOTILE_LOG="info")
    assert code == 1
    assert "INFO:geotile.cli:ingest exited 1 after " in err


def test_every_subcommand_has_help(capsys):
    commands = build_parser()._subparsers._group_actions[0].choices
    assert {"ingest", "process", "synth-task", "encode"} <= set(commands)
    for command in commands:
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: geotile {command}")
