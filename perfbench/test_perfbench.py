"""Fast checks of the benchmark itself, on a 2x2-tile urban corpus.

    python3 -m pytest perfbench
"""

import hashlib
import json
import math
import os
import random
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import corpus  # noqa: E402  (needs src/ on the path)
import oracles  # noqa: E402
import spans  # noqa: E402
from geotile.model import Geometry  # noqa: E402
from geotile.visibility import visibility_edges_brute  # noqa: E402


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(corpus.WORKLOADS, "urban", lambda seed, traffic=corpus.ASSUMED: corpus.urban(seed, traffic, nx=2, ny=2))
    monkeypatch.setattr(run, "WORKLOADS", {"urban": run.Workload(jobs=2, batch_size=2, group_size=2, steps=4)})
    monkeypatch.setattr(run, "MIN_PIPELINES", 2)


def _run(capsys, trace):
    assert run.main(["--workload", "urban", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tiny, capsys, trace, section):
    details, result = _run(capsys, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, details["failures"]
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_replay_writes_what_the_cli_writes(tiny, capsys):
    details, result = _run(capsys, 1)
    assert not [f for f in details["failures"] if "replay" in f]
    assert any(name.startswith("proc/") for name in details["digests"])
    assert "batch.gjtb" in details["digests"]
    assert result["metrics"]["process.visibility_calls"]["value"] > 0


def test_seed_alone_fixes_the_extract(tmp_path):
    def pbf_digest(seed, name):
        paths = corpus.write_inputs("urban", seed, str(tmp_path / name))
        with open(paths["extract.pbf"], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert pbf_digest(5, "a") == pbf_digest(5, "b")
    assert pbf_digest(5, "a") != pbf_digest(6, "c")


def test_numpy_brute_force_matches_the_library_brute_force():
    rng = random.Random(7)

    def ring(cx, cy, r, n, clockwise=False):
        pts = [(cx + r * (0.6 + 0.4 * rng.random()) * math.cos(2 * math.pi * k / n),
                cy + r * (0.6 + 0.4 * rng.random()) * math.sin(2 * math.pi * k / n)) for k in range(n)]
        pts = pts[::-1] if clockwise else pts
        return [*pts, pts[0]]

    # Collinear runs on a square outer, so grazing contact is exercised too.
    square = [(x, 0.0) for x in range(4)] + [(4.0, y) for y in range(4)] + [(x, 4.0) for x in range(4, 0, -1)]
    square += [(0.0, y) for y in range(4, 0, -1)]
    for geom in (Geometry.polygon([ring(0, 0, 10, 40), ring(2, 1, 3, 9, clockwise=True)]),
                 Geometry.multipolygon([[ring(0, 0, 5, 25)], [ring(20, 0, 4, 12)]]),
                 Geometry.polygon([[*square, square[0]], [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (1.0, 1.0)]])):
        assert oracles.brute_visibility(geom) == visibility_edges_brute(geom)


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    outer = rec.begin("outer")
    inner = rec.begin("inner")
    rec.end(inner)
    rec.end(outer)
    rec.starts[outer], rec.starts[inner], rec.ends[inner], rec.ends[outer] = 0.0, 1.0, 3.0, 10.0
    assert rec.self_times() == {"outer": 8.0, "inner": 2.0}
    assert rec.shares(lambda name: name == "outer") == {"outer": {"outer": 0.8, "inner": 0.2}}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(199) == 90.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.percentile(list(range(1, 101)), 90.0) == 90
