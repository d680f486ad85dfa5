"""In-process replay of a workload's CLI stages, optionally traced.

The replay runs every stage through ``geotile.cli.main`` with the same
arguments as the CLI run, so it executes the CLI's own ``cmd_*`` code, and
then the loader step loop of ``feed.py``.  It writes its own stores, labels,
splits and GJTB under ``--out`` with the CLI run's layout, so the two runs'
SHA-256 digests can be compared file by file: if they differ, the traced
numbers describe a different program.

``process`` runs with ``--jobs 1`` here, whatever ``--jobs`` the CLI run used,
so that its work stays in this process where the probes see it; the jobs
oracle shows the store does not depend on it.

    python3 perfbench/replay.py --inputs DIR --out DIR --seed N \
        --batch-size B --group-size G --steps K --trace 0|1 --report report.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from geotile import cli, pbf

import feed
import run
import spans


READ_REPEATS = 15


def read_defect_ratio(read_pbf, extract: str, clean: str) -> float:
    """Median read_pbf time of the extract over that of its CLEAN copy, read alternately."""
    walls: dict[str, list[float]] = {extract: [], clean: []}
    for _ in range(READ_REPEATS):
        for path, times in walls.items():
            t0 = time.perf_counter()
            read_pbf(path)
            times.append(time.perf_counter() - t0)
    return statistics.median(walls[extract]) / statistics.median(walls[clean])


def replay(inputs: str, out: str, seed: int, batch_size: int, group_size: int, steps: int, rec) -> dict:
    """Run every stage into `out`; returns the replay wall time and feed digests."""
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    for args in run.stages(1, inputs, out):
        span = rec.begin(f"cmd.{args[0]}")
        code = cli.main(["--seed", str(seed), *args])
        rec.end(span)
        if code != 0:
            raise SystemExit(f"replay: geotile {args[0]} exited with code {code}")
    span = rec.begin("cmd.feed")
    report = feed.run_feed(feed.load_batch(os.path.join(out, "batch.gjtb")), batch_size, group_size, steps, rec)
    rec.end(span)
    return {
        "wall_s": time.perf_counter() - t0,
        "loss_digest": report["loss_digest"],
        "plan_digest": report["plan_digest"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch-size", type=int, required=True)
    parser.add_argument("--group-size", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--clean-pbf", help="traced only: compare read_pbf on the extract with this copy")
    parser.add_argument("--spans", help="write the recorded spans here (gzipped TSV)")
    args = parser.parse_args(argv)
    rec = spans.Recorder() if args.trace else feed.NullRecorder()
    read_pbf = pbf.read_pbf  # unprobed, for read_defect_ratio
    if args.trace:
        spans.install(rec)
    result = replay(args.inputs, args.out, args.seed, args.batch_size, args.group_size, args.steps, rec)
    if args.trace:
        if args.clean_pbf:
            result["read_defect_ratio"] = read_defect_ratio(read_pbf, os.path.join(args.inputs, "extract.pbf"), args.clean_pbf)
        result["self_s"] = rec.self_times()
        result["counts"] = dict(rec.counts)
        result["shares"] = rec.shares(lambda name: name.startswith("cmd.") or name == "feed.step")
        if args.spans:
            rec.write(args.spans, run_id=f"seed-{args.seed}")
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
