"""geotile benchmark: one workload, timed CLI stages, oracles, one JSON result.

    python3 perfbench/run.py --workload urban --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload's CLI stages run as subprocesses, one pipeline
after another, until ``--seconds`` is used up, and the end-to-end metrics are
medians over those pipelines.  With ``--trace 1`` the pipeline runs once
through the CLI and twice in process (untraced, then traced by
``spans.py``), and the per-layer metrics come from the traced replay.

Both modes check the outputs afterwards (``oracles.py``) and print a details
line (output digests, tail percentile, failures) before the result, which is
the last line: ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


@dataclass(frozen=True)
class Workload:
    jobs: int  # process --jobs
    batch_size: int  # samples per loader step
    group_size: int  # batches per length-sorted window
    steps: int  # loader steps per pipeline


# Why each workload exists is recorded in README.md beside this file.
WORKLOADS = {
    "urban": Workload(jobs=2, batch_size=16, group_size=4, steps=200),
    "landuse": Workload(jobs=1, batch_size=16, group_size=1, steps=160),
    "train-feed": Workload(jobs=1, batch_size=32, group_size=4, steps=120),
}
# Each pipeline after the first runs one loader pass of `steps` steps, in a
# chunk after each of its stages; step latencies are pooled over those passes.
# landuse has only 16 tiles, so each of its steps takes all of them: batches
# of a part made two kinds of step, with and without the longest tiles, and
# put the median on the edge between them.  Its steps then differ only by
# mask strategy.
MIN_PIPELINES = 3
SETUP_REPEATS = 8  # between two pipelines; set-up takes about a tenth of a second
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tally:
    """Operations attempted and failed, with a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, mismatches: list[str]) -> None:
        self.attempted += 1
        if mismatches:
            self.failures.append(f"{what}: " + "; ".join(mismatches[:5]))
            for line in mismatches[:5]:
                sys.stderr.write(f"perfbench: {what}: {line}\n")


def run_python(args: list[str], log_prefix: str) -> tuple[float, float, int]:
    """Run the interpreter on args; returns (wall s, peak RSS MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("GEOTILE_LOG", None)
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def digest_tree(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def diff_digests(want: dict, got: dict) -> list[str]:
    names = sorted(set(want) | set(got))
    return [f"{n} differs" for n in names if want.get(n) != got.get(n)]


def loader_digests(report: dict) -> dict[str, str]:
    """SHA-256 of the step loop's mask plans (as plan JSON lines) and loss values."""
    return {"loader/plans": report["plan_digest"], "loader/losses": report["loss_digest"]}


def setup(workload: str, seed: int, inputs: str) -> tuple[float, dict]:
    """Generate the corpus, write the PBF, build the embedding table; returns (seconds, digests)."""
    import corpus

    t0 = time.perf_counter()
    corpus.write_inputs(workload, seed, inputs)
    return time.perf_counter() - t0, digest_tree(inputs)


def stages(jobs: int, inputs: str, out: str) -> list[list[str]]:
    """The geotile CLI arguments of every stage of a pipeline, in order."""
    from geotile.tasks import BUNDLED_TASKS

    raw, proc = os.path.join(out, "raw"), os.path.join(out, "proc")
    return [
        ["ingest", os.path.join(inputs, "extract.pbf"), raw],
        ["process", raw, proc, "--jobs", str(jobs)],
        *(["synth-task", proc, "--task", t, "--out-dir", os.path.join(out, "tasks")] for t in BUNDLED_TASKS),
        ["encode", proc, "--embeddings", os.path.join(inputs, "vectors.txt"), "--out", os.path.join(out, "batch.gjtb"),
         "--include-image"],
    ]


class LoaderServer:
    """`feed.py` in its own process, running loader steps when asked.

    A pipeline asks for a chunk of steps after every CLI stage, so the step
    latencies sample the whole run rather than one stretch of it.  Each
    pipeline starts its own loader process: one process kept for a whole run
    ran all its steps at about 24 ms or all at about 31 ms on train-feed,
    whatever the seed, so the runs' medians split into two groups.
    """

    def __init__(self, wl: Workload, gjtb: str, log_prefix: str):
        # One BLAS thread, as trainers set for their data-loading workers.
        # With OpenBLAS's default of one thread per CPU, the tiny covariance
        # products in vicreg_var_cov made a landuse step take about 9 ms
        # instead of about 5 ms on a 2-CPU machine, and either figure
        # depending on what else held the second CPU.
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.steps = wl.steps
        self.err = open(log_prefix + ".err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "feed.py"), gjtb, "--batch-size", str(wl.batch_size),
             "--group-size", str(wl.group_size), "--steps", str(wl.steps)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err, env=env, cwd=ROOT)
        # An empty chunk returns once the batch is loaded, so that start-up
        # does not overlap the first timed stage.
        self.ready = self.chunk(0) is not None

    def chunk(self, steps: int) -> dict | None:
        """Run `steps` steps; returns their report, or None if the server died."""
        try:
            self.proc.stdin.write(f"{steps}\n".encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def chunk_sizes(self, chunks: int) -> list[int]:
        """One pass of steps split as evenly as possible into `chunks` chunks."""
        return [self.steps // chunks + (i < self.steps % chunks) for i in range(chunks)]

    def close(self) -> tuple[float, int]:
        """Stop the server; returns (peak RSS MB, exit code)."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        return usage.ru_maxrss / 1024.0, self.proc.returncode

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.err.close()


def merge_chunks(chunks: list[dict]) -> dict:
    """One pass's report from the reports of its chunks; the one that ends the pass carries the digests."""
    return {**{k: v for c in chunks for k, v in c.items()},
            "step_ms": [ms for c in chunks for ms in c["step_ms"]],
            "feed_s": sum(c["feed_s"] for c in chunks),
            "samples": sum(c["samples"] for c in chunks)}


def cli_pipeline(wl: Workload, seed: int, inputs: str, out: str, logs: str, tally: Tally,
                 loader: LoaderServer | None) -> dict | None:
    """Every stage as its own `python -m geotile.cli` process, each followed by a chunk of loader steps.

    The first pipeline has no loader yet: it writes the GJTB the loaders
    read, then runs its pass after its stages.  The loader is closed here.
    """
    proc = os.path.join(out, "proc")
    walls = {"ingest": 0.0, "process": 0.0, "synth_task": 0.0, "encode": 0.0}
    rss = 0.0
    chunks = []
    os.makedirs(logs, exist_ok=True)
    all_stages = stages(wl.jobs, inputs, out)
    sizes = loader.chunk_sizes(len(all_stages)) if loader else []
    for i, args in enumerate(all_stages):
        stage = args[0].replace("-", "_")
        wall, peak, code = run_python(["-m", "geotile.cli", "--seed", str(seed), *args], os.path.join(logs, f"{i}-{stage}"))
        tally.check(f"geotile {args[0]}", [] if code == 0 else [f"exit code {code}"])
        if code != 0:
            return None
        walls[stage] += wall
        rss = max(rss, peak)
        if loader:
            chunks.append(loader.chunk(sizes[i]))
            tally.check("loader steps", [] if chunks[-1] else ["the loader process ended"])
            if not chunks[-1]:
                return None
    if loader is None:
        # The first pass runs in one piece: it warms the loader up and gives
        # the digests every later pass must reproduce.
        loader = LoaderServer(wl, os.path.join(out, "batch.gjtb"), os.path.join(logs, "loader"))
        chunks.append(loader.chunk(wl.steps) if loader.ready else None)
        tally.check("loader steps", [] if chunks[-1] else ["the loader process ended"])
        if not chunks[-1]:
            loader.kill()
            return None
    loader_rss, code = loader.close()
    tally.check("loader process exits cleanly", [] if code == 0 else [f"exit code {code}"])
    with open(os.path.join(proc, "index.json"), "r", encoding="utf-8") as fh:
        tiles = len(json.load(fh)["tiles"])
    store_bytes = sum(os.path.getsize(os.path.join(proc, n)) for n in os.listdir(proc))
    return {"walls": walls, "rss_mb": max(rss, loader_rss), "feed": merge_chunks(chunks), "tiles": tiles,
            "store_bytes": store_bytes}


def run_oracles(wl: Workload, seed: int, inputs: str, out: str, work: str, tally: Tally) -> dict:
    """Check the outputs under `out`; returns what the details line records about the checks."""
    import oracles
    from geotile import tef

    tiles = tef.read_store(os.path.join(out, "proc"))
    tally.check("labels match the generator's ground truth",
                oracles.labels(tiles, os.path.join(out, "tasks"), oracles.load_truth(os.path.join(inputs, "truth.json"))))
    sizes, bad = oracles.visibility(tiles, seed)
    tally.check(f"visibility grid equals brute force ({len(sizes)} scenes)", bad)
    checked, bad = oracles.minbox(tiles, seed)
    tally.check(f"min-box within the dense sweep bound ({checked} hulls)", bad)
    tally.check("TEF store rewrite is byte-identical",
                oracles.tef_rewrite(os.path.join(out, "proc"), os.path.join(work, "rewrite")))
    tally.check("GJTB load then dump is byte-identical",
                oracles.gjtb_roundtrip(os.path.join(out, "batch.gjtb"), os.path.join(work, "roundtrip.gjtb")))
    if wl.jobs > 1:
        ref = os.path.join(work, "jobs1")
        _, _, code = run_python(["-m", "geotile.cli", "--seed", str(seed), "process", os.path.join(out, "raw"), ref,
                                 "--jobs", "1"], os.path.join(work, "jobs1"))
        mismatches = oracles.same_tree(os.path.join(out, "proc"), ref) if code == 0 else [f"exit code {code}"]
        tally.check(f"process --jobs {wl.jobs} store equals the --jobs 1 store", mismatches)
    return {"visibility_checked": {"scenes": len(sizes), "min_vertices": min(sizes, default=0),
                                   "max_vertices": max(sizes, default=0)}}


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0:
            return p
    return 50.0


def end_to_end(wl: Workload, setup_s: list[float], pipelines: list[dict]) -> tuple[dict, dict]:
    med = statistics.median
    # The first pipeline's loader pass ran in one piece after its stages; the later
    # ones ran in chunks between the stages, and their steps are pooled.
    fed = pipelines[1:]
    steps = sorted(ms for p in fed for ms in p["feed"]["step_ms"])
    # Fixed by the fewest steps a run can pool, so it does not move with the
    # number of pipelines that fit.
    tail_p = tail_percentile(wl.steps * (MIN_PIPELINES - 1))
    build = [sum(p["walls"][s] for s in ("ingest", "process", "synth_task")) for p in pipelines]
    values = {
        "setup_s": med(setup_s),
        "ingest_s": med(p["walls"]["ingest"] for p in pipelines),
        "process_s": med(p["walls"]["process"] for p in pipelines),
        "synth_task_s": med(p["walls"]["synth_task"] for p in pipelines),
        "encode_s": med(p["walls"]["encode"] for p in pipelines),
        "tiles_per_s": med(p["tiles"] / b for p, b in zip(pipelines, build)),
        "step_p50_ms": percentile(steps, 50.0),
        "step_tail_ms": percentile(steps, tail_p),
        "feed_samples_per_s": med(p["feed"]["samples"] / (p["walls"]["encode"] + p["feed"]["feed_s"]) for p in fed),
        "peak_rss_mb": max(p["rss_mb"] for p in pipelines),
        "store_bytes_per_tile": pipelines[0]["store_bytes"] / pipelines[0]["tiles"],
    }
    details = {"pipelines": len(pipelines), "setup_samples": len(setup_s), "step_samples": len(steps),
               "step_tail_percentile": tail_p}
    return values, details


def gunzip(path: str) -> bytes:
    with gzip.open(path, "rb") as fh:
        return fh.read()


def per_layer(names: list[str], traced: dict, untraced: dict, replay_out: str) -> dict:
    self_s, counts = traced["self_s"], traced["counts"]
    gz = [os.path.join(d, n) for d, _, files in os.walk(replay_out) for n in files if n.endswith(".tefgz")]
    # A layer the replay never entered has no span and no counts: zero.
    values = {n: self_s.get(n[:-2], 0.0) if n.endswith("_s") else counts.get(n, 0) for n in names}
    values.update({
        "ingest.clip_yield": counts["ingest.placements"] / counts["ingest.clip_attempts"],
        "tef.bytes_gz": sum(os.path.getsize(p) for p in gz),
        "tef.bytes_json": sum(len(gunzip(p)) for p in gz),
        "pbf.read_defect_ratio": traced["read_defect_ratio"],
        "process.rng_used_ratio": counts.get("process.rng_used", 0) / counts["process.rng_derived"],
        "tokens.pad_ratio": 1.0 - counts["tokens.valid_tokens"] / counts["tokens.cells"],
        "training.pad_saved_ratio": 1.0 - counts["training.padded_cells"] / counts["training.arrival_cells"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    })
    return values


def replay(wl: Workload, seed: int, inputs: str, out: str, work: str, trace: int, extra: list[str]) -> dict | None:
    report = os.path.join(work, f"replay{trace}.json")
    args = [os.path.join(HERE, "replay.py"), "--inputs", inputs, "--out", out, "--seed", str(seed),
            "--batch-size", str(wl.batch_size), "--group-size", str(wl.group_size), "--steps", str(wl.steps),
            "--trace", str(trace), "--report", report, *extra]
    _, _, code = run_python(args, os.path.join(work, f"replay{trace}"))
    if code != 0:
        return None
    with open(report, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    for needed in (os.path.join(SRC, "geotile", "cli.py"), os.path.join(ROOT, "tests", "conftest.py")):
        if not os.path.isfile(needed):
            sys.stderr.write(f"perfbench: {needed} is missing; run from the root of a geotile checkout\n")
            return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    tally = Tally()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    loader = None
    try:
        inputs = os.path.join(work, "inputs")
        seconds, input_digests = setup(args.workload, args.seed, inputs)
        setup_s = [seconds]
        out0 = os.path.join(work, "pipeline0")
        start = time.perf_counter()
        pipelines: list[dict] = []
        digests: dict = {}
        while True:
            for _ in range(SETUP_REPEATS if pipelines else 0):
                # Set-up is repeated between pipelines, so its median samples
                # the same stretch of time as the stages do.
                again = os.path.join(work, "inputs-again")
                seconds, again_digests = setup(args.workload, args.seed, again)
                setup_s.append(seconds)
                tally.check("set-up repeat gives identical inputs", diff_digests(input_digests, again_digests))
                shutil.rmtree(again)
            out = os.path.join(work, f"pipeline{len(pipelines)}")
            loader = None
            if pipelines:
                loader = LoaderServer(wl, os.path.join(out0, "batch.gjtb"), os.path.join(work, f"loader{len(pipelines)}"))
                tally.check("loader process starts", [] if loader.ready else ["the loader process ended"])
                if not loader.ready:
                    break
            result = cli_pipeline(wl, args.seed, inputs, out, out + ".logs", tally, loader)
            if result is None:
                break
            tally.check("mask plan invariants", result["feed"]["plan_violations"])
            if pipelines:
                tally.check(f"pipeline {len(pipelines)} outputs equal pipeline 0's",
                            diff_digests(digests, digest_tree(out))
                            + diff_digests(loader_digests(pipelines[0]["feed"]), loader_digests(result["feed"])))
                shutil.rmtree(out)
            else:
                digests = digest_tree(out)
            pipelines.append(result)
            elapsed = time.perf_counter() - start
            if args.trace or len(pipelines) >= MIN_PIPELINES and elapsed * (1 + 1 / len(pipelines)) > args.seconds:
                break
        if not pipelines:
            sys.stderr.write("perfbench: the first pipeline failed; see the logs under " + work + "\n")
            return 1
        details = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            import corpus

            clean = os.path.join(work, "clean.pbf")
            corpus.write_clean_extract(args.workload, args.seed, clean)
            traced = ["--clean-pbf", clean, "--spans", os.path.join(WORK, f"spans-{args.workload}.tsv.gz")]
            runs = {}
            for trace in (0, 1):
                out = os.path.join(work, f"replay{trace}-out")
                runs[trace] = replay(wl, args.seed, inputs, out, work, trace, traced if trace else [])
                tally.check(f"replay (trace {trace}) runs", [] if runs[trace] else ["replay failed"])
                if runs[trace] is None:
                    return 1
                tally.check(f"replay (trace {trace}) outputs equal the CLI run's",
                            diff_digests(digests, digest_tree(out))
                            + diff_digests(loader_digests(pipelines[0]["feed"]), loader_digests(runs[trace])))
            names = spec["per_layer"]
            values = per_layer([m["name"] for m in names], runs[1], runs[0], os.path.join(work, "replay1-out"))
            details["layer_shares"] = runs[1]["shares"]
        else:
            values, extra = end_to_end(wl, setup_s, pipelines)
            details.update(extra)
            names = spec["end_to_end"]
        details.update(run_oracles(wl, args.seed, inputs, out0, work, tally))
        values["ops_failed_ratio"] = len(tally.failures) / tally.attempted
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
        details.update({"failures": tally.failures, "digests": {**digests, **loader_digests(pipelines[0]["feed"])}})
        print(json.dumps({"details": details}, sort_keys=True))
        print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                          "failed": len(tally.failures), "metrics": metrics}))
        return 0
    finally:
        if loader:
            loader.kill()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
