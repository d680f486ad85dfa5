"""Training-loader step loop over an encoded token batch (GJTB).

Each step takes one length-sorted batch of samples out of the loaded dump,
plans its masks, compacts context and targets, and evaluates the masked Huber
loss and the VICReg variance/covariance terms, the way a trainer's data path
does before the network runs.  The predictor is a stand-in (each sample's mean
context vector), since geotile has no network.

Run as a program it serves steps in chunks, so that a benchmark can spread
them between other work: each line on stdin is a number of steps, each line
on stdout the JSON report of that chunk, and a pass of K steps restarts from
the first epoch (see ``serve``):

    echo 25 | python3 perfbench/feed.py BATCH.gjtb --batch-size B --group-size G --steps K
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from geotile import masking, tokens, training
from geotile.seeds import derive_seed

import oracles


# The loader's own seed (epoch shuffles, mask plans) is part of the workload's
# configuration, like its batch size; --seed varies the corpus only.  A seeded
# strategy mix would move the step median between runs by itself.
LOADER_SEED = 0
WARM_REPEATS = 2


class NullRecorder:
    """Stand-in for spans.Recorder when the loop runs untraced."""

    def begin(self, name: str) -> int:
        return 0

    def end(self, index: int) -> None:
        pass


def load_batch(path: str) -> tokens.TokenBatch:
    """Load a GJTB dump and its ``.ids`` sidecar, as ``geotile mask-plan`` does."""
    batch = tokens.load_token_batch(path)
    with open(path + ".ids", "r", encoding="utf-8") as fh:
        batch.ids = tuple(line.strip() for line in fh if line.strip())
    return batch


def slice_batch(batch: tokens.TokenBatch, rows: list[int]) -> tokens.TokenBatch:
    """Sub-batch of the given samples, trimmed to its longest sequence."""
    idx = np.asarray(rows)
    valid_len = batch.valid_len[idx]
    width = int(valid_len.max())
    return tokens.TokenBatch(
        modality=batch.modality[idx, :width],
        boxes=batch.boxes[idx, :width],
        payload=batch.payload[idx, :width],
        valid_len=valid_len,
        ids=tuple(batch.ids[i] for i in rows),
    )


class Loader:
    """Loader steps from the first epoch on, one at a time, re-binning at every epoch.

    Each plan is checked and hashed after its step's clock stops and is then
    dropped, as a loader would: keeping every plan alive would make the
    collector's full passes slower step by step.
    """

    def __init__(self, batch, batch_size: int, group_size: int, rec=None):
        self.batch, self.batch_size, self.group_size = batch, batch_size, group_size
        self.rec = rec or NullRecorder()
        self.cfg = masking.MaskConfig(seed=derive_seed(LOADER_SEED, "stage", "mask-plan"))
        self.lengths = [int(n) for n in batch.valid_len]
        self.losses_digest, self.plans_digest = hashlib.sha256(), hashlib.sha256()
        self.step_s: list[float] = []
        self.rebin_s = 0.0
        self.violations: list[str] = []
        self.samples = 0
        self.epoch = 0
        self.pending: list[list[int]] = []

    def _rows(self) -> list[int]:
        """The next step's samples, re-binning first when the epoch is used up."""
        if not self.pending:
            t0 = time.perf_counter()
            batches, _ = training.length_sorted_rebin(self.lengths, self.batch_size, self.group_size,
                                                       seed=derive_seed(LOADER_SEED, "epoch", self.epoch))
            self.rebin_s += time.perf_counter() - t0
            self.epoch += 1
            # Like a loader with drop_last: a short remainder batch would add a
            # second, much faster kind of step to the latency distribution.
            self.pending = [b for b in batches if len(b) == self.batch_size] or batches
        return self.pending[0]

    def _work(self, rows: list[int], step: int):
        sub = slice_batch(self.batch, rows)
        plan = masking.plan_masks(sub, self.cfg, batch_index=step)
        context, targets, _ = masking.compact(sub, plan)
        valid = context.valid_mask()
        ctx_mean = (context.payload * valid[..., None]).sum(axis=1) / np.maximum(context.valid_len, 1)[:, None]
        losses = []
        for tb in targets:
            pred = np.broadcast_to(ctx_mean[:, None, :], tb.payload.shape).astype(np.float32)
            losses.append(training.huber_masked(pred, tb.payload, tb.valid_mask()))
        losses.extend(training.vicreg_var_cov(context.payload, valid))
        return sub, plan, losses

    def warm(self, repeats: int) -> None:
        """Do the next step's work `repeats` times, untimed and unrecorded."""
        rows = self._rows()
        for _ in range(repeats):
            self._work(rows, len(self.step_s))

    def step(self) -> None:
        rows = self._rows()
        step = len(self.step_s)
        t0 = time.perf_counter()
        span = self.rec.begin("feed.step")
        sub, plan, losses = self._work(rows, step)
        self.rec.end(span)
        self.step_s.append(time.perf_counter() - t0)
        self.pending.pop(0)
        self.samples += sub.size
        self.losses_digest.update(repr(losses).encode())
        self.plans_digest.update(masking.plan_to_json_lines(plan).encode())
        self.violations.extend(oracles.plan_violations(plan, self.cfg))

    def report(self) -> dict:
        return {
            "step_ms": [1000.0 * s for s in self.step_s],
            "feed_s": self.rebin_s + sum(self.step_s),
            "samples": self.samples,
            "loss_digest": self.losses_digest.hexdigest(),
            "plan_digest": self.plans_digest.hexdigest(),
            "plan_violations": self.violations[:20],
        }


def run_feed(batch, batch_size: int, group_size: int, steps: int, rec=None) -> dict:
    """Run `steps` loader steps from the first epoch; returns timings and digests."""
    loader = Loader(batch, batch_size, group_size, rec)
    for _ in range(steps):
        loader.step()
    return loader.report()


def serve(batch, batch_size: int, group_size: int, steps: int, requests, replies) -> None:
    """Run loader passes of `steps` steps in the chunks that `requests` asks for.

    Each request line is a number of steps.  The reply line is the chunk's
    report; a chunk that ends a pass also carries the pass's digests and plan
    violations, and the next chunk starts a new pass from the first epoch.
    Other programs run between two chunks and leave the caches cold, so each
    chunk first does its first step's work WARM_REPEATS times untimed: the
    first timed step of a cold chunk ran about a fifth slower than the same
    step in one unbroken pass, which put those steps at the tail.
    """
    loader = Loader(batch, batch_size, group_size)
    for line in requests:
        begin = len(loader.step_s)
        rebin_s = loader.rebin_s
        samples = loader.samples
        if int(line):
            loader.warm(WARM_REPEATS)
        for _ in range(int(line)):
            loader.step()
        reply = {
            "step_ms": [1000.0 * s for s in loader.step_s[begin:]],
            "feed_s": loader.rebin_s - rebin_s + sum(loader.step_s[begin:]),
            "samples": loader.samples - samples,
        }
        if len(loader.step_s) >= steps:
            done = loader.report()
            reply.update({k: done[k] for k in ("loss_digest", "plan_digest", "plan_violations")})
            loader = Loader(batch, batch_size, group_size)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("batch")
    parser.add_argument("--batch-size", type=int, required=True)
    parser.add_argument("--group-size", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True, help="steps per pass")
    args = parser.parse_args(argv)
    serve(load_batch(args.batch), args.batch_size, args.group_size, args.steps, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
