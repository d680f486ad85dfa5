"""Span recorder and the probes that time geotile's layers from outside.

A span is (name, start, end, parent).  Spans stay in memory in flat arrays and
are written out once, when the traced run ends.  A layer's self time is the
span's duration minus the time covered by its child spans; one layer metric is
the sum of the self times of every span carrying that layer's name.

Probes replace public functions by module attribute, so calls that the library
makes between its own modules (``ingest_elements`` calling ``clip_to_tile``,
``plan_masks`` calling ``enforce_min_context``) are timed too.  Counters are
updated outside the probed call, so they add to the parent's self time only.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from collections import Counter, defaultdict

from geotile import ingest, masking, pbf, process, tasks, tef, tokens, training

perf_counter = time.perf_counter


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def _self(self) -> list[float]:
        out = [self.ends[i] - self.starts[i] for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        out: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, self._self()):
            out[name] += t
        return dict(out)

    def shares(self, is_root) -> dict[str, dict[str, float]]:
        """Per root span name, each layer's share of the self time spent under it.

        A span's root is its nearest ancestor (or itself) for which is_root(name)
        holds; its layer is the name up to the first dot.
        """
        root = []  # parents precede their children, so one pass suffices
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            root.append(i if parent < 0 or is_root(name) else root[parent])
        by_root: dict[str, Counter] = defaultdict(Counter)
        for i, t in enumerate(self._self()):
            by_root[self.names[root[i]]][self.names[i].split(".")[0]] += t
        return {r: {layer: t / sum(c.values()) for layer, t in c.most_common()} for r, c in by_root.items()}

    def write(self, path: str, run_id: str) -> None:
        """Tab-separated spans (run, id, parent, name, start, end), gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("run\tid\tparent\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                fh.write(f"{run_id}\t{i}\t{self.parents[i]}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\n")


def _probe(rec: Recorder, module, attr: str, name: str, after=None, wrap_result=None):
    original = getattr(module, attr)

    def probed(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(rec.counts, args, kwargs, result)
        return wrap_result(result) if wrap_result is not None else result

    setattr(module, attr, probed)


class _CountingRng:
    """Generator proxy counting the draws min_area_box makes (single-point hulls only)."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def uniform(self, *args, **kwargs):
        self._counts["process.rng_used"] += 1
        return self._rng.uniform(*args, **kwargs)


def _points(geom) -> int:
    return sum(1 for _ in geom.iter_points())


def _after_read_pbf(c, args, kwargs, data):
    c["pbf.bytes"] += os.path.getsize(args[0])
    c["pbf.nodes"] += len(data.nodes)
    c["pbf.ways"] += len(data.ways)
    c["pbf.relations"] += len(data.relations)
    c["pbf.dropped_ways"] += data.dropped_ways
    c["pbf.dropped_members"] += data.dropped_members


def _after_ingest(c, args, kwargs, result):
    _, stats = result
    c["ingest.placements"] += stats.placements
    c["ingest.degenerate_dropped"] += stats.degenerate_dropped


def _after_write_store(c, args, kwargs, index):
    c["tef.files"] += len(set(index.values()))


def _after_simplify(c, args, kwargs, geom):
    c["process.vertices_in"] += _points(args[0])
    c["process.vertices_out"] += _points(geom)


def _after_minbox(c, args, kwargs, box):
    c["process.minbox_calls"] += 1
    c["process.minbox_points"] += _points(args[0])


def _after_visibility(c, args, kwargs, graph):
    c["process.visibility_calls"] += 1
    c["process.visibility_vertices"] += len(graph.vertices)
    c["process.visibility_edges"] += len(graph.edges)
    c["process.visibility_max_vertices"] = max(c["process.visibility_max_vertices"], len(graph.vertices))


def _after_synthesize(c, args, kwargs, result):
    c["tasks.labelled"] += len(result.labels)
    c["tasks.pruned"] += result.pruned
    c["tasks.rebalance_dropped"] += result.rebalance_dropped
    c["tasks.unparseable_values"] += result.diagnostics.unparseable_values


def _after_assemble(c, args, kwargs, batch):
    c["tokens.samples"] += batch.size
    c["tokens.valid_tokens"] += int(batch.valid_len.sum())
    c["tokens.cells"] += batch.size * batch.max_len
    diag = kwargs.get("diagnostics")
    if diag is not None:
        c["tokens.entities_without_vectors"] += diag.entities_without_vectors


def _after_plan(c, args, kwargs, plan):
    c[f"masking.steps_{plan.strategy}"] += 1
    c["masking.fallbacks"] += plan.fallbacks


def _after_min_context(c, args, kwargs, plan):
    before = sum(len(s.context) for s in args[0].samples)
    c["masking.min_context_moved"] += sum(len(s.context) for s in plan.samples) - before


def install(rec: Recorder) -> None:
    """Probe every layer's public functions for the rest of the process."""
    rebin = training.length_sorted_rebin

    def after_rebin(c, args, kwargs, result):
        lengths, batch_size = args[0], args[1]
        seed = kwargs.get("seed")
        # group_size 1 bins samples in arrival order (sorting inside a batch moves no padding).
        arrival, _ = rebin(lengths, batch_size, 1, seed=seed)
        c["training.padded_cells"] += training.padded_cells(result[0], lengths)
        c["training.arrival_cells"] += training.padded_cells(arrival, lengths)

    probes = [
        (pbf, "read_pbf", "pbf.read", _after_read_pbf),
        (ingest, "ingest_elements", "ingest.tile", _after_ingest),
        (ingest, "elements_to_entities", "ingest.entities", None),
        (ingest, "candidate_tiles", "ingest.clip", None),
        (ingest, "clip_to_tile", "ingest.clip", lambda c, a, k, r: c.update(("ingest.clip_attempts",))),
        (ingest, "filter_outliers", "ingest.filter", lambda c, a, k, r: c.update({"ingest.outliers_dropped": r[1]})),
        (ingest, "group_tiles", "ingest.split", None),
        (ingest, "split_groups", "ingest.split", None),
        (tef, "write_store", "tef.write", _after_write_store),
        (tef, "read_store", "tef.read", None),
        (tef, "read_store_index", "tef.read", None),
        (tef, "read_group_file", "tef.read", None),
        (tef, "tile_to_json", "tef.encode", None),
        (tef, "tile_from_json", "tef.decode", None),
        (process, "process_tile", "process.tile", None),
        (process, "process_entity", "process.tile", None),
        (process, "simplify_geometry", "process.simplify", _after_simplify),
        (process, "geometry_min_box", "process.minbox", _after_minbox),
        (process, "visibility_edges", "process.visibility", _after_visibility),
        (tasks, "load_task", "tasks.load", None),
        (tasks, "synthesize_task", "tasks.synthesize", _after_synthesize),
        (tasks, "apply_mask", "tasks.mask", None),
        (tasks, "write_labels", "tasks.write", None),
        (tokens, "load_embeddings", "tokens.load_embeddings", None),
        (tokens, "assemble_token_batch", "tokens.assemble", _after_assemble),
        (tokens, "entity_embed_mean", "tokens.embed", None),
        (tokens, "posenc_input", "tokens.posenc", None),
        (tokens, "image_patch_boxes", "tokens.posenc", None),
        (tokens, "dump_token_batch", "tokens.dump", lambda c, a, k, r: c.update({"tokens.gjtb_bytes": os.path.getsize(a[1])})),
        (tokens, "load_token_batch", "tokens.load", None),
        (masking, "plan_masks", "masking.plan", _after_plan),
        (masking, "random_mask", "masking.random", None),
        (masking, "area_mask", "masking.area", None),
        (masking, "modality_mask", "masking.modality", None),
        (masking, "enforce_min_context", "masking.min_context", _after_min_context),
        (masking, "compact", "masking.compact", None),
        (training, "length_sorted_rebin", "training.rebin", after_rebin),
        (training, "huber_masked", "training.huber", None),
        (training, "vicreg_var_cov", "training.vicreg", None),
    ]
    for module, attr, name, after in probes:
        _probe(rec, module, attr, name, after)

    def count_rng(rng):
        rec.counts["process.rng_derived"] += 1
        return _CountingRng(rng, rec.counts)

    _probe(rec, process, "rng_for", "process.rng", wrap_result=count_rng)
