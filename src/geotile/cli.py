"""Command-line surface wiring the pipeline stages together.

Every command is deterministic given its flags: one global --seed feeds
per-stage derived seeds, and all diagnostics go to stderr.  Each output file
is written to a temp file, then renamed, so an interrupted run leaves no
partial files.  A command reads all of its input before tef.replace_store
replaces a store, so one that fails while reading, even `process S S`,
changes nothing on disk.
Set GEOTILE_LOG=debug|info|warning to adjust verbosity; at info, every
command logs its name, exit code and wall time.

Each command imports the modules it runs inside its own body, so a stage
loads only what it uses: ingest and synth-task run without numpy, and
synth-task without the geometry, token, masking and training modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import time
from collections import Counter
from typing import TYPE_CHECKING

from . import geo, ingest, tef
from .model import tag_key
from .seeds import derive_seed

if TYPE_CHECKING:
    from .tokens import TokenBatch

# Named, not __name__: under `python -m geotile.cli` that would be __main__.
log = logging.getLogger("geotile.cli")


def _stage_seed(seed: int, stage: str) -> int:
    return derive_seed(seed, "stage", stage)


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


# ------------------------------------------------------------------ stages


def cmd_ingest(args) -> int:
    from . import pbf

    data = pbf.read_pbf(args.pbf)
    tiles, stats = ingest.ingest_elements(data, zoom=args.zoom)
    tef.write_store(tiles, args.store)
    for line in stats.lines():
        _print(line)
    return 0


def _process_group(store: str, eps_m: float, seed: int, lo: int, hi: int, name: str, keys: set[str]):
    """Read, process and filter one group file; returns its encoded group (None if no tile is kept) and drop count."""
    # Imported here as well as in cmd_process: pool workers call this directly.
    from . import process

    worked = [
        process.process_tile(t, eps_m=eps_m, seed=seed)
        for t in tef.read_group_file(os.path.join(store, name), keys)
    ]
    kept, dropped = ingest.filter_outliers(worked, lo, hi)
    return (tef.encode_group(kept) if kept else None), dropped


def cmd_process(args) -> int:
    from . import process

    seed = _stage_seed(args.seed, "process")
    eps_m = process.DEFAULT_EPS_M if args.eps_m is None else args.eps_m
    if math.isnan(eps_m):
        raise ValueError(f"--eps-m must be a number, got {eps_m}")
    groups = tef.store_groups(args.store)
    job = functools.partial(_process_group, args.store, eps_m, seed, args.min_entities, args.max_entities)
    if args.jobs <= 1 or len(groups) <= 1:
        results = list(map(job, groups, groups.values()))
    else:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(job, groups, groups.values()))
    index = tef.replace_store([encoded for encoded, _ in results if encoded], args.out)
    _print(f"processed tiles  {len(index)}")
    _print(f"outliers dropped {sum(dropped for _, dropped in results)}")
    return 0


def cmd_synth_task(args) -> int:
    from . import tasks

    spec = tasks.load_task(args.task)
    seed = _stage_seed(args.seed, "synth-task")
    tiles = tef.read_store(args.store)
    result = tasks.synthesize_task(tiles, spec, seed=seed)
    labelled = [t for t in tiles if t.id.key in result.labels]
    groups = ingest.group_tiles([t.id for t in labelled])
    splits = ingest.split_groups(groups, args.split_ratios, seed)
    os.makedirs(args.out_dir, exist_ok=True)
    labels_path = os.path.join(args.out_dir, f"{spec.name}_labels.csv")
    tasks.write_labels(result.labels, labels_path)
    tef.write_store([tasks.apply_mask(t, spec) for t in labelled], os.path.join(args.out_dir, f"{spec.name}.masked"))
    splits_path = os.path.join(args.out_dir, f"{spec.name}_splits.json")
    payload = {
        name: sorted(tef.group_file_name(g).removesuffix(".tefgz") for g in members)
        for name, members in splits.items()
    }
    tef.atomic_write_bytes(splits_path, json.dumps(payload, indent=1, sort_keys=True).encode())
    _print(f"task              {spec.name}")
    _print(f"labelled tiles    {len(result.labels)}")
    _print(f"pruned            {result.pruned}")
    _print(f"rebalance dropped {result.rebalance_dropped}")
    _print(f"unparseable values {result.diagnostics.unparseable_values}")
    counts = Counter(tag_key(k, v) for t in labelled for e in t.entities for k, v in e.tags)
    _print("top tags:")
    for tag, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]:
        _print(f"  {tag}  {n}")
    return 0


def cmd_encode(args) -> int:
    from . import tokens

    table = tokens.load_embeddings(args.embeddings)
    tiles = [t for t in tef.read_store(args.store) if t.entities]
    if not tiles:
        raise ValueError(f"store {args.store} holds no non-empty tiles")
    diag = tokens.EmbedDiagnostics()
    batch = tokens.assemble_token_batch(tiles, table, include_image=args.include_image, diagnostics=diag)
    tokens.dump_token_batch(batch, args.out)
    tef.atomic_write_bytes(args.out + ".ids", ("\n".join(batch.ids) + "\n").encode("utf-8"))
    _print(f"samples  {batch.size}")
    _print(f"max_len  {batch.max_len}")
    _print(f"dim      {batch.dim}")
    if diag.entities_without_vectors:
        log.warning("%d entities had no embedding-table hits", diag.entities_without_vectors)
    return 0


def _load_batch_with_ids(path: str) -> TokenBatch:
    """The batch with its tile ids from the `.ids` sidecar; without one, ids stay 0..n-1."""
    from . import tokens

    batch = tokens.load_token_batch(path)
    sidecar = path + ".ids"
    try:
        with open(sidecar, "rb") as fh:
            ids = tuple(line.strip() for line in tef.utf8_lines(fh, sidecar, tokens.TokenError) if line.strip())
    except FileNotFoundError:
        return batch
    if len(ids) != batch.size:
        raise tokens.TokenError(f"{sidecar}: {len(ids)} ids for a batch of {batch.size} samples")
    batch.ids = ids
    return batch


def cmd_mask_plan(args) -> int:
    import numpy as np

    from . import masking

    batch = _load_batch_with_ids(args.batch)
    seed = _stage_seed(args.seed, "mask-plan")
    cfg = masking.MaskConfig(seed=seed)
    if args.stats:
        for name in masking.STRATEGIES:
            plan = masking.build_plan(batch, cfg, name)
            fracs = [s.context_fraction() for s in plan.samples]
            _print(f"strategy {name}: mean context fraction {np.mean(fracs):.4f}, fallbacks {plan.fallbacks}")
            for lo, hi, count in masking.context_fraction_histogram(plan):
                _print(f"  [{lo:.1f},{hi:.1f})  {count}")
        return 0
    plan = masking.plan_masks(batch, cfg, batch_index=args.batch_index)
    sys.stdout.write(masking.plan_to_json_lines(plan))
    log.info("strategy %s, %d samples, %d fallbacks", plan.strategy, len(plan.samples), plan.fallbacks)
    return 0


def cmd_loss_check(args) -> int:
    from . import tokens, training

    pred = tokens.load_token_batch(args.pred)
    target = tokens.load_token_batch(args.target)
    if pred.payload.shape != target.payload.shape:
        raise ValueError("prediction and target dumps have different shapes")
    valid = pred.valid_mask()
    beta = training.HUBER_BETA if args.beta is None else args.beta
    vicreg_beta = training.VICREG_BETA if args.vicreg_beta is None else args.vicreg_beta
    huber = training.huber_masked(pred.payload, target.payload, valid, beta=beta, per_token=args.per_token)
    var, cov = training.vicreg_var_cov(pred.payload, valid)
    total = training.total_loss(huber, var, cov, vicreg_beta)
    _print(f"huber      {huber!r}")
    _print(f"variance   {var!r}")
    _print(f"covariance {cov!r}")
    _print(f"total      {total!r}")
    return 0


def cmd_eval(args) -> int:
    from . import evaluation, tasks

    if args.scoreboard:
        board: dict[str, dict[str, float]] = {}
        for (model, task), value in tasks.read_value_csv(args.scoreboard, "model,task,mae").items():
            board.setdefault(model, {})[task] = value
        sb = evaluation.score_models(board)
        sys.stdout.write(evaluation.score_table(sb))
        if args.out:
            lines = ["model," + ",".join(sb.tasks) + ",score"]
            for m in sorted(sb.scores):
                cells = ",".join(repr(sb.ratios[m][t]) for t in sb.tasks)
                lines.append(f"{m},{cells},{sb.scores[m]!r}")
            tef.atomic_write_bytes(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
        return 0
    if not args.pred or not args.labels:
        raise ValueError("eval needs either --scoreboard or both --pred and --labels")
    preds = tasks.read_labels(args.pred, "prediction")
    labels = tasks.read_labels(args.labels)
    shared = sorted(set(preds) & set(labels))
    if not shared:
        raise ValueError("predictions and labels share no tile ids")
    missing = len(preds) - len(shared)
    if missing:
        log.warning("%d predictions had no matching label", missing)
    p = [preds[t] for t in shared]
    y = [labels[t] for t in shared]
    if args.clamp:
        p = list(evaluation.clamp_predictions(p, (args.clamp[0], args.clamp[1])))
    _print(f"tiles {len(shared)}")
    _print(f"mae   {evaluation.mae(p, y)!r}")
    _print(f"mse   {evaluation.mse(p, y)!r}")
    return 0


def cmd_knn(args) -> int:
    import numpy as np

    from . import evaluation, tokens

    k = evaluation.KNN_DEFAULT_K if args.k is None else args.k
    table = tokens.load_embeddings(args.vectors)
    if args.query_id not in table.vectors:
        raise ValueError(f"query id {args.query_id!r} not in {args.vectors}")
    ids = sorted(table.vectors)
    corpus = np.stack([table.vectors[i] for i in ids])
    neighbors = evaluation.knn(
        table.vectors[args.query_id], corpus, k=k, metric=args.metric,
        ids=ids, query_id=args.query_id,
    )
    _print(json.dumps(
        {
            "query": args.query_id,
            "metric": args.metric,
            "k": k,
            "neighbors": [{"id": i, "distance": d} for i, d in neighbors],
        },
        separators=(",", ":"),
    ))
    return 0


# schedule's flags, each with the ScheduleConfig field it sets.
_SCHEDULE_FLAGS = (
    ("--lr-base", "lr_base"),
    ("--lr-end", "lr_end"),
    ("--wd-init", "weight_decay_init"),
    ("--wd-end", "weight_decay_end"),
    ("--momentum-init", "momentum_init"),
    ("--momentum-end", "momentum_end"),
)


def cmd_schedule(args) -> int:
    from . import training

    # An unset flag leaves the field's default.
    given = {field: getattr(args, field) for _, field in _SCHEDULE_FLAGS}
    cfg = training.ScheduleConfig(
        total_steps=args.total_steps, **{field: v for field, v in given.items() if v is not None}
    )
    if args.dump:
        tef.atomic_write_bytes(args.dump, training.schedule_table(cfg).encode("utf-8"))
    warmup = round(cfg.lr_warmup_frac * cfg.total_steps)
    _print(f"lr        {training.lr_at(0, cfg)!r} -> {training.lr_at(warmup, cfg)!r} (step {warmup}) -> {training.lr_at(cfg.total_steps, cfg)!r}")
    _print(f"momentum  {training.momentum_at(0, cfg)!r} -> {training.momentum_at(cfg.total_steps, cfg)!r}")
    _print(f"wd        {training.wd_at(0, cfg)!r} -> {training.wd_at(cfg.total_steps, cfg)!r}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geotile", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="global seed; stages derive their own")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a PBF extract into a tile store")
    p.add_argument("pbf")
    p.add_argument("store")
    p.add_argument("--zoom", type=int, default=geo.DEFAULT_ZOOM, help="tile zoom level (default: geo.DEFAULT_ZOOM)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("process", help="simplify, attach min-boxes and visibility graphs, filter outliers")
    p.add_argument("store")
    p.add_argument("out")
    p.add_argument("--eps-m", type=float, help="simplification tolerance in metres (default: process.DEFAULT_EPS_M)")
    p.add_argument("--min-entities", type=int, default=ingest.MIN_TILE_ENTITIES)
    p.add_argument("--max-entities", type=int, default=ingest.MAX_TILE_ENTITIES)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("synth-task", help="labels, masked store, and splits for one task")
    p.add_argument("store")
    p.add_argument("--task", required=True, help="bundled task name or config JSON path")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--split-ratios", type=float, nargs=3, default=[0.8, 0.1, 0.1], metavar=("TRAIN", "VAL", "TEST"))
    p.set_defaults(func=cmd_synth_task)

    p = sub.add_parser("encode", help="build a token-batch dump from a processed store")
    p.add_argument("store")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--include-image", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("mask-plan", help="emit context/target plans for a token batch")
    p.add_argument("batch")
    p.add_argument("--batch-index", type=int, default=0)
    p.add_argument("--stats", action="store_true", help="print per-strategy context-fraction histograms")
    p.set_defaults(func=cmd_mask_plan)

    p = sub.add_parser("loss-check", help="loss kernels over two token-batch dumps")
    p.add_argument("pred")
    p.add_argument("target")
    p.add_argument("--beta", type=float, help="Huber transition point (default: training.HUBER_BETA)")
    p.add_argument("--vicreg-beta", type=float, help="VICReg term weight (default: training.VICREG_BETA)")
    p.add_argument("--per-token", action="store_true")
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("eval", help="MAE/MSE of predictions, or a harmonic-mean scoreboard")
    p.add_argument("--pred")
    p.add_argument("--labels")
    p.add_argument("--clamp", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--scoreboard", help="CSV model,task,mae; overrides --pred/--labels")
    p.add_argument("--out", help="scoreboard ratio CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("knn", help="exact nearest neighbours in a vector table")
    p.add_argument("--vectors", required=True)
    p.add_argument("--query-id", required=True)
    p.add_argument("--k", type=int, help="neighbours to return (default: evaluation.KNN_DEFAULT_K)")
    p.add_argument("--metric", choices=("l2", "cosine"), default="l2")
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("schedule", help="inspect or dump the training schedules")
    p.add_argument("--total-steps", type=int, required=True)
    p.add_argument("--dump", help="write step,lr,wd,momentum CSV here")
    for flag, field in _SCHEDULE_FLAGS:
        p.add_argument(flag, dest=field, type=float, help=f"(default: training.ScheduleConfig.{field})")
    p.set_defaults(func=cmd_schedule)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("GEOTILE_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"geotile: {exc}\n")
        code = 1
    log.info("%s exited %d after %.3f s", args.command, code, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
