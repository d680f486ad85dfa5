"""Synthetic per-tile prediction tasks over tagged entities.

A task is described by tag patterns (``key=value`` with ``*`` wildcards on
either side, never both), a label rule, and masking instructions that strip
the label evidence out of a copy of the corpus.  Five ready-made task
configurations ship with the package; custom ones load from JSON.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .model import Entity, Tile
from .seeds import rng_for

log = logging.getLogger(__name__)

BUNDLED_TASKS = ("bridge", "buildings", "car_bridge", "max_speed", "traffic_signals")

MPH_TO_KMH = 1.6  # deliberate round factor, not the exact 1.609

_VALUE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(mph)?\s*$", re.IGNORECASE)


@dataclass(frozen=True)
class TagPattern:
    """Matches one tag; '*' wildcards either the key or the value."""

    key: str
    value: str

    def __post_init__(self):
        if self.key == "*" and self.value == "*":
            raise ValueError("a pattern cannot wildcard both key and value")

    def matches(self, key: str, value: str) -> bool:
        return (self.key == "*" or self.key == key) and (self.value == "*" or self.value == value)

    @classmethod
    def parse(cls, text: str) -> "TagPattern":
        if "=" not in text:
            raise ValueError(f"pattern {text!r} must look like key=value")
        key, value = text.split("=", 1)
        return cls(key, value)

    def __str__(self) -> str:
        return f"{self.key}={self.value}"


@dataclass(frozen=True)
class MaskRule:
    action: str  # remove_tag | remove_feature_if | remove_point_features_matching
    pattern: TagPattern

    _ACTIONS = ("remove_tag", "remove_feature_if", "remove_point_features_matching")

    def __post_init__(self):
        if self.action not in self._ACTIONS:
            raise ValueError(f"unknown mask action {self.action!r}")


@dataclass(frozen=True)
class TaskSpec:
    name: str
    counted: tuple[TagPattern, ...]
    label_kind: str  # count | binary | max_value
    clamp_range: tuple[float, float]
    require_all: tuple[TagPattern, ...] = ()
    mask_rules: tuple[MaskRule, ...] = ()
    mask_counted: bool = True
    sentinel_value: float | None = None
    sentinel_when_no_match: TagPattern | None = None
    prune_when_unlabelled: bool = False
    rebalance_zero_keep: float | None = None

    def __post_init__(self):
        if self.label_kind not in ("count", "binary", "max_value"):
            raise ValueError(f"unknown label kind {self.label_kind!r}")
        lo, hi = self.clamp_range
        if not lo < hi:
            raise ValueError(f"clamp range must satisfy lo < hi, got {self.clamp_range}")
        if not self.counted:
            raise ValueError("a task needs at least one counted pattern")


def load_task(source: str) -> TaskSpec:
    """Load a task from a bundled name or a JSON file path."""
    if source in BUNDLED_TASKS:
        text = resources.files("geotile").joinpath(f"taskconfigs/{source}.json").read_text("utf-8")
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"{source}: a task must be a JSON object")
    missing = [key for key in ("name", "counted", "label", "clamp") if key not in obj]
    if missing:
        raise ValueError(f"{source}: task is missing required key(s) {', '.join(map(repr, missing))}")
    mask = obj.get("mask", {})
    sentinel = obj.get("sentinel", {})
    return TaskSpec(
        name=obj["name"],
        counted=tuple(TagPattern.parse(p) for p in obj["counted"]),
        require_all=tuple(TagPattern.parse(p) for p in obj.get("require_all", ())),
        label_kind=obj["label"],
        clamp_range=(float(obj["clamp"][0]), float(obj["clamp"][1])),
        mask_rules=tuple(
            MaskRule(r["action"], TagPattern.parse(r["pattern"])) for r in mask.get("rules", ())
        ),
        mask_counted=bool(mask.get("counted", True)),
        sentinel_value=float(sentinel["value"]) if "value" in sentinel else None,
        sentinel_when_no_match=(
            TagPattern.parse(sentinel["when_no_match"]) if "when_no_match" in sentinel else None
        ),
        prune_when_unlabelled=bool(obj.get("prune_when_unlabelled", False)),
        rebalance_zero_keep=(
            float(obj["rebalance"]["zero_keep"]) if "rebalance" in obj else None
        ),
    )


# ------------------------------------------------------------------ labels


def parse_numeric_value(text: str) -> float | None:
    """Parse a tag value as km/h; bare numbers pass through, mph scales by 1.6."""
    m = _VALUE_RE.match(text)
    if m is None:
        return None
    value = float(m.group(1))
    if m.group(2):
        value *= MPH_TO_KMH
    return value


def _entity_matches(entity: Entity, spec: TaskSpec) -> bool:
    if not any(p.matches(k, v) for k, v in entity.tags for p in spec.counted):
        return False
    for req in spec.require_all:
        if not any(req.matches(k, v) for k, v in entity.tags):
            return False
    return True


def _clamp(value: float, clamp_range: tuple[float, float]) -> float:
    return min(max(value, clamp_range[0]), clamp_range[1])


@dataclass
class LabelDiagnostics:
    unparseable_values: int = 0


def compute_label(
    tile: Tile, spec: TaskSpec, diagnostics: LabelDiagnostics | None = None
) -> float | None:
    """Label for one tile; None marks a tile the task cannot label (prune it).

    count/binary tally entities matching any counted pattern (and all
    require_all patterns).  max_value takes the maximum parsed value over
    counted tags, falling back to the sentinel when no entity matches the
    sentinel predicate at all.
    """
    if spec.label_kind in ("count", "binary"):
        n = sum(1 for e in tile.entities if _entity_matches(e, spec))
        label = float(n >= 1) if spec.label_kind == "binary" else float(n)
        return _clamp(label, spec.clamp_range)

    if spec.sentinel_when_no_match is not None:
        predicate_hit = any(
            spec.sentinel_when_no_match.matches(k, v) for e in tile.entities for k, v in e.tags
        )
        if not predicate_hit:
            if spec.sentinel_value is None:
                raise ValueError(f"task {spec.name}: sentinel predicate without sentinel value")
            return _clamp(spec.sentinel_value, spec.clamp_range)
    values = []
    for e in tile.entities:
        if not _entity_matches(e, spec):
            continue
        for k, v in e.tags:
            if any(p.matches(k, v) for p in spec.counted):
                parsed = parse_numeric_value(v)
                if parsed is None:
                    if diagnostics is not None:
                        diagnostics.unparseable_values += 1
                else:
                    values.append(parsed)
    if not values:
        return None
    return _clamp(max(values), spec.clamp_range)


# ----------------------------------------------------------------- masking


def mask_entity(entity: Entity, spec: TaskSpec) -> Entity | None:
    """Apply a task's masking to one entity; None removes it outright."""
    for rule in spec.mask_rules:
        hit = any(rule.pattern.matches(k, v) for k, v in entity.tags)
        if not hit:
            continue
        if rule.action == "remove_feature_if":
            return None
        if rule.action == "remove_point_features_matching" and entity.geometry.kind == "point":
            return None
    strip = list(spec.counted) if spec.mask_counted else []
    strip.extend(r.pattern for r in spec.mask_rules if r.action == "remove_tag")
    if not strip:
        return entity
    kept = tuple((k, v) for k, v in entity.tags if not any(p.matches(k, v) for p in strip))
    if entity.tags and not kept:
        # Every tag was evidence; the bare geometry would leak its absence.
        return None
    if kept == entity.tags:
        return entity
    return replace(entity, tags=kept)


def apply_mask(tile: Tile, spec: TaskSpec) -> Tile:
    """Strip label evidence from a tile (identity for tasks that mask nothing)."""
    out = []
    for e in tile.entities:
        masked = mask_entity(e, spec)
        if masked is not None:
            out.append(masked)
    return tile.with_entities(out)


# ---------------------------------------------------------------- pipeline


@dataclass
class TaskResult:
    spec: TaskSpec
    labels: dict[str, float] = field(default_factory=dict)  # tile id -> label
    pruned: int = 0
    rebalance_dropped: int = 0
    diagnostics: LabelDiagnostics = field(default_factory=LabelDiagnostics)


def synthesize_task(tiles: Sequence[Tile], spec: TaskSpec, seed: int = 0) -> TaskResult:
    """Compute labels, prune unlabelable tiles and rebalance zero labels.

    Rebalancing visits tiles in id order and keeps each zero-labelled tile
    with the configured probability, so results depend only on the seed and
    the tile ids.
    """
    result = TaskResult(spec=spec)
    labelled: list[tuple[str, float]] = []
    for tile in sorted(tiles, key=lambda t: t.id.key):
        label = compute_label(tile, spec, result.diagnostics)
        if label is None:
            if spec.prune_when_unlabelled:
                result.pruned += 1
                continue
            raise ValueError(f"task {spec.name}: tile {tile.id.key} has no label and pruning is off")
        labelled.append((tile.id.key, label))
    if spec.rebalance_zero_keep is not None:
        rng = rng_for(seed, "rebalance", spec.name)
        kept = []
        for tid, label in labelled:
            if label == 0.0 and rng.uniform() >= spec.rebalance_zero_keep:
                result.rebalance_dropped += 1
            else:
                kept.append((tid, label))
        labelled = kept
    result.labels = dict(labelled)
    return result


def write_labels(labels: dict[str, float], path: str) -> None:
    """CSV ``tile_id,label`` sorted by tile id string."""
    from .tef import atomic_write_bytes

    lines = ["tile_id,label"]
    lines.extend(f"{tid},{labels[tid]!r}" for tid in sorted(labels))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_labels(path: str) -> dict[str, float]:
    labels: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "tile_id,label":
            raise ValueError(f"{path}: expected 'tile_id,label' header, got {header!r}")
        for line in fh:
            if not line.strip():
                continue
            tid, value = line.rstrip("\n").split(",", 1)
            labels[tid] = float(value)
    return labels


# ----------------------------------------------------------- co-occurrence


def cooccurrence(tiles: Iterable[Tile], vocab: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tag co-occurrence counts over a fixed vocabulary.

    intra counts unordered tag pairs on the same entity, once per entity.
    inter counts unordered pairs carried by two distinct entities of the same
    tile, once per tile; its diagonal is the number of tiles where two
    different entities share the tag.
    """
    index = {tag: i for i, tag in enumerate(vocab)}
    v = len(index)
    intra = np.zeros((v, v), dtype=np.int64)
    inter = np.zeros((v, v), dtype=np.int64)
    for tile in tiles:
        per_entity: list[set[int]] = []
        carriers: dict[int, set[int]] = {}
        for pos, e in enumerate(tile.entities):
            present = {index[f"{k}={v_}"] for k, v_ in e.tags if f"{k}={v_}" in index}
            per_entity.append(present)
            for t in present:
                carriers.setdefault(t, set()).add(pos)
        for present in per_entity:
            tags = sorted(present)
            for a in range(len(tags)):
                for b in range(a + 1, len(tags)):
                    intra[tags[a], tags[b]] += 1
                    intra[tags[b], tags[a]] += 1
        tags = sorted(carriers)
        for a in range(len(tags)):
            for b in range(a, len(tags)):
                ta, tb = tags[a], tags[b]
                ea, eb = carriers[ta], carriers[tb]
                if ta == tb:
                    ok = len(ea) >= 2
                else:
                    ok = not (len(ea) == 1 and ea == eb)
                if ok:
                    inter[ta, tb] += 1
                    if ta != tb:
                        inter[tb, ta] += 1
    return intra, inter
