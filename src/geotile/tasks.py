"""Synthetic per-tile prediction tasks over tagged entities.

A task is described by tag patterns (``key=value`` with ``*`` wildcards on
either side, never both), a label rule, and masking instructions that strip
the label evidence out of a copy of the corpus.  Five ready-made task
configurations ship with the package; custom ones load from JSON.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Sequence

from .model import Entity, Tile
from .seeds import pcg_for

BUNDLED_TASKS = ("bridge", "buildings", "car_bridge", "max_speed", "traffic_signals")

MPH_TO_KMH = 1.6  # deliberate round factor, not the exact 1.609

_VALUE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(mph)?\s*$", re.IGNORECASE)


class TaskError(ValueError):
    """A malformed task JSON or value CSV."""


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
        # The name becomes part of output file names, so it must not leave the output directory.
        if "/" in self.name or "\\" in self.name or self.name in ("", ".", ".."):
            raise ValueError(f"task name {self.name!r} must be a plain file name part")
        if self.label_kind not in ("count", "binary", "max_value"):
            raise ValueError(f"unknown label kind {self.label_kind!r}")
        lo, hi = self.clamp_range
        if not lo < hi:
            raise ValueError(f"clamp range must satisfy lo < hi, got {self.clamp_range}")
        if not self.counted:
            raise ValueError("a task needs at least one counted pattern")
        if self.rebalance_zero_keep is not None and not 0.0 <= self.rebalance_zero_keep <= 1.0:
            raise ValueError(f"'zero_keep' must lie in [0, 1], got {self.rebalance_zero_keep}")
        if self.sentinel_when_no_match is not None and self.sentinel_value is None:
            raise ValueError("a sentinel with 'when_no_match' needs a 'value'")


_JSON_KINDS = {str: "a string", list: "a list", dict: "a JSON object", bool: "true or false", float: "a number"}


def _expect(value, kind: type, what: str):
    """value as the JSON kind asked for (float: any finite number, but not true/false); else ValueError."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}")
    # json.loads reads NaN, Infinity and 1e999 as floats; no task value means one.
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return float(value) if kind is float else value


def _optional(obj: dict, key: str, kind: type, default=None):
    return _expect(obj[key], kind, repr(key)) if key in obj else default


def _patterns(value, what: str) -> tuple[TagPattern, ...]:
    return tuple(TagPattern.parse(_expect(p, str, f"{what} entry")) for p in _expect(value, list, what))


def _task_from_json(obj) -> TaskSpec:
    _expect(obj, dict, "a task")
    missing = [key for key in ("name", "counted", "label", "clamp") if key not in obj]
    if missing:
        raise ValueError(f"task is missing required key(s) {', '.join(map(repr, missing))}")
    clamp = _expect(obj["clamp"], list, "'clamp'")
    if len(clamp) != 2:
        raise ValueError("'clamp' must hold two numbers")
    mask = _optional(obj, "mask", dict, {})
    rules = []
    for r in _optional(mask, "rules", list, []):
        if "action" not in _expect(r, dict, "a mask rule") or "pattern" not in r:
            raise ValueError("a mask rule needs 'action' and 'pattern'")
        pattern = TagPattern.parse(_expect(r["pattern"], str, "'pattern'"))
        rules.append(MaskRule(_expect(r["action"], str, "'action'"), pattern))
    sentinel = _optional(obj, "sentinel", dict, {})
    when_no_match = _optional(sentinel, "when_no_match", str)
    rebalance = _optional(obj, "rebalance", dict)
    if rebalance is not None and "zero_keep" not in rebalance:
        raise ValueError("'rebalance' needs 'zero_keep'")
    return TaskSpec(
        name=_expect(obj["name"], str, "'name'"),
        counted=_patterns(obj["counted"], "'counted'"),
        require_all=_patterns(obj.get("require_all", []), "'require_all'"),
        label_kind=_expect(obj["label"], str, "'label'"),
        clamp_range=(_expect(clamp[0], float, "'clamp'"), _expect(clamp[1], float, "'clamp'")),
        mask_rules=tuple(rules),
        mask_counted=_optional(mask, "counted", bool, True),
        sentinel_value=_optional(sentinel, "value", float),
        sentinel_when_no_match=None if when_no_match is None else TagPattern.parse(when_no_match),
        prune_when_unlabelled=_optional(obj, "prune_when_unlabelled", bool, False),
        rebalance_zero_keep=None if rebalance is None else _expect(rebalance["zero_keep"], float, "'zero_keep'"),
    )


def load_task(source: str) -> TaskSpec:
    """Load a task from a bundled name or a JSON file path.

    Every way the JSON can fail, a value of the wrong kind included, raises
    TaskError starting with the source.
    """
    if source in BUNDLED_TASKS:
        raw = resources.files("geotile").joinpath(f"taskconfigs/{source}.json").read_bytes()
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
    try:
        return _task_from_json(json.loads(raw.decode("utf-8")))
    except (ValueError, OverflowError) as exc:  # float() overflows on a huge JSON integer
        raise TaskError(f"{source}: {exc}") from None


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
        rng = pcg_for(seed, "rebalance", spec.name)
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


def read_value_csv(path: str, header: str) -> dict[tuple[str, ...], float]:
    """Map each line's leading columns, a unique key, to its last column as a float.

    A bad header, short line, non-number, NaN or infinite value, repeated key
    or bytes that are not UTF-8 raise TaskError at ``path:line``.
    """
    from .tef import utf8_lines

    names = header.split(",")
    out: dict[tuple[str, ...], float] = {}
    with open(path, "rb") as fh:
        lines = utf8_lines(fh, path, TaskError)
        got = next(lines, "").strip()
        if got != header:
            raise TaskError(f"{path}:1: expected {header!r} header, got {got!r}")
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            *key, value = fields = line.rstrip("\n").split(",", len(names) - 1)
            if len(fields) != len(names):
                raise TaskError(f"{path}:{lineno}: expected {header!r} fields, got {line.strip()!r}")
            try:
                number = float(value)
            except ValueError:
                raise TaskError(f"{path}:{lineno}: {names[-1]} {value!r} is not a number") from None
            if not math.isfinite(number):
                raise TaskError(f"{path}:{lineno}: {names[-1]} {value!r} is not finite")
            key = tuple(key)
            if key in out:
                raise TaskError(f"{path}:{lineno}: duplicate {','.join(names[:-1])} {','.join(key)!r}")
            out[key] = number
    return out


def read_labels(path: str, value_name: str = "label") -> dict[str, float]:
    """Read a ``tile_id,<value_name>`` CSV such as write_labels makes."""
    return {tid: value for (tid,), value in read_value_csv(path, f"tile_id,{value_name}").items()}
