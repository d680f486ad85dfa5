"""Seeded mutation fuzz of every reader.

Each format's file from a small pipeline run is truncated, bit-flipped and
spliced.  Whatever the bytes, a reader either returns or raises its module's
ValueError subclass with the file's path in the message; any other exception,
or a warning, fails the test.
"""

import gzip
import os
import random
import shutil
import struct
import warnings
import zlib
from importlib import resources

import pytest

from conftest import write_grid_pbf
from geotile import pbf, tasks, tef, tokens
from geotile.cli import main

MUTATIONS = 300  # per format
SEED = 20251019


def _truncate(rng: random.Random, data: bytes) -> bytes:
    return data[: rng.randrange(len(data))]


def _flip(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def _splice(rng: random.Random, data: bytes) -> bytes:
    """A random stretch of the file copied over or into another place."""
    start = rng.randrange(len(data))
    chunk = data[start : start + rng.randint(1, 64)]
    at = rng.randrange(len(data))
    end = at + len(chunk) if rng.random() < 0.5 else at
    return data[:at] + chunk + data[end:]


MUTATORS = (_truncate, _flip, _splice)


def _regzip(mutate):
    """Mutate a gzip file's text and compress it again, to reach the TEF parser."""

    def mutate_text(rng: random.Random, data: bytes) -> bytes:
        return gzip.compress(mutate(rng, gzip.decompress(data)), mtime=0)

    mutate_text.__name__ = f"{mutate.__name__}_text"
    return mutate_text


def _in_data_block(mutate):
    """Mutate a PBF's inflated OSMData block and store it as a raw blob, to reach the element parsers."""

    def mutate_block(rng: random.Random, data: bytes) -> bytes:
        # The header blob comes first, then the one zlib data blob write_pbf makes.
        (header_len,) = struct.unpack(">I", data[:4])
        header_blob_end = 4 + header_len + dict((f, v) for f, _, v, _ in pbf._fields(data[4 : 4 + header_len], 0))[3]
        (data_header_len,) = struct.unpack(">I", data[header_blob_end : header_blob_end + 4])
        blob = data[header_blob_end + 4 + data_header_len :]
        block = zlib.decompress(dict((f, v) for f, _, v, _ in pbf._fields(blob, 0))[3])
        raw_blob = pbf._ld(1, mutate(rng, block))
        header = pbf._ld(1, b"OSMData") + pbf._ev(3, len(raw_blob))
        return data[:header_blob_end] + struct.pack(">I", len(header)) + header + raw_blob

    mutate_block.__name__ = f"{mutate.__name__}_block"
    return mutate_block


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One file of each format, from a 2x2 grid pipeline."""
    root = tmp_path_factory.mktemp("fuzz")
    extract, raw, proc = root / "grid.pbf", str(root / "raw"), str(root / "proc")
    write_grid_pbf(extract, 18052, 25956, 2, 2)
    vectors = root / "vectors.txt"
    vectors.write_text("d=3\nbuilding=yes\t1.0 0.5 -2.0\nhighway=residential\t0.25 0.0 3.0\n")
    gjtb, out_dir = str(root / "batch.gjtb"), str(root / "tasks")
    for argv in (
        ["ingest", str(extract), raw],
        ["process", raw, proc],
        ["synth-task", proc, "--task", "buildings", "--out-dir", out_dir],
        ["encode", proc, "--embeddings", str(vectors), "--out", gjtb],
    ):
        assert main(argv) == 0
    (group,) = set(tef.read_store_index(proc).values())
    task_json = root / "task.json"
    task_json.write_bytes(resources.files("geotile").joinpath("taskconfigs/max_speed.json").read_bytes())
    return {
        "pbf": str(extract),
        "group": os.path.join(proc, group),
        "index": os.path.join(proc, tef.INDEX_NAME),
        "vectors": str(vectors),
        "labels": os.path.join(out_dir, "buildings_labels.csv"),
        "gjtb": gjtb,
        "task": str(task_json),
    }


def _read_through_index(path):
    """Read a group file as read_store does, held to the index beside it."""
    return tef.read_store(os.path.dirname(path))


# format -> (reader of a path, error type, mutators)
FORMATS = {
    "pbf": (pbf.read_pbf, pbf.PbfError, MUTATORS),
    "pbf-block": (pbf.read_pbf, pbf.PbfError, tuple(map(_in_data_block, MUTATORS))),
    "group": (_read_through_index, tef.TefError, MUTATORS),
    "tef-lines": (_read_through_index, tef.TefError, tuple(map(_regzip, MUTATORS))),
    "index": (lambda path: tef.read_store_index(os.path.dirname(path)), tef.TefError, MUTATORS),
    "vectors": (tokens.load_embeddings, tokens.TokenError, MUTATORS),
    "labels": (tasks.read_labels, tasks.TaskError, MUTATORS),
    "gjtb": (tokens.load_token_batch, tokens.TokenError, MUTATORS),
    "task": (tasks.load_task, tasks.TaskError, MUTATORS),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_mutated_input_fails_cleanly(files, tmp_path, fmt):
    reader, error, mutators = FORMATS[fmt]
    source = files[{"tef-lines": "group", "pbf-block": "pbf"}.get(fmt, fmt)]
    with open(source, "rb") as fh:
        original = fh.read()
    reader(source)  # the unmutated file reads
    # The mutant keeps its source's name: a group file's name is its tiles'
    # group, and an index is read from its store's directory.  A group file
    # is read beside an intact copy of its store's index.
    shutil.copy(files["index"], tmp_path)
    path = str(tmp_path / os.path.basename(source))
    rng = random.Random(f"{SEED}-{fmt}")
    failures = []
    for i in range(MUTATIONS):
        mutate = mutators[i % len(mutators)]
        data = mutate(rng, original)
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. numpy's RuntimeWarning on a cast of NaN
                reader(path)
        except error as exc:
            if path not in str(exc):
                failures.append(f"{mutate.__name__} #{i}: {type(exc).__name__} without the path: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
            failures.append(f"{mutate.__name__} #{i}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures[:10])
