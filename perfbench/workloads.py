"""Seeded input generators for the benchmark workloads.

The same (workload, seed) pair always yields byte-identical files. The
program under test only ever sees the files written here.

Every workload writes the same file names and sizes whatever the seed, so
a directory can be regenerated in place: files are overwritten, never
deleted and created again. On a disk with online discard, deleting
thousands of small files slowed later file creation for minutes, and that
slowdown leaked from one benchmark invocation into the next.
"""

import functools
import json
import math
import os
import random
import shutil
import struct
from dataclasses import dataclass

# Baseline TIFF, little-endian, one uncompressed strip, greyscale.
_TIFF_ENTRIES = 9
_TIFF_DATA_OFFSET = 8 + 2 + 12 * _TIFF_ENTRIES + 4


def _short(value):
    return struct.pack("<HH", value, 0)


def _long(value):
    return struct.pack("<I", value)


def _tiff_bytes(width, height, bits, pixels):
    entries = [
        (256, 4, _long(width)),
        (257, 4, _long(height)),
        (258, 3, _short(bits)),
        (259, 3, _short(1)),  # no compression
        (262, 3, _short(1)),  # BlackIsZero
        (273, 4, _long(_TIFF_DATA_OFFSET)),
        (277, 3, _short(1)),
        (278, 4, _long(height)),
        (279, 4, _long(len(pixels))),
    ]
    ifd = struct.pack("<H", len(entries)) + b"".join(
        struct.pack("<HHI", tag, kind, 1) + value for tag, kind, value in entries
    ) + struct.pack("<I", 0)
    return b"II*\x00" + struct.pack("<I", 8) + ifd + pixels


@functools.cache
def _add_table(base, mask):
    """Byte translation table mapping b -> (base + (b & mask)) mod 256."""
    return bytes((base + (b & mask)) & 0xFF for b in range(256))


def _smooth_plane(rng, width, height, level, amplitude, noise_mask, segment=64):
    """One byte per pixel: a smooth seeded background plus uniform noise."""
    fx, fy = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    px, py = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
    noise = rng.randbytes(width * height)
    out = bytearray(width * height)
    for y in range(height):
        row_wave = math.cos(2 * math.pi * fy * y / height + py)
        for x0 in range(0, width, segment):
            wave = math.sin(2 * math.pi * fx * x0 / width + px) + row_wave
            base = int(level + amplitude * wave) & 0xFF
            start = y * width + x0
            out[start:start + segment] = noise[start:start + segment].translate(
                _add_table(base, noise_mask)
            )
    return bytes(out)


def _write(path, data):
    """Write data to path, overwriting in place (no truncate to zero)."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as handle:
        handle.write(data)
        handle.truncate()


def small_tiffs(rng, directory, count=400, side=64):
    """8-bit side x side TIFFs, 4 KiB of pixels each."""
    names = [f"img{index:04d}.tiff" for index in range(count)]
    for name in names:
        pixels = _smooth_plane(rng, side, side, 100, 40, 0x0F)
        _write(os.path.join(directory, name), _tiff_bytes(side, side, 8, pixels))
    return names


def large_tiffs(rng, directory, count=16, side=1024):
    """16-bit side x side TIFFs (2 MiB of pixels each): a smooth background
    in the high byte, six bits of noise in the low byte and one in the high
    byte, so deflate keeps about 0.7 of the bytes."""
    names = [f"scan{index:02d}.tiff" for index in range(count)]
    for name in names:
        high = _smooth_plane(rng, side, side, 40, 24, 0x01)
        pixels = bytearray(2 * side * side)
        pixels[0::2] = rng.randbytes(side * side).translate(_add_table(0, 0x3F))
        pixels[1::2] = high
        _write(os.path.join(directory, name), _tiff_bytes(side, side, 16, bytes(pixels)))
    return names


def zarr_trees(rng, directory, count=1000, chunks=3, chunk_bytes=256):
    """ZARR stores: .zattrs plus a few fixed-size chunks under 0/."""
    names = [f"vol{index:04d}.zarr" for index in range(count)]
    for index, name in enumerate(names):
        root = os.path.join(directory, name)
        os.makedirs(os.path.join(root, "0"), exist_ok=True)
        attrs = {"multiscales": [{"version": "0.4", "name": f"vol{index:04d}"}],
                 "seed_tag": f"{rng.getrandbits(32):08x}"}
        _write(os.path.join(root, ".zattrs"), json.dumps(attrs, sort_keys=True).encode())
        for chunk in range(chunks):
            _write(os.path.join(root, "0", str(chunk)), rng.randbytes(chunk_bytes))
    return names


@dataclass(frozen=True)
class Workload:
    name: str
    batch_size: int
    generate: object  # (rng, directory) -> names written at the top level


WORKLOADS = {
    w.name: w
    for w in (
        Workload("many-batches", 10, small_tiffs),
        Workload("large-payload", 8, large_tiffs),
        Workload("zarr-arrays", 250, zarr_trees),
    )
}


def generate_inputs(workload, seed, directory):
    """Write the workload's inputs for this seed into directory, over any
    earlier generation, and remove every other top-level entry."""
    os.makedirs(directory, exist_ok=True)
    names = WORKLOADS[workload].generate(random.Random(f"{workload}:{seed}"), directory)
    for stale in set(os.listdir(directory)) - set(names):
        path = os.path.join(directory, stale)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.unlink(path)
