"""Binary PGM (P5, maxval 255) reading and encoding, bit-exact round trip."""

from __future__ import annotations

import os
import re

import numpy as np

from .codec import _check_plane

__all__ = ["read_pgm", "encode_pgm"]

# Most bytes asked of the input at once; the header, comments included, must
# fit in the first read.
_READ_BYTES = 1 << 16

# Width, height and maxval are decimal digits after whitespace or comments; a
# comment runs from '#' to a line break, so every header has one parse.  A
# number of more than 20 digits is malformed: no plane is that large, and
# int() refuses text past 4300 digits with a message about the interpreter.
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d{1,20})" * 3 + rb"\s")


def read_pgm(path: str) -> np.ndarray:
    """Read a binary 8-bit PGM file into a (height, width) uint8 array.

    Reads the header from the first _READ_BYTES bytes and then the raster in
    pieces of at most _READ_BYTES plus one byte, so an endless, short or wrong
    input is never read whole and costs no more memory than it holds.
    """
    with open(path, "rb") as f:
        head = f.read(_READ_BYTES)
        # The magic is the first header token: whitespace, '#' or nothing follows it.
        if head[:2] != b"P5" or head[2:3] not in b" \t\n\r\v\f#":
            raise ValueError(f"not a binary PGM (P5) file: magic {head[:2]!r}")
        header = _HEADER.match(head)
        if header is None:
            raise ValueError("malformed or truncated PGM header")
        width, height, maxval = map(int, header.groups())
        offset = header.end()
        if maxval != 255:
            raise ValueError(f"unsupported maxval {maxval}; only 8-bit (255) PGM is handled")
        if width <= 0 or height <= 0:
            raise ValueError(f"bad dimensions {width}x{height}")
        size = width * height
        raster = bytearray(head[offset : offset + size])
        while len(raster) < size:
            chunk = f.read(min(size - len(raster), _READ_BYTES))
            if not chunk:
                raise ValueError("truncated PGM raster")
            raster += chunk
        if len(head) > offset + size or f.read(1):
            # A regular file's size gives the count; a stream has none.
            n = os.fstat(f.fileno()).st_size - offset - size
            raise ValueError(f"{n if n > 0 else 'some'} trailing bytes after the PGM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def encode_pgm(plane: np.ndarray) -> bytes:
    """Serialize a (height, width) uint8 array as binary PGM with maxval 255."""
    plane = _check_plane(plane)
    height, width = plane.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(plane).tobytes()
