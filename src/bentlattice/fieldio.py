"""Binary field dumps and the fixed CSV dialect.

This module is the only code that knows the dialect.  CSV files are
comma-separated with a header row, LF endings, '.' decimals and
17-significant-digit floats, which round-trips float64 exactly.  Tables
arrive as 2-D float arrays, or as rows where a table is ragged or holds
text.  The binary dump is little-endian with a version byte:

    magic      4 bytes  b"WFD1"
    version    u8       1
    ncomp      u8       number of field components
    reserved   u16      0
    npoints    u32      samples per component
    x_min      f64      grid start (um for transverse fields, xi for spinors)
    x_max      f64      grid end (exclusive, x_min + n*dx)
    z          f64      longitudinal position (cm)
    data       ncomp * npoints * (re f64, im f64), component-major
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ShapeError

MAGIC = b"WFD1"
VERSION = 1
_HEADER = struct.Struct("<4sBBHI3d")
_FLOAT = "%.17g"
# rows formatted per expression: a 25,856-row table at once cost 8 MB of
# peak memory, and repeated fig5b runs in one process peaked 1 MB higher
# with 2048-row blocks than with 512
_CHUNK_ROWS = 512


def format_float(x) -> str:
    return _FLOAT % float(x)


def write_csv(path, header, rows):
    """Write a table in the fixed dialect: a 2-D float array, formatted in
    blocks of rows, or rows that may be ragged and hold text cells."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join([_FLOAT] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), _CHUNK_ROWS):
                chunk = rows[start:start + _CHUNK_ROWS]
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
            return
        for row in rows:
            fh.write(",".join(
                item if isinstance(item, str) else format_float(item)
                for item in row) + "\n")


def read_csv(path):
    """Read a dialect CSV back into (header, list-of-rows of floats/strings)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = []
        for line in fh:
            items = line.rstrip("\n").split(",")
            parsed = []
            for item in items:
                try:
                    parsed.append(float(item))
                except ValueError:
                    parsed.append(item)
            rows.append(parsed)
    return header, rows


def write_field_dump(path, components, x_min: float, x_max: float, z: float):
    """Dump one or more complex field components sharing a grid."""
    comps = [np.asarray(c, dtype=complex) for c in components]
    if not comps or any(c.ndim != 1 for c in comps):
        raise ShapeError("components must be 1-d complex arrays")
    n = comps[0].shape[0]
    if any(c.shape[0] != n for c in comps):
        raise ShapeError("components must share one grid length")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(comps), 0, n,
                              float(x_min), float(x_max), float(z)))
        for c in comps:
            interleaved = np.empty(2 * n, dtype="<f8")
            interleaved[0::2] = c.real
            interleaved[1::2] = c.imag
            fh.write(interleaved.tobytes())


def read_field_dump(path):
    """Read a dump back as (components, meta dict); a file whose length is
    not what its header gives is a ShapeError."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ShapeError("field dump cut inside its header")
        magic, version, ncomp, _, n, x_min, x_max, z = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ShapeError("not a field dump (bad magic)")
        if version != VERSION:
            raise ShapeError(f"unsupported dump version {version}")
        data = fh.read()
    if len(data) != 16 * n * ncomp:
        raise ShapeError(f"field dump holds {len(data)} data bytes; its "
                         f"header gives {16 * n * ncomp}")
    # (re, im) pairs are the bytes of little-endian complex128, read bit
    # for bit: no arithmetic touches NaN payloads or signed zeros
    comps = list(np.frombuffer(data, dtype="<c16").astype(complex)
                 .reshape(ncomp, n))
    return comps, {"x_min": x_min, "x_max": x_max, "z": z, "n": n}
