"""Binary matrix container used for channel dumps and SDP regression capture.

Layout (documented for cross-tool use):
  bytes 0..5   magic b"CBMX1\\n"
  bytes 6..13  little-endian uint64 length of the JSON header in bytes
  header       UTF-8 JSON: {"arrays": [{"name", "dtype", "shape", "offset"}]}
               dtype is a numpy dtype string with explicit endianness
               (e.g. "<c16"), shape a list of ints, offset the byte offset of
               the C-order payload relative to the start of the data section
  data         raw array payloads back to back
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"CBMX1\n"


def save_matrices(path, arrays):
    """Write a dict of named numpy arrays to the container format."""
    entries = []
    payload = bytearray()
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        entries.append(
            {
                "name": str(name),
                "dtype": le.dtype.str,
                "shape": list(arr.shape),
                "offset": len(payload),
            }
        )
        payload.extend(le.tobytes(order="C"))
    header = json.dumps({"arrays": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def load_matrices(path):
    """Read a container written by save_matrices back into a dict."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a matrix container (bad magic {magic!r})")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        data = fh.read()
    out = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=start)
        out[entry["name"]] = arr.reshape(shape).copy()
    return out


def save_channel_set(path, chs):
    """Dump the five raw links of a ChannelSet."""
    save_matrices(
        path, {"u1": chs.u1, "u2": chs.u2, "d": chs.d, "g1": chs.g1, "g2": chs.g2}
    )


def load_channel_set(path):
    from .channels import ChannelSet

    mats = load_matrices(path)
    return ChannelSet.from_links(mats["u1"], mats["u2"], mats["d"], mats["g1"], mats["g2"])
