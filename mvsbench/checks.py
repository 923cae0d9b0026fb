"""Output checks that do not go through the package: hashes, and readers
for the files the CLI writes (PFM, binary PLY, JSON) that find non-finite
values."""

import hashlib
import json
from pathlib import Path

import numpy as np


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hashes(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its path relative to root."""
    return {
        path.relative_to(root).as_posix(): sha256(path)
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _header_lines(data: bytes, count: int) -> tuple[list[str], int]:
    lines, pos = [], 0
    for _ in range(count):
        end = data.index(b"\n", pos)
        lines.append(data[pos:end].decode("latin-1").strip())
        pos = end + 1
    return lines, pos


def read_pfm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    (magic, dims, scale), pos = _header_lines(data, 3)
    if magic != "Pf":
        raise ValueError(f"{path.name}: not a single-channel PFM")
    width, height = (int(x) for x in dims.split())
    dtype = "<f4" if float(scale) < 0 else ">f4"
    return np.frombuffer(data, dtype=dtype, count=width * height, offset=pos).reshape(height, width)


def read_ply(path: Path) -> np.ndarray:
    """xyz of a binary little-endian PLY with float x, y, z only."""
    data = path.read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("latin-1").splitlines()
    if "format binary_little_endian 1.0" not in header:
        raise ValueError(f"{path.name}: not a binary little-endian PLY")
    if [ln for ln in header if ln.startswith("property")] != [
        "property float x", "property float y", "property float z"
    ]:
        raise ValueError(f"{path.name}: unexpected PLY properties")
    count = int(next(ln for ln in header if ln.startswith("element vertex")).split()[2])
    return np.frombuffer(data, dtype="<f4", count=3 * count, offset=end).reshape(count, 3)


class NonFinite(ValueError):
    pass


def _reject_constant(name):
    raise NonFinite(f"non-finite JSON value {name}")


def read_json(path: Path):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def nonfinite(path: Path) -> bool:
    """True when an output file holds a NaN or an infinity."""
    if path.suffix == ".pfm":
        return not np.isfinite(read_pfm(path)).all()
    if path.suffix == ".ply":
        return not np.isfinite(read_ply(path)).all()
    if path.suffix == ".json":
        try:
            read_json(path)
        except NonFinite:
            return True
        return False
    raise ValueError(f"no finiteness check for {path.name}")
