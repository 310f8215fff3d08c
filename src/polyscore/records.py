"""Binary records shared by the checkpoint and candidate-cache files.

A file is an 8-byte magic, a u32 format version, then its fields: little-endian
u32 or u8 integers, length-prefixed strings (a u32 byte count, then UTF-8
bytes) and raw little-endian float arrays sized by earlier fields. Truncation,
trailing bytes, a wrong magic or version and undecodable text raise ParseError
(an older version given a `rebuild` hint raises its OldFormatError subclass).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import OldFormatError, ParseError

_U32, _U32_PAIR, _U8 = struct.Struct("<I"), struct.Struct("<II"), struct.Struct("<B")


class RecordWriter:
    """One file's bytes, built field by field after its magic and version."""

    def __init__(self, magic: bytes, version: int):
        self.data = bytearray(magic) + _U32.pack(version)

    def u32(self, *values: int) -> None:
        self.data += struct.pack(f"<{len(values)}I", *values)

    def u8(self, value: int) -> None:
        self.data += _U8.pack(value)

    def text(self, s: str) -> None:
        b = s.encode()
        self.data += _U32.pack(len(b)) + b

    def u32_texts(self, tags, texts) -> None:
        """Entries of a u32 tag followed by a length-prefixed string."""
        for tag, s in zip(tags, texts):
            b = s.encode()
            self.data += _U32_PAIR.pack(tag, len(b)) + b

    def floats(self, arr: np.ndarray, dtype: str) -> None:
        self.data += np.ascontiguousarray(arr, dtype=dtype).tobytes()

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.data)


class RecordReader:
    """Bounds-checked reads of one file's fields in written order; each read
    unpacks at an offset and copies no more than the field it returns."""

    def __init__(self, path, magic: bytes, version: int, kind: str, rebuild: str = ""):
        with open(path, "rb") as f:
            self.raw = f.read()
        self.path, self.kind, self._off = path, kind, 0
        if self.raw[self._take(len(magic), "magic"):self._off] != magic:
            raise self.error(f"not a {kind} file (bad magic)")
        found = self.u32("version")
        if found < version and rebuild:
            raise OldFormatError(f"{path}: {kind} version {found} predates {version}; {rebuild}")
        if found != version:
            raise self.error(f"unsupported {kind} version {found}")

    def error(self, message: str) -> ParseError:
        return ParseError(f"{self.path}: {message}")

    def _take(self, n: int, what: str) -> int:
        """Claim the next n bytes; returns their offset, and self._off is their end."""
        off = self._off
        if off + n > len(self.raw):
            raise self.error(f"{self.kind} truncated while reading {what}")
        self._off = off + n
        return off

    def u32(self, what: str) -> int:
        return _U32.unpack_from(self.raw, self._take(4, what))[0]

    def u8(self, what: str) -> int:
        return _U8.unpack_from(self.raw, self._take(1, what))[0]

    def text(self, what: str) -> str:
        n = self.u32(what)
        try:
            return self.raw[self._take(n, what):self._off].decode()
        except UnicodeDecodeError as e:
            raise self.error(f"corrupt {self.kind} text in {what} ({e})") from e

    def u32_texts(self, count: int, what: str) -> tuple[list[int], list[str]]:
        """count entries of a u32 tag followed by a length-prefixed string."""
        raw, take, unpack = self.raw, self._take, _U32_PAIR.unpack_from
        tags, texts = [], []
        try:
            for _ in range(count):
                tag, n = unpack(raw, take(8, what))
                tags.append(tag)
                texts.append(raw[take(n, what):self._off].decode())
        except UnicodeDecodeError as e:
            raise self.error(f"corrupt {self.kind} text in {what} ({e})") from e
        return tags, texts

    def floats(self, count: int, dtype: str, what: str) -> np.ndarray:
        """A read-only view of the next count values; copy it to keep it."""
        off = self._take(np.dtype(dtype).itemsize * count, what)
        return np.frombuffer(self.raw, dtype=dtype, count=count, offset=off)

    def end(self) -> None:
        left = len(self.raw) - self._off
        if left:
            raise self.error(f"{left} trailing bytes after the last record")
