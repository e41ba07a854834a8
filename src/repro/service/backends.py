"""Pluggable object-storage backends for the result store.

The :class:`~repro.service.store.ResultStore` owns everything the
*analysis* cares about — content-addressed keys, canonical encoding,
corrupt-payload dropping, traffic counters — and delegates raw object
IO (opaque ``bytes`` under a hex key) to a :class:`StoreBackend`.
Two backends conform to the protocol:

* :class:`FileBackend` — the original on-disk layout
  (``<root>/objects/<k[:2]>/<k>.json``, atomic temp-file + rename
  writes), byte- and key-compatible with every pre-backend store;
* :class:`MemoryBackend` — a size-bounded in-process LRU, for daemons
  and tests that want warm objects without touching disk.

Backends are selected with URL-style configuration
(:func:`open_backend`)::

    file:/var/cache/repro-pta          on-disk store (also: bare paths)
    memory://                          unbounded in-memory store
    memory://?max_bytes=67108864       64 MiB LRU

A bare filesystem path (no scheme) means ``file:`` — which is what
keeps ``--store DIR`` and the ``REPRO_PTA_STORE`` environment variable
backward compatible.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Protocol, runtime_checkable
from urllib.parse import parse_qsl


class BackendError(ValueError):
    """A malformed backend URL or unusable backend configuration."""


@runtime_checkable
class StoreBackend(Protocol):
    """Raw object storage under hex keys.

    Values are opaque bytes; keys are content addresses computed by the
    store.  ``put`` must be atomic with respect to concurrent writers
    of the same key (readers see either the old or the new complete
    value, never a torn one) when :attr:`process_shared` is true.
    """

    #: URL that reopens this backend (workers in other processes use it).
    url: str
    #: True when independent processes opening :attr:`url` see one
    #: shared object space (file); false for per-process backends
    #: (memory), which parallel drivers must not fan out over.
    process_shared: bool

    def has(self, key: str) -> bool: ...

    def get(self, key: str) -> bytes | None: ...

    def put(self, key: str, data: bytes) -> None: ...

    def delete(self, key: str) -> bool: ...

    def keys(self, prefix: str = "") -> list[str]:
        """Sorted keys, optionally restricted to a key-space prefix
        (e.g. ``"fn-"`` for per-function summary records)."""
        ...

    def clear(self) -> int: ...

    def entries(self) -> list[tuple[str, int, float]]:
        """``(key, size_bytes, mtime)`` rows, unordered."""
        ...

    def stats(self) -> dict:
        """Storage-level facts: at least ``backend``, ``url``,
        ``objects``, ``bytes``."""
        ...


def _base_stats(backend: "StoreBackend") -> dict:
    entries = backend.entries()
    return {
        "backend": type(backend).__name__.removesuffix("Backend").lower(),
        "url": backend.url,
        "objects": len(entries),
        "bytes": sum(size for _, size, _ in entries),
    }


# ---------------------------------------------------------------------------
# Filesystem
# ---------------------------------------------------------------------------


class FileBackend:
    """The original on-disk layout: ``<root>/objects/<k[:2]>/<k>.json``.

    Writes are atomic (temp file + ``os.replace``), so concurrent
    writer processes racing on one key at worst duplicate work, never
    corrupt it.  Layout and bytes are identical to the pre-backend
    :class:`~repro.service.store.ResultStore`, so existing caches stay
    valid.
    """

    process_shared = True

    def __init__(self, root: Path | str):
        self.root = Path(root)

    @property
    def url(self) -> str:
        return f"file:{self.root}"

    def path_for(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str) -> bytes | None:
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, data: bytes) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def keys(self, prefix: str = "") -> list[str]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(
            p.stem
            for p in objects.glob("*/*.json")
            if p.stem.startswith(prefix)
        )

    def clear(self) -> int:
        return sum(1 for key in self.keys() if self.delete(key))

    def entries(self) -> list[tuple[str, int, float]]:
        rows = []
        objects = self.root / "objects"
        if not objects.is_dir():
            return rows
        for path in objects.glob("*/*.json"):
            try:
                info = path.stat()
            except OSError:
                continue
            rows.append((path.stem, info.st_size, info.st_mtime))
        return rows

    def stats(self) -> dict:
        return _base_stats(self)


# ---------------------------------------------------------------------------
# In-memory LRU
# ---------------------------------------------------------------------------


class MemoryBackend:
    """A thread-safe, size-bounded in-process LRU of raw objects.

    ``max_bytes`` / ``max_objects`` bound the cache (``None`` means
    unbounded); inserting past a bound evicts least-recently-used
    entries until it fits again.  One object larger than ``max_bytes``
    is refused outright (the cache stays within its bound rather than
    holding a single oversized entry).
    """

    process_shared = False

    def __init__(
        self,
        max_bytes: int | None = None,
        max_objects: int | None = None,
    ):
        self.max_bytes = max_bytes
        self.max_objects = max_objects
        self._objects: OrderedDict[str, tuple[bytes, float]] = OrderedDict()
        self._bytes = 0
        self.evictions = 0
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        params = []
        if self.max_bytes is not None:
            params.append(f"max_bytes={self.max_bytes}")
        if self.max_objects is not None:
            params.append(f"max_objects={self.max_objects}")
        return "memory://" + ("?" + "&".join(params) if params else "")

    def has(self, key: str) -> bool:
        with self._lock:
            return key in self._objects

    def get(self, key: str) -> bytes | None:
        with self._lock:
            entry = self._objects.get(key)
            if entry is None:
                return None
            self._objects.move_to_end(key)
            return entry[0]

    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            old = self._objects.pop(key, None)
            if old is not None:
                self._bytes -= len(old[0])
            if self.max_bytes is not None and len(data) > self.max_bytes:
                return  # would evict everything and still not fit
            self._objects[key] = (data, time.time())
            self._bytes += len(data)
            self._evict()

    def _evict(self) -> None:
        while (
            self.max_objects is not None
            and len(self._objects) > self.max_objects
        ) or (self.max_bytes is not None and self._bytes > self.max_bytes):
            _, (dropped, _) = self._objects.popitem(last=False)
            self._bytes -= len(dropped)
            self.evictions += 1

    def delete(self, key: str) -> bool:
        with self._lock:
            entry = self._objects.pop(key, None)
            if entry is None:
                return False
            self._bytes -= len(entry[0])
            return True

    def keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(
                key for key in self._objects if key.startswith(prefix)
            )

    def clear(self) -> int:
        with self._lock:
            removed = len(self._objects)
            self._objects.clear()
            self._bytes = 0
            return removed

    def entries(self) -> list[tuple[str, int, float]]:
        with self._lock:
            return [
                (key, len(data), mtime)
                for key, (data, mtime) in self._objects.items()
            ]

    def stats(self) -> dict:
        result = _base_stats(self)
        result.update(
            max_bytes=self.max_bytes,
            max_objects=self.max_objects,
            evictions=self.evictions,
        )
        return result


# ---------------------------------------------------------------------------
# URL-style configuration
# ---------------------------------------------------------------------------


def _split_url(url: str) -> tuple[str, str, dict[str, str]]:
    """``scheme:rest?query`` -> (scheme, rest, query dict)."""
    scheme, _, rest = url.partition(":")
    rest, _, query = rest.partition("?")
    # Accept file:///x and memory:// spellings: '//' is decoration,
    # but a lone '/' after it is the path root and must survive.
    if rest.startswith("//"):
        rest = rest[2:]
        if not rest.startswith("/") and scheme != "memory" and rest:
            rest = "/" + rest
    return scheme, rest, dict(parse_qsl(query))


def _int_param(params: dict[str, str], name: str, url: str) -> int | None:
    raw = params.pop(name, None)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise BackendError(f"{url!r}: {name} must be an integer") from None


def open_backend(url: str | Path) -> StoreBackend:
    """Open the backend a URL (or bare filesystem path) names.

    Supported forms: ``file:PATH`` and ``memory://[?max_bytes=N]
    [&max_objects=N]``.  A bare path opens a :class:`FileBackend`
    rooted there.  The URL forms of the removed sqlite and tiered
    backends are refused by name, never read as a directory path.
    """
    if isinstance(url, Path):
        return FileBackend(url)
    text = str(url).strip()
    scheme = text.partition(":")[0]
    tiers = scheme.split("+")
    if "sqlite" in tiers or ("memory" in tiers and len(tiers) > 1):
        removed = "tiered memory+…:" if len(tiers) > 1 else "sqlite:"
        raise BackendError(
            f"{text!r}: the {removed} store backend was removed "
            "(use file:PATH or memory://)"
        )
    if scheme not in ("file", "memory"):
        # No recognized scheme: treat the whole string as a path
        # (keeps --store DIR and REPRO_PTA_STORE=DIR working).
        return FileBackend(Path(text))
    scheme, rest, params = _split_url(text)
    if scheme == "file":
        if params:
            raise BackendError(f"{text!r}: file: takes no parameters")
        if not rest:
            raise BackendError(f"{text!r}: file: needs a directory path")
        return FileBackend(Path(rest))
    if rest:
        raise BackendError(
            f"{text!r}: memory:// takes no path (parameters only)"
        )
    max_bytes = _int_param(params, "max_bytes", text)
    max_objects = _int_param(params, "max_objects", text)
    if params:
        raise BackendError(f"{text!r}: unknown parameters {sorted(params)}")
    return MemoryBackend(max_bytes=max_bytes, max_objects=max_objects)
