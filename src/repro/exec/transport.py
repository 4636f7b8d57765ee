"""Shared-memory result transport: frames, segments, and handles.

Workers used to pickle a full ``SimulationResult`` dict over the
process-pool pipe for every completed spec, which caps sweep size by
parent RAM and pipe serialization throughput.  Under the ``shm``
transport a worker instead *writes* its result into a per-process
segment file inside a shared mmap-backed directory (``/dev/shm`` when
available, the system tmpdir otherwise) and returns only a small
:class:`FrameHandle` over the pipe; the parent maps the segment lazily
and decodes exactly the frames it needs, when it needs them.

Frame format (DESIGN.md §17) — one length-prefixed frame per result::

    offset  size  field
    0       4     magic  b"PFRM"
    4       1     format version (FRAME_VERSION)
    5       64    spec cache key (ASCII hex, RunSpec.cache_key())
    69      8     payload length, unsigned big-endian
    77      32    SHA-256 of the payload (raw digest)
    109     N     payload: canonical JSON of SimulationResult.to_dict()

The payload serialization is *identical* to the disk cache's canonical
form, so a frame's digest equals :func:`repro.exec.cache.payload_digest`
of the same result — the transport and cache integrity contracts cannot
drift apart.  Frames are append-only and self-verifying: a frame that
fails any check (magic, version, key, length, digest, JSON decode)
raises :class:`FrameCorruptionError`, which the executor classifies as a
*transient* fault (the simulation itself is fine; only this copy of the
result is damaged) and re-attempts under the retry policy.

Transport choice is an execution detail, never a result detail: it is
excluded from cache keys, and the pickle and shm paths are
byte-identical by contract (the chaos and parity suites assert it).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional

from repro.common.errors import InvalidValueError, ReproError
from repro.sim.results import SimulationResult

#: Transport names accepted by the Executor / ``--transport``.
TRANSPORT_AUTO = "auto"
TRANSPORT_PICKLE = "pickle"
TRANSPORT_SHM = "shm"
TRANSPORTS = (TRANSPORT_AUTO, TRANSPORT_PICKLE, TRANSPORT_SHM)

FRAME_MAGIC = b"PFRM"
FRAME_VERSION = 1
#: Length of a spec cache key (SHA-256 hex).
KEY_LENGTH = 64
#: Fixed byte length of a frame header; the payload follows immediately.
HEADER_SIZE = 4 + 1 + KEY_LENGTH + 8 + 32


class FrameCorruptionError(ReproError, OSError):
    """A frame failed an integrity check on read.

    Derives from :class:`OSError` so the resilience taxonomy
    (DESIGN.md §15) classifies it as *retryable*: a damaged frame means
    this copy of the result was lost in transport — the deterministic
    simulation behind it is fine, so a bounded re-attempt converges to
    the clean result.
    """


def resolve_transport(transport: str, jobs: int) -> str:
    """Resolve ``auto`` to a concrete transport for this executor.

    ``auto`` picks ``shm`` for pooled execution (where the pipe is the
    bottleneck) and ``pickle`` for in-process serial runs (where there
    is no pipe to relieve).  Explicit names resolve to themselves;
    ``shm`` with ``jobs == 1`` round-trips results through a frame
    in-process, which is how the parity suite proves the encode/decode
    path byte-identical without a pool.
    """
    if transport not in TRANSPORTS:
        raise InvalidValueError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if transport == TRANSPORT_AUTO:
        return TRANSPORT_SHM if jobs > 1 else TRANSPORT_PICKLE
    return transport


def encode_result(result: SimulationResult) -> bytes:
    """Canonical frame payload for one result.

    Byte-for-byte the serialization :func:`repro.exec.cache.
    payload_digest` hashes, so transport and cache integrity digests of
    the same result are equal.
    """
    text = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return text.encode("utf-8")


def decode_payload(payload: bytes) -> SimulationResult:
    """Invert :func:`encode_result`; corrupt bytes raise
    :class:`FrameCorruptionError`."""
    try:
        return SimulationResult.from_dict(json.loads(payload))
    except (ValueError, KeyError, TypeError) as error:
        raise FrameCorruptionError(
            f"frame payload failed to decode: {error}"
        ) from None


@dataclass(frozen=True, slots=True)
class FrameHandle:
    """The small picklable pointer a worker returns instead of a result.

    Everything the parent needs to locate and verify one frame: the
    segment file name (relative to the session directory — handles stay
    valid if the directory is moved), the frame's byte offset, the
    payload length, its SHA-256, the spec key, and the simulation's
    wall-clock seconds (measurement metadata, not part of the digest).
    """

    segment: str
    offset: int
    length: int
    sha256: str
    key: str
    elapsed: float


class FrameWriter:
    """Appends frames to this process's segment file.

    One writer per (directory, process): segment files are named by pid,
    so concurrent pool workers never share a file and frames never
    interleave.  ``tell()`` after each write keeps offsets exact even
    when a frame was deliberately cut short (chaos injection) — the next
    frame simply begins where the bytes actually ended.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.pid = os.getpid()
        self.segment = f"frames-{self.pid}.bin"
        self._file: IO[bytes] = open(self.directory / self.segment, "ab")

    def write(
        self,
        key: str,
        payload: bytes,
        elapsed: float = 0.0,
        keep: Optional[int] = None,
    ) -> FrameHandle:
        """Append one frame; returns its handle.

        ``keep`` (chaos injection only) truncates the *written* bytes to
        the first ``keep`` of the frame while the returned handle still
        describes the full frame — the on-disk picture of a worker
        killed (or a write lost) mid-frame.  The reader's integrity
        checks must catch it.
        """
        if len(key) != KEY_LENGTH:
            raise InvalidValueError(
                f"frame keys are {KEY_LENGTH}-char cache keys, got {key!r}"
            )
        digest = hashlib.sha256(payload).digest()
        header = (
            FRAME_MAGIC
            + bytes([FRAME_VERSION])
            + key.encode("ascii")
            + len(payload).to_bytes(8, "big")
            + digest
        )
        frame = header + payload
        offset = self._file.tell()
        written = frame if keep is None else frame[:max(0, keep)]
        self._file.write(written)
        self._file.flush()
        return FrameHandle(
            segment=self.segment,
            offset=offset,
            length=len(payload),
            sha256=digest.hex(),
            key=key,
            elapsed=elapsed,
        )

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass  # nothing further to release


#: Per-process writer registry: (directory, pid) -> writer.  Keyed by
#: pid so a forked worker never inherits (and appends through) its
#: parent's file object.
_WRITERS: dict[tuple[str, int], FrameWriter] = {}


def writer_for(directory: str | Path) -> FrameWriter:
    """This process's writer for ``directory`` (opened lazily, reused)."""
    key = (str(directory), os.getpid())
    writer = _WRITERS.get(key)
    if writer is None:
        writer = FrameWriter(directory)
        _WRITERS[key] = writer
    return writer


def close_writers(directory: str | Path) -> None:
    """Close (and forget) this process's writers for ``directory``."""
    prefix = str(directory)
    for key in [k for k in _WRITERS if k[0] == prefix]:
        _WRITERS.pop(key).close()


class FrameReader:
    """Lazily maps segment files and decodes single frames on demand.

    Segments are mapped with :mod:`mmap` and remapped only when a handle
    points past the currently mapped size (workers append concurrently).
    Reads are zero-copy up to the JSON decode of exactly one payload —
    the parent never materializes a segment, let alone a wave.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        #: segment name -> (mmap, mapped size)
        self._maps: dict[str, tuple[mmap.mmap, int]] = {}

    def _mapped(self, segment: str, needed: int) -> mmap.mmap:
        current = self._maps.get(segment)
        if current is not None and current[1] >= needed:
            return current[0]
        if current is not None:
            current[0].close()
            del self._maps[segment]
        path = self.directory / segment
        try:
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < needed:
                    raise FrameCorruptionError(
                        f"segment {segment} is {size} bytes but the frame "
                        f"extends to {needed} (truncated write)"
                    )
                mapped = mmap.mmap(
                    handle.fileno(), size, access=mmap.ACCESS_READ
                )
        except FrameCorruptionError:
            raise
        except OSError as error:
            raise FrameCorruptionError(
                f"segment {segment} unreadable: {error}"
            ) from None
        self._maps[segment] = (mapped, size)
        return mapped

    def read(self, handle: FrameHandle) -> tuple[SimulationResult, float]:
        """Decode one frame; any integrity violation raises
        :class:`FrameCorruptionError`."""
        end = handle.offset + HEADER_SIZE + handle.length
        mapped = self._mapped(handle.segment, end)
        start = handle.offset
        header = bytes(mapped[start:start + HEADER_SIZE])
        if header[:4] != FRAME_MAGIC:
            raise FrameCorruptionError(
                f"frame at {handle.segment}:{start} has no magic marker"
            )
        if header[4] != FRAME_VERSION:
            raise FrameCorruptionError(
                f"frame version {header[4]} != {FRAME_VERSION}"
            )
        key = header[5:5 + KEY_LENGTH].decode("ascii", errors="replace")
        if key != handle.key:
            raise FrameCorruptionError(
                f"frame key {key[:12]} does not match handle {handle.key[:12]}"
            )
        length = int.from_bytes(header[69:77], "big")
        digest = header[77:109].hex()
        if length != handle.length or digest != handle.sha256:
            raise FrameCorruptionError(
                "frame header disagrees with its handle (partial write)"
            )
        payload = bytes(mapped[start + HEADER_SIZE:end])
        if hashlib.sha256(payload).hexdigest() != handle.sha256:
            raise FrameCorruptionError(
                f"frame payload digest mismatch for {handle.key[:12]}"
            )
        return decode_payload(payload), handle.elapsed

    def close(self) -> None:
        for mapped, _ in self._maps.values():
            try:
                mapped.close()
            except (OSError, ValueError):
                pass  # already unmapped; nothing further to release
        self._maps.clear()


def shm_root() -> Optional[str]:
    """The shared-memory filesystem to put sessions on, when present.

    ``/dev/shm`` keeps frames purely in RAM-backed tmpfs on Linux;
    elsewhere (or when unwritable) sessions fall back to the system
    tmpdir, which is still mmap-backed — only the backing store differs.
    """
    root = "/dev/shm"
    if os.path.isdir(root) and os.access(root, os.W_OK):
        return root
    return None


class ShmSession:
    """One wave's transport arena: a directory of segment files.

    Created by the executor when a wave resolves to the ``shm``
    transport, shared with the workers by path (a short string over the
    pipe), and torn down — reader unmapped, parent-side writer closed,
    directory removed — when the wave finishes, successfully or not.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.reader = FrameReader(directory)

    @classmethod
    def create(cls, root: Optional[str] = None) -> "ShmSession":
        directory = tempfile.mkdtemp(
            prefix="profess-frames-", dir=root or shm_root()
        )
        return cls(directory)

    def bytes_written(self) -> int:
        """Total segment bytes currently in this session (diagnostics)."""
        total = 0
        try:
            with os.scandir(self.directory) as entries:
                for entry in entries:
                    if entry.name.startswith("frames-"):
                        total += entry.stat().st_size
        except OSError:
            return total
        return total

    def close(self) -> None:
        """Unmap, close the local writer, and remove the directory."""
        self.reader.close()
        close_writers(self.directory)
        shutil.rmtree(self.directory, ignore_errors=True)
