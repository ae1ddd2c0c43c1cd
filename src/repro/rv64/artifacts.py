"""Persistent on-disk cache for compiled aot entry thunks.

Tracing a kernel and fusing it into an aot thunk is pure compile-time
work: the generated source depends only on the kernel program, the
modulus constants baked into its pool, the pipeline model (which fixes
the static cycle account) and the radix/limb layout.  None of that
varies between processes, so every ``repro serve`` worker and every
new CLI process re-deriving it from scratch is waste — the
dominant component of cold-start latency once the aot tier exists.

This module persists compiled thunks as small JSON artifacts:

* **keyed** by :class:`ArtifactKey` ``(kernel, modulus, pipeline,
  code_hash)`` — ``code_hash`` digests the kernel source, the ISA
  name, the operand shapes and the radix, so any change to the
  program or its layout produces a different key (stale artifacts are
  unreachable, not merely detected);
* **atomic**: writes go to a same-directory temp file and
  ``os.replace`` into place, so a concurrent reader sees either the
  old artifact or the new one, never a torn file;
* **self-validating**: each artifact embeds a format version and a
  SHA-256 digest over its canonical JSON; a digest mismatch,
  truncation or hand-edit makes :func:`load_artifact` *delete* the
  file and return ``None`` — the caller re-traces and re-writes, so
  corruption costs one cold start, never a wrong answer;
* **self-pruning**: the version is folded into the filename, so an
  artifact of an older format is never looked up again;
  :func:`store_artifact` deletes the kernel's files of other versions
  so they do not pile up on disk;
* **observable**: hits, misses, writes and invalidations feed the
  ``aot_artifact_*`` telemetry families (``docs/OBSERVABILITY.md``).

The cache directory defaults to ``~/.cache/repro/aot`` and is
overridden with ``REPRO_AOT_CACHE`` (CI points it at a workspace-local
directory; ``repro cache dir|stats|clear`` inspects it).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry

#: Bump whenever the artifact payload shape, the generated-source
#: calling convention *or* the code generator's output changes.  The
#: version is part of every filename, so old artifacts are never opened
#: again; the next store of the same kernel deletes them.
ARTIFACT_VERSION = 9

_ENV_VAR = "REPRO_AOT_CACHE"


def cache_dir() -> Path:
    """The artifact directory (``$REPRO_AOT_CACHE`` or the XDG default)."""
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "aot"


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one compiled kernel thunk.

    Two processes with equal keys are guaranteed to generate identical
    thunk source, so the artifact is shareable; anything that could
    change the source or its static costs must be folded into one of
    the four fields.
    """

    kernel: str
    modulus: str
    pipeline: str
    code_hash: str

    @property
    def digest(self) -> str:
        material = "\x1f".join(
            (str(ARTIFACT_VERSION), self.kernel, self.modulus,
             self.pipeline, self.code_hash))
        return hashlib.sha256(material.encode()).hexdigest()

    @property
    def filename(self) -> str:
        return f"{self.kernel}-{self.digest[:16]}.json"


def make_key(kernel, pipeline_config) -> ArtifactKey:
    """Build the artifact key for *kernel* under *pipeline_config*.

    The code hash covers everything :func:`repro.rv64.aot.compile_aot_entry`
    reads from the kernel: the assembly source (hence the trace), the
    ISA it is assembled against, the operand/result shapes, and the
    radix that fixes the limb-extraction algebra.
    """
    context = kernel.context
    radix = context.radix
    hasher = hashlib.sha256()
    for part in (
        str(ARTIFACT_VERSION),
        kernel.source,
        kernel.isa.name,
        repr(tuple(kernel.input_limbs)),
        repr(kernel.output_limbs),
        repr((radix.bits, radix.limbs)),
    ):
        hasher.update(part.encode())
        hasher.update(b"\x1f")
    return ArtifactKey(
        kernel=kernel.name,
        modulus=hex(context.modulus),
        pipeline=repr(pipeline_config),
        code_hash=hasher.hexdigest(),
    )


def _payload_digest(payload: dict) -> str:
    material = {k: v for k, v in payload.items() if k != "digest"}
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def store_artifact(
    key: ArtifactKey,
    *,
    entry: int,
    source: str,
    cycles: int | None,
    instructions: int,
    halts: bool,
    exit_pc: int,
) -> Path | None:
    """Persist a compiled thunk atomically; returns the path.

    Failures (read-only filesystem, full disk) are swallowed: the
    cache is an accelerator, never a correctness dependency.
    """
    payload = {
        "version": ARTIFACT_VERSION,
        "kernel": key.kernel,
        "modulus": key.modulus,
        "pipeline": key.pipeline,
        "code_hash": key.code_hash,
        "entry": entry,
        "source": source,
        "cycles": cycles,
        "instructions": instructions,
        "halts": halts,
        "exit_pc": exit_pc,
    }
    payload["digest"] = _payload_digest(payload)
    directory = cache_dir()
    path = directory / key.filename
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=directory, prefix=key.kernel, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        return None
    telemetry.record("aot_artifact_writes_total")
    _prune_other_versions(path, key.kernel)
    return path


def _prune_other_versions(stored: Path, kernel: str) -> None:
    """Delete *kernel*'s artifacts beside *stored* that were written
    under another format version (unreachable: the version changes the
    filename)."""
    for path in stored.parent.glob(f"{kernel}-*.json"):
        if path == stored:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue  # a damaged file is load_artifact's to judge
        if (isinstance(payload, dict)
                and payload.get("kernel") == kernel
                and payload.get("version") != ARTIFACT_VERSION):
            try:
                path.unlink()
            except OSError:
                continue
            telemetry.record("aot_artifact_invalidations_total")


def load_artifact(key: ArtifactKey) -> dict | None:
    """Load and validate the artifact for *key*.

    Returns the payload dict, or ``None`` on miss.  Any validation
    failure — unreadable JSON, version skew, key-field mismatch (a
    truncated-digest collision), or a digest that does not match the
    content — deletes the file so the slot self-heals on the next
    write, and counts as a miss.
    """
    path = cache_dir() / key.filename
    try:
        raw = path.read_text()
    except OSError:
        telemetry.record("aot_artifact_misses_total")
        return None
    try:
        payload = json.loads(raw)
        valid = (
            isinstance(payload, dict)
            and payload.get("version") == ARTIFACT_VERSION
            and payload.get("kernel") == key.kernel
            and payload.get("modulus") == key.modulus
            and payload.get("pipeline") == key.pipeline
            and payload.get("code_hash") == key.code_hash
            and isinstance(payload.get("source"), str)
            and isinstance(payload.get("entry"), int)
            and isinstance(payload.get("instructions"), int)
            and isinstance(payload.get("halts"), bool)
            and isinstance(payload.get("exit_pc"), int)
            and payload.get("digest") == _payload_digest(payload)
        )
    except (ValueError, TypeError):
        valid = False
    if not valid:
        try:
            path.unlink()
        except OSError:
            pass
        telemetry.record("aot_artifact_invalidations_total")
        telemetry.record("aot_artifact_misses_total")
        return None
    telemetry.record("aot_artifact_hits_total")
    return payload


def invalidate_artifact(key: ArtifactKey) -> bool:
    """Delete the on-disk artifact for *key* (fault recovery: once a
    compiled tier is suspect, the persisted copy is suspect too)."""
    path = cache_dir() / key.filename
    try:
        path.unlink()
    except OSError:
        return False
    telemetry.record("aot_artifact_invalidations_total")
    return True


def cache_stats() -> dict:
    """Shape of the on-disk cache, for ``repro cache stats``."""
    directory = cache_dir()
    artifacts = sorted(directory.glob("*.json")) if directory.is_dir() else []
    kernels = []
    total_bytes = 0
    for path in artifacts:
        try:
            total_bytes += path.stat().st_size
        except OSError:
            continue
        kernels.append(path.name)
    return {
        "dir": str(directory),
        "artifacts": len(kernels),
        "bytes": total_bytes,
        "files": kernels,
    }


def clear_cache() -> int:
    """Delete every artifact; returns the number removed."""
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    removed = 0
    for path in directory.glob("*.json"):
        try:
            path.unlink()
        except OSError:
            continue
        removed += 1
    return removed
