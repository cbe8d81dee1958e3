"""Compile-and-cache layer of the native codegen backend.

Turns emitted C source (:mod:`repro.runtime.codegen.emitter`) into loaded
shared objects, with every expensive step memoised:

* **compiler discovery** -- honours ``$CC``, falls back to ``cc`` / ``gcc``
  / ``clang`` on ``$PATH``; a missing or broken compiler marks the whole
  backend unavailable (never an error -- numpy simply keeps serving);
* **on-disk build cache** -- artifacts are keyed by
  ``sha256(source + compiler + flags)``, so identical kernels are compiled
  **at most once per machine**, not once per process: a later process that
  compiles the same plan finds the earlier one's ``.so`` and just
  ``dlopen``\\ s it.  The cache directory defaults to a ``codegen/``
  directory next to the active tuning cache (the two caches travel
  together), overridable via :func:`configure` or ``$REPRO_CODEGEN_CACHE``;
* **process-wide build lock** -- concurrent compilations of one artifact
  serialise in-process, and the ``.so`` is moved into place with an atomic
  ``os.replace`` so concurrent *processes* can race harmlessly (both build,
  last rename wins, both results are identical by construction).

Every build outcome is counted (``built`` / ``cached`` / ``failed`` /
``disabled``) and mirrored into a :class:`~repro.obs.registry.MetricRegistry`
as ``codegen_builds_total{status}`` on :func:`bind_metrics`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Dict, Optional

__all__ = [
    "build_shared_object",
    "cache_dir",
    "clear_cache",
    "compiler_command",
    "configure_build",
    "build_counts",
    "reset_build_state",
]

#: Compilation flags.  ``-std=c99`` keeps GCC's floating-point contraction
#: off (no surprise FMAs) and ``-ffp-contract=off`` makes that explicit for
#: clang.  ``-O3`` never enables value-changing FP optimisations (that
#: would take ``-ffast-math``) but it does if-convert and vectorise the
#: branchy epilogue ternaries -- at ``-O2`` the relu compare becomes a
#: data-dependent branch that mispredicts on every other element of fresh
#: GEMM output.  The admission probe re-verifies bitwise identity per
#: signature regardless of flag level.
CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off")

_LOCK = threading.Lock()
_STATE: Dict[str, Optional[str]] = {"cache_dir": None}
#: Memoised compiler probe: ``{"key": env-CC-value, "cc": command-or-None}``.
_COMPILER: Dict[str, Optional[str]] = {}
_COUNTS: Dict[str, int] = {"built": 0, "cached": 0, "failed": 0, "disabled": 0}
_METRIC_FAMILY = None


def _count(status: str) -> None:
    with _LOCK:
        _COUNTS[status] = _COUNTS.get(status, 0) + 1
        family = _METRIC_FAMILY
    if family is not None:
        family.labels(status=status).inc()


def build_counts() -> Dict[str, int]:
    """Snapshot of build outcomes since process start (or last reset)."""
    with _LOCK:
        return dict(_COUNTS)


def bind_build_metrics(metrics) -> None:
    """Mirror the build counters into ``codegen_builds_total{status}``."""
    global _METRIC_FAMILY
    family = metrics.counter(
        "codegen_builds_total",
        "Native-kernel build attempts by outcome.",
        labels=("status",),
    )
    with _LOCK:
        for status, count in _COUNTS.items():
            if count:
                family.labels(status=status)._force(count)
        _METRIC_FAMILY = family


def configure_build(cache_dir_path: Optional[str]) -> None:
    """Pin the on-disk artifact directory (``None`` returns to auto)."""
    with _LOCK:
        _STATE["cache_dir"] = (
            None if cache_dir_path is None else os.path.abspath(cache_dir_path)
        )


def reset_build_state() -> None:
    """Forget the compiler probe and counters (tests / ``configure``)."""
    global _METRIC_FAMILY
    with _LOCK:
        _COMPILER.clear()
        for key in _COUNTS:
            _COUNTS[key] = 0
        _METRIC_FAMILY = None


def cache_dir() -> str:
    """Resolve the artifact directory.

    Priority: explicit :func:`configure_build` > ``$REPRO_CODEGEN_CACHE`` >
    a ``codegen/`` directory next to the active tuning cache > a per-user
    default.  The first resolution that does not come from an active tuning
    scope is *sticky* for the life of the process, so selection-time and
    lowering-time builds of one compile land in one directory.
    """
    with _LOCK:
        pinned = _STATE["cache_dir"]
    if pinned is not None:
        return pinned
    env = os.environ.get("REPRO_CODEGEN_CACHE")
    if env:
        return os.path.abspath(env)
    from repro.runtime.tuning import active_tuning

    tuner, _ = active_tuning()
    if tuner is not None and tuner.config.cache is not None:
        base = os.path.dirname(os.path.abspath(tuner.config.cache.path))
        return os.path.join(base, "codegen")
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "codegen"
    )


def compiler_command() -> Optional[str]:
    """The C compiler to invoke, or ``None`` when the host has none.

    ``$CC`` wins when set (even if broken -- a broken ``$CC`` means "no
    compiler", it does not silently fall back, so ``CC=/bin/false`` is a
    faithful no-compiler simulation).  The probe is memoised per ``$CC``
    value, so tests that monkeypatch the environment re-probe.
    """
    env_cc = os.environ.get("CC", "")
    with _LOCK:
        if _COMPILER.get("key") == env_cc and "cc" in _COMPILER:
            return _COMPILER["cc"]
    if env_cc:
        resolved = shutil.which(env_cc)
    else:
        resolved = next(
            (found for name in ("cc", "gcc", "clang")
             if (found := shutil.which(name))),
            None,
        )
    with _LOCK:
        _COMPILER["key"] = env_cc
        _COMPILER["cc"] = resolved
    return resolved


def source_key(source: str) -> str:
    """Content key of one artifact: source text + compiler + flags."""
    compiler = compiler_command() or "<none>"
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\x00" + compiler.encode("utf-8"))
    digest.update(b"\x00" + " ".join(CFLAGS).encode("utf-8"))
    return digest.hexdigest()[:20]


def build_shared_object(source: str, tag: str) -> Optional[str]:
    """Compile ``source`` to a cached ``.so``; returns its path or ``None``.

    A cached artifact is returned without invoking the compiler at all
    (counted ``cached``); otherwise the source is written next to the
    artifact for inspection, compiled under the process-wide lock, and
    moved into place atomically.  Any failure -- no compiler, non-zero
    exit, timeout -- is counted ``failed`` and reported as ``None``.
    """
    compiler = compiler_command()
    key = source_key(source)
    directory = cache_dir()
    so_path = os.path.join(directory, f"{tag}-{key}.so")
    if os.path.exists(so_path):
        _count("cached")
        return so_path
    if compiler is None:
        _count("failed")
        return None
    # _count takes _LOCK itself, so the outcome is recorded after the
    # critical section (a non-reentrant lock must never nest).
    with _LOCK:
        if os.path.exists(so_path):
            status = "cached"
        else:
            status = "built"
            try:
                os.makedirs(directory, exist_ok=True)
                c_path = os.path.join(directory, f"{tag}-{key}.c")
                with open(c_path, "w", encoding="utf-8") as handle:
                    handle.write(source)
                fd, tmp_so = tempfile.mkstemp(
                    prefix=f"{tag}-{key}.", suffix=".so.tmp", dir=directory
                )
                os.close(fd)
                result = subprocess.run(
                    [compiler, *CFLAGS, "-o", tmp_so, c_path, "-lm"],
                    capture_output=True,
                    timeout=120,
                )
                if result.returncode != 0:
                    os.unlink(tmp_so)
                    status = "failed"
                else:
                    os.replace(tmp_so, so_path)
            except (OSError, subprocess.SubprocessError):
                status = "failed"
    _count(status)
    return so_path if status != "failed" else None


def clear_cache() -> int:
    """Delete every cached artifact (``.c`` / ``.so``); returns the count."""
    directory = cache_dir()
    removed = 0
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return 0
    for name in names:
        if name.endswith((".so", ".c", ".so.tmp")):
            try:
                os.unlink(os.path.join(directory, name))
                removed += 1
            except OSError:
                continue
    return removed
