"""Persistent simulation-result cache keyed by content hashes.

A cache entry answers "what does *this exact* accelerator, at *this
exact* clock, do on *this* benchmark?" — so the key must change whenever
any input that could change the answer changes, and must **not** change
for anything else.  The key is a SHA-256 over a canonical JSON document
of:

* ``schema`` — :data:`SCHEMA_VERSION`, bumped whenever the simulator's
  observable behaviour or the report format changes;
* ``system`` — the execution system (``"accel"`` for the simulated
  accelerator; see :mod:`repro.systems` — every system's fingerprint
  names it, so no two systems can share an entry);
* ``benchmark`` — the benchmark key (``"gcn-cora"``);
* ``config`` — every field of the resolved
  :class:`~repro.accel.config.AcceleratorConfig`, recursively
  (:func:`dataclasses.asdict`), including the swept clock.  Space-derived
  configurations (:mod:`repro.space`) enter by their *contents* exactly
  like the frozen literals — named points reproduce the historical keys
  bit-for-bit, anonymous DSE points carry content-derived ``dse-...``
  names — so search drivers ride this cache with no layer in between
  knowing a parameter space exists.

Cross-system entries (CPU/GPU baselines, the Eyeriss dataflow mapper)
hash an :class:`~repro.systems.base.ExecutionPlan` fingerprint instead —
``system`` + shared :class:`~repro.systems.base.Workload` content + the
system's own parameters — and store a serialized
:class:`~repro.systems.base.SystemReport` tagged ``"kind": "system"``.

Keyword-argument order, environment variables, dict iteration order, and
anything else outside those inputs do not affect the key (canonical JSON:
sorted keys, fixed separators).

Entries live one-per-file under ``<root>/results/<key>.json`` where
``root`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.  Writes
are atomic (temp file + ``os.replace``); unreadable, truncated, or
schema-mismatched entries are silently discarded and deleted, never
raised to the caller — a corrupt cache costs a re-simulation, not a
crash.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.accel.config import AcceleratorConfig
from repro.runtime.report import SimulationReport
from repro.runtime.serialize import report_from_dict, report_to_dict

#: Bump to invalidate every existing cache entry (simulator behaviour or
#: report-format changes).
SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set (to any non-empty value) to disable the default persistent cache.
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: Sentinel for "use the process-wide default cache" — distinct from
#: ``None``, which means "no persistent cache".
DEFAULT_CACHE = object()

#: System name of the simulated accelerator in cache fingerprints
#: (mirrors :data:`repro.systems.registry.DEFAULT_SYSTEM`; a literal
#: here keeps this module importable without the systems package).
ACCEL_SYSTEM = "accel"

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.systems.base import SystemReport

#: What the caching layers hold: simulated accelerator reports plus
#: cross-system reports (see :mod:`repro.systems`).
CachedReport = "SimulationReport | SystemReport"


def content_key(document: dict[str, Any]) -> str:
    """SHA-256 of a canonical-JSON document (sorted keys, fixed
    separators) — the one hashing convention every cache key uses."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_fingerprint(config: AcceleratorConfig) -> dict[str, Any]:
    """Every *result-affecting* field of a configuration as plain data.

    The ``watchdog`` budgets are excluded: they bound whether a run
    terminates, never what a completed run reports, so two sweeps that
    differ only in their timeout budgets share cache entries.
    """
    data = dataclasses.asdict(config)
    data.pop("watchdog", None)
    # A retired field: every run behaves as its old default did, so the
    # constant keeps every key (and pinned report) from before its removal.
    data["fast_forward"] = False
    return data


def point_fingerprint(
    benchmark_key: str, config: AcceleratorConfig
) -> dict[str, Any]:
    """The canonical document behind :func:`point_key`.

    Always names the execution system (``"accel"``), so accelerator
    entries can never collide with the cross-system entries of
    :mod:`repro.systems` — the same invariant every
    :meth:`~repro.systems.base.ExecutionPlan.fingerprint` upholds.  The
    ``ir`` stanza is the benchmark's layer-IR content digest
    (:func:`repro.models.registry.benchmark_ir_digest`): a re-sized
    model, a re-generated dataset, or an IR-schema revision each change
    the digest and invalidate stale entries.
    """
    from repro.models.registry import benchmark_ir_digest

    return {
        "schema": SCHEMA_VERSION,
        "system": ACCEL_SYSTEM,
        "benchmark": benchmark_key,
        "ir": benchmark_ir_digest(benchmark_key),
        "config": config_fingerprint(config),
    }


def point_key(benchmark_key: str, config: AcceleratorConfig) -> str:
    """Content hash identifying one (benchmark, resolved config) point.

    ``config`` carries the operating clock (``config.clock_ghz``); use
    :meth:`AcceleratorConfig.with_clock` to key a clock-sweep point.
    """
    return content_key(point_fingerprint(benchmark_key, config))


class ResultCache:
    """On-disk store of :class:`SimulationReport`s, one JSON per key."""

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or (
                Path.home() / ".cache" / "repro"
            )
        self.root = Path(root)

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    def path_for(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def get(self, key: str) -> "SimulationReport | SystemReport | None":
        """The cached report for ``key``, or None.

        Entries tagged ``"kind": "system"`` rebuild a cross-system
        :class:`~repro.systems.base.SystemReport`; untagged entries are
        accelerator :class:`SimulationReport`\\ s (the pre-systems
        on-disk format, unchanged).  Corrupt or stale entries
        (unparseable JSON, missing fields, a different
        :data:`SCHEMA_VERSION`) are deleted and treated as misses.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(path)
            return None
        try:
            if payload["schema"] != SCHEMA_VERSION or payload["key"] != key:
                raise KeyError("schema or key mismatch")
            if payload.get("kind") == "system":
                from repro.systems.serialize import system_report_from_dict

                return system_report_from_dict(payload["report"])
            return report_from_dict(payload["report"])
        except (KeyError, TypeError):
            self._discard(path)
            return None

    def put(
        self, key: str, report: "SimulationReport | SystemReport"
    ) -> None:
        """Persist a report atomically (readers never see partial JSON)."""
        if isinstance(report, SimulationReport):
            payload = {
                "schema": SCHEMA_VERSION,
                "key": key,
                "report": report_to_dict(report),
            }
        else:
            from repro.systems.serialize import system_report_to_dict

            payload = {
                "schema": SCHEMA_VERSION,
                "key": key,
                "kind": "system",
                "report": system_report_to_dict(report),
            }
        self.results_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.results_dir, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self.path_for(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.results_dir.is_dir():
            return 0
        return sum(1 for _ in self.results_dir.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.results_dir.is_dir():
            for path in self.results_dir.glob("*.json"):
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r}, {len(self)} entries)"


# --- process-wide default store and in-memory memo -----------------------

_default: ResultCache | None = None
_default_set = False

#: Per-process memo: key -> report (simulation or cross-system).
#: Guarantees identity (`a is b`) for repeated lookups of the same
#: operating point within one process.
_MEMO: dict[str, Any] = {}


def default_cache() -> ResultCache | None:
    """The process-wide persistent store (None when disabled).

    Lazily built from ``$REPRO_CACHE_DIR`` / ``~/.cache/repro``;
    ``$REPRO_NO_CACHE`` disables it.  Override with
    :func:`set_default_cache`.
    """
    global _default, _default_set
    if not _default_set:
        _default = None if os.environ.get(NO_CACHE_ENV) else ResultCache()
        _default_set = True
    return _default


def set_default_cache(cache: ResultCache | None) -> None:
    """Replace the process-wide store (None disables persistence)."""
    global _default, _default_set
    _default = cache
    _default_set = True


def reset_default_cache() -> None:
    """Forget any override; re-read the environment on next use."""
    global _default, _default_set
    _default = None
    _default_set = False


def resolve_cache(cache: object) -> ResultCache | None:
    """Map the ``cache=`` convention to a store: sentinel -> default."""
    if cache is DEFAULT_CACHE:
        return default_cache()
    if cache is None or isinstance(cache, ResultCache):
        return cache
    raise TypeError(f"cache must be a ResultCache, None, or DEFAULT_CACHE; "
                    f"got {cache!r}")


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Temporarily bypass the persistent store (benchmarks, tests)."""
    global _default, _default_set
    saved = (_default, _default_set)
    set_default_cache(None)
    try:
        yield
    finally:
        _default, _default_set = saved


def memo_get(key: str) -> "SimulationReport | SystemReport | None":
    return _MEMO.get(key)


def memo_put(key: str, report: "SimulationReport | SystemReport") -> None:
    _MEMO[key] = report


def clear_memo() -> None:
    """Drop the per-process memo (persistent entries survive)."""
    _MEMO.clear()


def lookup(
    key: str, cache: object = DEFAULT_CACHE
) -> "SimulationReport | SystemReport | None":
    """Layered read: in-memory memo, then the persistent store."""
    report = _MEMO.get(key)
    if report is not None:
        return report
    store = resolve_cache(cache)
    if store is not None:
        report = store.get(key)
        if report is not None:
            _MEMO[key] = report
    return report


def store(
    key: str,
    report: "SimulationReport | SystemReport",
    cache: object = DEFAULT_CACHE,
) -> None:
    """Layered write: memo always, persistent store when enabled."""
    _MEMO[key] = report
    persistent = resolve_cache(cache)
    if persistent is not None:
        persistent.put(key, report)
