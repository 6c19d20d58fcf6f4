"""Content-addressed result cache: never simulate the same task twice.

``run_task`` is a pure function of its :class:`TaskSpec` — "results
depend only on the spec, never on which worker ran it" — which is
exactly the contract memoization needs. This module turns that
contract into an on-disk store of completed task records keyed by::

    sha256(generation, scenario, handling, seed, horizon,
           android_timers)

``code_fingerprint`` hashes the source files of the deterministic
surface (simkernel/core/infra/nas/crypto/testbed/traces/transport/
device/sim_card) plus the record builder ``fleet/worker.py``, so any
code change that could alter a record invalidates the whole cache
generation cleanly. The key deliberately
excludes ``task_id`` and ``replica`` (plan coordinates, rewritten on
hit) and anything about *how* a sweep runs — executor mode, worker
count, shard or cohort packing — because none of it affects the
record bytes (PROTO006 pins this statically).

Each entry stores the exact legacy checkpoint record plus the task's
learning-state wire form, so aggregates folded from hits are
byte-identical to recomputed ones by construction. Entries are
single-file binary packs written via temp-file + ``os.replace``:
atomic under concurrent workers and concurrent daemons (last writer
wins, and both writers produce identical bytes anyway). A corrupt,
truncated, or wrong-version entry degrades to a miss — never an
error.

Layout::

    <root>/<generation>/<key[:2]>/<key>.rc

where ``generation`` hashes the code fingerprint with the Python minor
version and the run mode (quiescent or ``REPRO_FULL_HORIZON``), giving
generation-based eviction for free: :meth:`ResultCache.prune` drops
dead generations first, then oldest entries of the live one until
under the size bound (``REPRO_RESULT_CACHE_MAX_MB``, default 512).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import zlib
from functools import lru_cache
from pathlib import Path

from repro.fleet.planner import TaskSpec

log = logging.getLogger(__name__)

#: Pack-file framing: magic + version byte + u32 body length + body
#: sha256 + zlib(canonical JSON). Bump the version on any layout
#: change — old entries then read as misses, not garbage.
MAGIC = b"SEEDRC"
VERSION = 1
_HEADER_LEN = len(MAGIC) + 1 + 4 + 32

ENTRY_SUFFIX = ".rc"

#: Packages whose sources define the deterministic surface: anything
#: that can change a task record lives under one of these or in
#: :data:`RECORD_MODULES`. The rest of fleet, serve, analysis and
#: experiments are deliberately excluded — they move records around
#: but never produce their bytes.
DETERMINISTIC_PACKAGES = (
    "core", "crypto", "device", "infra", "nas", "sim_card", "simkernel",
    "testbed", "traces", "transport",
)

#: Single modules outside those packages that write record bytes:
#: ``fleet/worker.py`` builds every record a cache entry holds
#: (``_task_record``).
RECORD_MODULES = ("fleet/worker.py",)

#: The TaskSpec fields a cache key may depend on — the fingerprint-
#: stable coordinates of the simulation itself. PROTO006 statically
#: pins :func:`task_key` to exactly this set: ``task_id``/``replica``
#: are plan coordinates, and executor/worker/shard choices never reach
#: the record bytes, so any of them in the key would only split
#: identical results across keys and kill the hit rate.
STABLE_KEY_FIELDS = ("android_timers", "handling", "horizon", "scenario",
                     "seed")

ENV_SWITCH = "REPRO_RESULT_CACHE"
ENV_MAX_MB = "REPRO_RESULT_CACHE_MAX_MB"
DEFAULT_CACHE_DIR = os.path.join(".repro-cache", "results")
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_ENV_OFF = frozenset({"0", "off", "no", "false", "none"})


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every deterministic-surface source file.

    Files are folded package by package in sorted relative-path order,
    then :data:`RECORD_MODULES`, each with its path name, so renames
    invalidate too. 16 hex chars, matching the plan fingerprint width.
    """
    package_root = Path(__file__).resolve().parent.parent
    paths = [path for package in DETERMINISTIC_PACKAGES
             for path in sorted((package_root / package).rglob("*.py"))]
    paths += [package_root / module for module in RECORD_MODULES]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _live_generation() -> str:
    """Code fingerprint, Python minor version and run mode, hashed.

    ``REPRO_FULL_HORIZON=1`` records carry their own elided-event
    counts (0), so a full-horizon run must never be answered with
    quiescent records or the audit mode is defeated. Records are only
    proven equal within one interpreter version, so each Python minor
    version gets its own generation too. Read at :class:`ResultCache`
    construction, outside the memoized :func:`code_fingerprint`, so the
    mode is the one in force when the cache is built.
    """
    mode = ("full-horizon" if os.environ.get("REPRO_FULL_HORIZON") == "1"
            else "quiescent")
    python = "%d.%d" % sys.version_info[:2]
    material = f"{code_fingerprint()}:{python}:{mode}"
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def task_key(task: TaskSpec, code: str) -> str:
    """Content address of one task's result under code version ``code``.

    Built from exactly the :data:`STABLE_KEY_FIELDS` of the spec — see
    the module docstring (and PROTO006) for why nothing else may leak
    in here.
    """
    material = {
        "android_timers": task.android_timers,
        "code": code,
        "handling": task.handling,
        "horizon": task.horizon,
        "scenario": task.scenario,
        "seed": task.seed,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _encode_entry(key: str, record: dict, learning: dict) -> bytes:
    """One pack file: framed, checksummed, compressed canonical JSON."""
    body = zlib.compress(json.dumps(
        {"key": key, "learning": learning, "record": record},
        sort_keys=True, separators=(",", ":")).encode())
    return (MAGIC + bytes((VERSION,))
            + len(body).to_bytes(4, "little")
            + hashlib.sha256(body).digest()
            + body)


def _decode_entry(data: bytes, key: str) -> tuple[dict, dict] | None:
    """(record, learning) from pack bytes; ``None`` for any damage.

    Every failure mode — short read, bad magic, version skew, length
    mismatch, checksum mismatch, undecodable body, key mismatch — is a
    miss by contract, so a torn or corrupted entry costs one recompute,
    never a run.
    """
    if len(data) < _HEADER_LEN or not data.startswith(MAGIC):
        return None
    offset = len(MAGIC)
    if data[offset] != VERSION:
        return None
    offset += 1
    body_len = int.from_bytes(data[offset:offset + 4], "little")
    offset += 4
    checksum = data[offset:offset + 32]
    body = data[offset + 32:]
    if len(body) != body_len or hashlib.sha256(body).digest() != checksum:
        return None
    try:
        entry = json.loads(zlib.decompress(body))
    except (zlib.error, ValueError):
        return None
    if (not isinstance(entry, dict) or entry.get("key") != key
            or not isinstance(entry.get("record"), dict)
            or not isinstance(entry.get("learning"), dict)):
        return None
    return entry["record"], entry["learning"]


class ResultCache:
    """On-disk content-addressed store of completed task results.

    Stateless and picklable (root path + generation string + bound):
    the same instance is shipped to pool workers for write-back and
    shared across every job of a serve daemon. All coordination is the
    filesystem's — atomic renames for writes, whole-file reads for
    lookups — so concurrent writers and concurrent daemons need no
    locks (identical keys hold identical bytes; last writer wins).

    ``code_version`` overrides the computed generation
    (tests force generation bumps with it); ``max_bytes`` bounds
    :meth:`prune` (env ``REPRO_RESULT_CACHE_MAX_MB`` below that,
    512 MiB by default).
    """

    def __init__(
        self,
        root: str | Path,
        code_version: str | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.generation = (code_version if code_version is not None
                           else _live_generation())
        if max_bytes is None:
            env_mb = os.environ.get(ENV_MAX_MB)
            max_bytes = (int(env_mb) * 1024 * 1024 if env_mb
                         else DEFAULT_MAX_BYTES)
        self.max_bytes = max_bytes

    def key(self, task: TaskSpec) -> str:
        return task_key(task, self.generation)

    def entry_path(self, key: str) -> Path:
        return self.root / self.generation / key[:2] / (key + ENTRY_SUFFIX)

    # -- lookups -------------------------------------------------------
    def lookup(self, task: TaskSpec) -> tuple[dict, dict] | None:
        """(record, learning wire form) for a hit, else ``None``.

        The stored record's ``task_id`` is rewritten to the requesting
        task's id — the one plan coordinate a record carries — so a hit
        from any prior sweep drops into this plan's aggregate order.
        """
        key = self.key(task)
        try:
            data = self.entry_path(key).read_bytes()
        except OSError:
            return None
        entry = _decode_entry(data, key)
        if entry is None:
            log.debug("result cache: unreadable entry for %s (treated as "
                      "a miss)", key)
            return None
        record, learning = entry
        record = dict(record)
        record["task_id"] = task.task_id
        return record, learning

    # -- write-back ----------------------------------------------------
    def store(self, task: TaskSpec, record: dict, learning: dict) -> bool:
        """Persist one completed task; returns whether the write landed.

        Temp-file + ``os.replace`` in the entry's own directory keeps
        the rename atomic (same filesystem) and concurrent writers
        safe: a reader sees the old bytes or the new bytes, never a
        torn file. Failures are best-effort — a cache that cannot
        write must never fail the sweep.
        """
        key = self.key(task)
        path = self.entry_path(key)
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(_encode_entry(key, record, learning))
            os.replace(tmp, path)
        except OSError as exc:
            log.debug("result cache: store of %s failed: %s", key, exc)
            try:
                tmp.unlink()
            except OSError:
                return False
            return False
        return True

    # -- bookkeeping ---------------------------------------------------
    def stats(self) -> dict:
        """Entry/byte counts per generation (CI artifact material)."""
        generations: dict[str, dict] = {}
        if self.root.is_dir():
            for gen_dir in sorted(p for p in self.root.iterdir()
                                  if p.is_dir()):
                entries = sorted(gen_dir.rglob("*" + ENTRY_SUFFIX))
                generations[gen_dir.name] = {
                    "entries": len(entries),
                    "bytes": sum(p.stat().st_size for p in entries),
                }
        return {
            "root": str(self.root),
            "generation": self.generation,
            "max_bytes": self.max_bytes,
            "generations": generations,
        }

    def prune(self) -> dict:
        """Enforce the size bound; returns what was evicted.

        Dead generations (any directory that is not the live code
        fingerprint) go first, oldest name first — they can never hit
        again under the current code. If the live generation alone
        still exceeds ``max_bytes``, its entries are dropped in sorted
        name order until under the bound; content-addressed names make
        any deterministic order as good as any other.
        """
        removed_generations = 0
        removed_entries = 0
        if not self.root.is_dir():
            return {"removed_generations": 0, "removed_entries": 0}
        gen_dirs = sorted(p for p in self.root.iterdir() if p.is_dir())
        sizes = {
            gen.name: sum(p.stat().st_size
                          for p in gen.rglob("*" + ENTRY_SUFFIX))
            for gen in gen_dirs
        }
        total = sum(sizes.values())
        for gen in gen_dirs:
            if total <= self.max_bytes:
                break
            if gen.name == self.generation:
                continue
            for path in sorted(gen.rglob("*"), reverse=True):
                try:
                    path.rmdir() if path.is_dir() else path.unlink()
                except OSError as exc:
                    log.debug("result cache: prune of %s failed: %s",
                              path, exc)
            try:
                gen.rmdir()
            except OSError as exc:
                log.debug("result cache: prune of %s failed: %s", gen, exc)
            total -= sizes[gen.name]
            removed_generations += 1
        live = self.root / self.generation
        if total > self.max_bytes and live.is_dir():
            for path in sorted(live.rglob("*" + ENTRY_SUFFIX)):
                if total <= self.max_bytes:
                    break
                size = path.stat().st_size
                try:
                    path.unlink()
                except OSError as exc:
                    log.debug("result cache: prune of %s failed: %s",
                              path, exc)
                    continue
                total -= size
                removed_entries += 1
        return {"removed_generations": removed_generations,
                "removed_entries": removed_entries}


def resolve_cache(
    enabled: bool | None,
    cache_dir: str | Path | None = None,
    default_dir: str | Path | None = None,
) -> ResultCache | None:
    """CLI/daemon cache policy: flags beat the environment beats defaults.

    ``enabled`` is the tri-state ``--cache/--no-cache`` flag (``None``
    when neither was given). The ``REPRO_RESULT_CACHE`` variable then
    applies: an off value (``0/off/no/false/none``) disables, any other
    non-empty value is taken as the cache directory. The cache is on by
    default, under ``cache_dir`` / ``default_dir`` /
    ``.repro-cache/results``.
    """
    if enabled is False:
        return None
    env = os.environ.get(ENV_SWITCH, "").strip()
    if env and enabled is None and env.lower() in _ENV_OFF:
        return None
    root = cache_dir
    if root is None and env and env.lower() not in _ENV_OFF:
        root = env
    if root is None:
        root = default_dir if default_dir is not None else DEFAULT_CACHE_DIR
    return ResultCache(root)
