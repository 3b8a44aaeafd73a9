"""Stable content hashing for run specs.

Cache keys must be *stable* — the same spec hashes the same across
process restarts, interpreter invocations, and ``PYTHONHASHSEED``
values — and *sensitive* — any field change produces a different key.
Both properties are pinned by tests/exec/test_cache_keys.py.

:func:`canonical` lowers a config/params tree (dataclasses, enums,
mappings, sequences, scalars) to plain JSON-able structures with
deterministic ordering; :func:`canonical_json` renders it with sorted
keys and no whitespace; :func:`code_salt` mixes a digest of the
``repro`` package's own source into every key, so editing the
simulator invalidates cached results instead of silently serving
stale ones.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.integrity import sha256

#: Bump when the hashing scheme itself changes shape.
HASH_SCHEME_VERSION = 1

#: Environment override for the code-version salt (tests use this to
#: model "the code changed" without editing files).
CODE_SALT_ENV = "REPRO_CODE_SALT"


def canonical(value: Any) -> Any:
    """Lower ``value`` to deterministic, JSON-able structures.

    Dataclasses become field-name-keyed dicts, enums their values,
    mappings sorted-key dicts, sequences lists, sets sorted lists.
    Anything else (arbitrary objects, functions) is rejected: a cache
    key must never depend on ``repr`` addresses or pickle details.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # json renders floats via repr (shortest round-trip form),
        # which is deterministic across platforms and restarts.
        return value
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        keys = sorted(value, key=str)
        if len({str(k) for k in keys}) != len(keys):
            raise ConfigurationError("mapping keys collide when stringified")
        return {str(key): canonical(value[key]) for key in keys}
    if isinstance(value, (set, frozenset)):
        return [canonical(item) for item in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise ConfigurationError(
        f"cannot canonicalise {type(value).__name__!r} for hashing"
    )


def canonical_json(value: Any) -> str:
    """The canonical serialized form used for hashing and byte-compares."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=1)
def _source_digest() -> str:
    """SHA-256 over every ``repro`` source file (path + contents)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def code_salt() -> str:
    """The code-version salt mixed into every cache key.

    Defaults to a digest of the installed ``repro`` sources; the
    ``REPRO_CODE_SALT`` environment variable overrides it.
    """
    override = os.environ.get(CODE_SALT_ENV)
    if override:
        return override
    return _source_digest()[:16]


def digest_document(document: Any) -> str:
    """SHA-256 hex digest of a canonicalised document."""
    return sha256(canonical_json(document).encode()).hexdigest()
