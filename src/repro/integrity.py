"""Object integrity + graceful degradation for best-effort stores.

The result cache (run telemetry included), sweep journal and event
stream are all *accelerators or observers* of a sweep, not the computation
itself — a corrupt object or a full disk must never turn a healthy
sweep into a wrong or failed one.  This module centralises what every
such store needs (deliberately dependency-light: it is imported from
both the ``exec`` and ``obs`` layers, below either):

* :func:`sha256` — the package's one SHA-256 constructor, CPython's
  builtin one, so hashing maps no OpenSSL;
* :func:`record_checksum` — the self-describing ``checksum`` field
  every cached run record carries (SHA-256 over the canonical
  JSON of the record minus the field itself);
* :func:`quarantine_file` — the move-aside for objects whose checksum
  fails to verify: preserved under ``<root>/quarantine/`` for
  forensics, treated as a miss so the row re-executes — corrupt bytes
  are never served;
* :func:`out_of_space` — is this ``OSError`` ENOSPC/EDQUOT?
* :func:`warn_degraded` — one stderr warning per component per
  process, so a 10 000-row sweep on a full disk says so once, not
  10 000 times.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Set

__all__ = [
    "QUARANTINE_SUBDIR",
    "out_of_space",
    "quarantine_file",
    "record_checksum",
    "reset_warnings",
    "sha256",
    "warn_degraded",
]

# CPython's builtin SHA-256, as random.py takes its SHA-512: importing
# hashlib maps OpenSSL's libcrypto (about 3.4 MB resident) into every
# process, and the digests are the same bytes.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # an interpreter built without the builtin
        from hashlib import sha256


def record_checksum(record: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``record`` sans checksum.

    The body is JSON round-tripped first so the digest computed at
    write time (over live Python objects) equals the digest
    re-computed at load time (over the parsed file) even when
    serialization normalised types (tuples → lists, int keys → str).
    """
    body = {key: value for key, value in record.items() if key != "checksum"}
    canonical = json.loads(json.dumps(body))
    return sha256(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

#: Where checksum-failed objects are moved, relative to a store root.
QUARANTINE_SUBDIR = "quarantine"

_OUT_OF_SPACE = frozenset(
    code
    for code in (
        errno.ENOSPC,
        getattr(errno, "EDQUOT", None),
    )
    if code is not None
)

_warned: Set[str] = set()
_warn_lock = threading.Lock()


def out_of_space(error: BaseException) -> bool:
    """True when ``error`` is an out-of-space/quota ``OSError``."""
    return (
        isinstance(error, OSError) and error.errno in _OUT_OF_SPACE
    )


def warn_degraded(component: str, message: str) -> bool:
    """Emit one ``component``-keyed warning per process; True if new."""
    with _warn_lock:
        if component in _warned:
            return False
        _warned.add(component)
    print(
        f"repro: warning: {component} degraded: {message}",
        file=sys.stderr,
    )
    return True


def reset_warnings() -> None:
    """Forget emitted warnings (tests)."""
    with _warn_lock:
        _warned.clear()


def quarantine_file(root: Path, path: Path) -> Optional[Path]:
    """Move a corrupt object under ``<root>/quarantine/``.

    Returns the quarantine path, or None when the move itself failed
    (in which case the caller still treats the load as a miss — the
    corrupt file simply stays put).  Name collisions get a numeric
    suffix so repeated corruption never overwrites evidence.
    """
    quarantine = Path(root) / QUARANTINE_SUBDIR
    try:
        quarantine.mkdir(parents=True, exist_ok=True)
        target = quarantine / path.name
        serial = 0
        while target.exists():
            serial += 1
            target = quarantine / f"{path.name}.{serial}"
        os.replace(path, target)
        return target
    except OSError:
        return None
