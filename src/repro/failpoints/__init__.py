"""Deterministic failpoints for the execution stack.

A *failpoint* is a named site at an I/O boundary — ``cache.write
.pre_rename``, ``journal.append.post_write``, ``worker.result
.pre_put`` — where a fault can be injected on demand: a hard crash, a
partial (torn) write, an exception of a chosen kind, a disk-full
error, or a delay.
Sites are declared where they live (``register_site`` at module
import) and triggered inline with :func:`fire`, which is a single
dict lookup when no failpoints are armed — the zero-cost-when-off
contract that lets every write path carry its sites permanently.

Activation is environment-driven so forked/spawned workers and
subprocesses inherit it::

    REPRO_FAILPOINTS="journal.append.pre_write=torn:9"
    REPRO_FAILPOINTS="cache.write.pre_rename=crash@2;worker.result.pre_put=delay:5"

Grammar (rules joined with ``;``)::

    site=action[@hit][!once]

    action ::= crash | error:<kind> | torn:<bytes> | delay:<ms> | enospc
    kind   ::= io | transient | poison | enospc | edquot

Scheduling is replayable by construction: ``@hit`` fires on exactly
the N-th evaluation of the site in a process (default ``@1``), so a
fault is reproduced by replaying the same spec.  ``!once`` adds a
cross-process gate (an ``O_EXCL`` token file under
``REPRO_FAILPOINTS_GATE``) so a site reached by many workers fires in
exactly one of them.

Actions:

``crash``
    ``os._exit`` with :data:`CRASH_EXIT_CODE` — no ``atexit``, no
    ``finally`` blocks, the closest a test gets to pulling the plug.
``torn:<bytes>``
    For write sites that pass ``data``/``writer`` to :func:`fire`:
    write only the first N bytes of the payload, then crash — leaves
    a mid-record tear for recovery code to survive.  Sites without a
    writer degrade to ``crash``.
``error:<kind>``
    Raise a mapped exception: ``io`` → ``OSError(EIO)``,
    ``transient`` → :class:`InjectedTransientError` (retried by the
    supervisor), ``poison`` → :class:`InjectedFault` (a
    :class:`~repro.errors.ReproError`: deterministic, not retried),
    ``enospc``/``edquot`` → the matching ``OSError``.
``enospc``
    Shorthand for ``error:enospc``.
``delay:<ms>``
    Sleep — for widening race windows.

See ``docs/chaos_testing.md`` for the crash-consistency scenarios
built on top (``tests/chaos/test_crash_consistency.py``).
"""

from __future__ import annotations

import errno
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "CRASH_EXIT_CODE",
    "FAILPOINTS_ENV",
    "GATE_ENV",
    "InjectedFault",
    "InjectedTransientError",
    "fire",
    "install",
    "install_from_env",
    "register_site",
    "registered_sites",
]

#: Environment variable holding the failpoint spec string.
FAILPOINTS_ENV = "REPRO_FAILPOINTS"
#: Directory for ``!once`` cross-process gate tokens.
GATE_ENV = "REPRO_FAILPOINTS_GATE"

#: Exit status of the ``crash``/``torn`` actions — distinguishable
#: from every legitimate repro exit code (0, 1, 2, 3, 130).
CRASH_EXIT_CODE = 86

#: Action names accepted by the spec grammar.
ACTIONS = ("crash", "error", "torn", "delay", "enospc")

#: ``error:<kind>`` vocabulary.
ERROR_KINDS = ("io", "transient", "poison", "enospc", "edquot")


class InjectedFault(ReproError):
    """A deterministic injected failure (classified as poison)."""


class InjectedTransientError(RuntimeError):
    """A transient injected failure (retried by supervision)."""


# -- site registry -----------------------------------------------------

_SITES: Dict[str, str] = {}


def register_site(name: str, description: str = "") -> str:
    """Declare a failpoint site; returns ``name`` for reuse."""
    _SITES[name] = description
    return name


def registered_sites() -> Dict[str, str]:
    """Sites registered so far (import modules to populate)."""
    return dict(_SITES)


# -- spec parsing ------------------------------------------------------

@dataclass
class Rule:
    """One armed failpoint: parsed action plus scheduling state."""

    site: str
    action: str
    #: error kind, torn byte count, or delay milliseconds.
    arg: Optional[object] = None
    #: Fire on exactly this evaluation (1-based); default 1.
    hit: Optional[int] = None
    #: Cross-process once-only gate (token file under GATE_ENV).
    once: bool = False
    hits: int = 0


def _parse_rule(text: str) -> Rule:
    if "=" not in text:
        raise ConfigurationError(
            f"failpoint rule {text!r}: expected site=action"
        )
    site, _, action_text = text.partition("=")
    site = site.strip()
    action_text = action_text.strip()
    once = False
    if action_text.endswith("!once"):
        once = True
        action_text = action_text[: -len("!once")]
    hit: Optional[int] = None
    if "@" in action_text:
        action_text, _, hit_text = action_text.partition("@")
        try:
            hit = int(hit_text)
        except ValueError:
            raise ConfigurationError(
                f"failpoint rule for {site!r}: bad hit count "
                f"{hit_text!r}"
            ) from None
        if hit < 1:
            raise ConfigurationError(
                f"failpoint rule for {site!r}: hit count must be >= 1"
            )
    name, _, arg_text = action_text.partition(":")
    name = name.strip()
    if name not in ACTIONS:
        raise ConfigurationError(
            f"failpoint rule for {site!r}: unknown action {name!r} "
            f"(expected one of {', '.join(ACTIONS)})"
        )
    arg: Optional[object] = None
    if name == "error":
        kind = arg_text.strip()
        if kind not in ERROR_KINDS:
            raise ConfigurationError(
                f"failpoint rule for {site!r}: unknown error kind "
                f"{kind!r} (expected one of {', '.join(ERROR_KINDS)})"
            )
        arg = kind
    elif name == "torn":
        try:
            arg = int(arg_text)
        except ValueError:
            raise ConfigurationError(
                f"failpoint rule for {site!r}: torn needs a byte "
                f"count, got {arg_text!r}"
            ) from None
        if arg < 0:
            raise ConfigurationError(
                f"failpoint rule for {site!r}: torn byte count must "
                f"be >= 0"
            )
    elif name == "delay":
        try:
            arg = float(arg_text)
        except ValueError:
            raise ConfigurationError(
                f"failpoint rule for {site!r}: delay needs "
                f"milliseconds, got {arg_text!r}"
            ) from None
    elif arg_text:
        raise ConfigurationError(
            f"failpoint rule for {site!r}: action {name!r} takes no "
            f"argument"
        )
    if name != "delay" and hit is None:
        hit = 1
    if once and not os.environ.get(GATE_ENV):
        raise ConfigurationError(
            f"failpoint rule for {site!r}: !once needs {GATE_ENV} to "
            f"point at a shared gate directory"
        )
    return Rule(site=site, action=name, arg=arg, hit=hit, once=once)


def parse_spec(spec: str) -> Dict[str, Rule]:
    """Parse a ``REPRO_FAILPOINTS`` spec string into rules by site."""
    rules: Dict[str, Rule] = {}
    for chunk in spec.replace(",", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rule = _parse_rule(chunk)
        rules[rule.site] = rule
    return rules


# -- runtime -----------------------------------------------------------

_ACTIVE: Dict[str, Rule] = {}
_LOCK = threading.Lock()

# Test hook: the crash primitive (os._exit in production).
_exit: Callable[[int], None] = os._exit


def install(spec: Optional[str] = None) -> None:
    """Arm failpoints from ``spec`` (or the environment).

    Passing ``spec=None`` re-reads :data:`FAILPOINTS_ENV`; an empty
    spec disarms everything.  Mutates the active table in place so
    every module that imported us sees the change.
    """
    if spec is None:
        spec = os.environ.get(FAILPOINTS_ENV, "")
    rules = parse_spec(spec) if spec else {}
    with _LOCK:
        _ACTIVE.clear()
        _ACTIVE.update(rules)


def install_from_env() -> None:
    """(Re)arm from ``REPRO_FAILPOINTS`` — called at import."""
    install(None)


def _claim_gate(site: str) -> bool:
    """Atomically claim the cross-process once-token for ``site``."""
    gate_dir = os.environ.get(GATE_ENV)
    if not gate_dir:
        return True
    os.makedirs(gate_dir, exist_ok=True)
    token = os.path.join(gate_dir, site.replace("/", "_") + ".fired")
    try:
        fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, f"{os.getpid()}\n".encode())
    os.close(fd)
    return True


def _trigger(
    rule: Rule,
    data: Optional[bytes],
    writer: Optional[Callable[[bytes], None]],
) -> None:
    site = rule.site
    if rule.action == "delay":
        time.sleep(float(rule.arg or 0.0) / 1000.0)
        return
    if rule.action == "crash":
        _exit(CRASH_EXIT_CODE)
        return  # only reached when tests patch _exit
    if rule.action == "torn":
        if writer is not None and data is not None:
            writer(bytes(data)[: int(rule.arg or 0)])
        _exit(CRASH_EXIT_CODE)
        return
    kind = "enospc" if rule.action == "enospc" else str(rule.arg)
    if kind == "enospc":
        raise OSError(
            errno.ENOSPC, f"failpoint {site}: injected ENOSPC"
        )
    if kind == "edquot":
        raise OSError(
            errno.EDQUOT, f"failpoint {site}: injected EDQUOT"
        )
    if kind == "io":
        raise OSError(errno.EIO, f"failpoint {site}: injected I/O error")
    if kind == "transient":
        raise InjectedTransientError(
            f"failpoint {site}: injected transient failure"
        )
    raise InjectedFault(f"failpoint {site}: injected deterministic fault")


def fire(
    site: str,
    data: Optional[bytes] = None,
    writer: Optional[Callable[[bytes], None]] = None,
) -> None:
    """Evaluate the failpoint at ``site``; a no-op unless armed.

    ``data``/``writer`` make the site ``torn``-capable: when a
    ``torn:<n>`` rule fires, ``writer(data[:n])`` performs the partial
    write (the site supplies the mechanics — an ``os.write`` on its
    fd, a handle write+flush) and the process then crashes hard.
    """
    rule = _ACTIVE.get(site)
    if rule is None:
        return
    with _LOCK:
        rule.hits += 1
        if rule.hit is not None and rule.hits != rule.hit:
            return
        if rule.once and not _claim_gate(site):
            return
    _trigger(rule, data, writer)


install_from_env()
