"""The cluster wire protocol: spec serialisation + retrying HTTP.

Everything on the wire is JSON.  A :class:`~repro.exec.spec.RunSpec`
crosses the network as its :func:`~repro.exec.hashing.canonical` form
— the *same* document the content hash is computed over — so a spec
rebuilt on the far side digests identically to the original
(:func:`canonical` already folds tuples to lists, which is exactly
what JSON round-tripping does).  Both sides exchange their
:func:`~repro.exec.hashing.code_salt` at handshake time and refuse to
talk across a mismatch: digests computed under different code
versions can never match, so a mixed-version cluster would silently
re-execute (and mis-cache) everything rather than fail loudly.

Transport is HTTP/1.1 over plain ``socket`` connections, one request
per connection (``Connection: close``), JSON bodies framed by
``Content-Length``.  Both ends live here and in
:mod:`repro.cluster.master`, and the control plane is ``http://``
only, so neither side loads ``http.client``, ``urllib.request`` or
``ssl``, and no cluster process maps OpenSSL.  The client retries
with bounded exponential backoff on connection errors, short or
malformed replies and 5xx responses — agents must survive a master
restart without losing their leases' results.
"""

from __future__ import annotations

import dataclasses
import json
import socket
from typing import Any, BinaryIO, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro import failpoints
from repro.errors import ClusterError
from repro.exec.hashing import canonical, code_salt
from repro.exec.retry import RetryPolicy, retry_call
from repro.exec.spec import RunSpec
from repro.hardware.disk import DiskModel
from repro.media.tape_layout import TapeOrder
from repro.simulation.config import SimulationConfig

#: Failpoint sites bracketing one HTTP exchange.  ``post_send`` fires
#: after the master has processed the request but before the client
#: sees the reply — an injected error there simulates a dropped
#: response and exercises endpoint idempotency under client retry.
SITE_CLIENT_PRE_SEND = failpoints.register_site(
    "cluster.client.pre_send",
    "request built, not yet sent to the master",
)
SITE_CLIENT_POST_SEND = failpoints.register_site(
    "cluster.client.post_send",
    "master replied, client has not yet returned the response",
)

#: Bumped on incompatible wire-format changes; exchanged at register
#: and submit time.
PROTOCOL_VERSION = 1

#: URL prefix every endpoint lives under.
API_PREFIX = "/api/v1"

#: Seconds between polls: an idle agent's lease requests (the master
#: hands it out at register) and a ``--master-url`` client's
#: sweep-state requests.
POLL_INTERVAL = 0.2

#: Config fields whose canonical (JSON) form needs coercing back to
#: the richer in-memory type when a config is rebuilt from the wire.
_TUPLE_FIELDS = ("mmpp_rates", "mmpp_sojourn")


def spec_to_wire(spec: RunSpec) -> Dict[str, Any]:
    """One spec as a JSON-able document (digest-preserving)."""
    return {
        "kind": spec.kind,
        "label": spec.label,
        "params": canonical(dict(spec.params)),
        "config": canonical(spec.config) if spec.config is not None else None,
    }


def config_from_wire(doc: Dict[str, Any]) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from its canonical form.

    ``canonical`` flattened the nested :class:`DiskModel` to a dict,
    the :class:`TapeOrder` enum to its value, and every tuple to a
    list; this inverts all three.  Unknown keys (a newer master
    talking to this agent) are rejected by the dataclass constructor —
    deliberately, as silently dropping a knob would change what the
    run computes while keeping its digest.
    """
    fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    unknown = set(doc) - fields
    if unknown:
        raise ClusterError(
            f"config document has unknown fields {sorted(unknown)} "
            "(protocol or code-version skew?)"
        )
    kwargs = dict(doc)
    kwargs["disk"] = DiskModel(**doc["disk"])
    kwargs["tape_order"] = TapeOrder(doc["tape_order"])
    for name in _TUPLE_FIELDS:
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    if "fail_at" in kwargs:
        kwargs["fail_at"] = tuple(
            tuple(entry) for entry in kwargs["fail_at"]
        )
    return SimulationConfig(**kwargs)


def spec_from_wire(doc: Dict[str, Any]) -> RunSpec:
    """Rebuild a :class:`RunSpec` from :func:`spec_to_wire`'s output."""
    config_doc = doc.get("config")
    return RunSpec(
        kind=str(doc["kind"]),
        config=config_from_wire(config_doc) if config_doc else None,
        params=dict(doc.get("params") or {}),
        label=str(doc.get("label", "")),
    )


def handshake_document() -> Dict[str, Any]:
    """The version fields every register/submit request carries."""
    return {"protocol": PROTOCOL_VERSION, "salt": code_salt()}


def check_handshake(doc: Dict[str, Any]) -> Optional[str]:
    """The rejection reason for a peer's handshake, or ``None``."""
    if int(doc.get("protocol", -1)) != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: peer speaks "
            f"{doc.get('protocol')!r}, this side {PROTOCOL_VERSION}"
        )
    if str(doc.get("salt", "")) != code_salt():
        return (
            f"code-version (salt) mismatch: peer {doc.get('salt')!r}, "
            f"this side {code_salt()!r} — digests would never match"
        )
    return None


#: Bounds on one message head, as ``http.client`` and ``http.server``
#: set them: no start or header line over ``MAX_LINE`` bytes, and at
#: most ``MAX_HEADERS`` header lines.
MAX_LINE = 65536
MAX_HEADERS = 100

#: Most bytes one read of a body asks for, so that memory follows the
#: bytes that arrive, not the length a peer declares.
READ_CHUNK = 1 << 20


def _read_line(rfile: BinaryIO) -> str:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ValueError(f"line over {MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ValueError("connection closed inside a message head")
    return line.decode("latin-1").rstrip("\r\n")


def read_head(rfile: BinaryIO) -> Tuple[str, Dict[str, str]]:
    """One message's start line and its headers, names lower-cased.

    Raises :class:`ValueError` on a line over :data:`MAX_LINE` bytes,
    more than :data:`MAX_HEADERS` headers, a header line without a
    colon, or a peer that closed inside the head.
    """
    start = _read_line(rfile)
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(rfile)
        if not line:
            return start, headers
        name, colon, value = line.partition(":")
        if not colon:
            raise ValueError(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    raise ValueError(f"more than {MAX_HEADERS} headers")


def content_length(headers: Dict[str, str]) -> int:
    """The body length a head declares; :class:`ValueError` when it is
    missing, negative or not an integer."""
    text = headers.get("content-length", "")
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bad or missing Content-Length {text!r}")
    return int(text)


def read_body(rfile: BinaryIO, length: int) -> bytes:
    """Exactly ``length`` body bytes; :class:`ConnectionError` when the
    peer closes first."""
    body = bytearray()
    while len(body) < length:
        chunk = rfile.read(min(length - len(body), READ_CHUNK))
        if not chunk:
            raise ConnectionError(
                f"peer closed after {len(body)} of {length} body bytes"
            )
        body += chunk
    return bytes(body)


def frame(start: str, body: bytes, *headers: str) -> bytes:
    """One HTTP/1.1 message: ``start``, ``headers``, and a JSON body
    framed by ``Content-Length`` on a ``Connection: close`` exchange."""
    head = "\r\n".join((
        start,
        *headers,
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
        "",
        "",
    ))
    return head.encode("latin-1") + body


def _error_detail(body: bytes) -> str:
    try:
        document = json.loads(body)
    except ValueError:
        return ""
    return str(document.get("error", "")) if isinstance(document, dict) else ""


class _RetryableTransport(Exception):
    """A transport failure worth another attempt (5xx, connection)."""


class MasterClient:
    """A retrying JSON-over-HTTP client for one ``http://`` master URL.

    Shared by agents and the ``--master-url`` sweep client.  Requests
    retry on connection errors, short or malformed replies and 5xx
    responses with exponential backoff; 4xx responses carry a
    structured ``error`` field and are raised immediately as
    :class:`ClusterError` (retrying a rejected handshake cannot help).
    A URL that is not ``http://host[:port]`` is refused at construction.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 5,
        backoff_base: float = 0.2,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        try:
            port = 80 if parts.port is None else parts.port
        except ValueError:  # a port that is not a number in 0..65535
            port = None
        if parts.scheme != "http" or not parts.hostname or port is None:
            raise ClusterError(
                f"master URL {base_url!r} is not http://host[:port]"
            )
        self.address = (parts.hostname, port)
        self._host = parts.netloc
        self._prefix = parts.path + API_PREFIX
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        #: The shared stack-wide retry contract (repro.exec.retry):
        #: every transport retry — agent pushes included — backs off
        #: through this policy.
        self.policy = RetryPolicy(
            max_attempts=retries, backoff_base=backoff_base, backoff_cap=5.0
        )

    def __repr__(self) -> str:
        return f"<MasterClient {self.base_url}>"

    def _exchange(self, request: bytes) -> Tuple[int, str, bytes]:
        """Send ``request`` on a fresh connection; the reply's status
        code, reason phrase and body."""
        with socket.create_connection(
            self.address, timeout=self.timeout
        ) as sock:
            sock.sendall(request)
            with sock.makefile("rb") as rfile:
                status, headers = read_head(rfile)
                version, _, rest = status.partition(" ")
                code, _, reason = rest.partition(" ")
                if not version.startswith("HTTP/"):
                    raise ValueError(f"malformed status line {status[:80]!r}")
                return (
                    int(code),
                    reason,
                    read_body(rfile, content_length(headers)),
                )

    def call(
        self, endpoint: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """POST ``payload`` (or GET when ``None``) to ``endpoint``."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        method = "GET" if payload is None else "POST"
        request = frame(
            f"{method} {self._prefix}/{endpoint.lstrip('/')} HTTP/1.1",
            body,
            f"Host: {self._host}",
        )

        def once() -> Dict[str, Any]:
            try:
                failpoints.fire(SITE_CLIENT_PRE_SEND)
                code, reason, reply = self._exchange(request)
                if code == 200:
                    document = json.loads(reply)
                    # An error injected here lands after the master
                    # processed the request: the retry that follows is
                    # a duplicate delivery the endpoint must tolerate.
                    failpoints.fire(SITE_CLIENT_POST_SEND)
                    return document
            except (OSError, ValueError) as error:
                raise _RetryableTransport(str(error)) from None
            detail = _error_detail(reply) or reason
            if 400 <= code < 500:
                raise ClusterError(
                    f"master rejected {endpoint}: {detail} (HTTP {code})"
                )
            raise _RetryableTransport(f"HTTP {code}: {detail}")

        try:
            return retry_call(
                once, self.policy, retryable=(_RetryableTransport,)
            )
        except _RetryableTransport as error:
            raise ClusterError(
                f"master at {self.base_url} unreachable after "
                f"{self.retries} attempts ({endpoint}): {error}"
            ) from None

    # -- agent side ----------------------------------------------------
    def register(
        self, agent_id: str, cores: int, host: str
    ) -> Dict[str, Any]:
        doc = handshake_document()
        doc.update({"agent": agent_id, "cores": cores, "host": host})
        return self.call("register", doc)

    def heartbeat(self, agent_id: str) -> Dict[str, Any]:
        return self.call("heartbeat", {"agent": agent_id})

    def lease(self, agent_id: str, max_batch: int) -> Dict[str, Any]:
        return self.call(
            "lease", {"agent": agent_id, "max_batch": max_batch}
        )

    def push_result(
        self,
        agent_id: str,
        sweep_id: str,
        index: int,
        digest: str,
        outcome: Dict[str, Any],
        artifact: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        return self.call(
            "result",
            {
                "agent": agent_id,
                "sweep_id": sweep_id,
                "index": index,
                "digest": digest,
                "outcome": outcome,
                "artifact": artifact,
            },
        )

    def goodbye(self, agent_id: str) -> Dict[str, Any]:
        return self.call("goodbye", {"agent": agent_id})

    # -- sweep-client side ---------------------------------------------
    def submit_sweep(
        self,
        wires: List[Dict[str, Any]],
        argv: Optional[List[str]],
        obs_level: str,
    ) -> Dict[str, Any]:
        doc = handshake_document()
        doc.update(
            {"specs": wires, "argv": list(argv or []), "obs_level": obs_level}
        )
        return self.call("sweeps", doc)

    def sweep_state(self, sweep_id: str) -> Dict[str, Any]:
        return self.call(f"sweeps/{sweep_id}")

    def sweep_records(self, sweep_id: str) -> Dict[str, Any]:
        return self.call(f"sweeps/{sweep_id}/records")

    def shutdown(self) -> Dict[str, Any]:
        return self.call("shutdown", {})
