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

Transport is stdlib ``urllib.request`` with bounded exponential
backoff on connection errors and 5xx responses — agents must survive
a master restart without losing their leases' results.
"""

from __future__ import annotations

import dataclasses
import json
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

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


class _RetryableTransport(Exception):
    """A transport failure worth another attempt (5xx, connection)."""


class MasterClient:
    """A retrying JSON-over-HTTP client for one master URL.

    Shared by agents and the ``--master-url`` sweep client.  Requests
    retry on connection errors and 5xx responses with exponential
    backoff; 4xx responses carry a structured ``error`` field and are
    raised immediately as :class:`ClusterError` (retrying a rejected
    handshake cannot help).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 5,
        backoff_base: float = 0.2,
    ) -> None:
        self.base_url = base_url.rstrip("/")
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

    def call(
        self, endpoint: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """POST ``payload`` (or GET when ``None``) to ``endpoint``."""
        url = f"{self.base_url}{API_PREFIX}/{endpoint.lstrip('/')}"
        body = (
            None
            if payload is None
            else json.dumps(payload).encode("utf-8")
        )

        def once() -> Dict[str, Any]:
            request = urllib.request.Request(
                url,
                data=body,
                headers={"Content-Type": "application/json"},
                method="GET" if body is None else "POST",
            )
            try:
                failpoints.fire(SITE_CLIENT_PRE_SEND)
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    reply = json.loads(response.read().decode("utf-8"))
                # An error injected here lands after the master
                # processed the request: the retry that follows is a
                # duplicate delivery the endpoint must tolerate.
                failpoints.fire(SITE_CLIENT_POST_SEND)
                return reply
            except urllib.error.HTTPError as error:
                detail = ""
                try:
                    detail = str(
                        json.loads(error.read().decode("utf-8")).get(
                            "error", ""
                        )
                    )
                except (ValueError, OSError):
                    pass
                if 400 <= error.code < 500:
                    raise ClusterError(
                        f"master rejected {endpoint}: "
                        f"{detail or error.reason} (HTTP {error.code})"
                    ) from None
                raise _RetryableTransport(
                    f"HTTP {error.code}: {detail or error.reason}"
                ) from None
            except (urllib.error.URLError, OSError, ValueError) as error:
                raise _RetryableTransport(str(error)) from None

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
