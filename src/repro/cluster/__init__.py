"""Distributed sweep execution: a master/agent control plane.

``repro.cluster`` lifts the sweep executor across machines without
changing what a sweep *means*: the master owns the same
content-addressed result cache and append-only sweep journal a local
sweep uses, and agents run leased rows through the
same supervised retry/poison machinery a local pool would.  The
network is a transport, never a semantic: a sweep executed by one
local worker, two loopback agents, or agents joining and dying
mid-sweep produces byte-identical cached results and an identical
order-independent settled digest
(:meth:`~repro.obs.events.SweepProgress.settled_digest`).

Roles (see docs/distributed_execution.md):

* :mod:`repro.cluster.master` — ``repro master``: an HTTP control
  plane (HTTP/1.1 over ``socketserver``; no new dependency, and no
  ``http.server``, so no OpenSSL mapped) that plans sweeps
  with the executor's own :func:`~repro.exec.executor.plan_rows`,
  leases pending rows to agents, detects dead agents by heartbeat
  timeout, and persists pushed results through
  :func:`~repro.exec.executor.persist_outcome`;
* :mod:`repro.cluster.agent` — ``repro agent``: registers, leases
  batches, executes them through the local executor's dispatch path
  (:func:`~repro.exec.supervisor.run_tasks`), and pushes outcomes
  (plus obs artifacts) back;
* :mod:`repro.cluster.client` — the ``--master-url`` path of ordinary
  sweep commands: submit the plan, poll progress, fetch records;
* :mod:`repro.cluster.protocol` — the JSON wire format, the HTTP/1.1
  framing both ends share, and the retrying plain-socket client;
* :mod:`repro.cluster.registry` — the master's agent table: liveness
  and heartbeat-timeout expiry only (who holds which row is recorded
  once, in each sweep's lease table).

Everything here imports lazily from the executor's point of view: the
default local path never pays for this package.
"""

from repro.cluster.protocol import PROTOCOL_VERSION

__all__ = ["PROTOCOL_VERSION"]
