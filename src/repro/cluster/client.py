"""The ``--master-url`` sweep client: submit, poll, collect.

This is what :func:`repro.exec.executor.execute` delegates to when
``Supervision.master_url`` is set.  The client serialises the sweep's
specs to their canonical wire form, submits them to the master —
which plans against **its** cache and journal, so resubmitting an
interrupted sweep resumes it — then polls the sweep's state until it
completes and fetches the settled :class:`RunRecord` rows, in spec
order, exactly as a local ``execute`` would have returned them.

An observed session adopts the artifacts the records reply carries,
under a ``sweep-exec`` run of its own, exactly as a local collect.

Ctrl-C mid-poll raises :class:`~repro.errors.SweepInterrupted` with
the master-side sweep id: the sweep keeps running on the cluster, and
re-running the same command (or ``repro sweep-resume`` against the
master's cache) reattaches to it.
"""

from __future__ import annotations

import time
from typing import Any, List, Sequence

from repro import failpoints
from repro.errors import ClusterError, SweepInterrupted
from repro.exec.supervisor import GracefulSignals, Supervision
from repro.cluster.protocol import POLL_INTERVAL, MasterClient, spec_to_wire

#: Failpoint site after sweep submission: a client crash here leaves
#: the sweep running master-side; re-running the command must
#: reattach to it (same sweep id) rather than start over.
SITE_SWEEP_POST_SUBMIT = failpoints.register_site(
    "cluster.sweep.post_submit",
    "sweep submitted to the master, client not yet polling",
)


def execute_via_master(
    specs: Sequence[Any],
    supervision: Supervision,
    obs=None,
) -> List[Any]:
    """Run ``specs`` on the cluster behind ``supervision.master_url``."""
    # Imported here: circular at module level.
    from repro.exec.executor import RunRecord, adopt_artifacts

    client = MasterClient(supervision.master_url)
    wires = [spec_to_wire(spec) for spec in specs]
    obs_level = (
        obs.level.value if obs is not None and obs.enabled else "off"
    )
    state = client.submit_sweep(
        wires, supervision.argv, obs_level=obs_level
    )
    sweep_id = str(state.get("sweep_id", ""))
    failpoints.fire(SITE_SWEEP_POST_SUBMIT)

    with GracefulSignals(enabled=supervision.handle_signals) as signals:
        while not state.get("complete"):
            if signals.triggered is not None:
                settled = int(state.get("settled", 0))
                total = int(state.get("total", len(specs)))
                raise SweepInterrupted(
                    sweep_id=sweep_id,
                    journal_path=f"{client.base_url} (master-side)",
                    completed=settled,
                    pending=max(0, total - settled),
                    signal_name=signals.triggered,
                )
            time.sleep(POLL_INTERVAL)
            state = client.sweep_state(sweep_id)

    reply = client.sweep_records(sweep_id)
    rows = reply.get("records") or []
    if len(rows) != len(specs):
        raise ClusterError(
            f"master returned {len(rows)} records for a "
            f"{len(specs)}-spec sweep (incomplete collect?)"
        )
    artifacts = {
        row["digest"]: row.pop("artifact") for row in rows if "artifact" in row
    }
    records = sorted(
        (RunRecord(**row) for row in rows), key=lambda record: record.index
    )
    if obs_level != "off" and len(specs) > 1:
        exec_obs = obs.begin_run(f"sweep-exec[{len(specs)} runs]")
        registry = exec_obs.registry
        registry.counter("exec.runs").inc(len(specs))
        registry.counter("exec.obs_artifacts").inc(
            adopt_artifacts(obs, records, artifacts)
        )
        obs.finish_run(exec_obs)
    return records
