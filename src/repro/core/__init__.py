"""The paper's primary contribution: the staggered-striping scheduler.

Sub-modules:

* :mod:`repro.core.virtual_disks` — the virtual-disk (slot) abstraction
  of §3.2.1 and the slot pool the scheduler allocates from.
* :mod:`repro.core.admission` — finding (possibly non-adjacent) idle
  virtual disks for a new display.
* :mod:`repro.core.display` — the state of one active display: the
  closed form of Algorithm 1 (time-fragmented delivery).  Algorithm 1's
  traced replay and Algorithm 2 (dynamic coalescing, Fig. 6) are test
  oracles (``tests/oracles/delivery.py``, ``tests/oracles/coalesce.py``):
  the scheduler never coalesces, so a fragmented display keeps its
  steady-state buffers to the end.
* :mod:`repro.core.lowbw` — low-bandwidth object sharing (§3.2.3).
* :mod:`repro.core.materialize` — writing objects from tertiary store.
* :mod:`repro.core.ff_rewind` — rewind / fast-forward (§3.2.5).
* :mod:`repro.core.object_manager` / :mod:`repro.core.disk_manager` /
  :mod:`repro.core.tertiary_manager` — the three managers of the
  paper's Centralized Scheduler (§4.1).
* :mod:`repro.core.scheduler` — the staggered-striping storage policy
  that plugs into the simulation engine.
"""

from repro.core.admission import AdmissionMode, AdmissionPlan, Admitter
from repro.core.display import Display, Lane
from repro.core.object_manager import ObjectManager, ReplacementPolicy
from repro.core.scheduler import StaggeredStripingPolicy
from repro.core.virtual_disks import SlotPool, physical_disk_of_slot, slot_at_physical

__all__ = [
    "AdmissionMode",
    "AdmissionPlan",
    "Admitter",
    "Display",
    "Lane",
    "ObjectManager",
    "ReplacementPolicy",
    "SlotPool",
    "StaggeredStripingPolicy",
    "physical_disk_of_slot",
    "slot_at_physical",
]
