"""Long-running onload service: overload control, drain, chaos.

The ``proto`` package proves the 3GOL data path works once; this
package keeps it working *continuously*. :class:`OnloadService` is a
real loopback TCP relay in front of the ADSL gateway and the phones'
shaped 3G proxies, built for sustained operation:

* :mod:`repro.service.admission` — bounded flow pool + bounded wait
  queue; overload sheds explicitly (503 + ``overload-shed``), never
  queues unboundedly;
* :mod:`repro.service.lifecycle` — the
  starting → serving → draining → stopped state machine and the
  :class:`~repro.service.lifecycle.Deadline` budgets propagated hop to
  hop via the ``x-3gol-deadline-s`` header;
* :mod:`repro.service.server` — the relay itself: shared
  :class:`~repro.core.resilience.RetryBudget`, cap/permit authority
  through a :class:`~repro.core.resilience.FlowLedger`, graceful drain
  with straggler abort and byte true-up;
* :mod:`repro.service.chaos` / :mod:`repro.service.loadgen` — the
  seeded adversarial fleet and the seeded open-loop workload that the
  ``repro-serve smoke`` harness fires at a live service;
* :mod:`repro.service.benchrecord` — the ``BENCH_service.json`` record
  that harness writes.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
)
from repro.service.chaos import ChaosPlan, build_plan, run_plan
from repro.service.lifecycle import (
    Deadline,
    Lifecycle,
    LifecycleError,
)
from repro.service.loadgen import (
    LoadPlan,
    LoadReport,
    build_load_plan,
    run_load,
)
from repro.service.server import (
    DrainReport,
    FlowRecord,
    OnloadService,
    ServiceLeg,
    ServiceReport,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ChaosPlan",
    "Deadline",
    "DrainReport",
    "FlowRecord",
    "Lifecycle",
    "LifecycleError",
    "LoadPlan",
    "LoadReport",
    "OnloadService",
    "ServiceLeg",
    "ServiceReport",
    "build_load_plan",
    "build_plan",
    "run_load",
    "run_plan",
]
