"""repro — a reproduction of "3GOL: Power-boosting ADSL using 3G OnLoading".

3GOL (Rossi et al., CoNEXT 2013) speeds up constrained residential ADSL
lines by "OnLoading" part of a transfer onto the 3G connections of phones
present in the home. This package reimplements the complete system —
multipath scheduler, HLS-aware proxy, multipart uploader, discovery,
cap/permit machinery — on top of a flow-level network simulator standing
in for the paper's hardware testbed, plus synthetic equivalents of its
proprietary traces and a benchmark harness regenerating every table and
figure of the evaluation.

Quickstart::

    from repro import OnloadSession, EVALUATION_LOCATIONS

    session = OnloadSession.for_location(EVALUATION_LOCATIONS[3], n_phones=2)
    session.host_bipbop()
    assisted = session.download_video("bipbop", "Q4")
    print(f"downloaded in {assisted.total_time:.1f}s")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core import (
    Direction,
    OnloadSession,
    OperatingMode,
    Transaction,
    TransferItem,
    make_policy,
)
from repro.netsim.topology import (
    EVALUATION_LOCATIONS,
    MEASUREMENT_LOCATIONS,
    Household,
    HouseholdConfig,
    LocationProfile,
)
from repro.web.hls import BIPBOP_QUALITIES, make_bipbop_video
from repro.web.upload import Photo

__version__ = "1.0.0"

__all__ = [
    "Direction",
    "OnloadSession",
    "OperatingMode",
    "Transaction",
    "TransferItem",
    "make_policy",
    "EVALUATION_LOCATIONS",
    "MEASUREMENT_LOCATIONS",
    "Household",
    "HouseholdConfig",
    "LocationProfile",
    "BIPBOP_QUALITIES",
    "make_bipbop_video",
    "Photo",
    "__version__",
]
