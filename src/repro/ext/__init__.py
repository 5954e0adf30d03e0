"""Extensions beyond the paper: SMP nodes (§7) and what-if systems."""

from .emp import EmpDevice, emp_system
from .smp import SmpAvailability, run_smp_polling, smp_system
from .whatif import (
    OffloadNicDevice,
    coalesced_portals,
    offload_nic_system,
)

__all__ = [
    "EmpDevice",
    "OffloadNicDevice",
    "SmpAvailability",
    "coalesced_portals",
    "emp_system",
    "offload_nic_system",
    "run_smp_polling",
    "smp_system",
]
