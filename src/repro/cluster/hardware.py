"""Hardware catalog for simulated cluster machines.

Section 3.1 of the paper describes the SDSC "Meteor" cluster drifting
from homogeneous to *seven* node types across two CPU architectures,
three vendors and three disk-storage adapters — heterogeneity is the
normal state of a cluster.  The hardware model here carries exactly the
attributes the Rocks toolchain has to abstract over: CPU architecture
(drives which packages kickstart selects), disk controller type (drives
which driver module the installer must load), and NIC set (Ethernet is
the management/install path; Myrinet needs its driver rebuilt from
source on-node).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = [
    "CpuArch",
    "DiskController",
    "NicKind",
    "Cpu",
    "Disk",
    "Nic",
    "MachineSpec",
    "MacAllocator",
    "CATALOG",
]


class CpuArch(enum.Enum):
    """Processor families present in the Meteor cluster (§6.1)."""

    I386 = "i386"  # IA-32 (Pentium III era)
    ATHLON = "athlon"
    IA64 = "ia64"

    @property
    def rpm_arch(self) -> str:
        return self.value


class DiskController(enum.Enum):
    """Storage adapter types the installer must autodetect (§1)."""

    SCSI = "scsi"
    IDE = "ide"
    RAID = "raid"  # integrated RAID adapter

    @property
    def driver_module(self) -> str:
        return {"scsi": "aic7xxx", "ide": "ide-disk", "raid": "megaraid"}[self.value]

    @property
    def device_prefix(self) -> str:
        return {"scsi": "sd", "ide": "hd", "raid": "rd/c0d"}[self.value]


class NicKind(enum.Enum):
    ETHERNET = "ethernet"
    MYRINET = "myrinet"

    @property
    def driver_module(self) -> str:
        return {"ethernet": "eepro100", "myrinet": "gm"}[self.value]


@dataclass(frozen=True)
class Cpu:
    arch: CpuArch
    mhz: int
    count: int = 1

    def __post_init__(self):
        if self.mhz <= 0 or self.count <= 0:
            raise ValueError("CPU mhz and count must be positive")

    @property
    def relative_speed(self) -> float:
        """Throughput relative to the paper's 733 MHz reference node."""
        return self.mhz / 733.0


@dataclass(frozen=True)
class Disk:
    controller: DiskController
    size_gb: int = 20

    def __post_init__(self):
        if self.size_gb <= 0:
            raise ValueError("disk size must be positive")

    @property
    def device(self) -> str:
        return f"{self.controller.device_prefix}a"


@dataclass(frozen=True)
class Nic:
    kind: NicKind
    mac: str
    mbit: int = 100

    def __post_init__(self):
        if self.mbit <= 0:
            raise ValueError("NIC speed must be positive")


@dataclass(frozen=True)
class MachineSpec:
    """A purchasable node configuration (vendor model)."""

    model: str
    cpu: Cpu
    disk: Disk
    has_myrinet: bool = False
    ethernet_mbit: int = 100
    vendor: str = "generic"
    memory_mb: int = 512

    def nics(self, mac_eth: str, mac_myri: Optional[str] = None) -> tuple[Nic, ...]:
        out = [Nic(NicKind.ETHERNET, mac_eth, self.ethernet_mbit)]
        if self.has_myrinet:
            out.append(Nic(NicKind.MYRINET, mac_myri or "00:60:dd:00:00:00", 1280))
        return tuple(out)

    def with_myrinet(self, present: bool = True) -> "MachineSpec":
        return replace(self, has_myrinet=present)


class MacAllocator:
    """Deterministic, collision-free Ethernet MAC addresses.

    Rocks identifies nodes by the MAC in their first DHCP request
    (insert-ethers, §6.4), so MACs must be stable across runs.
    """

    def __init__(self, oui: str = "00:50:8b"):
        if len(oui.split(":")) != 3:
            raise ValueError(f"OUI must be three octets, got {oui!r}")
        self.oui = oui
        self._next = 0

    def allocate(self) -> str:
        n = self._next
        self._next += 1
        return f"{self.oui}:{(n >> 16) & 0xFF:02x}:{(n >> 8) & 0xFF:02x}:{n & 0xFF:02x}"


#: Named configurations used across examples and benchmarks.  The
#: reference machines match §6.3: the HTTP server is a dual 733 MHz PIII,
#: compute nodes are 733 MHz - 1 GHz PIIIs with Myrinet.
CATALOG: dict[str, MachineSpec] = {
    "pIII-733-dual": MachineSpec(
        "pIII-733-dual",
        Cpu(CpuArch.I386, 733, 2),
        Disk(DiskController.SCSI, 36),
        vendor="Compaq",
        memory_mb=1024,
    ),
    "pIII-733-myri": MachineSpec(
        "pIII-733-myri",
        Cpu(CpuArch.I386, 733),
        Disk(DiskController.IDE, 20),
        has_myrinet=True,
        vendor="Compaq",
    ),
    "pIII-1000-myri": MachineSpec(
        "pIII-1000-myri",
        Cpu(CpuArch.I386, 1000),
        Disk(DiskController.IDE, 30),
        has_myrinet=True,
        vendor="IBM",
    ),
    "athlon-1200": MachineSpec(
        "athlon-1200",
        Cpu(CpuArch.ATHLON, 1200),
        Disk(DiskController.IDE, 40),
        vendor="whitebox",
    ),
    "ia64-800-raid": MachineSpec(
        "ia64-800-raid",
        Cpu(CpuArch.IA64, 800, 2),
        Disk(DiskController.RAID, 72),
        vendor="HP",
        memory_mb=2048,
    ),
    "nfs-server": MachineSpec(
        "nfs-server",
        Cpu(CpuArch.I386, 866, 2),
        Disk(DiskController.RAID, 144),
        vendor="IBM",
        memory_mb=1024,
    ),
}
