"""Hardware specification catalog for the reproduction testbeds."""

from repro.hardware.catalog import (
    CORE_I7_8700K,
    GPUS,
    GTX_1080_TI,
    GTX_285,
    GTX_680,
    SMP_2000,
    XEON_2010,
    machine_2010,
    paper_machine,
)
from repro.hardware.specs import CpuSpec, GpuSpec, MachineSpec

__all__ = [
    "CORE_I7_8700K",
    "CpuSpec",
    "GPUS",
    "GTX_1080_TI",
    "GTX_285",
    "GTX_680",
    "GpuSpec",
    "MachineSpec",
    "SMP_2000",
    "XEON_2010",
    "machine_2010",
    "paper_machine",
]
