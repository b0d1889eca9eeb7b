"""Unit tests for the hardware specification catalog."""

import pytest

from repro.hardware import (
    CORE_I7_8700K,
    GTX_1080_TI,
    GTX_285,
    GTX_680,
    SMP_2000,
    CpuSpec,
    machine_2010,
    paper_machine,
)


class TestCpuSpec:
    def test_paper_cpu_matches_table1(self):
        assert CORE_I7_8700K.physical_cores == 6
        assert CORE_I7_8700K.smt_ways == 2
        assert CORE_I7_8700K.logical_cpus == 12
        assert CORE_I7_8700K.base_clock_ghz == 3.70
        assert CORE_I7_8700K.turbo_clock_ghz == 4.70
        assert CORE_I7_8700K.llc_mb == 12

    def test_invalid_core_count_rejected(self):
        with pytest.raises(ValueError):
            CpuSpec("bad", 0, 1, 1.0, 1.0, 1)

    def test_invalid_smt_ways_rejected(self):
        with pytest.raises(ValueError):
            CpuSpec("bad", 2, 0, 1.0, 1.0, 1)


class TestGpuSpec:
    def test_1080ti_matches_paper(self):
        assert GTX_1080_TI.cuda_cores == 3584
        assert GTX_1080_TI.clock_mhz == 1481

    def test_680_matches_paper(self):
        assert GTX_680.cuda_cores == 1536
        assert GTX_680.clock_mhz == 1006
        assert not GTX_680.mining_optimized  # Kepler predates the boom

    def test_285_matches_paper(self):
        assert GTX_285.cuda_cores == 240
        assert GTX_285.clock_mhz == 648

    def test_paper_15x_core_claim(self):
        # "GTX 1080 Ti ... has 3584 CUDA cores (~15x more)" than GTX 285.
        assert GTX_1080_TI.cuda_cores / GTX_285.cuda_cores == pytest.approx(
            15, rel=0.01)

    def test_relative_throughput_ordering(self):
        assert GTX_1080_TI.throughput_relative_to(GTX_680) > 3.0
        assert GTX_680.throughput_relative_to(GTX_1080_TI) < 0.5

    def test_throughput_is_reciprocal(self):
        forward = GTX_1080_TI.throughput_relative_to(GTX_680)
        backward = GTX_680.throughput_relative_to(GTX_1080_TI)
        assert forward * backward == pytest.approx(1.0)


class TestMachineSpec:
    def test_paper_machine_has_12_logical_cpus(self):
        assert paper_machine().logical_cpus == 12

    def test_smt_disabled_halves_logical_cpus(self):
        machine = paper_machine().with_smt(False)
        assert machine.logical_cpus == 6
        assert machine.smt_ways == 1

    def test_core_scaling_restriction(self):
        machine = paper_machine().with_logical_cpus(4)
        assert machine.logical_cpus == 4

    def test_restriction_beyond_hardware_rejected(self):
        with pytest.raises(ValueError):
            paper_machine().with_logical_cpus(13)

    def test_restriction_respects_smt_off_limit(self):
        machine = paper_machine().with_smt(False)
        with pytest.raises(ValueError):
            machine.with_logical_cpus(7)

    def test_with_gpu_swaps_device_only(self):
        machine = paper_machine().with_gpu(GTX_680)
        assert machine.gpu is GTX_680
        assert machine.cpu is CORE_I7_8700K

    def test_machine_2010_matches_blake(self):
        machine = machine_2010()
        assert machine.cpu.physical_cores == 8
        assert machine.cpu.base_clock_ghz == pytest.approx(2.26)
        assert machine.ram_gb == 6
        assert machine.gpu is GTX_285

    def test_machine_2000_is_pre_smt(self):
        assert SMP_2000.smt_ways == 1

    def test_specs_are_immutable(self):
        with pytest.raises(AttributeError):
            paper_machine().cpu.physical_cores = 8
