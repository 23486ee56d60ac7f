"""Host substrate: cores, memory, VMs, hypervisor, virtio paths."""

import pytest

from repro import obs
from repro.errors import ConfigurationError, CoreExhaustedError, MemoryExhaustedError
from repro.host import HostMemory, Hypervisor, Server, VhostPath, Vm, VmRole, VmSpec
from repro.host.cpu import CorePool
from repro.host.hypervisor import PinPolicy
from repro.host.vm import VmState
from repro.net import Frame, MacAddress
from repro.sim import Simulator
from repro.units import GIB


class TestCorePool:
    def test_host_core_reserved_not_consumed(self):
        pool = CorePool(4)
        assert pool.available() == 3
        assert pool.used_cores() == 1  # the host core counts

    def test_dedicated_allocation_is_exclusive(self):
        pool = CorePool(4)
        share = pool.allocate_dedicated("vm0.vcpu0")
        assert share.effective_hz() == share.core.freq_hz
        assert pool.available() == 2

    def test_exhaustion(self):
        pool = CorePool(2)
        pool.allocate_dedicated("a")
        with pytest.raises(CoreExhaustedError):
            pool.allocate_dedicated("b")

    def test_shared_allocation_stacks_on_one_core(self):
        pool = CorePool(8)
        shares = [pool.allocate_shared(f"vsw{i}.vcpu0") for i in range(4)]
        cores = {s.core.core_id for s in shares}
        assert len(cores) == 1
        assert shares[0].effective_hz() == pytest.approx(
            shares[0].core.freq_hz / 4)
        assert pool.used_cores() == 2  # host core + shared core

    def test_effective_hz_reflects_late_joiners(self):
        """Shares are evaluated at use time, after all pinning."""
        pool = CorePool(8)
        first = pool.allocate_shared("a")
        before = first.effective_hz()
        pool.allocate_shared("b")
        assert first.effective_hz() == pytest.approx(before / 2)

    def test_host_share_runs_on_host_core(self):
        pool = CorePool(4)
        share = pool.allocate_host_share("ovs.pmd0")
        assert share.core is pool.host_core
        # The host OS is idle during measurements: full cycle supply.
        assert share.effective_hz() == share.core.freq_hz

    def test_release_frees_core(self):
        pool = CorePool(2)
        pool.allocate_dedicated("a")
        pool.release("a")
        pool.allocate_dedicated("b")  # no raise

    def test_double_pin_rejected(self):
        pool = CorePool(4)
        pool.allocate_shared("a")
        with pytest.raises(ValueError):
            pool.cores[1].pin("a")


class TestHostMemory:
    def test_host_reserves_one_hugepage(self):
        mem = HostMemory(total_bytes=64 * GIB, hugepages_1g=16)
        assert mem.allocated_hugepages() == 1

    def test_allocate_and_release(self):
        mem = HostMemory()
        mem.allocate("vm0", ram_bytes=4 * GIB, hugepages_1g=1)
        assert mem.allocated_hugepages() == 2
        mem.release("vm0")
        assert mem.allocated_hugepages() == 1

    def test_ram_exhaustion(self):
        mem = HostMemory(total_bytes=8 * GIB, hugepages_1g=2)
        with pytest.raises(MemoryExhaustedError):
            mem.allocate("big", ram_bytes=8 * GIB)

    def test_hugepage_exhaustion(self):
        mem = HostMemory(total_bytes=64 * GIB, hugepages_1g=2)
        with pytest.raises(MemoryExhaustedError):
            mem.allocate("vm0", ram_bytes=4 * GIB, hugepages_1g=2)

    def test_duplicate_owner_rejected(self):
        mem = HostMemory()
        mem.allocate("vm0", ram_bytes=GIB)
        with pytest.raises(MemoryExhaustedError):
            mem.allocate("vm0", ram_bytes=GIB)

    def test_ram_must_cover_hugepages(self):
        mem = HostMemory()
        with pytest.raises(ValueError):
            mem.allocate("vm0", ram_bytes=GIB // 2, hugepages_1g=1)


class TestHypervisor:
    def _server(self):
        return Server(Simulator(), num_cores=8)

    def test_define_start_stop_undefine(self):
        server = self._server()
        hv = Hypervisor(server)
        vm = hv.define_vm(VmSpec(name="t0", role=VmRole.TENANT, vcpus=2))
        assert vm.state is VmState.DEFINED
        hv.start(vm)
        assert vm.is_running
        hv.undefine(vm)
        assert "t0" not in server.vms
        assert server.cores.available() == 7

    def test_double_start_rejected(self):
        hv = Hypervisor(self._server())
        vm = hv.define_vm(VmSpec(name="t0", role=VmRole.TENANT))
        hv.start(vm)
        with pytest.raises(ConfigurationError):
            hv.start(vm)

    def test_duplicate_name_rejected(self):
        hv = Hypervisor(self._server())
        hv.define_vm(VmSpec(name="t0", role=VmRole.TENANT))
        with pytest.raises(ConfigurationError):
            hv.define_vm(VmSpec(name="t0", role=VmRole.TENANT))

    def test_failed_define_rolls_back(self):
        """Core exhaustion mid-define must not leak memory allocations."""
        server = Server(Simulator(), num_cores=2)
        hv = Hypervisor(server)
        before = server.memory.allocated_bytes()
        with pytest.raises(CoreExhaustedError):
            hv.define_vm(VmSpec(name="big", role=VmRole.TENANT, vcpus=4))
        assert server.memory.allocated_bytes() == before
        assert "big" not in server.vms

    def test_shared_pinning(self):
        server = self._server()
        hv = Hypervisor(server)
        a = hv.define_vm(VmSpec(name="v0", role=VmRole.VSWITCH,
                                pin_policy=PinPolicy.SHARED))
        b = hv.define_vm(VmSpec(name="v1", role=VmRole.VSWITCH,
                                pin_policy=PinPolicy.SHARED))
        assert a.compute[0].core is b.compute[0].core

    def test_attach_vf(self):
        server = self._server()
        hv = Hypervisor(server)
        vm = hv.define_vm(VmSpec(name="t0", role=VmRole.TENANT))
        vf = server.nic.port(0).create_vf()
        hv.attach_vf(vm, vf, 0)
        assert vf.attached_to == "t0"
        assert vm.vfs == [vf]

    def test_vm_app_registry(self):
        vm = Vm(name="x", role=VmRole.TENANT)
        vm.install_app("a", object())
        with pytest.raises(ValueError):
            vm.install_app("a", object())


class TestVhostPath:
    def test_bidirectional_delivery_with_latency(self):
        sim = Simulator()
        path = VhostPath(sim, "vh0")
        host_got, guest_got = [], []
        path.host_side.rx.connect(lambda f: host_got.append(sim.now))
        path.guest_side.rx.connect(lambda f: guest_got.append(sim.now))
        f = Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2))
        path.host_side.transmit(f)
        sim.run()
        assert guest_got == [pytest.approx(path.costs.latency)]
        path.guest_side.transmit(f.copy())
        sim.run()
        assert len(host_got) == 1
        assert path.crossings == 2

    def test_frames_stamped(self):
        sim = Simulator()
        tracer = obs.enable_tracing(sim)
        path = VhostPath(sim, "vh0")
        path.guest_side.rx.connect(lambda f: None)
        f = Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2))
        path.host_side.transmit(f)
        sim.run()
        [span] = tracer.journey(f.frame_id)
        assert (span.component, span.kind, span.outcome) == (
            "vh0", "vhost.crossing", "h2g")
        assert span.duration == pytest.approx(path.costs.latency)
