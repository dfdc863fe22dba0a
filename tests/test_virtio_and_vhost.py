"""Protocol-level tests for virtio rings, vhost workers, and failure
injection on the I/O paths."""

import pytest

from repro.core.testbed import build_testbed
from repro.errors import ProtocolError
from repro.hv.kvm.virtio import VirtioNetDevice, VirtioQueue
from repro.hw.dev.nic import Packet


class TestVirtioQueue:
    def test_post_pop_cycle(self):
        queue = VirtioQueue("q", size=4)
        queue.guest_post({"id": 1})
        assert queue.avail_count == 1
        assert queue.backend_pop() == {"id": 1}
        assert queue.avail_count == 0

    def test_pop_empty_rejected(self):
        with pytest.raises(ProtocolError):
            VirtioQueue("q").backend_pop()

    def test_avail_ring_capacity_enforced(self):
        queue = VirtioQueue("q", size=2)
        queue.guest_post({})
        queue.guest_post({})
        with pytest.raises(ProtocolError):
            queue.guest_post({})

    def test_used_ring_capacity_enforced(self):
        queue = VirtioQueue("q", size=1)
        queue.backend_push_used({})
        with pytest.raises(ProtocolError):
            queue.backend_push_used({})

    def test_guest_collect_used_drains(self):
        queue = VirtioQueue("q")
        queue.backend_push_used({"a": 1})
        queue.backend_push_used({"b": 2})
        assert len(queue.guest_collect_used()) == 2
        assert queue.used_count == 0

    def test_kick_and_notify_counters(self):
        queue = VirtioQueue("q")
        queue.guest_kick()
        queue.guest_kick()
        queue.backend_push_used({})
        assert queue.kicks == 2
        assert queue.notifies == 1


class TestVirtioNetDevice:
    def test_rx_ring_kept_stocked(self):
        testbed = build_testbed("kvm-arm")
        device = VirtioNetDevice(testbed.vm)
        assert device.rx.avail_count == device.rx.size
        device.rx.backend_pop()
        device.refill_rx()
        assert device.rx.avail_count == device.rx.size


class TestVhostDataPath:
    def test_tx_packet_reaches_the_wire(self):
        testbed = build_testbed("kvm-arm")
        hv = testbed.hypervisor
        vcpu = testbed.vm.vcpu(0)
        hv.install_guest(vcpu)
        packet = Packet(1500, kind="data")
        observed = hv.kick_backend(vcpu, packet=packet)
        testbed.engine.run_until_fired(observed)
        testbed.engine.run()
        assert "host.tx" in packet.stamps
        assert "client.rx" in packet.stamps  # crossed the wire
        assert hv.vhost_workers[testbed.vm.name].processed_tx == 1

    def test_rx_packet_reaches_the_guest(self):
        testbed = build_testbed("kvm-arm")
        hv = testbed.hypervisor
        hv.park_vcpu(testbed.vm.vcpu(0))
        packet = Packet(1500, kind="data")
        testbed.client_nic.transmit(packet)
        testbed.engine.run()
        assert "host.rx_driver" in packet.stamps
        assert hv.vhost_workers[testbed.vm.name].processed_rx == 1

    def test_rx_is_zero_copy(self):
        """The payload lands in a guest-visible virtio buffer: the ring
        entry the guest reaps from the used ring carries the very packet
        object."""
        testbed = build_testbed("kvm-arm")
        hv = testbed.hypervisor
        hv.park_vcpu(testbed.vm.vcpu(0))
        device = hv.virtio_devices[testbed.vm.name]
        reaped = []
        collect = device.rx.guest_collect_used

        def spy():
            used = collect()
            reaped.extend(used)
            return used

        device.rx.guest_collect_used = spy
        packet = Packet(900)
        testbed.client_nic.transmit(packet)
        testbed.engine.run()
        # the guest's virtio-net interrupt handler reaped the used ring
        assert device.rx.used_count == 0
        assert reaped and reaped[0]["packet"] is packet

    def test_stream_of_kicks_all_processed(self):
        testbed = build_testbed("kvm-arm")
        hv = testbed.hypervisor
        vcpu = testbed.vm.vcpu(0)
        hv.install_guest(vcpu)
        for _ in range(10):
            observed = hv.kick_backend(vcpu)
            testbed.engine.run_until_fired(observed)
            testbed.engine.run()
        assert hv.vhost_workers[testbed.vm.name].processed_tx == 10


class TestXenDataPathFailures:
    def test_netback_grant_discipline_under_load(self):
        """Many packets through netback: every grant mapped is unmapped
        and revoked (no leaks under sustained I/O)."""
        testbed = build_testbed("xen-arm")
        hv = testbed.hypervisor
        vcpu = testbed.vm.vcpu(0)
        hv.install_guest(vcpu)
        hv.park_vcpu(hv.dom0.vcpu(0))
        grants = hv.grant_tables[testbed.vm.name]
        for index in range(8):
            observed = hv.kick_backend(vcpu, packet=Packet(1500))
            testbed.engine.run_until_fired(observed)
            testbed.engine.run()
        assert grants.maps == grants.unmaps == 8
        assert grants.active_mappings() == 0

    def test_xen_rx_pays_copy_kvm_does_not(self):
        """Failure-injection style check on the structural difference:
        drive the same packet through both rx paths and compare the
        per-packet copy work recorded in the traces."""
        copies = {}
        for key in ("kvm-arm", "xen-arm"):
            testbed = build_testbed(key)
            hv = testbed.hypervisor
            hv.park_vcpu(testbed.vm.vcpu(0))
            if hv.design == "type1":
                hv.park_vcpu(hv.dom0.vcpu(0))
            machine = testbed.machine
            machine.tracer.enabled = True
            machine.tracer.begin("rx")
            testbed.client_nic.transmit(Packet(1500))
            testbed.engine.run()
            trace = machine.tracer.end()
            copies[key] = trace.by_category().get("copy", 0)
        assert copies["kvm-arm"] == 0
        assert copies["xen-arm"] > 7000  # the >3us grant copy
