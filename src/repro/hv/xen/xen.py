"""The Xen hypervisor model (Type 1), for ARM and x86.

Structural story encoded here (paper Sections II, IV, V):

* The hypervisor itself lives in EL2 / root mode; traps are handled
  *there*, so hypercalls and interrupt-controller emulation are cheap —
  on ARM, dramatically cheaper than split-mode KVM.
* But Xen implements no device backends: I/O engages Dom0 — an event
  channel, a physical IPI, and (because Dom0 idles between requests) a
  full domain switch away from the idle domain, before netback even sees
  the request.  Data crosses domains by grant copy, never zero copy.
"""

from repro.errors import ConfigurationError, HardwareFault
from repro.hv.base import (
    ALL_ARM_CLASSES,
    VIRQ_EVTCHN,
    VIRQ_IPI,
    Hypervisor,
    VcpuState,
)
from repro.hv.xen.event_channels import EventChannelTable
from repro.hv.xen.netback import NetbackWorker
from repro.hv.xen.sched_credit import CreditScheduler
from repro.hw.cpu.arm import ExceptionLevel
from repro.hw.cpu.registers import fresh_context_image
from repro.hw.mem.grant import GrantTable
from repro.hw.mem.tlb import TlbShootdownModel

#: Physical IRQ Xen uses to kick a remote PCPU for event delivery.
EVTCHN_IPI_IRQ = 3

IDLE = "idle"


class XenHypervisor(Hypervisor):
    """Xen with a privileged Dom0 for all device I/O."""

    design = "type1"
    name = "xen"

    def __init__(self, machine):
        super().__init__(machine)
        self.event_channels = EventChannelTable(metrics=machine.obs.metrics)
        self.scheduler = CreditScheduler()
        self.grant_tables = {}
        self.netback_workers = {}
        self.shootdown = TlbShootdownModel(
            machine.platform.arch, machine.costs, machine.platform.num_cores
        )
        self.dom0 = None
        self.host_nic = None
        self.netstack = None
        #: (domu_name -> (tx_port, rx_port)) event channel ports
        self._io_ports = {}
        for pcpu in machine.pcpus:
            pcpu.irq_handler = self._irq_handler
            pcpu.current_context = IDLE
            pcpu.xen_idle_context = fresh_context_image()

    # --- domain lifecycle ------------------------------------------------

    def boot_dom0(self, num_vcpus=4, pcpu_indices=(0, 1, 2, 3), memory_mb=4096):
        """Create the privileged domain (paper config: 4 VCPUs, 4 GB)."""
        if self.dom0 is not None:
            raise ConfigurationError("Dom0 already booted")
        self.dom0 = self.create_vm("dom0", num_vcpus, list(pcpu_indices), memory_mb)
        return self.dom0

    def _on_vm_created(self, vm):
        self.grant_tables[vm.name] = GrantTable(vm.name)
        for vcpu in vm.vcpus:
            self.scheduler.register(vcpu)
        if self.dom0 is not None and vm is not self.dom0:
            # A DomU: wire its PV network interface to a netback instance
            # in Dom0 and bind the event channels.
            worker = NetbackWorker(self, vm, self.dom0.vcpu(0).pcpu, self.shootdown)
            self.netback_workers[vm.name] = worker
            tx_port, rx_port = self.event_channels.bind_interdomain(
                vm.vcpu(0), self.dom0.vcpu(0)
            )
            self._io_ports[vm.name] = (tx_port, rx_port)

    def attach_network(self, nic, netstack):
        """Physical NIC is driven by Dom0's device drivers."""
        self.host_nic = nic
        self.netstack = netstack
        nic.on_receive = self._on_physical_receive

    # --- benchmark setup helpers (zero-cost state installation) -------------

    # repro-lint: ignore[SYM001] -- zero-cost benchmark setup: installs a
    # guest image that was never live on this PCPU, so there is nothing
    # to save (measured windows start after installation).
    def install_guest(self, vcpu):
        pcpu = vcpu.pcpu
        arch = pcpu.arch
        if self.machine.is_arm:
            if arch.current_el == ExceptionLevel.EL2:
                arch.eret(ExceptionLevel.EL1)
            arch.load_context(vcpu.saved_context)
            arch.enable_virt_features(vcpu.vm.vmid)
        else:
            if not arch.root_mode:
                if arch.loaded_vmcs is vcpu.vmcs:
                    vcpu.state = VcpuState.GUEST
                    pcpu.current_context = vcpu
                    self.scheduler.wake(vcpu)
                    return
                arch.vmexit("reinstall")
            arch.load_vmcs(vcpu.vmcs)
            arch.vmentry()
        vcpu.state = VcpuState.GUEST
        pcpu.current_context = vcpu
        self.scheduler.wake(vcpu)

    def park_vcpu(self, vcpu):
        """The domain blocks; its PCPU runs the idle domain."""
        pcpu = vcpu.pcpu
        arch = pcpu.arch
        if self.machine.is_arm:
            if pcpu.current_context is vcpu:
                vcpu.saved_context = arch.save_context(ALL_ARM_CLASSES)
                arch.load_context(pcpu.xen_idle_context)
        else:
            if pcpu.current_context is vcpu and not arch.root_mode:
                arch.vmexit("blocked")
        vcpu.state = VcpuState.BLOCKED
        if pcpu.current_context is vcpu:
            pcpu.current_context = IDLE
        self.scheduler.block(vcpu)

    # --- light trap entry/return (the Type 1 advantage on ARM) ---------------

    # repro-lint: ignore[SYM001] -- trap-entry half: Xen handles traps in
    # EL2/root with only a GP bank push; _xen_return pops it (Section IV,
    # the Type 1 hypercall advantage).
    def _xen_entry(self, vcpu, reason="trap"):
        """Guest -> Xen.  On ARM this is just a GP bank push in EL2."""
        self.stats["traps"] += 1
        pcpu, costs = vcpu.pcpu, self.costs
        if pcpu.current_context is not vcpu:
            raise HardwareFault(
                "%s trapped on pcpu%d it does not occupy" % (vcpu.name, pcpu.index)
            )
        if self.machine.is_arm:
            pcpu.arch.trap_to_el2(reason)
            yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
            yield pcpu.op("save_gp_light", costs.gp_save_light, "save")
            yield pcpu.op("xen_dispatch", costs.xen_dispatch, "hv")
        else:
            pcpu.arch.vmexit(reason)
            yield pcpu.op("vmexit_hw", costs.vmexit_hw, "hw-switch")
            yield pcpu.op("xen_dispatch", costs.xen_dispatch, "hv")

    # repro-lint: ignore[SYM001] -- trap-return half of _xen_entry.
    def _xen_return(self, vcpu):
        pcpu, costs = vcpu.pcpu, self.costs
        if self.machine.is_arm:
            yield pcpu.op("restore_gp_light", costs.gp_restore_light, "restore")
            pcpu.arch.eret(ExceptionLevel.EL1)
            yield pcpu.op("eret_to_guest", costs.eret_to_el1, "trap")
        else:
            yield pcpu.op("vmentry_hw", costs.vmentry_hw, "hw-switch")
            pcpu.arch.vmentry()

    # --- the generic domain switch (idle domain included) --------------------

    def _domain_switch(self, pcpu, in_vcpu, inject_virq=None, from_guest_trap=False):
        """Full context switch to ``in_vcpu`` on ``pcpu``.

        Xen's context switch code is generic: it saves the full outgoing
        context (even the idle domain's) and restores the full incoming
        one — which is why signaling an idling Dom0 costs a whole VM
        switch (paper Section IV, I/O Latency discussion).
        """
        self.stats["vm_switches"] += 1
        costs = self.costs
        arch = pcpu.arch
        out = pcpu.current_context
        span = self.machine.obs.spans.begin("domain_switch", "world-switch", pcpu.index)
        if self.machine.is_arm:
            if arch.current_el != ExceptionLevel.EL2:
                arch.trap_to_el2("domain-switch")
                yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
            for reg_class in ALL_ARM_CLASSES:
                yield pcpu.op(
                    "save_%s" % reg_class.name.lower(), costs.save[reg_class], "save"
                )
            outgoing = arch.save_context(ALL_ARM_CLASSES)
            if out is IDLE:
                pcpu.xen_idle_context = outgoing
            else:
                out.saved_context = outgoing
                out.state = VcpuState.BLOCKED
            yield pcpu.op("xen_sched_pick", costs.xen_sched_pick, "sched")
            yield pcpu.op("xen_ctx_extra", costs.xen_ctx_extra, "sched")
            if inject_virq is not None:
                in_vcpu.vif.inject(inject_virq)
                self.stats["virqs_injected"] += 1
                yield pcpu.op("virq_inject_lr", costs.virq_inject_lr, "vgic")
            for reg_class in ALL_ARM_CLASSES:
                yield pcpu.op(
                    "restore_%s" % reg_class.name.lower(),
                    costs.restore[reg_class],
                    "restore",
                )
            arch.load_context(in_vcpu.saved_context)
            arch.enable_virt_features(in_vcpu.vm.vmid)
            arch.eret(ExceptionLevel.EL1)
            yield pcpu.op("eret_to_guest", costs.eret_to_el1, "trap")
        else:
            if out is not IDLE and not arch.root_mode:
                arch.vmexit("domain-switch")
                yield pcpu.op("vmexit_hw", costs.vmexit_hw, "hw-switch")
                yield pcpu.op("xen_dispatch", costs.xen_dispatch, "hv")
                out.state = VcpuState.BLOCKED
            yield pcpu.op("xen_sched_pick", costs.xen_sched_pick, "sched")
            yield pcpu.op("xen_ctx_extra", costs.xen_ctx_extra, "sched")
            arch.load_vmcs(in_vcpu.vmcs)
            yield pcpu.op("vmcs_switch", costs.vmcs_switch, "hw-switch")
            if inject_virq is not None:
                arch.inject_on_next_entry(inject_virq)
                self.stats["virqs_injected"] += 1
                yield pcpu.op("virq_inject", costs.virq_inject, "inject")
            yield pcpu.op("vmentry_hw", costs.vmentry_hw, "hw-switch")
            arch.vmentry()
        in_vcpu.state = VcpuState.GUEST
        pcpu.current_context = in_vcpu
        self.scheduler.wake(in_vcpu)
        self.machine.obs.spans.end(span)

    # --- Table I operations -----------------------------------------------------

    def run_hypercall(self, vcpu):
        """Row 1: on ARM, little more than a GP push/pop in EL2."""
        return self._hypercall_path(vcpu)

    def _hypercall_path(self, vcpu):
        span = self.machine.obs.spans.begin("hypercall", "operation", vcpu.pcpu.index)
        yield from self._xen_entry(vcpu, "hypercall")
        yield from self._xen_return(vcpu)
        self.machine.obs.spans.end(span)

    def run_intc_trap(self, vcpu):
        """Row 2: the distributor is emulated *in EL2* — no host round trip."""
        return self._intc_path(vcpu)

    def _intc_path(self, vcpu):
        if self.machine.is_arm:
            self._distributor_stage2_fault(vcpu)  # the trap's real cause
        yield from self._xen_entry(vcpu, "intc-mmio")
        pcpu, costs = vcpu.pcpu, self.costs
        yield pcpu.op("mmio_decode", costs.mmio_decode, "emul")
        if self.machine.is_arm:
            self.machine.gic.distributor.is_enabled(VIRQ_EVTCHN)
            yield pcpu.op("gic_dist_access", costs.gic_dist_access, "emul")
            yield pcpu.op(
                "gic_dist_access_xen_extra", costs.gic_dist_access_xen_extra, "emul"
            )
        else:
            yield pcpu.op("apic_access", costs.apic_access_xen, "emul")
        yield from self._xen_return(vcpu)

    def send_virtual_ipi(self, src_vcpu, dst_vcpu):
        if src_vcpu.pcpu is dst_vcpu.pcpu:
            raise ConfigurationError("virtual IPI benchmark needs distinct PCPUs")
        done = self.engine.event("virtual-ipi-handled")
        self.engine.spawn(self._send_virtual_ipi(src_vcpu, dst_vcpu, done), "vipi-send")
        return done

    def _send_virtual_ipi(self, src_vcpu, dst_vcpu, done):
        pcpu, costs = src_vcpu.pcpu, self.costs
        if self.machine.is_arm:
            self._distributor_stage2_fault(src_vcpu)  # SGIR is MMIO too
        yield from self._xen_entry(src_vcpu, "sgi-write")
        yield pcpu.op("mmio_decode", costs.mmio_decode, "emul")
        if self.machine.is_arm:
            yield pcpu.op("gic_sgi_emulate", costs.gic_sgi_emulate, "emul")
            yield pcpu.op("xen_sgi_slowpath", costs.xen_sgi_slowpath, "emul")
            yield pcpu.op("virq_set_pending", costs.virq_set_pending, "emul")
        else:
            yield pcpu.op("apic_ipi_emulate", costs.apic_ipi_emulate, "emul")
            yield pcpu.op("virq_set_pending", costs.virq_set_pending, "emul")
        dst_vcpu.queue_virq(VIRQ_IPI)
        self.stats["virqs_injected"] += 1
        self.machine.ipi.send(
            dst_vcpu.pcpu,
            EVTCHN_IPI_IRQ,
            {"kind": "inject_running", "vcpu": dst_vcpu, "done": done},
        )
        yield from self._xen_return(src_vcpu)

    def complete_virq(self, vcpu, virq):
        pcpu, costs = vcpu.pcpu, self.costs
        if self.machine.is_arm:
            vcpu.vif.guest_complete(virq)
            yield pcpu.op("virq_complete_hw", costs.virq_complete_hw, "guest")
            if vcpu.vif.overflow:
                # Maintenance interrupt: handled entirely in EL2.
                pcpu.arch.trap_to_el2("maintenance")
                yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
                yield pcpu.op("save_gp_light", costs.gp_save_light, "save")
                moved = vcpu.vif.refill_from_overflow()
                yield pcpu.op(
                    "virq_inject_lr", costs.virq_inject_lr * max(1, moved), "vgic"
                )
                yield pcpu.op("restore_gp_light", costs.gp_restore_light, "restore")
                pcpu.arch.eret(ExceptionLevel.EL1)
                yield pcpu.op("eret_to_guest", costs.eret_to_el1, "trap")
        elif self.machine.platform.vapic_enabled:
            self.machine.apic.lapic(pcpu.index).eoi(virq)
            yield pcpu.op("virq_complete_vapic", costs.virq_complete_vapic, "guest")
        else:
            pcpu.arch.vmexit("eoi")
            yield pcpu.op("vmexit_hw", costs.vmexit_hw, "hw-switch")
            self.machine.apic.lapic(pcpu.index).eoi(virq)
            yield pcpu.op("eoi_emulate", costs.eoi_emulate_xen, "emul")
            yield pcpu.op("vmentry_hw", costs.vmentry_hw, "hw-switch")
            pcpu.arch.vmentry()

    def switch_vm(self, vcpu_out, vcpu_in):
        if vcpu_out.pcpu is not vcpu_in.pcpu:
            raise ConfigurationError("VM switch benchmark uses one physical core")
        yield from self._domain_switch(vcpu_out.pcpu, vcpu_in)

    def kick_backend(self, vcpu, packet=None):
        """Row 6: DomU -> (Xen, IPI, idle->Dom0 switch, upcall) -> netback."""
        observed = self.engine.event("netback-signaled")
        self.engine.spawn(self._kick(vcpu, packet, observed), "pv-kick")
        return observed

    def _kick(self, vcpu, packet, observed):
        pcpu, costs = vcpu.pcpu, self.costs
        span = self.machine.obs.spans.begin("evtchn_kick", "io", pcpu.index)
        worker = self.netback_workers[vcpu.vm.name]
        yield from self._xen_entry(vcpu, "evtchn-send")
        yield pcpu.op("evtchn_send", costs.evtchn_send, "hv")
        if self.machine.is_arm:
            yield pcpu.op(
                "xen_vcpu_wake_slowpath", costs.xen_vcpu_wake_slowpath, "sched"
            )
        tx_port, _rx_port = self._io_ports[vcpu.vm.name]
        target = self.event_channels.send(tx_port)
        self._deliver_event(
            target,
            on_upcall=lambda: worker.signal_observed_tx(observed, packet),
        )
        yield from self._xen_return(vcpu)
        self.machine.obs.spans.end(span)

    def notify_guest(self, vm, virq=VIRQ_EVTCHN, packet=None):
        """Row 7: Dom0 -> (Xen, IPI, idle->DomU switch) -> guest virq."""
        done = self.engine.event("guest-notified")
        self.engine.spawn(self._notify(vm, virq, done), "pv-notify")
        return done

    def _notify(self, vm, virq, done):
        dom0_vcpu = self.dom0.vcpu(0)
        pcpu, costs = dom0_vcpu.pcpu, self.costs
        span = self.machine.obs.spans.begin("evtchn_notify", "io", pcpu.index)
        yield from self._xen_entry(dom0_vcpu, "evtchn-send")
        yield pcpu.op("evtchn_send", costs.evtchn_send, "hv")
        if self.machine.is_arm:
            yield pcpu.op(
                "xen_vcpu_wake_slowpath", costs.xen_vcpu_wake_slowpath, "sched"
            )
        dst = vm.next_irq_vcpu()
        dst.queue_virq(virq)
        self._deliver_event(dst, done=done)
        yield from self._xen_return(dom0_vcpu)
        self.machine.obs.spans.end(span)

    def deliver_timer_virq(self, vcpu, done=None):
        """Virtual-timer expiry: handled entirely in EL2 (Xen emulates
        timers in the hypervisor proper) and injected locally."""
        vcpu.pcpu.raise_physical_irq(
            27, {"kind": "evtchn_deliver", "vcpu": vcpu, "done": done}
        )

    # --- event delivery / physical IRQ handling ----------------------------------

    def _deliver_event(self, dst_vcpu, done=None, on_upcall=None):
        """Kick ``dst_vcpu``'s PCPU with a physical IPI; the handler does
        an inject (running) or an idle->domain switch (parked)."""
        self.machine.ipi.send(
            dst_vcpu.pcpu,
            EVTCHN_IPI_IRQ,
            {
                "kind": "evtchn_deliver",
                "vcpu": dst_vcpu,
                "done": done,
                "on_upcall": on_upcall,
            },
        )

    def _irq_handler(self, pcpu, irq, payload):
        if not isinstance(payload, dict) or "kind" not in payload:
            raise HardwareFault("Xen got an unroutable physical irq %r" % (irq,))
        kind = payload["kind"]
        vcpu = payload["vcpu"]
        done = payload.get("done")
        costs = self.costs
        if kind == "inject_running":
            virqs = vcpu.take_pending_virqs()
            virq = virqs[0] if virqs else VIRQ_IPI
            yield from self._inject_into_running(vcpu, virq)
            handled = yield from self._guest_handles_virq(vcpu, virq)
            if done is not None:
                done.fire(self.engine.now)
            return handled
        if kind == "evtchn_deliver":
            virqs = vcpu.take_pending_virqs()
            virq = virqs[0] if virqs else VIRQ_EVTCHN
            if pcpu.current_context is IDLE:
                yield from self._domain_switch(pcpu, vcpu, inject_virq=virq)
                yield vcpu.pcpu.op("guest_irq_entry", costs.guest_irq_entry, "guest")
                if self.machine.is_arm:
                    vcpu.vif.guest_acknowledge()
                else:
                    lapic = self.machine.apic.lapic(pcpu.index)
                    lapic.request(virq)
                    lapic.deliver_highest()
            elif pcpu.current_context is vcpu:
                yield from self._inject_into_running(vcpu, virq)
                yield from self._guest_handles_virq(vcpu, virq)
            else:
                raise HardwareFault(
                    "evtchn delivery to %s but pcpu%d runs %r"
                    % (vcpu.name, pcpu.index, pcpu.current_context)
                )
            if payload.get("on_upcall") is not None:
                yield pcpu.op("evtchn_upcall", costs.evtchn_upcall, "guest")
                payload["on_upcall"]()
            if done is not None:
                done.fire(self.engine.now)
            # The guest's upcall handler completes the interrupt (outside
            # the measured window, which ends at delivery).
            yield from self.complete_virq(vcpu, virq)
            return virq
        raise HardwareFault("unknown Xen irq payload kind %r" % (kind,))

    def _inject_into_running(self, vcpu, virq):
        """Physical IPI landed while the target domain runs: trap to Xen,
        ack, inject, return."""
        pcpu, costs = vcpu.pcpu, self.costs
        span = self.machine.obs.spans.begin("virq_inject_running", "interrupt", pcpu.index)
        if self.machine.is_arm:
            pcpu.arch.trap_to_el2("phys-irq")
            yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
            yield pcpu.op("save_gp_light", costs.gp_save_light, "save")
            yield pcpu.op("gic_phys_ack", costs.gic_phys_ack, "irq")
            yield pcpu.op("xen_inject_slowpath", costs.xen_inject_slowpath, "emul")
            vcpu.vif.inject(virq)
            self.stats["virqs_injected"] += 1
            yield pcpu.op("virq_inject_lr", costs.virq_inject_lr, "vgic")
            yield pcpu.op("restore_gp_light", costs.gp_restore_light, "restore")
            pcpu.arch.eret(ExceptionLevel.EL1)
            yield pcpu.op("eret_to_guest", costs.eret_to_el1, "trap")
        else:
            pcpu.arch.vmexit("phys-irq")
            yield pcpu.op("vmexit_hw", costs.vmexit_hw, "hw-switch")
            yield pcpu.op("apic_phys_ack", costs.apic_phys_ack, "irq")
            pcpu.arch.inject_on_next_entry(virq)
            self.stats["virqs_injected"] += 1
            yield pcpu.op("virq_inject", costs.virq_inject, "inject")
            yield pcpu.op("vmentry_hw", costs.vmentry_hw, "hw-switch")
            pcpu.arch.vmentry()
        self.machine.obs.spans.end(span)

    def _guest_handles_virq(self, vcpu, virq):
        result = yield from super()._guest_handles_virq(vcpu, virq)
        if not self.machine.is_arm:
            lapic = self.machine.apic.lapic(vcpu.pcpu.index)
            lapic.request(virq)
            lapic.deliver_highest()
        return result

    # --- Dom0 data path -------------------------------------------------------------

    def dom0_transmit(self, packet):
        """netback hands a (grant-copied) packet to Dom0's stack + NIC."""
        self.engine.spawn(self._dom0_tx(packet), name="dom0-tx")

    def _dom0_tx(self, packet):
        pcpu = self.dom0.vcpu(0).pcpu
        if self.netstack is not None:
            yield pcpu.op("dom0_bridge_tx", self.netstack.bridge_tx_cycles(), "net")
            yield pcpu.op("dom0_tx_stack", self.netstack.host_tx_cycles(), "net")
        packet.stamp("host.tx", self.engine.now)
        if self.host_nic is not None:
            self.host_nic.transmit(packet)

    def _on_physical_receive(self, packet):
        self.engine.spawn(self._dom0_rx(packet), name="dom0-rx")

    def _dom0_rx(self, packet):
        """Physical IRQ -> Xen -> (idle->Dom0 switch) -> Dom0 driver/stack
        -> netback grant copy -> DomU notify."""
        domu = next(vm for vm in self.vms if vm is not self.dom0)
        dom0_vcpu = self.dom0.vcpu(0)
        pcpu = dom0_vcpu.pcpu
        costs = self.costs
        # The IRQ is taken by Xen (EL2/root) regardless of what runs.
        if self.machine.is_arm:
            if pcpu.arch.current_el != ExceptionLevel.EL2:
                pcpu.arch.trap_to_el2("nic-irq")
                yield pcpu.op("trap_to_el2", costs.trap_to_el2, "trap")
            yield pcpu.op("gic_phys_ack", costs.gic_phys_ack, "irq")
        else:
            if pcpu.current_context is not IDLE and not pcpu.arch.root_mode:
                pcpu.arch.vmexit("nic-irq")
                yield pcpu.op("vmexit_hw", costs.vmexit_hw, "hw-switch")
            yield pcpu.op("apic_phys_ack", costs.apic_phys_ack, "irq")
        if pcpu.current_context is IDLE:
            yield from self._domain_switch(pcpu, dom0_vcpu, inject_virq=VIRQ_EVTCHN)
            yield pcpu.op("guest_irq_entry", costs.guest_irq_entry, "guest")
            if self.machine.is_arm:
                dom0_vcpu.vif.guest_acknowledge()
            else:
                lapic = self.machine.apic.lapic(pcpu.index)
                lapic.request(VIRQ_EVTCHN)
                lapic.deliver_highest()
            yield from self.complete_virq(dom0_vcpu, VIRQ_EVTCHN)
        elif pcpu.current_context is dom0_vcpu:
            yield from self._inject_into_running(dom0_vcpu, VIRQ_EVTCHN)
            yield from self._guest_handles_virq(dom0_vcpu, VIRQ_EVTCHN)
            yield from self.complete_virq(dom0_vcpu, VIRQ_EVTCHN)
        packet.stamp("host.rx_driver", self.engine.now)
        if self.netstack is not None:
            yield pcpu.op("dom0_irq_rx_stack", self.netstack.host_rx_cycles(), "net")
            yield pcpu.op("dom0_bridge_rx", self.netstack.bridge_cycles(), "net")
        packet.stamp("host.rx_done", self.engine.now)
        worker = self.netback_workers[domu.name]
        yield from worker.deliver_rx(packet)
