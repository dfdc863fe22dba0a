"""x86 CPU model: root/non-root operation and the VMCS.

The architectural contrast the paper draws against ARM:

* root vs non-root mode is *orthogonal* to the privilege rings — the full
  kernel/user functionality exists in both modes, so a hosted hypervisor
  (KVM) maps onto x86 as naturally as a bare-metal one.
* a vmexit/vmentry transfers essentially the whole CPU register state
  to/from the VMCS *in memory*, performed by hardware — fast for what it
  does, but it always moves everything (no software discretion).
"""

from repro.errors import HardwareFault
from repro.hw.cpu.registers import RegClass, RegisterFile, fresh_context_image

#: Register classes captured in a VMCS guest-state area.  (x86 has no
#: GIC/EL2 banks; we reuse the GP/FP/system/timer classes for the state
#: that the VMCS guest area holds.)
VMCS_GUEST_CLASSES = [RegClass.GP, RegClass.FP, RegClass.EL1_SYS, RegClass.TIMER]


class Vmcs:
    """A VM Control Structure: in-memory guest and host state areas."""

    def __init__(self, name=""):
        self.name = name
        self.guest_state = fresh_context_image(VMCS_GUEST_CLASSES)
        self.host_state = fresh_context_image(VMCS_GUEST_CLASSES)
        #: pending event-injection field (interrupt vector or None)
        self.pending_injection = None

    def __repr__(self):
        return "Vmcs(%r)" % (self.name,)


class X86Cpu:
    """One physical x86 core: register file + root-mode flag + loaded VMCS."""

    def __init__(self, index=0, vapic_capable=False):
        self.index = index
        self.vapic_capable = vapic_capable
        self.root_mode = True
        self.regs = RegisterFile(VMCS_GUEST_CLASSES)
        self.loaded_vmcs = None

    def load_vmcs(self, vmcs):
        """vmptrld: make ``vmcs`` current on this core."""
        if not self.root_mode:
            raise HardwareFault("vmptrld is a root-mode operation")
        self.loaded_vmcs = vmcs

    def vmentry(self):
        """Hardware entry to non-root mode: load guest state from the VMCS.

        Host state is stored into the VMCS host area by the same hardware
        operation, and any pending injection is delivered (returned).
        """
        if not self.root_mode:
            raise HardwareFault("vmentry from non-root mode")
        if self.loaded_vmcs is None:
            raise HardwareFault("vmentry with no VMCS loaded")
        self.loaded_vmcs.host_state = self.regs.snapshot(VMCS_GUEST_CLASSES)
        self.regs.load(self.loaded_vmcs.guest_state)
        self.root_mode = False
        injected, self.loaded_vmcs.pending_injection = (
            self.loaded_vmcs.pending_injection,
            None,
        )
        return injected

    def vmexit(self, reason=""):
        """Hardware exit to root mode: guest state to VMCS, host state back."""
        if self.root_mode:
            raise HardwareFault("vmexit from root mode (reason %r)" % reason)
        self.loaded_vmcs.guest_state = self.regs.snapshot(VMCS_GUEST_CLASSES)
        self.regs.load(self.loaded_vmcs.host_state)
        self.root_mode = True
        return reason

    def inject_on_next_entry(self, vector):
        """Queue an interrupt in the VMCS event-injection field."""
        if self.loaded_vmcs is None:
            raise HardwareFault("no VMCS loaded")
        self.loaded_vmcs.pending_injection = vector

    def __repr__(self):
        mode = "root" if self.root_mode else "non-root"
        return "X86Cpu(#%d, %s)" % (self.index, mode)
