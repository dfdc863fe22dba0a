"""Architectural register state, organized by the classes of paper Table III.

The world-switch code in the hypervisor models really moves this state
between the CPU register file and per-VCPU memory images, so tests can
assert the *correctness* of a switch (guest state preserved, host state
isolated) independently of its *cost*.
"""

import enum

from repro.errors import HardwareFault


class RegClass(enum.Enum):
    """Register classes context-switched on ARM VM transitions (Table III)."""

    GP = "GP Regs"
    FP = "FP Regs"
    EL1_SYS = "EL1 System Regs"
    VGIC = "VGIC Regs"
    TIMER = "Timer Regs"
    EL2_CONFIG = "EL2 Config Regs"
    EL2_VIRTUAL_MEMORY = "EL2 Virtual Memory Regs"

    # Every RegClass-keyed image lookup hashes a member; members are
    # singletons (unpickling returns the same member), so the C-level
    # identity hash is exact and skips Enum's hash-of-name.
    __hash__ = object.__hash__


#: Representative register names per class.  The specific names matter for
#: the VHE register-redirection model (TTBR1_EL1 vs TTBR1_EL2 and friends).
REGISTER_NAMES = {
    RegClass.GP: ["x%d" % i for i in range(31)] + ["sp", "pc", "pstate"],
    RegClass.FP: ["q%d" % i for i in range(32)] + ["fpsr", "fpcr"],
    RegClass.EL1_SYS: [
        "sctlr_el1",
        "ttbr0_el1",
        "ttbr1_el1",
        "tcr_el1",
        "mair_el1",
        "vbar_el1",
        "tpidr_el1",
        "sp_el1",
        "elr_el1",
        "spsr_el1",
        "esr_el1",
        "far_el1",
        "contextidr_el1",
        "csselr_el1",
        "cpacr_el1",
        "par_el1",
        "amair_el1",
        "actlr_el1",
    ],
    RegClass.VGIC: (
        ["gich_hcr", "gich_vmcr", "gich_misr", "gich_eisr", "gich_elrsr", "gich_apr"]
        + ["gich_lr%d" % i for i in range(4)]
    ),
    RegClass.TIMER: ["cntv_ctl_el0", "cntv_cval_el0", "cntkctl_el1"],
    RegClass.EL2_CONFIG: ["hcr_el2", "mdcr_el2", "cptr_el2", "hstr_el2"],
    RegClass.EL2_VIRTUAL_MEMORY: ["vttbr_el2", "vtcr_el2", "vpidr_el2", "vmpidr_el2"],
}

#: One zeroed image per class; banks and fresh contexts copy these.
_ZERO_IMAGES = {
    reg_class: dict.fromkeys(names, 0) for reg_class, names in REGISTER_NAMES.items()
}
_NAME_SETS = {reg_class: frozenset(names) for reg_class, names in REGISTER_NAMES.items()}
_ALL_CLASSES = tuple(RegClass)


class RegisterBank:
    """Named registers of one class with default-zero values."""

    def __init__(self, reg_class):
        self.reg_class = reg_class
        self._values = _ZERO_IMAGES[reg_class].copy()
        self._names = _NAME_SETS[reg_class]

    def read(self, name):
        if name not in self._values:
            raise HardwareFault(
                "register %r is not in class %s" % (name, self.reg_class.name)
            )
        return self._values[name]

    def write(self, name, value):
        if name not in self._values:
            raise HardwareFault(
                "register %r is not in class %s" % (name, self.reg_class.name)
            )
        self._values[name] = value

    def names(self):
        return list(self._values)

    def snapshot(self):
        """Copy of all values (a memory image of this bank)."""
        return self._values.copy()

    def load(self, image):
        """Restore all values from a memory image."""
        if image.keys() != self._names:
            raise HardwareFault(
                "image does not match register class %s" % self.reg_class.name
            )
        self._values.update(image)


class RegisterFile:
    """A full set of banks, one per :class:`RegClass`."""

    def __init__(self, classes=None):
        if classes is None:
            classes = _ALL_CLASSES
        self.banks = {reg_class: RegisterBank(reg_class) for reg_class in classes}

    def bank(self, reg_class):
        if reg_class not in self.banks:
            raise HardwareFault("no bank for class %s" % (reg_class,))
        return self.banks[reg_class]

    def read(self, reg_class, name):
        return self.bank(reg_class).read(name)

    def write(self, reg_class, name, value):
        self.bank(reg_class).write(name, value)

    def snapshot(self, classes=None):
        """Memory image {RegClass: {name: value}} of selected classes."""
        banks = self.banks
        if classes is None:
            classes = banks
        try:
            return {reg_class: banks[reg_class]._values.copy() for reg_class in classes}
        except KeyError as missing:
            raise HardwareFault("no bank for class %s" % (missing.args[0],)) from None

    def load(self, image):
        banks = self.banks
        for reg_class, bank_image in image.items():
            bank = banks.get(reg_class)
            if bank is None:
                raise HardwareFault("no bank for class %s" % (reg_class,))
            bank.load(bank_image)


def fresh_context_image(classes=None):
    """A zeroed saved-context image (what a new VCPU starts from)."""
    if classes is None:
        classes = _ALL_CLASSES
    return {reg_class: _ZERO_IMAGES[reg_class].copy() for reg_class in classes}
