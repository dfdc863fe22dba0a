"""Stage-2 page tables: a real 3-level radix translating IPA -> PA.

The hypervisor owns these (configured from EL2 / via EPT on x86).  A walk
costs ``stage2_walk_per_level`` per level on a TLB miss; an unmapped IPA
raises a Stage-2 fault, which is how MMIO emulation traps happen (guest
touches the GIC distributor's IPA range -> fault -> hypervisor emulates).
"""

from repro.errors import HardwareFault
from repro.hw.mem.address import GPA, HPA, PAGE_SHIFT

LEVELS = 3
BITS_PER_LEVEL = 9  # 4K granule, 512 entries per table
_INDEX_MASK = (1 << BITS_PER_LEVEL) - 1
#: page-number shift of each table level above the leaf (root first)
_TABLE_SHIFTS = tuple(BITS_PER_LEVEL * (LEVELS - 1 - level) for level in range(LEVELS - 1))


class Stage2Fault(HardwareFault):
    """Translation fault at Stage 2 (unmapped IPA)."""

    def __init__(self, gpa, write):
        super().__init__("stage-2 fault at %r (%s)" % (gpa, "write" if write else "read"))
        self.gpa = gpa
        self.write = write


class Stage2Tables:
    """A per-VM IPA->PA radix tree with mapping permissions."""

    def __init__(self, vmid):
        self.vmid = vmid
        self._root = {}

    def _leaf_table(self, page):
        """The last-level table holding ``page``, or None if absent."""
        node = self._root
        for shift in _TABLE_SHIFTS:
            node = node.get((page >> shift) & _INDEX_MASK)
            if node is None:
                return None
        return node

    def map_page(self, gpa_page, hpa_page, writable=True):
        """Install a 4K mapping gpa_page -> hpa_page."""
        node = self._root
        for shift in _TABLE_SHIFTS:
            index = (gpa_page >> shift) & _INDEX_MASK
            child = node.get(index)
            if child is None:
                child = node[index] = {}
            node = child
        node[gpa_page & _INDEX_MASK] = (hpa_page, writable)

    def unmap_page(self, gpa_page):
        leaf = self._leaf_table(gpa_page)
        index = gpa_page & _INDEX_MASK
        if leaf is None or index not in leaf:
            raise HardwareFault("unmapping unmapped page 0x%x" % gpa_page)
        del leaf[index]

    def walk(self, gpa, write=False):
        """Translate; returns (HPA, levels_walked).  Faults if unmapped."""
        gpa = GPA(gpa)
        page = gpa.page
        leaf = self._leaf_table(page)
        if leaf is None:
            raise Stage2Fault(gpa, write)
        entry = leaf.get(page & _INDEX_MASK)
        if entry is None:
            raise Stage2Fault(gpa, write)
        hpa_page, writable = entry
        if write and not writable:
            raise Stage2Fault(gpa, write)
        return HPA((hpa_page << PAGE_SHIFT) | gpa.offset), LEVELS

    def is_mapped(self, gpa):
        try:
            self.walk(gpa)
        except Stage2Fault:
            return False
        return True

    def mapped_page_count(self):
        count = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth == LEVELS - 1:
                count += len(node)
            else:
                stack.extend((child, depth + 1) for child in node.values())
        return count


def identity_map(tables, base_page, num_pages, writable=True):
    """Convenience: map a contiguous IPA range 1:1 onto machine pages."""
    for page in range(base_page, base_page + num_pages):
        tables.map_page(page, page, writable)
    return tables
