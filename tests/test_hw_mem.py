"""Unit tests for the memory system: Stage-2, TLB, grants, DMA."""

import pytest

from repro.errors import ConfigurationError, HardwareFault, ProtocolError
from repro.hw.costs import arm_costs, x86_costs
from repro.hw.mem import DmaEngine, GrantTable, Tlb, TlbShootdownModel
from repro.hw.mem.address import GPA, HPA, PAGE_SIZE, page_of
from repro.hw.mem.grant import grant_copy_cycles
from repro.hw.mem import stage2
from repro.hw.mem.stage2 import Stage2Fault, Stage2Tables, identity_map


class TestAddresses:
    def test_page_and_offset(self):
        gpa = GPA(0x12345)
        assert gpa.page == 0x12
        assert gpa.offset == 0x345

    def test_typed_repr_distinguishes_spaces(self):
        assert "GPA" in repr(GPA(0x1000))
        assert "HPA" in repr(HPA(0x1000))

    def test_page_of(self):
        assert page_of(PAGE_SIZE * 3 + 5) == 3


class TestStage2:
    def test_walk_translates_with_offset(self):
        tables = Stage2Tables(vmid=1)
        tables.map_page(0x10, 0x99)
        hpa, levels = tables.walk(GPA(0x10 * PAGE_SIZE + 0x123))
        assert hpa == HPA(0x99 * PAGE_SIZE + 0x123)
        assert levels == 3

    def test_unmapped_faults(self):
        tables = Stage2Tables(vmid=1)
        with pytest.raises(Stage2Fault):
            tables.walk(GPA(0x5000))

    def test_write_to_readonly_faults(self):
        tables = Stage2Tables(vmid=1)
        tables.map_page(0x10, 0x99, writable=False)
        tables.walk(GPA(0x10 * PAGE_SIZE))  # read OK
        with pytest.raises(Stage2Fault):
            tables.walk(GPA(0x10 * PAGE_SIZE), write=True)

    def test_unmap_then_fault(self):
        tables = Stage2Tables(vmid=1)
        tables.map_page(0x10, 0x99)
        tables.unmap_page(0x10)
        assert not tables.is_mapped(GPA(0x10 * PAGE_SIZE))

    def test_unmap_unmapped_rejected(self):
        with pytest.raises(HardwareFault):
            Stage2Tables(1).unmap_page(0x10)

    def test_pages_far_apart_use_distinct_subtrees(self):
        tables = Stage2Tables(vmid=1)
        tables.map_page(0x1, 0xA)
        tables.map_page(0x40000, 0xB)  # different level-0 index
        assert tables.walk(GPA(0x1 * PAGE_SIZE))[0].page == 0xA
        assert tables.walk(GPA(0x40000 * PAGE_SIZE))[0].page == 0xB
        assert tables.mapped_page_count() == 2

    def test_identity_map(self):
        tables = identity_map(Stage2Tables(2), base_page=0x100, num_pages=4)
        for page in range(0x100, 0x104):
            assert tables.walk(GPA(page * PAGE_SIZE))[0].page == page


def _reference_indices(page):
    """The per-level table indices of ``page``, built as a list per call."""
    indices = []
    for level in range(stage2.LEVELS):
        shift = stage2.BITS_PER_LEVEL * (stage2.LEVELS - 1 - level)
        indices.append((page >> shift) & ((1 << stage2.BITS_PER_LEVEL) - 1))
    return indices


def _reference_map_page(root, gpa_page, hpa_page, writable=True):
    """Reference Stage-2 insert: walk an index list with ``setdefault``."""
    node = root
    indices = _reference_indices(gpa_page)
    for index in indices[:-1]:
        node = node.setdefault(index, {})
    node[indices[-1]] = (hpa_page, writable)


#: (base page, page count): inside one leaf table, across a 512-page leaf
#: boundary, across a 2^18-page mid-level boundary, and the guest-RAM premap
STAGE2_RANGES = [
    (0x10, 8),
    (510, 5),
    ((1 << 18) - 3, 7),
    ((1 << 18) - 600, 1200),
    (0x4_0000, 64),
]


class TestStage2Equivalence:
    @pytest.mark.parametrize("base,count", STAGE2_RANGES)
    @pytest.mark.parametrize("writable", [True, False])
    def test_radix_equals_reference_walk(self, base, count, writable):
        tables = Stage2Tables(vmid=1)
        reference = {}
        for page in range(base, base + count):
            tables.map_page(page, page + 0x1000, writable)
            _reference_map_page(reference, page, page + 0x1000, writable)
        assert tables._root == reference
        assert tables.mapped_page_count() == count

    @pytest.mark.parametrize("base,count", STAGE2_RANGES)
    def test_identity_map_matches_reference(self, base, count):
        tables = identity_map(Stage2Tables(vmid=1), base, count, writable=False)
        reference = {}
        for page in range(base, base + count):
            _reference_map_page(reference, page, page, False)
        assert tables._root == reference
        assert tables.mapped_page_count() == count

    def test_remapping_overwrites_in_place(self):
        tables = Stage2Tables(vmid=1)
        reference = {}
        for hpa_page, writable in ((0x20, True), (0x30, False)):
            tables.map_page(511, hpa_page, writable)
            _reference_map_page(reference, 511, hpa_page, writable)
        assert tables._root == reference
        assert tables.mapped_page_count() == 1

    @pytest.mark.parametrize("base,count", STAGE2_RANGES)
    def test_walk_results_and_faults(self, base, count):
        tables = Stage2Tables(vmid=1)
        for page in range(base, base + count):
            tables.map_page(page, page + 7, writable=(page % 2 == 0))
        for page in range(base, base + count):
            gpa = GPA(page * PAGE_SIZE + 0x2A)
            hpa, levels = tables.walk(gpa)
            assert (hpa, levels) == (HPA((page + 7) * PAGE_SIZE + 0x2A), stage2.LEVELS)
            if page % 2:
                with pytest.raises(Stage2Fault) as fault:
                    tables.walk(gpa, write=True)
                assert fault.value.gpa == gpa and fault.value.write is True
            else:
                assert tables.walk(gpa, write=True)[0] == hpa
        end = base + count
        for page in (base - 1, end, end + 512, end + (1 << 18)):
            with pytest.raises(Stage2Fault) as fault:
                tables.walk(GPA(page * PAGE_SIZE))
            assert fault.value.write is False

    def test_fault_in_present_leaf_table(self):
        tables = Stage2Tables(vmid=1)
        tables.map_page(512, 1)
        tables.unmap_page(512)
        assert tables.mapped_page_count() == 0
        with pytest.raises(Stage2Fault):
            tables.walk(GPA(512 * PAGE_SIZE))
        with pytest.raises(HardwareFault, match="unmapping unmapped"):
            tables.unmap_page(512)
        with pytest.raises(HardwareFault, match="unmapping unmapped"):
            tables.unmap_page(513 + (1 << 18))

    @pytest.mark.parametrize("base,count", STAGE2_RANGES)
    def test_identity_map_calls_map_page_once_per_page(self, base, count, monkeypatch):
        calls = []
        original = Stage2Tables.map_page

        def counting(self, gpa_page, hpa_page, writable=True):
            calls.append(gpa_page)
            return original(self, gpa_page, hpa_page, writable)

        monkeypatch.setattr(Stage2Tables, "map_page", counting)
        identity_map(Stage2Tables(vmid=1), base, count)
        assert calls == list(range(base, base + count))


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb()
        assert tlb.lookup(1, 0x10) is None
        tlb.fill(1, 0x10, 0x99)
        assert tlb.lookup(1, 0x10) == 0x99
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_capacity_evicts_lru(self):
        tlb = Tlb(capacity=2)
        tlb.fill(1, 0xA, 1)
        tlb.fill(1, 0xB, 2)
        tlb.lookup(1, 0xA)  # touch A so B becomes LRU
        tlb.fill(1, 0xC, 3)
        assert tlb.lookup(1, 0xB) is None
        assert tlb.lookup(1, 0xA) == 1

    def test_invalidate_page(self):
        tlb = Tlb()
        tlb.fill(1, 0xA, 1)
        tlb.invalidate_page(1, 0xA)
        assert tlb.lookup(1, 0xA) is None

    def test_invalidate_vmid_leaves_others(self):
        tlb = Tlb()
        tlb.fill(1, 0xA, 1)
        tlb.fill(2, 0xA, 2)
        tlb.invalidate_vmid(1)
        assert tlb.lookup(1, 0xA) is None
        assert tlb.lookup(2, 0xA) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            Tlb(capacity=0)


class TestShootdown:
    def test_arm_broadcast_is_constant_in_cpus(self):
        costs = arm_costs()
        small = TlbShootdownModel("arm", costs, 2).invalidate_cycles()
        large = TlbShootdownModel("arm", costs, 8).invalidate_cycles()
        assert small == large == costs.tlb_invalidate_broadcast

    def test_x86_ipi_scales_with_cpus(self):
        """The paper's zero-copy story: x86 must IPI every other CPU."""
        costs = x86_costs()
        four = TlbShootdownModel("x86", costs, 4).invalidate_cycles()
        eight = TlbShootdownModel("x86", costs, 8).invalidate_cycles()
        assert eight == four * 7 / 3
        assert four == costs.tlb_invalidate_ipi * 3

    def test_invalidate_all_clears_every_tlb(self):
        tlbs = [Tlb(), Tlb()]
        for tlb in tlbs:
            tlb.fill(1, 0xA, 5)
        model = TlbShootdownModel("arm", arm_costs(), 2)
        cost = model.invalidate_all(tlbs, 1, 0xA)
        assert cost > 0
        assert all(tlb.lookup(1, 0xA) is None for tlb in tlbs)


class TestGrantTable:
    def test_grant_map_unmap_cycle(self):
        table = GrantTable("domU")
        ref = table.grant(0x100)
        entry = table.map_grant(ref, "dom0")
        assert entry.gpa_page == 0x100
        table.unmap_grant(ref, "dom0")
        table.revoke(ref)

    def test_double_map_rejected(self):
        table = GrantTable("domU")
        ref = table.grant(0x100)
        table.map_grant(ref, "dom0")
        with pytest.raises(ProtocolError):
            table.map_grant(ref, "dom0")

    def test_unmap_by_wrong_domain_rejected(self):
        table = GrantTable("domU")
        ref = table.grant(0x100)
        table.map_grant(ref, "dom0")
        with pytest.raises(ProtocolError):
            table.unmap_grant(ref, "evil")

    def test_revoke_while_mapped_rejected(self):
        table = GrantTable("domU")
        ref = table.grant(0x100)
        table.map_grant(ref, "dom0")
        with pytest.raises(ProtocolError):
            table.revoke(ref)

    def test_unknown_ref_rejected(self):
        with pytest.raises(ProtocolError):
            GrantTable("domU").map_grant(42, "dom0")

    def test_counters(self):
        table = GrantTable("domU")
        ref = table.grant(0x1)
        table.map_grant(ref, "dom0")
        table.unmap_grant(ref, "dom0")
        assert (table.maps, table.unmaps) == (1, 1)


class TestGrantCopyCost:
    def test_single_byte_copy_exceeds_3us_at_arm_frequency(self):
        """Paper: 'Each data copy incurs more than 3 us of additional
        latency ... even though only a single byte of data needs to be
        copied.'  3 us at 2.4 GHz is 7,200 cycles."""
        costs = arm_costs()
        shootdown = TlbShootdownModel("arm", costs, 8)
        assert grant_copy_cycles(costs, shootdown, nbytes=1) > 7200 * 0.4

    def test_copy_cost_grows_with_size(self):
        costs = arm_costs()
        shootdown = TlbShootdownModel("arm", costs, 8)
        small = grant_copy_cycles(costs, shootdown, 64)
        big = grant_copy_cycles(costs, shootdown, 64 * 1024)
        assert big > small


class TestDma:
    def test_zero_copy_lands_free(self):
        dma = DmaEngine(DmaEngine.GUEST_DIRECT, arm_costs())
        assert dma.landing_cost(9000) == 0
        assert dma.zero_copy

    def test_bounce_pays_copy(self):
        dma = DmaEngine(DmaEngine.BOUNCE, arm_costs())
        assert dma.landing_cost(9000) > 0
        assert dma.bounced_bytes == 9000

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            DmaEngine("weird", arm_costs())
