"""Integration tests: the Table V TCP_RR decomposition against the paper."""

import pytest

from repro.core.netanalysis import TcpRrBenchmark, run_table5
from repro.core.testbed import build_testbed, native_testbed
from repro.paperdata import TABLE5

TOLERANCE = 0.25


@pytest.fixture(scope="module")
def table5():
    return run_table5()


@pytest.mark.parametrize(
    "row",
    [
        "Trans/s",
        "Time/trans",
        "send to recv",
        "recv to send",
        "recv to VM recv",
        "VM recv to VM send",
        "VM send to send",
    ],
)
@pytest.mark.parametrize("config", ["native", "kvm", "xen"])
def test_within_tolerance(table5, row, config):
    paper = TABLE5[row][config]
    if paper is None:
        return
    sim = table5[config].as_dict()[row]
    assert sim == pytest.approx(paper, rel=TOLERANCE), (
        "%s/%s: simulated %.1f vs paper %.1f" % (row, config, sim, paper)
    )


class TestShape:
    def test_virtualization_roughly_halves_transaction_rate(self, table5):
        assert table5["kvm"].trans_per_sec < 0.62 * table5["native"].trans_per_sec
        assert table5["xen"].trans_per_sec < 0.58 * table5["native"].trans_per_sec

    def test_xen_slower_than_kvm(self, table5):
        assert table5["xen"].time_per_trans_us > table5["kvm"].time_per_trans_us

    def test_kvm_does_not_perturb_send_to_recv(self, table5):
        """KVM does not interfere with normal Linux rx path timing."""
        assert table5["kvm"].send_to_recv_us == pytest.approx(
            table5["native"].send_to_recv_us, rel=0.05
        )

    def test_xen_delays_incoming_packets(self, table5):
        """The idle-domain -> Dom0 switch lands before the data-link
        timestamp, inflating Xen's send-to-recv."""
        assert table5["xen"].send_to_recv_us > table5["native"].send_to_recv_us + 2.0

    def test_vm_internal_time_close_to_native_processing(self, table5):
        """'Both KVM and Xen spend a similar amount of time receiving the
        packet inside the VM ... only slightly more than native.'"""
        native = table5["native"].recv_to_send_us
        for config in ("kvm", "xen"):
            vm_internal = table5[config].vm_recv_to_vm_send_us
            assert vm_internal > native
            assert vm_internal < native * 1.35
        assert table5["xen"].vm_recv_to_vm_send_us > table5["kvm"].vm_recv_to_vm_send_us

    def test_hypervisor_side_dominates_overhead(self, table5):
        """'The dominant overhead ... is due to the time required by the
        hypervisor to process packets' — not VM-internal time."""
        for config in ("kvm", "xen"):
            result = table5[config]
            hypervisor_side = result.recv_to_vm_recv_us + result.vm_send_to_send_us
            vm_extra = result.vm_recv_to_vm_send_us - table5["native"].recv_to_send_us
            assert hypervisor_side > 5 * vm_extra

    def test_xen_delivers_packets_slower_than_kvm_both_ways(self, table5):
        assert table5["xen"].recv_to_vm_recv_us > table5["kvm"].recv_to_vm_recv_us
        assert table5["xen"].vm_send_to_send_us > table5["kvm"].vm_send_to_send_us

    def test_overhead_us_accessor(self, table5):
        assert table5["kvm"].overhead_us(table5["native"]) == pytest.approx(
            table5["kvm"].time_per_trans_us - table5["native"].time_per_trans_us
        )


class TestHarness:
    def test_deterministic_across_runs(self):
        a = TcpRrBenchmark(build_testbed("kvm-arm"), transactions=6).run()
        b = TcpRrBenchmark(build_testbed("kvm-arm"), transactions=6).run()
        assert a.time_per_trans_us == b.time_per_trans_us

    def test_native_has_no_vm_segments(self):
        result = TcpRrBenchmark(native_testbed("arm"), transactions=6).run()
        assert result.recv_to_vm_recv_us == 0.0
        assert result.vm_recv_to_vm_send_us == 0.0

    def test_decomposition_sums_to_recv_to_send(self):
        result = TcpRrBenchmark(build_testbed("kvm-arm"), transactions=6).run()
        total = (
            result.recv_to_vm_recv_us
            + result.vm_recv_to_vm_send_us
            + result.vm_send_to_send_us
        )
        assert total == pytest.approx(result.recv_to_send_us, rel=1e-6)

    @pytest.mark.parametrize("key", ["kvm-arm", "kvm-x86"])
    def test_kvm_runs_past_one_rx_ring_of_transactions(self, key):
        """More transactions than the 256-entry virtio rx ring holds: the
        guest driver must reap the used ring or the run dies mid-way."""
        testbed = build_testbed(key)
        result = TcpRrBenchmark(testbed, transactions=300).run()
        assert testbed.client_nic.rx_packets == 300
        assert result.trans_per_sec > 0

    def test_more_transactions_refine_but_agree(self):
        short = TcpRrBenchmark(build_testbed("xen-arm"), transactions=5).run()
        long = TcpRrBenchmark(build_testbed("xen-arm"), transactions=20).run()
        assert short.time_per_trans_us == pytest.approx(long.time_per_trans_us, rel=0.02)
