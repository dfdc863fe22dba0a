"""The cell graph is a DAG: each platform's micro and derived cells run once.

``derived[key]`` consumes ``micro[key]``; every ``appcol`` and
``ablation`` cell consumes ``derived[key]``.  These tests hold the
runner to the work the DAG promises (one Table II suite and one derived
measurement per platform key per report), to its ordering (no consumer
before its inputs, serial or fanned out), to its failure semantics (a
consumer of a failed input is finalized without running) and to the
service's sharing of inputs across queries.
"""

import collections
import hashlib
import json
import os

import pytest

from repro.core import appbench, irqbalance
from repro.core.microbench import MicrobenchmarkSuite
from repro.paperdata import ALL_KEYS, PLATFORM_ORDER
from repro.runner import ResultCache, cells, faults, merge, run_cells_outcome
from repro.runner.resilience import CellFailure, RetryPolicy
from repro.service.broker import SimulationBroker
from repro.service.server import ServiceConfig, start_in_thread

from tests.serviceutil import (
    WAIT_S,
    ServiceClient,
    counter_value,
    launch_queries,
    wait_until,
)
from tests.test_obs_invariance import GOLDEN_FULL_REPORT_SHA256

COSTS = {"arm": {"trap_to_el2": 152}}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def work(monkeypatch):
    """Counts Table II suites and derived measurements, per platform key."""
    counts = {"run_all": collections.Counter(), "derived": collections.Counter()}
    run_all = MicrobenchmarkSuite.run_all
    derive = cells.derive_costs

    def counting_run_all(suite):
        counts["run_all"][suite.testbed.key] += 1
        return run_all(suite)

    def counting_derive(key, micro, *args, **kwargs):
        counts["derived"][key] += 1
        return derive(key, micro, *args, **kwargs)

    def forbidden(key, *args, **kwargs):
        raise AssertionError("a runner cell measured derived costs itself (%s)" % key)

    monkeypatch.setattr(MicrobenchmarkSuite, "run_all", counting_run_all)
    monkeypatch.setattr(cells, "derive_costs", counting_derive)
    monkeypatch.setattr(appbench, "measure_derived_costs", forbidden)
    monkeypatch.setattr(irqbalance, "measure_derived_costs", forbidden)
    return counts


class TestWork:
    def test_full_report_runs_each_platform_suite_once(self, work):
        outcome = run_cells_outcome(cells.full_report_cells(), jobs=1, cache=None)
        assert not outcome.failures
        assert _sha256(merge.full_report_text(outcome.results)) == (
            GOLDEN_FULL_REPORT_SHA256
        )
        # one Table II suite per distinct key: each derived cell reads
        # its micro cell's payload instead of running the suite again
        assert work["run_all"] == {key: 1 for key in ALL_KEYS}
        assert work["derived"] == {key: 1 for key in ALL_KEYS}
        by_kind = collections.defaultdict(list)
        for result in outcome.results.values():
            by_kind[result.spec.kind].append(result.engines)
        # an ablation point is pure model arithmetic over derived costs;
        # an appcol column simulates only its native and virtual TCP_RR
        assert by_kind["ablation"] == [0] * 4
        assert by_kind["appcol"] == [2] * 5
        assert len(by_kind["derived"]) == 5

    def test_results_list_requested_cells_then_their_inputs(self):
        specs = cells.figure4_cells(["kvm-arm"])
        outcome = run_cells_outcome(specs, jobs=1)
        assert list(outcome.results) == [
            "appcol[irq_vcpus=1,key=kvm-arm]",
            "micro[key=kvm-arm]",
            "derived[key=kvm-arm]",
        ]

    def test_inputs_carry_the_consumers_costs(self):
        spec = cells.with_cost_overrides(cells.ablation("xen-arm", "Apache"), COSTS)
        (source,) = cells.inputs_of(spec)
        assert source == cells.with_cost_overrides(cells.derived("xen-arm"), COSTS)
        assert cells.inputs_of(source) == (
            cells.with_cost_overrides(cells.micro("xen-arm"), COSTS),
        )
        assert cells.inputs_of(cells.micro("xen-arm")) == ()

    def test_cached_consumer_plans_no_inputs(self, tmp_path, work):
        specs = cells.figure4_cells(["xen-arm"])
        run_cells_outcome(specs, cache=ResultCache(tmp_path))
        warm = ResultCache(tmp_path)
        outcome = run_cells_outcome(specs, cache=warm)
        assert list(outcome.results) == [specs[0].id]
        assert (warm.hits, warm.misses) == (1, 0)
        assert work["run_all"] == {"xen-arm": 1}

    def test_cached_input_feeds_a_missing_consumer(self, tmp_path, work):
        run_cells_outcome(cells.table2_cells(["kvm-x86"]), cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        outcome = run_cells_outcome(cells.figure4_cells(["kvm-x86"]), cache=cache)
        sources = {cell_id: result.source for cell_id, result in outcome.results.items()}
        assert sources == {
            "appcol[irq_vcpus=1,key=kvm-x86]": "run",
            "micro[key=kvm-x86]": "cache",
            "derived[key=kvm-x86]": "run",
        }
        assert work["run_all"] == {"kvm-x86": 1}


# --- failure propagation -------------------------------------------------

DOOMED = "micro[key=xen-arm]"


@pytest.fixture
def doomed_micro(monkeypatch):
    faults.reset_plan_cache()
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN",
        json.dumps(
            {"name": "doomed-micro", "faults": [
                {"cell": DOOMED, "kind": "transient", "times": 99}
            ]}
        ),
    )
    yield
    faults.reset_plan_cache()


def _policy(**overrides):
    defaults = dict(max_retries=1, backoff_base_s=0.001, backoff_max_s=0.01)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


@pytest.fixture(scope="module")
def golden_sections():
    assert "REPRO_FAULT_PLAN" not in os.environ
    outcome = run_cells_outcome(cells.full_report_cells())
    return merge.full_report_text(outcome.results).split("\n\n")


class TestFailurePropagation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_consumers_of_a_failed_input_are_finalized_unrun(
        self, jobs, doomed_micro, golden_sections
    ):
        policy = _policy(keep_going=True, cell_timeout_s=60.0 if jobs > 1 else None)
        outcome = run_cells_outcome(cells.full_report_cells(), jobs=jobs, policy=policy)
        failed = {cell.cell_id: cell for cell in outcome.failures}
        assert set(failed) == {
            DOOMED,
            "derived[key=xen-arm]",
            "appcol[irq_vcpus=1,key=xen-arm]",
            "ablation[key=xen-arm,workload=Apache]",
            "ablation[key=xen-arm,workload=Memcached]",
        }
        assert failed[DOOMED].attempts[-1].kind == "exception"
        names = {
            "derived[key=xen-arm]": DOOMED,
            "appcol[irq_vcpus=1,key=xen-arm]": "derived[key=xen-arm]",
            "ablation[key=xen-arm,workload=Apache]": "derived[key=xen-arm]",
            "ablation[key=xen-arm,workload=Memcached]": "derived[key=xen-arm]",
        }
        for cell_id, input_id in names.items():
            (attempt,) = failed[cell_id].attempts
            assert attempt.kind == "input-failed"
            assert attempt.error == "input %s failed" % input_id
            assert attempt.engines == 0
        assert outcome.metrics.get("runner.cell.failed").value == 5

        report = merge.full_report_text(outcome.results, partial=True)
        sections = report.split("\n\n")
        omitted = [
            section.split(" omitted")[0].lstrip("[")
            for section in sections
            if section.startswith("[")
        ]
        assert omitted == ["Table II", "Figure 4", "Section V ablation"]
        kept = [section for section in sections if not section.startswith("[")]
        for section in kept:
            assert section in golden_sections

    def test_without_keep_going_the_failure_names_the_input(self, doomed_micro):
        with pytest.raises(CellFailure) as excinfo:
            run_cells_outcome(cells.figure4_cells(["xen-arm"]), policy=_policy())
        (failed,) = excinfo.value.failed_cells
        assert failed.cell_id == DOOMED


class TestFanOut:
    def test_jobs2_matches_serial_and_respects_inputs(self, tmp_path, monkeypatch):
        from concurrent import futures

        events = []
        submit = futures.ProcessPoolExecutor.submit
        store = ResultCache.store

        def recording_submit(executor, fn, spec, *args):
            events.append(("submit", spec.id))
            return submit(executor, fn, spec, *args)

        def recording_store(cache, key, result):
            events.append(("accept", result.spec.id))
            return store(cache, key, result)

        monkeypatch.setattr(futures.ProcessPoolExecutor, "submit", recording_submit)
        monkeypatch.setattr(ResultCache, "store", recording_store)

        specs = cells.full_report_cells()
        serial = run_cells_outcome(specs, jobs=1)
        fanned = run_cells_outcome(specs, jobs=2, cache=ResultCache(tmp_path))
        assert merge.full_report_text(fanned.results) == merge.full_report_text(
            serial.results
        )
        derived_runs = [
            result for result in fanned.results.values() if result.spec.kind == "derived"
        ]
        assert sorted(result.spec.id for result in derived_runs) == sorted(
            cells.derived(key).id for key in ALL_KEYS
        )
        assert all(result.attempts == 1 for result in derived_runs)
        assert [kind for kind, _ in events].count("submit") == len(fanned.results)

        accepted = set()
        for kind, cell_id in events:
            if kind == "accept":
                accepted.add(cell_id)
                continue
            for source in cells.inputs_of(fanned.results[cell_id].spec):
                assert source.id in accepted, "%s submitted before %s" % (
                    cell_id,
                    source.id,
                )


# --- the service shares inputs across queries -----------------------------


@pytest.fixture
def suites(monkeypatch):
    counter = collections.Counter()
    run_all = MicrobenchmarkSuite.run_all

    def counting_run_all(suite):
        counter[suite.testbed.key] += 1
        return run_all(suite)

    monkeypatch.setattr(MicrobenchmarkSuite, "run_all", counting_run_all)
    return counter


def _server(cache=None):
    broker = SimulationBroker(jobs=1, cache=cache)
    return start_in_thread(config=ServiceConfig(port=0, admit_max=2), broker=broker)


class TestServiceSharing:
    def test_one_batch_simulates_each_micro_cell_once(self, suites):
        with _server() as handle:
            client = ServiceClient(port=handle.port, timeout=WAIT_S)
            handle.broker.hold()
            try:
                threads = launch_queries(
                    client, [("figure4", None), ("table2", None)], costs=COSTS
                )
                wait_until(
                    lambda: counter_value(handle, "service.cells.requested") == 8,
                    "both what-if queries to register",
                )
            finally:
                handle.broker.release()
            documents = [thread.result() for thread in threads]
            assert counter_value(handle, "service.batches") == 1
            # 4 micro (table2's, also figure4's inputs) + 4 derived + 4 appcol
            assert counter_value(handle, "service.cells.simulated") == 12
            assert counter_value(handle, "service.cells.cached") == 0
        assert suites == {key: 1 for key in PLATFORM_ORDER}
        for document in documents:
            # per-query stats count the requested cells only
            assert document["stats"]["cells"] == 4
            assert document["stats"]["simulated"] == 4

    def test_a_later_batch_reads_its_input_from_the_cache(self, tmp_path, suites):
        with _server(ResultCache(tmp_path)) as handle:
            client = ServiceClient(port=handle.port, timeout=WAIT_S)
            client.query("table2", None, costs=COSTS)
            assert counter_value(handle, "service.cells.simulated") == 4
            document = client.query("figure4", None, costs=COSTS)
            assert counter_value(handle, "service.batches") == 2
            # the figure4 query's micro inputs are the table2 query's cells
            assert counter_value(handle, "service.cells.cached") == 4
            assert counter_value(handle, "service.cells.simulated") == 4 + 8
        assert suites == {key: 1 for key in PLATFORM_ORDER}
        assert document["stats"] == {
            "cells": 4, "coalesced": 0, "cached": 0, "simulated": 4
        }
