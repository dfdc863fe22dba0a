"""The sanitize runner: dual-schedule execution of report cells.

Every target cell is executed twice under :class:`SimSan` — once with
the heap-path FIFO tie-break and once with the tie-break inverted —
and the two JSON payloads are hashed.  A payload that survives
inversion byte-identical has no observable tie-order dependence; a
mismatch is a race, anchored at the first fire where the two schedules
diverge (with both schedule sites).  Write tracking over shared
hypervisor state runs alongside and flags same-cycle multi-writer
fields independently of whether the payload happened to move.

Cells come from the runner's cell graph (:mod:`repro.runner.cells`)
so ``sanitize suite`` covers exactly what ``bench``/``full_report``
simulate: a target sweeps its cells' input closure (``derived[key]``'s
probes run under both orders too), and a consumer reads its inputs'
payloads from their FIFO pass.  A ``selftest`` target's seeded cells
prove the detector actually fires (one deliberate tie race, one clean
control).
"""

import hashlib
import json

from repro.constants import SANITIZE_TARGETS
from repro.errors import ConfigurationError
from repro.runner import cells
from repro.sanitize import selftest as selftest_mod
from repro.sanitize import writes
from repro.sanitize.simsan import FIFO, INVERTED, SimSan, first_divergence
from repro.sim.engine import Engine

#: report schema identifier (checked by tools/validate_sanitize.py)
SCHEMA = "repro-sanitize/1"

#: target -> builder of the cells it sweeps (names: repro.constants)
TARGETS = {
    target: selftest_mod.cells if group is None else getattr(cells, group)
    for target, group in SANITIZE_TARGETS.items()
}


def payload_sha256(payload):
    """Canonical hash of a cell payload (sorted keys, compact separators
    — the same canonical form the PR-3 result cache keys on)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _execute(cell, inputs):
    """Run one cell (a CellSpec or a selftest cell) to its payload."""
    if hasattr(cell, "run"):
        return cell.run()
    return cells.run_cell(cell, inputs=inputs)


def _one_pass(cell, order, track_writes, inputs):
    san = SimSan(order)
    Engine.sanitizer = san
    try:
        if track_writes:
            with writes.tracking(san):
                payload = _execute(cell, inputs)
        else:
            payload = _execute(cell, inputs)
    finally:
        Engine.sanitizer = None
    return san, payload


def sanitize_cell(cell, track_writes=True):
    """Dual-run one cell that consumes no other; returns its report
    entry (plain data)."""
    return _dual_run(cell, track_writes, ())[0]


def _dual_run(cell, track_writes, inputs):
    """``(report entry, FIFO payload)`` of one cell."""
    fifo_san, fifo_payload = _one_pass(cell, FIFO, track_writes, inputs)
    inverted_san, inverted_payload = _one_pass(cell, INVERTED, track_writes, inputs)

    fifo_hash = payload_sha256(fifo_payload)
    inverted_hash = payload_sha256(inverted_payload)
    tie_races = []
    if fifo_hash != inverted_hash:
        divergence = first_divergence(fifo_san, inverted_san)
        tie_races.append(
            {
                "kind": "tie-order",
                "detail": "payload depends on equal-time tie-break order",
                "divergence": divergence,
            }
        )
    multi_writer = fifo_san.multi_writer_races() if track_writes else []

    entry = {
        "cell": cell.id,
        "payload_sha256": fifo_hash,
        "inverted_sha256": inverted_hash,
        "schedule_events": len(fifo_san.trace),
        "tie_groups": fifo_san.tie_groups(),
        "metrics": fifo_san.metrics_snapshot(),
        "races": {"tie_order": tie_races, "multi_writer": multi_writer},
    }
    return entry, fifo_payload


def sanitize_target(target, track_writes=True, max_cells=None):
    """Sanitize every cell of ``target`` and the inputs they consume
    (inputs first); returns the full report dict."""
    builder = TARGETS.get(target)
    if builder is None:
        raise ConfigurationError(
            "unknown sanitize target %r (choose from: %s)"
            % (target, ", ".join(sorted(TARGETS)))
        )
    specs = cells.input_closure(builder())
    if max_cells is not None:
        specs = specs[:max_cells]
    payloads = {}
    entries = []
    for cell in specs:
        inputs = tuple(payloads[source.id] for source in cells.inputs_of(cell))
        entry, payloads[cell.id] = _dual_run(cell, track_writes, inputs)
        entries.append(entry)
    tie_total = sum(len(entry["races"]["tie_order"]) for entry in entries)
    writer_total = sum(len(entry["races"]["multi_writer"]) for entry in entries)
    return {
        "schema": SCHEMA,
        "target": target,
        "cells": entries,
        "summary": {
            "cells": len(entries),
            "tie_order_races": tie_total,
            "multi_writer_races": writer_total,
            "clean": tie_total == 0 and writer_total == 0,
        },
    }
