"""Seeded sanitizer fixtures: prove the detectors detect.

A sanitizer whose clean report cannot be distinguished from a sanitizer
that is silently broken is worthless, so the ``selftest`` target ships
two tiny cells:

* ``selftest[tie-race]`` deliberately schedules two callbacks for the
  same cycle whose *order* is the payload.  FIFO and inverted runs must
  produce different hashes — if they do not, the inversion plumbing is
  broken and CI fails.
* ``selftest[clean]`` does the same amount of work at distinct cycles;
  it must stay race-free under inversion, guarding against a detector
  that cries wolf.
"""

from repro.sim.engine import Engine


class SelftestCell:
    """Duck-typed stand-in for a CellSpec: an ``id`` plus ``run()``."""

    kind = "selftest"  # consumes no other cell

    def __init__(self, cell_id, fn, expect_race):
        self.id = cell_id
        self._fn = fn
        #: whether the sanitize run is *supposed* to flag this cell
        self.expect_race = expect_race

    def run(self):
        return self._fn()


def _tie_race():
    engine = Engine()
    order = []
    # Two independent appenders racing at cycle 10: the payload is the
    # order they happened to fire in, i.e. pure tie-break.
    engine.schedule(10, lambda: order.append("first-scheduled"))
    engine.schedule(10, lambda: order.append("second-scheduled"))
    engine.run()
    return {"order": order, "cycles": engine.now}


def _clean():
    engine = Engine()
    order = []
    engine.schedule(10, lambda: order.append("early"))
    engine.schedule(20, lambda: order.append("late"))
    engine.run()
    return {"order": order, "cycles": engine.now}


def cells():
    return [
        SelftestCell("selftest[tie-race]", _tie_race, expect_race=True),
        SelftestCell("selftest[clean]", _clean, expect_race=False),
    ]
