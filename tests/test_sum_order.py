"""Experiment payloads do not depend on how the interpreter sums floats.

Python 3.12 made builtin ``sum`` over floats compensated (Neumaier),
which can change the last bit of a float total that 3.11 adds left to
right. The experiments whose payloads once moved under it are re-run
here with ``builtins.sum`` swapped for an emulation of the 3.12 float
path, and their payloads must come out byte-identical to a normal run:
the property is then checked on every interpreter in the matrix, not
only on a real 3.12.
"""

import builtins
import json
import math

from repro.experiments import registry
from repro.experiments.runner import run_experiments
from repro.util.stats import ordered_sum

#: Every experiment whose quick payload changed under the 3.12 ``sum``
#: before float totals went through ``ordered_sum``.
SUM_SENSITIVE = (
    "fig03",
    "fig11a",
    "fig11c",
    "pilot",
    "sec6est",
    "ext-estimator",
    "table02",
)

_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum`` on ints and exact floats, else the builtin.

    A leading run of ints is added exactly; from the first float on,
    floats are added with Neumaier compensation and ints without, and
    the compensation is folded in once at the end.
    """
    items = list(iterable)
    exact = all(type(item) in (int, float) for item in items)
    if not exact or type(start) is not int or float not in map(type, items):
        return _BUILTIN_SUM(items, start)
    index, prefix = 0, start
    while type(items[index]) is int:
        prefix += items[index]
        index += 1
    total, compensation = float(prefix), 0.0
    for item in items[index:]:
        if type(item) is int:
            total += float(item)
            continue
        partial = total + item
        if abs(total) >= abs(item):
            compensation += (total - partial) + item
        else:
            compensation += (item - partial) + total
        total = partial
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _payload_bytes(ids):
    outcomes = run_experiments(list(ids), quick=True)
    assert [outcome.status for outcome in outcomes] == ["ok"] * len(ids)
    return {
        outcome.experiment_id: json.dumps(outcome.payload, sort_keys=True)
        for outcome in outcomes
    }


class TestEmulation:
    def test_compensation_changes_a_float_total(self):
        # The emulation is not vacuous: it disagrees with left-to-right
        # addition exactly where compensation recovers lost bits.
        values = [1e16, 1.0, -1e16]
        assert ordered_sum(values) == 0.0
        assert compensated_sum(values) == 1.0

    def test_ordered_sum_matches_left_to_right(self):
        values = [0.1] * 10
        total = 0
        for value in values:
            total = total + value
        assert ordered_sum(values) == total
        assert ordered_sum([]) == 0
        assert type(ordered_sum([])) is int


class TestPayloadsIndependentOfSum:
    def test_payloads_identical_under_compensated_sum(self, monkeypatch):
        registry.discover()
        plain = _payload_bytes(SUM_SENSITIVE)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        compensated = _payload_bytes(SUM_SENSITIVE)
        differing = [
            experiment_id
            for experiment_id in SUM_SENSITIVE
            if plain[experiment_id] != compensated[experiment_id]
        ]
        assert differing == []
