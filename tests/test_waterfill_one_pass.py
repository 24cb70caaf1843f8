"""Water-filling checks the network and builds the threshold matrix once
per call of each entry point."""

import pytest

from helpers import complete_network
from secalloc import waterfill
from secalloc.model import BehavioralModel


@pytest.mark.parametrize("entry", ["waterfill_allocate", "active_target_count"])
def test_one_check_and_one_matrix_per_call(entry, monkeypatch):
    calls = {"_require_analytical": 0, "_threshold_matrix": 0}
    for name in calls:
        original = getattr(waterfill, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(waterfill, name, counting)
    net = complete_network([12.0, 9.0, 5.0, 3.0], [4.0, 3.0])
    getattr(waterfill, entry)(net, BehavioralModel(0.7))
    assert calls == {"_require_analytical": 1, "_threshold_matrix": 1}

