"""``TransportNetwork.with_weight_tau``: the network a tau sweep solves at
each grid point, derived from the parsed one without a second edge index.

The derived network must equal the network built from scratch with every
source's weight_tau replaced, and its edge index must hold the same bytes
in every array, all read-only, sharing every one but ``tau_c`` with the
parsed network's index. The sources still go through ``SourceSpec``'s
checks and an overflowing reach through construction's, with the same
messages. A whole ``sweep-tau`` run builds one edge index, at parse time.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from secalloc import cli, model
from secalloc.errors import DomainError
from secalloc.model import AttackProbabilityModel, SourceSpec, TargetSpec, TransportNetwork
from secalloc.scenario_io import parse_scenario
from test_admm_round_kernel import mixed_degrees

CASE_STUDY = Path(__file__).parent.parent / "scenarios" / "case_study.yaml"
TAUS = (0.0, 0.5, 1.0)


def complete_100x20(seed=40):
    """100 targets of both families and 20 sources, each with its own
    weight_tau and slopes on a random third of the targets."""
    rng = np.random.default_rng(seed)
    targets = tuple(
        TargetSpec(f"t{i}", float(rng.uniform(1.0, 20.0)),
                   AttackProbabilityModel(("exponential", "reciprocal")[i % 2], float(rng.uniform(1.1, 3.0))))
        for i in range(100)
    )
    sources = tuple(
        SourceSpec(f"s{j}", float(rng.uniform(1.0, 5.0)), weight_tau=float(rng.uniform(0.0, 0.5)),
                   utility_coeffs={f"t{i}": float(rng.uniform(-1.0, 2.0)) for i in range(j % 3, 100, 3)})
        for j in range(20)
    )
    return TransportNetwork.complete(targets, sources)


NETWORKS = {
    "case study": lambda: parse_scenario(CASE_STUDY.read_text()).network,
    "mixed degrees": lambda: mixed_degrees()[0],
    "complete 100x20": complete_100x20,
}


def rebuilt(network, tau):
    return TransportNetwork(network.targets, tuple(replace(s, weight_tau=tau) for s in network.sources),
                            network.edges)


def arrays(index):
    """Every ndarray of the index by name, those inside its lists too."""
    found = {}
    for name, value in vars(index).items():
        if isinstance(value, np.ndarray):
            found[name] = value
        for k, item in enumerate(value if isinstance(value, list) else ()):
            for j, array in enumerate(item if isinstance(item, tuple) else (item,)):
                if isinstance(array, np.ndarray):
                    found[f"{name}[{k}][{j}]"] = array
    return found


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("name", NETWORKS)
def test_the_derived_network_equals_the_rebuilt_one(name, tau):
    network = NETWORKS[name]()
    derived, expected = network.with_weight_tau(tau), rebuilt(network, tau)
    assert derived == expected
    got, want, parsed = arrays(derived.edge_index), arrays(expected.edge_index), arrays(network.edge_index)
    assert got.keys() == want.keys() == parsed.keys()
    for key, array in got.items():
        assert (array.dtype, array.shape, array.tobytes()) == (want[key].dtype, want[key].shape, want[key].tobytes()), key
        assert not array.flags.writeable, key
        assert (array is parsed[key]) == (key != "tau_c"), key
    held = {key.split("[")[0] for key in got}
    for key, value in vars(expected.edge_index).items():
        if key not in held:  # the edges, the id positions and the target slices
            assert getattr(derived.edge_index, key) == value, key


def test_an_overflowing_reach_raises_constructions_message():
    targets = (TargetSpec("t1", 12.0), TargetSpec("t2", 9.0))
    network = TransportNetwork.complete(targets, (SourceSpec("s1", 1e300, utility_coeffs={"t1": 1e9}),))
    assert network.with_weight_tau(0.125).edge_index.tau_c.tolist() == [1.25e8, 0.125]
    with pytest.raises(DomainError) as constructed:
        rebuilt(network, 1.0)
    with pytest.raises(DomainError) as derived:
        network.with_weight_tau(1.0)
    assert str(derived.value) == str(constructed.value)
    assert "the largest source utility" in str(derived.value)


def test_a_rejected_weight_keeps_the_sources_message():
    network = complete_100x20()
    with pytest.raises(DomainError) as constructed:
        rebuilt(network, -0.5)
    with pytest.raises(DomainError) as derived:
        network.with_weight_tau(-0.5)
    assert str(derived.value) == str(constructed.value) == "source s0: weight_tau must be >= 0, got -0.5"


def test_a_sweep_builds_one_edge_index(tmp_path, monkeypatch):
    built = []

    class Counting(model.EdgeIndex):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(model, "EdgeIndex", Counting)
    out = tmp_path / "tau.csv"
    assert cli.main(["sweep-tau", str(CASE_STUDY), "-o", str(out), "--steps", "5"]) == cli.EXIT_OK
    assert len(built) == 1 and len(out.read_text().splitlines()) == 6
