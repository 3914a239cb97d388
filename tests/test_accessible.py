"""Accessible-set generation: sizes, documented orders, orthogonality."""

from fractions import Fraction

import pytest

from chainsense.accessible import (
    AccessibleSet,
    SensorConfig,
    capability_class,
    closure,
    generate,
    ladder_basis,
)
from chainsense.errors import InadmissibleConfig
from chainsense.pauli import format_string, from_letters, parse_string


def g3_size(n_chain):
    """Element count of the cube scheme's accessible set, (m^3 - m^2)/2."""
    m = n_chain + 2
    return (m**3 - m**2) // 2


def test_g3_size_closed_form():
    assert [g3_size(n) for n in range(1, 7)] == [9, 24, 50, 90, 147, 224]


@pytest.mark.parametrize("n_chain", range(1, 7))
def test_cube_set_size_matches_closure(n_chain):
    aset = generate(SensorConfig(n_chain, 2, "YaZb", "xb"))
    assert len(aset) == g3_size(n_chain)


@pytest.mark.parametrize("n_chain", range(1, 9))
def test_ladder_set_size(n_chain):
    aset = generate(SensorConfig(n_chain, 2, "ZaYb", "xa"))
    assert len(aset) == n_chain + 2


def test_ladder_documented_order():
    aset = generate(SensorConfig(3, 2, "ZaYb", "xa"))
    texts = [format_string(s) for _sg, s in aset.basis]
    assert texts == ["Xa", "Za Yb", "Za Zb X1", "Za Zb Z1 Y2", "Za Zb Z1 Z2 X3"]
    signs = [sg for sg, _s in aset.basis]
    assert signs == [1, 1, -1, -1, 1]


def test_cube_documented_order_prefix():
    one = generate(SensorConfig(1, 2, "YaZb", "xb"))
    two = generate(SensorConfig(2, 2, "YaZb", "xb"))
    texts1 = [format_string(s, 2) for _sg, s in one.basis]
    assert texts1 == [
        "Ya Zb", "Xb", "Zb Y1", "Ya Xb Y1", "Ya Z1", "Ya Yb X1", "Xa Yb Y1",
        "Za Y1", "Za Xb Z1",
    ]
    # N=1 order is the 9-element prefix of the N=2 order (site labels match
    # after re-parsing into the larger register)
    texts2 = [format_string(s, 2) for _sg, s in two.basis]
    assert texts2[:9] == texts1
    assert len(texts2) == 24
    assert texts2[9:] == [
        "Ya Yb Z1 Y2", "Ya X1 Y2", "Za Xb X1 Y2", "Ya Z2", "Za Xb Z2",
        "Za Zb Y1 Z2", "Ya Y1 X2", "Za Xb Y1 X2", "Za Zb X2", "Ya Xb Z1 X2",
        "Za Z1 X2", "Za Yb X1 X2", "Zb Z1 X2", "Xa Yb Z1 X2", "Xa X1 X2",
    ]


def test_single_qubit_yb_order():
    aset = generate(SensorConfig(3, 1, "Yb", "xb"))
    texts = [format_string(s, 1) for _sg, s in aset.basis]
    assert texts == ["Yb", "Zb X1", "Zb Z1 Y2", "Zb Z1 Z2 X3"]


def test_single_qubit_zb_contains_expected_elements():
    aset = generate(SensorConfig(2, 1, "Zb", "xb"))
    for text in ("Zb", "Yb X1", "Xb Y1", "Yb Z1 Y2", "Xb Z1 X2", "Z1", "Z2"):
        assert parse_string(text, 3, 1) in aset
    assert len(aset) == 9


def test_no_xb_in_single_qubit_sets():
    for label in ("Yb", "Zb"):
        for n_chain in (1, 2, 3, 4):
            aset = generate(SensorConfig(n_chain, 1, label, "xb"))
            xb = from_letters(n_chain + 1, {0: "X"})
            assert xb not in aset


def test_order_stability():
    a1 = generate(SensorConfig(3, 2, "YaZb", "xb"))
    a2 = generate(SensorConfig(3, 2, "YaZb", "xb"))
    assert a1.basis == a2.basis


def test_closure_depths_start_at_measurement():
    cfg = SensorConfig(2, 2, "ZaYb", "xa")
    depths, _, _ = closure(cfg.hamiltonian(), cfg.measurement_string())
    assert depths[cfg.measurement_string().key()] == 0


def test_orthogonal_schemes_are_orthogonal():
    for label in ("YaYb", "ZaZb", "Yb", "Zb"):
        for init in ("xa", "xb", "xaxb"):
            cfg = SensorConfig(2, 2, label, init)
            aset = generate(cfg)
            vals = aset.signed_expectations(cfg.initial_state())
            assert all(v == 0 for v in vals), (label, init)
    for label in ("Yb", "Zb"):
        cfg = SensorConfig(2, 1, label, "xb")
        aset = generate(cfg)
        vals = aset.signed_expectations(cfg.initial_state())
        assert all(v == 0 for v in vals)


def test_capable_schemes_are_not_orthogonal():
    ladder = SensorConfig(2, 2, "ZaYb", "xa")
    aset = generate(ladder)
    vals = aset.signed_expectations(ladder.initial_state())
    assert vals[0] == 1 and all(v == 0 for v in vals[1:])
    cube = SensorConfig(2, 2, "YaZb", "xb")
    aset = generate(cube)
    vals = aset.signed_expectations(cube.initial_state())
    assert vals[1] == 1 and sum(abs(v) for v in vals) == 1


def test_capability_classes():
    assert capability_class("ZaYb", 2) == "ladder"
    assert capability_class("YaZb", 2) == "cube"
    assert capability_class("YaYb", 2) == "orthogonal"
    assert capability_class("Yb", 1) == "orthogonal"
    with pytest.raises(InadmissibleConfig):
        capability_class("XaXb", 2)


def test_admissibility():
    with pytest.raises(InadmissibleConfig):
        SensorConfig(2, 2, "ZaYb", "xb")  # ladder needs xa
    with pytest.raises(InadmissibleConfig):
        SensorConfig(2, 2, "YaZb", "xa")  # cube needs xb
    with pytest.raises(InadmissibleConfig):
        SensorConfig(2, 1, "Yb", "xa")  # no 'a' site on a 1-qubit sensor
    with pytest.raises(InadmissibleConfig):
        SensorConfig(0, 2, "ZaYb", "xa")
    SensorConfig(2, 2, "YaYb", "xaxb")  # admissible though incapable


def test_ladder_basis_matches_closure_set():
    cfg = SensorConfig(5, 2, "ZaYb", "xa")
    depths, _, _ = closure(cfg.hamiltonian(), cfg.measurement_string())
    keys = {s.key() for _sg, s in ladder_basis(5)}
    assert keys == set(depths)
