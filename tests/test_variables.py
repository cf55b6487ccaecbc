"""Variable-name resolution: loose spellings onto canonical names."""

import pytest

from certaintrust import CANONICAL_VARIABLES, UnknownVariable
from certaintrust.variables import normalize_name


def test_loose_spellings_resolve():
    for name in ("physical_existence", "PHYSICAL-EXISTENCE", "  physical   Existence "):
        assert normalize_name(name, CANONICAL_VARIABLES) == "Physical Existence"


def test_first_canonical_name_wins_a_key_clash():
    assert normalize_name("DELIVERY", ("Delivery", "delivery", "Portal")) == "Delivery"
    assert normalize_name("DELIVERY", ("delivery", "Delivery", "Portal")) == "delivery"
    assert normalize_name("Delivery_", ("Portal", "delivery", "Delivery")) == "delivery"


def test_each_known_set_resolves_on_its_own():
    assert normalize_name("portal", ("Delivery", "Portal")) == "Portal"
    with pytest.raises(UnknownVariable):
        normalize_name("portal", ("Delivery",))


def test_list_of_known_names_works():
    known = ["Delivery", "Portal"]
    assert normalize_name("portal", known) == "Portal"
    with pytest.raises(UnknownVariable, match=r"expected one of: Delivery, Portal\)$"):
        normalize_name("Bogus", known)


def test_permissive_keeps_the_trimmed_input():
    got = normalize_name("  Bespoke  signal ", CANONICAL_VARIABLES, permissive=True)
    assert got == "Bespoke  signal"
    assert normalize_name(" delivery ", CANONICAL_VARIABLES, permissive=True) == "Delivery"


def test_unknown_variable_messages():
    with pytest.raises(UnknownVariable) as excinfo:
        normalize_name("Bogus", ("Delivery", "Portal"))
    assert str(excinfo.value) == (
        "'Bogus' is not a configured variable (expected one of: Delivery, Portal)"
    )
    for bad in ("", "   ", None, 7):
        with pytest.raises(UnknownVariable) as excinfo:
            normalize_name(bad, ("Delivery",))
        assert str(excinfo.value) == f"variable name must be a non-empty string, got {bad!r}"
