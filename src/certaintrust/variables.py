"""Canonical pipeline variables and the module wiring they belong to."""

from __future__ import annotations

from .errors import UnknownVariable

MODULE_NAMES = ("Existence", "Affiliation", "Fulfillment", "Policy")

#: final decision stage fed by the four module outputs
MERCHANT_MODULE = "Merchant Trust"

DEFAULT_WIRING: dict[str, tuple[str, str, str]] = {
    "Existence": ("Physical Existence", "People Existence", "Mandatory Registration"),
    "Affiliation": ("Third Party Endorsement", "Membership", "Portal"),
    "Fulfillment": ("Delivery", "Payment Methods", "Community Comment"),
    "Policy": ("Customer Satisfaction", "Privacy", "Warranty"),
}

CANONICAL_VARIABLES: tuple[str, ...] = tuple(
    name for module in MODULE_NAMES for name in DEFAULT_WIRING[module]
)


def _key(name: str) -> str:
    return " ".join(name.replace("_", " ").replace("-", " ").split()).casefold()


def normalize_name(name: str, known: tuple[str, ...], permissive: bool = False) -> str:
    """Map a loosely written name onto its canonical spelling.

    Matching is case-insensitive and ignores underscore/hyphen/extra-space
    differences.  Unknown names raise :class:`UnknownVariable` unless
    ``permissive`` is set, in which case the trimmed input is kept as-is.
    """
    if not isinstance(name, str) or not name.strip():
        raise UnknownVariable(f"variable name must be a non-empty string, got {name!r}")
    wanted = _key(name)
    for canonical in known:
        if _key(canonical) == wanted:
            return canonical
    if permissive:
        return name.strip()
    raise UnknownVariable(
        f"{name!r} is not a configured variable (expected one of: {', '.join(known)})"
    )
