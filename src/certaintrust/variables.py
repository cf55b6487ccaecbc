"""Canonical pipeline variables and the module wiring they belong to."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

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


@lru_cache(maxsize=1024)
def name_key(name: str) -> str:
    """What two names that :func:`normalize_name` matches have in common."""
    return " ".join(name.replace("_", " ").replace("-", " ").split()).casefold()


@lru_cache(maxsize=32)
def _canonical_by_key(known: tuple[str, ...]) -> dict[str, str]:
    """``{name_key(canonical): canonical}``; on a key clash the first name wins."""
    by_key: dict[str, str] = {}
    for canonical in known:
        by_key.setdefault(name_key(canonical), canonical)
    return by_key


def normalize_name(name: str, known: Sequence[str], permissive: bool = False,
                   kind: str = "variable") -> str:
    """Map a loosely written name onto its canonical spelling.

    Matching is case-insensitive and ignores underscore/hyphen/extra-space
    differences.  Unknown names raise :class:`UnknownVariable` unless
    ``permissive`` is set, in which case the trimmed input is kept as-is.
    ``kind`` names what the names are in the messages.
    """
    if not isinstance(name, str) or not name.strip():
        raise UnknownVariable(f"{kind} name must be a non-empty string, got {name!r}")
    known = tuple(known)
    canonical = _canonical_by_key(known).get(name_key(name))
    if canonical is not None:
        return canonical
    if permissive:
        return name.strip()
    raise UnknownVariable(
        f"{name!r} is not a configured {kind} (expected one of: {', '.join(known)})"
    )
