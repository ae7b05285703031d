"""Keyword-alias resolution for filter and spec parameters.

The paper writes filter geometry as ``m`` (bits) and ``k`` (hash
functions) and the decay factor as ``DF``; the library spells them
``num_bits``, ``num_hashes``, and ``decay_factor``.  Constructors
accept both: the canonical name and a keyword-only paper-style alias
(``m`` / ``k`` / ``df``).  Passing both spellings explicitly is a
``TypeError`` — silently preferring one would hide a caller bug.

Spec ``parse()`` grammars (``ServeSpec``, ``LoadSpec``) share the
same aliasing through :data:`SPEC_KEY_ALIASES` /
:func:`canonical_spec_key`, so ``m=1024`` and ``num_bits=1024`` mean
the same thing in every ``key=value`` string the CLI accepts.
"""

from __future__ import annotations

from typing import Dict, Optional, TypeVar

__all__ = [
    "resolve_param",
    "SPEC_KEY_ALIASES",
    "canonical_spec_key",
]

T = TypeVar("T")

#: Paper-style spelling -> canonical spec-key name, shared by every
#: spec ``parse()`` grammar.  ``df`` maps to the full ``df_per_min``
#: (the per-minute decay factor every spec field uses), matching the
#: keyword aliases the filter constructors already accept.
SPEC_KEY_ALIASES: Dict[str, str] = {
    "m": "num_bits",
    "k": "num_hashes",
    "df": "df_per_min",
}


def canonical_spec_key(key: str) -> str:
    """Map a paper-style spec key (``m``/``k``/``df``) to its canonical name.

    Unknown keys pass through unchanged — each spec's ``parse()`` does
    its own membership check afterwards, so its error message names the
    key the caller actually typed.
    """
    return SPEC_KEY_ALIASES.get(key, key)


def resolve_param(
    name: str,
    value: Optional[T],
    alias: str,
    alias_value: Optional[T],
    default: T,
) -> T:
    """Pick between a canonical parameter and its alias.

    Both are ``None``-sentinel keywords; whichever was given wins, the
    *default* applies when neither was, and giving both raises.
    """
    if alias_value is None:
        return default if value is None else value
    if value is not None:
        raise TypeError(
            f"got values for both {name!r} and its alias {alias!r}; pass one"
        )
    return alias_value
