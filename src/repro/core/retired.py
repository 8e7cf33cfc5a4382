"""Configuration fields kept for one release as inert keywords.

A ``*Config`` field leaving the public surface stays accepted for one
release (DESIGN.md section 10.3): it changes nothing, and setting it
away from its default emits one :class:`DeprecationWarning` naming the
replacement.  The value is reset to the default, so the config equals
-- and runs exactly like -- one built without it.
"""

from __future__ import annotations

import dataclasses
import warnings

__all__ = ["retire_fields"]


def retire_fields(config: object, **replacements: str) -> None:
    """Warn about and reset each retired field set away from its default.

    Call from a frozen dataclass's ``__post_init__``; ``replacements``
    maps every retired field name to what to use instead.
    """
    for spec in dataclasses.fields(config):
        if spec.name not in replacements:
            continue
        if getattr(config, spec.name) == spec.default:
            continue
        warnings.warn(
            f"{type(config).__name__}.{spec.name} is deprecated, changes "
            f"nothing and is removed in 1.13.0: "
            f"{replacements[spec.name]}",
            DeprecationWarning,
            stacklevel=4,
        )
        object.__setattr__(config, spec.name, spec.default)
