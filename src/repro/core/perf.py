"""Runtime configuration for the analysis core.

The core has one representation — interned locations, copy-on-write
bitset points-to sets and slice-keyed call memoization — and no
switches to emulate others.  What remains
configurable is *additive*: it never changes what the analysis
computes, only what extra metadata a run captures.

The flag is read on the hot paths, so it is a plain attribute lookup
on a module-level singleton — do not replace :data:`CONFIG`; mutate it
through :func:`configure` or the :func:`configured` context manager.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class PerfConfig:
    """Run-time options of the analysis core.

    * ``track_provenance``: record a :class:`repro.core.provenance.
      Derivation` for every points-to triple as it is created (the
      "explain" layer).  Off by default; the hooks reduce to one
      attribute check, mirroring the NullTracer pattern of
      ``repro.obs``.
    """

    track_provenance: bool = False


#: The process-wide configuration consulted by the hot paths.
CONFIG = PerfConfig()

_DEFAULTS = PerfConfig()


def configure(**overrides) -> PerfConfig:
    """Set configuration fields by name; unknown names are an error."""
    for name, value in overrides.items():
        if not hasattr(_DEFAULTS, name):
            raise ValueError(f"unknown perf option {name!r}")
        setattr(CONFIG, name, value)
    return CONFIG


def reset() -> PerfConfig:
    """Restore the defaults."""
    return configure(**vars(_DEFAULTS))


@contextmanager
def configured(**overrides):
    """Temporarily apply overrides (restores previous values on exit)."""
    saved = {name: getattr(CONFIG, name) for name in overrides}
    configure(**overrides)
    try:
        yield CONFIG
    finally:
        configure(**saved)
