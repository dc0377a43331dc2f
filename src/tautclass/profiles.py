"""Named intersection profiles used across the package and the CLI.

One table maps each fixed label (the cubic and K3 surfaces,
``dp3-degree1..5`` and ``dp-surface-1..7``) to its builder, and
:data:`FIXED_LABELS` is read from it; the pattern ``hypersurface-n<n>-d<d>``
constructs hypersurface profiles on demand.  A label must match exactly,
and the builders are memoized, so a label resolves to one profile object.
Hypersurface labels write n and d in ASCII digits without leading zeros,
and a label above the caps of :class:`HypersurfaceSpec` is unknown.
"""

from __future__ import annotations

import re

from .chow import BaseProfile
from .hypersurfaces import (MAX_HYPERSURFACE_DIM, HypersurfaceSpec,
                            hypersurface_profile)
from .surfaces import cubic_surface_profile, surface_lattice_profile
from .threefolds import default_threefold_profile, k3_quartic_profile

# At most 9 digits of n and d are read, so int() never sees a huge digit
# string; a longer n is above the cap anyway.
_HYPERSURFACE_RE = re.compile(
    r"hypersurface-n([1-9][0-9]{0,8})-d([1-9][0-9]{0,8})")

# Each entry looks its builder up when called, so a rebound module name
# (a tracer's wrapper, a test's monkeypatch) is seen.
_FIXED = {
    "cubic-surface": lambda: cubic_surface_profile(),
    "k3-quartic": lambda: k3_quartic_profile(),
    **{f"dp3-degree{d}": (lambda d=d: default_threefold_profile(d))
       for d in range(1, 6)},
    **{f"dp-surface-{d}": (lambda d=d: surface_lattice_profile(d))
       for d in range(1, 8)},
}
FIXED_LABELS = tuple(_FIXED)


def get_profile(label: str) -> BaseProfile:
    """Resolve a profile label; raises KeyError for unknown labels and for
    hypersurface labels with leading zeros or above the caps."""
    build = _FIXED.get(label)
    if build is not None:
        return build()
    match = _HYPERSURFACE_RE.fullmatch(label)
    if match:
        try:
            spec = HypersurfaceSpec(int(match.group(1)), int(match.group(2)))
        except ValueError:
            pass  # above the caps, which the KeyError below states
        else:
            return hypersurface_profile(spec)
    raise KeyError(
        f"unknown profile {label!r}; fixed labels: {', '.join(FIXED_LABELS)}, "
        f"plus hypersurface-n<n>-d<d> with n <= {MAX_HYPERSURFACE_DIM} and d "
        f"of at most 9 digits, both in ASCII digits without leading zeros")
