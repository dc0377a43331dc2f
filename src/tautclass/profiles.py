"""Named intersection profiles used across the package and the CLI.

Fixed labels cover the surfaces and threefolds with pinned data; the
patterns ``dp-surface-<d>`` and ``hypersurface-n<n>-d<d>`` construct
lattice and hypersurface profiles on demand; the builders are memoized,
so a label resolves to one profile object.  Hypersurface labels write n
and d without leading zeros and are capped at n <= MAX_HYPERSURFACE_DIM:
evaluation cost grows at least quadratically in n (the Segre inversion
alone takes O(n^2) products), so a larger label is a usage error rather
than a long wait.  d has at most 9 digits, so Chern numbers stay printable.
"""

from __future__ import annotations

import re

from .chow import BaseProfile
from .hypersurfaces import HypersurfaceSpec, hypersurface_profile
from .surfaces import cubic_surface_profile, surface_lattice_profile
from .threefolds import default_threefold_profile, k3_quartic_profile

MAX_HYPERSURFACE_DIM = 200

# At most 9 digits of n and d are read, so int() never sees a huge digit
# string; a longer n is above the cap anyway.
_HYPERSURFACE_RE = re.compile(r"^hypersurface-n([1-9]\d{0,8})-d([1-9]\d{0,8})$")
_DP_SURFACE_RE = re.compile(r"^dp-surface-([1-7])$")
_DP3_RE = re.compile(r"^dp3-degree([1-5])$")

FIXED_LABELS = (
    "cubic-surface",
    "k3-quartic",
    "dp3-degree1",
    "dp3-degree2",
    "dp3-degree3",
    "dp3-degree4",
    "dp3-degree5",
    "dp-surface-1",
    "dp-surface-2",
    "dp-surface-3",
    "dp-surface-4",
    "dp-surface-5",
    "dp-surface-6",
    "dp-surface-7",
)


def get_profile(label: str) -> BaseProfile:
    """Resolve a profile label; raises KeyError for unknown labels and for
    hypersurface labels with leading zeros or above the caps."""
    if label == "cubic-surface":
        return cubic_surface_profile()
    if label == "k3-quartic":
        return k3_quartic_profile()
    match = _DP3_RE.match(label)
    if match:
        return default_threefold_profile(int(match.group(1)))
    match = _DP_SURFACE_RE.match(label)
    if match:
        return surface_lattice_profile(int(match.group(1)))
    match = _HYPERSURFACE_RE.match(label)
    if match and int(match.group(1)) <= MAX_HYPERSURFACE_DIM:
        return hypersurface_profile(HypersurfaceSpec(int(match.group(1)),
                                                     int(match.group(2))))
    raise KeyError(
        f"unknown profile {label!r}; fixed labels: {', '.join(FIXED_LABELS)}, "
        f"plus hypersurface-n<n>-d<d> with n <= {MAX_HYPERSURFACE_DIM} and d "
        f"of at most 9 digits, both without leading zeros")
