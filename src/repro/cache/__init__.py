"""On-chip cache substrate: a generic set-associative array and the
Swap-group Table Cache (STC) that MDM uses as its temporal filter
(Section 3.2)."""

from repro.cache.sets import SetAssociativeCache
from repro.cache.stc import STC, STCEntry

__all__ = ["STC", "STCEntry", "SetAssociativeCache"]
