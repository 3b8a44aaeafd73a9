"""Media objects and their placement on storage.

The data model follows Table 2 of the paper:

* an **object** is a sequence of equi-sized **subobjects** (stripes),
  each a contiguous portion of the object;
* a subobject is declustered into ``M`` **fragments**, one per drive,
  where ``M = ceil(B_display / B_disk)`` is the *degree of
  declustering*;
* fragments are the unit of transfer from a single drive, and their
  size is identical for every object regardless of media type — only
  ``M`` varies, so every media type shares one interval length.
"""

from repro.media.catalog import Catalog, build_uniform_catalog
from repro.media.layout import (
    StripingLayout,
    simple_striping_layout,
    staggered_layout,
    virtual_replication_layout,
)
from repro.media.objects import FragmentAddress, MediaObject, MediaType
from repro.media.tape_layout import TapeLayout, TapeOrder

__all__ = [
    "Catalog",
    "FragmentAddress",
    "MediaObject",
    "MediaType",
    "StripingLayout",
    "TapeLayout",
    "TapeOrder",
    "build_uniform_catalog",
    "simple_striping_layout",
    "staggered_layout",
    "virtual_replication_layout",
]
