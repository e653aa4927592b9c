"""Backend selection for the backtracking search kernels.

`find_hom` always runs the pure Python kernel, which prunes with forward
checking.  `find_hyperhom` uses the compiled extension when it imported
successfully, the instance fits in 64-bit masks, and ORDCORE_PURE is unset.
The pure Python kernels accept graphs of any size.
"""

from __future__ import annotations

import os
from typing import Sequence

from . import _pykernels

_compiled = None
if not os.environ.get("ORDCORE_PURE"):
    try:
        from . import _ckernels as _compiled  # type: ignore[no-redef]
    except ImportError:
        _compiled = None


def backend() -> str:
    return "compiled" if _compiled is not None else "pure"


def find_hom(
    n_g: int,
    adj_g: Sequence[int],
    n_h: int,
    adj_h: Sequence[int],
    fixed: Sequence[int] | None = None,
    forbid_identity: bool = False,
    min_image: int = 0,
    descending: bool = False,
) -> list[int] | None:
    return _pykernels.find_hom(
        n_g, adj_g, n_h, adj_h, fixed, forbid_identity, min_image, descending
    )


def find_hyperhom(
    n_g: int,
    edges_g: Sequence[Sequence[int]],
    n_h: int,
    edge_masks_h: Sequence[int],
    fixed: Sequence[int] | None = None,
    forbid_identity: bool = False,
    allowed: int | None = None,
) -> list[int] | None:
    if _compiled is not None and n_g <= 64 and n_h <= 64:
        return _compiled.find_hyperhom(
            n_g, edges_g, n_h, edge_masks_h, fixed, forbid_identity, allowed
        )
    return _pykernels.find_hyperhom(
        n_g,
        edges_g,
        n_h,
        edge_masks_h,
        fixed,
        forbid_identity,
        -1 if allowed is None else allowed,
    )
