"""Deterministic pseudo-random number handling.

Every stochastic component of the library accepts either a seed (``int``),
``None`` (meaning "use a fixed default seed" — experiments must be
reproducible by default), or an already-constructed
:class:`numpy.random.Generator`.  This module normalizes the three forms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_SEED", "ensure_rng", "spawn_rngs"]

#: Seed used when the caller passes ``None``.  Chosen arbitrarily but fixed so
#: that "no seed" still yields reproducible experiments.
DEFAULT_SEED: int = 20070611  # SPAA'07 took place June 9-11, 2007.


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (use :data:`DEFAULT_SEED`), an integer seed, or an existing
        generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an int, Generator or None, got {type(seed)!r}")
    return np.random.default_rng(int(seed))


def spawn_rngs(seed: int | np.random.Generator | None, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Useful for parameter sweeps where each cell must be reproducible on its
    own regardless of evaluation order.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = ensure_rng(seed)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
