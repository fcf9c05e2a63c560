"""Seeded random-number-generation helpers.

Every stochastic component in the library takes an explicit seed or an
explicit :class:`numpy.random.Generator`.  These helpers centralize the
conversion so that the rest of the code never calls the global numpy RNG,
which keeps experiments reproducible run to run.  A unit of work that
may run in another process derives its stream from its own seed and
logical names (:func:`derive_seed`), never from a pid or spawn order, so
where it runs never moves a draw.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an integer, an existing generator (returned as-is so
    that callers can thread one generator through a pipeline), or ``None``
    for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *components: Union[int, str]) -> int:
    """Derive a deterministic 63-bit seed from a base seed and components.

    Retailer ids and model numbers are mixed into the base seed so that,
    for example, retailer ``r17`` always sees the same synthetic data for a
    given base seed regardless of how many other retailers exist.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    h = (base_seed * 0x9E3779B97F4A7C15) & mask
    for component in components:
        if isinstance(component, str):
            part = hash_string(component)
        else:
            part = component & 0x7FFFFFFFFFFFFFFF
        h = ((h ^ part) * 0xBF58476D1CE4E5B9) & mask
    return h & 0x7FFFFFFFFFFFFFFF


def hash_string(text: str) -> int:
    """Stable (process-independent) 63-bit hash of ``text``.

    Python's builtin ``hash`` is salted per process; this FNV-1a variant is
    stable so derived seeds survive restarts, matching how Sigmund re-runs
    a retailer's sweep deterministically.
    """
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFFFFFFFFFF
