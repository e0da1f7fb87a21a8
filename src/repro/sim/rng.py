"""Named random-number substreams.

Every stochastic component of the reproduction (arrival process, session
lengths, node capacities, latency jitter, game choice, ...) draws from its
own named substream derived from a single master seed via numpy's
``SeedSequence.spawn`` machinery. Two benefits:

* a run is reproducible bit-for-bit from ``(master_seed, code)``;
* changing how often one component draws does not perturb any other
  component's stream, so A/B comparisons (e.g. CloudFog/B vs CloudFog/A
  on the same workload) see *identical* workloads.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class RngRegistry:
    """Factory of independent named ``numpy.random.Generator`` streams.

    Parameters
    ----------
    master_seed:
        Seed for the root ``SeedSequence``. Identical seeds yield identical
        substreams for identical names, regardless of creation order.

    Examples
    --------
    >>> rngs = RngRegistry(42)
    >>> a = rngs.stream("arrivals")
    >>> b = rngs.stream("capacities")
    >>> a is rngs.stream("arrivals")
    True
    """

    def __init__(self, master_seed: int = 0):
        if not isinstance(master_seed, (int, np.integer)):
            raise TypeError(f"master_seed must be an int, got {master_seed!r}")
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the substream called ``name``.

        The substream seed is derived from ``(master_seed, hash(name))`` so
        it depends only on the name, never on creation order.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        gen = self._streams.get(name)
        if gen is None:
            # Stable, order-independent derivation: fold the name's bytes
            # into the seed sequence entropy.
            name_key = [b for b in name.encode("utf-8")]
            seq = np.random.SeedSequence([self.master_seed, *name_key])
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> list[str]:
        """Names of all instantiated substreams, sorted."""
        return sorted(self._streams)

    def fork(self, salt: int) -> "RngRegistry":
        """A registry whose streams are independent of this one's.

        Used to give each repetition of an experiment fresh randomness
        while keeping the whole sweep a function of the master seed.
        """
        return RngRegistry(self.master_seed * 1_000_003 + salt)

    def __repr__(self) -> str:
        return (f"<RngRegistry seed={self.master_seed} "
                f"streams={len(self._streams)}>")


_U64 = np.uint64
_SPLITMIX_GAMMA = _U64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = _U64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = _U64(0x94D049BB133111EB)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (_U64(11), _U64(27), _U64(30),
                                              _U64(31))
#: 2**-53 as an exact float — the uniform conversion is a single exact
#: division, never a libm call.
_INV_2_53 = 1.0 / 9007199254740992.0


#: Elements :func:`counter_u01` mixes per pass. Its shift temporary is
#: one chunk (64 KiB), whatever the batch size.
_CHUNK = 8192


def counter_u01(ids: np.ndarray, step: int, salt: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic uniforms in ``[0, 1)`` keyed by ``(id, step, salt)``.

    A counter-based generator (splitmix64 finalizer over a mixed key):
    no state to carry or synchronise, so a value depends only on its
    key — the property that lets a cohort's vectorised draw and the
    per-player reference run's individual draw produce the *same* number
    for the same player at the same tick (DESIGN.md §11). Everything up to
    the final ``* 2⁻⁵³`` is uint64 integer arithmetic, and that product
    is exact, so results are bit-identical across platforms, SIMD
    widths, and numpy builds.

    Parameters
    ----------
    ids:
        Integer identity array (e.g. player ids); any integer dtype.
    step:
        Time-like counter (e.g. tick number).
    salt:
        Stream separator (mix the run seed and a per-purpose constant).
    out:
        Optional C-contiguous float64 array shaped like ``ids`` to write
        the uniforms into (and return). The mixing runs in ``out``'s
        own bytes viewed as uint64, chunk by chunk, so a call with
        ``out`` allocates nothing the size of ``ids``.
    """
    mask = (1 << 64) - 1
    key_step = _U64((step * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & mask)
    key_salt = _U64((salt * 0xD1B54A32D192ED03 + 0x8CB92BA72F3D8DD7) & mask)
    ids = np.asarray(ids)
    if out is None:
        out = np.empty(ids.shape, dtype=np.float64)
    elif (out.dtype != np.float64 or out.shape != ids.shape
          or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array "
                         "shaped like ids")
    src, dst = ids.reshape(-1), out.reshape(-1)
    shifted = np.empty(min(dst.size, _CHUNK), dtype=np.uint64)
    for lo in range(0, dst.size, _CHUNK):
        u = dst[lo:lo + _CHUNK]
        x = u.view(np.uint64)
        t = shifted[:x.size]
        x[...] = src[lo:lo + _CHUNK]  # the wrapping cast to uint64
        x ^= key_step
        x *= _SPLITMIX_GAMMA
        x ^= key_salt
        x ^= np.right_shift(x, _SHIFT_30, t)
        x *= _SPLITMIX_M1
        x ^= np.right_shift(x, _SHIFT_27, t)
        x *= _SPLITMIX_M2
        x ^= np.right_shift(x, _SHIFT_31, t)
        # Exact uint64 -> float64 (values < 2⁵³), then an exact product.
        u[...] = np.right_shift(x, _SHIFT_11, t)
        u *= _INV_2_53
    return out


def counter_u01_one(ident: int, step: int, salt: int) -> float:
    """Scalar :func:`counter_u01` — bit-identical, pure Python integers.

    The single-player fast path of the cohort advance kernel calls this
    instead of paying numpy array overhead for one element. Python's
    arbitrary-precision integers masked to 64 bits reproduce the uint64
    wraparound exactly, and the final ``int * float`` is the same exact
    product, so ``counter_u01_one(i, t, s) ==
    counter_u01(np.array([i]), t, s)[0]`` for every input (pinned by
    the rng tests).
    """
    mask = (1 << 64) - 1
    x = int(ident) & mask
    x ^= (step * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & mask
    x = (x * 0x9E3779B97F4A7C15) & mask
    x ^= (salt * 0xD1B54A32D192ED03 + 0x8CB92BA72F3D8DD7) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return (x >> 11) * _INV_2_53
