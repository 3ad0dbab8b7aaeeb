"""Reference points: the published length-59 codes and exhaustive brute force.

The four registry constants are transcribed from the literature and treated
as ground truth for the fitness oracle: ``known_codes`` recomputes every
SCR and refuses to return a registry that drifted from the published
values, so any storage or solver regression is caught at the source.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .codes import PhaseCode, format_code, parse_code
from .fitness import fitness, fitness_batch, pool_map

# Hard cap for exhaustive enumeration: N = 28 takes under a minute on two CPUs.
_BRUTE_FORCE_MAX_N = 28

# Indices per enumeration block, the unit ``pool_map`` hands a worker: 16
# blocks at N = 20, so the pool takes brute force from N = 18 on two CPUs.
# A block holds at most 2^14 orbit minima, 7 scoring chunks at N = 28.
_BRUTE_FORCE_BLOCK = 1 << 14

# Bit reversal of each byte value, for the reversed image in ``_orbit_images``.
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64)

# Relative gap within which brute force treats two gammas as tied: well
# above the few-ulp (about 1e-14) rounding split of symmetric codes.
_TIE_RTOL = 1e-12

_S_L = """
+1,+1,-1,+1,+1,+1,-1,+1,-1,+1
-1,-1,+1,-1,-1,+1,+1,+1,-1,+1
+1,+1,+1,-1,-1,+1,+1,+1,+1,+1
-1,-1,-1,-1,-1,+1,+1,-1,-1,-1
-1,+1,-1,-1,-1,+1,+1,-1,+1,+1
-1,+1,-1,+1,-1,-1,-1,+1,-1
"""

_S_ALPHA = """
+1,+1,+1,+1,+1,+1,+1,+1,+1,+1
+1,+1,+1,+1,+1,+1,-1,-1,-1,-1
-1,-1,-1,-1,+1,+1,+1,-1,-1,+1
+1,-1,+1,+1,-1,+1,-1,-1,+1,-1
+1,-1,+1,-1,-1,+1,-1,+1,-1,+1
-1,+1,-1,+1,-1,+1,-1,+1,-1
"""

_S_HPGAN = """
-1,+1,-1,+1,-1,+1,-1,+1,-1,+1
-1,+1,-1,+1,-1,+1,+1,-1,+1,-1
+1,-1,+1,-1,-1,+1,-1,+1,+1,+1
-1,-1,+1,+1,-1,-1,-1,-1,+1,+1
+1,+1,+1,+1,-1,-1,-1,-1,-1,-1
-1,-1,-1,-1,-1,-1,-1,-1,-1
"""

_S_GA = """
+1,+1,+1,+1,+1,+1,+1,+1,+1,+1
+1,+1,+1,+1,+1,+1,+1,-1,-1,-1
-1,-1,+1,+1,+1,-1,-1,+1,+1,+1
-1,+1,+1,-1,-1,+1,-1,-1,+1,-1
+1,-1,-1,+1,-1,+1,-1,+1,-1,+1
-1,+1,-1,+1,-1,+1,-1,+1,-1
"""

_REGISTRY_ROWS = (
    ("legendre", _S_L, 2.69),  # Legendre sequence, N=59
    ("alphaseq", _S_ALPHA, 33.45),  # AlphaSeq (deep reinforcement learning search)
    ("hpgan", _S_HPGAN, 45.16),  # HpGAN (generative adversarial search)
    ("ga", _S_GA, 50.84),  # genetic search, published reference optimum
)

# Digest of the canonical text of all four codes; guards the constants above
# against silent edits (the gamma recomputation guards against typos).
REGISTRY_SHA256 = "37363e536202b36b7300b8025a728d8f206cc66687dee223021eccd1c4614766"

GAMMA_TOLERANCE = 0.01  # published values carry two decimals


@dataclass(frozen=True)
class KnownCode:
    name: str
    code: PhaseCode
    published_gamma: float


def _registry_digest(codes: list[KnownCode]) -> str:
    text = "\n".join(format_code(k.code) for k in codes)
    return hashlib.sha256(text.encode()).hexdigest()


def known_codes() -> list[KnownCode]:
    """The four published length-59 codes with their reported SCR values.

    The registry digest is checked and every entry's fitness is recomputed
    and checked against its published value to within 0.01; a mismatch
    raises rather than returning corrupt ground truth.
    """
    out = [KnownCode(name, parse_code(text), gamma) for name, text, gamma in _REGISTRY_ROWS]
    digest = _registry_digest(out)
    if digest != REGISTRY_SHA256:
        raise RuntimeError(f"known-code registry digest mismatch: {digest}")
    for k in out:
        got = fitness(k.code)
        if not abs(got - k.published_gamma) <= GAMMA_TOLERANCE:  # NaN fails too
            raise RuntimeError(
                f"registry self-check failed for {k.name}: "
                f"recomputed {got:.4f}, published {k.published_gamma}"
            )
    return out


def known_code(name: str) -> KnownCode:
    """Registry lookup by name (legendre / alphaseq / hpgan / ga)."""
    for k in known_codes():
        if k.name == name:
            return k
    raise KeyError(name)


def _orbit_images(N: int, ks: np.ndarray) -> list[np.ndarray]:
    """The 8 images of N-bit code indices under negation x reversal x alternation.

    Index k holds symbol n in bit N-1-n with +1 as 1, so integer order is
    lexicographic order with -1 before +1. Negation is ``k ^ full``,
    alternation s[n] -> (-1)^n s[n] is ``k ^ alt`` and reversal is the N-bit
    reversal of k, read through a byte table. All 8 share the gamma of k:
    alternation maps R to D R D with D = diag((-1)^n), which leaves
    s^T R^{-1} s unchanged.
    """
    full = (1 << N) - 1
    alt = sum(1 << (N - 1 - n) for n in range(1, N, 2))
    width = -(-N // 8) * 8
    rev = np.zeros_like(ks)
    for shift in range(0, width, 8):
        rev = (rev << 8) | _REVERSED_BYTES[(ks >> shift) & 0xFF]
    rev >>= width - N
    return [image ^ mask for image in (ks, rev) for mask in (0, full, alt, alt ^ full)]


# Not ``unpack_codes``: freeing this int64 temporary keeps worker arrays off fresh mmaps (ROADMAP).
def _index_codes(N: int, ks: np.ndarray) -> np.ndarray:
    """The (len(ks), N) codes of N-bit code indices (see ``_orbit_images``)."""
    return (2 * ((ks[:, None] >> np.arange(N - 1, -1, -1)) & 1) - 1).astype(np.int8)


def _orbit_block(N: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Score the orbit minima among indices lo..hi-1 and keep the near-ties.

    Returns the kept indices, their gammas and the block's best gamma
    (-inf when no gamma is defined). A code is kept when its gamma is within
    ``_TIE_RTOL`` of the block's best, which is no larger than the overall
    best, so every overall near-tie in the block is kept.
    """
    ks = np.arange(lo, hi, dtype=np.int64)
    # Pairwise minima: ``np.minimum.reduce`` stacks the 8 images first, 3x slower.
    ks = ks[ks <= functools.reduce(np.minimum, _orbit_images(N, ks))]
    # ``fitness_batch`` is looked up here at call time, so it can be wrapped.
    gammas = fitness_batch(_index_codes(N, ks))
    gammas = np.where(np.isfinite(gammas), gammas, float("-inf"))
    best = float(gammas.max(initial=float("-inf")))
    # Every defined gamma is > 0, so this keeps the near-ties of the best.
    near = gammas >= best * (1 - _TIE_RTOL)
    return ks[near], gammas[near], best


def brute_force_best(N: int) -> tuple[PhaseCode, float]:
    """Exact argmax of fitness over all bipolar codes of length N.

    Scores one code per orbit of ``_orbit_images``, its smallest, since
    negation, reversal and alternation keep gamma exactly. Ties resolve to
    the lexicographically smallest optimal code with -1 ordered before +1.
    Symmetric codes tie exactly, but rounding splits their gammas by a few
    ulps, so every scored code within ``_TIE_RTOL`` of the best gamma counts
    as tied and its whole orbit is scored: the returned gamma is the best
    over those candidates, which is the best over all 2^N codes, and the
    returned code is the smallest candidate.

    The indices are enumerated in blocks of ``_BRUTE_FORCE_BLOCK`` through
    ``pool_map``, so enough blocks run on the worker pool; the blocks are
    joined in index order, so the result does not depend on where they ran.
    """
    if not 2 <= N <= _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force supports 2 <= N <= {_BRUTE_FORCE_MAX_N}, got {N}")
    # Negation can set symbol 0 to -1 and then alternation, which keeps symbol
    # 0, can set symbol 1 to -1: every orbit minimum has its top two bits
    # clear, so only the indices below 2^(N-2) are enumerated.
    total = 1 << (N - 2)
    los = range(0, total, _BRUTE_FORCE_BLOCK)
    blocks = pool_map(functools.partial(_orbit_block, N), los, [*los[1:], total])
    near_ks, near_gammas, bests = zip(*blocks)
    best_gamma = max(bests)
    tied = np.concatenate(near_ks)[np.concatenate(near_gammas) >= best_gamma * (1 - _TIE_RTOL)]
    # Ascending distinct indices, so the first candidate is the smallest code.
    images = np.sort(np.concatenate(_orbit_images(N, tied)))
    candidates = _index_codes(N, images[np.insert(images[1:] != images[:-1], 0, True)])
    return candidates[0], float(fitness_batch(candidates).max())
