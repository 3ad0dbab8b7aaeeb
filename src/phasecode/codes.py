"""Binary phase codes and the shift/correlation primitives everything else builds on.

A phase code is a length-N vector of bipolar symbols (+1/-1) stored as an
int8 numpy array so correlation arithmetic works directly on the symbols.
The aperiodic shift convention is fixed here once, with the lag order:
``shifted(s, i)[n] = s[n + i]`` with zero padding outside [0, N-1], which
makes ``x . shifted(s, i)`` the aperiodic cross-correlation at lag i and
gives the adjoint identity  <x, shifted(s, i)> = <shifted(x, -i), s>.

The genetic search keeps its codes packed, one sign bit per symbol in
ceil(N / 64) 64-bit words (``pack_codes``); this module alone knows that
bit layout, and gives the other modules its operations: pack, unpack (given
N), crossover head masks, single-symbol bits and row deduplication.
"""

from __future__ import annotations

import numpy as np

# A PhaseCode is an int8 ndarray of +1/-1 symbols, length >= 2.
PhaseCode = np.ndarray

CODE_DTYPE = np.int8


class ParseError(ValueError):
    """Raised when code text cannot be parsed; carries the offending token index."""

    def __init__(self, message: str, token_index: int | None = None):
        super().__init__(message)
        self.token_index = token_index


def as_code(values) -> PhaseCode:
    """Validate and return a phase code as an int8 array.

    Accepts any sequence of +1/-1 values. Rejects anything that is not
    bipolar or shorter than 2 symbols.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"phase code must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"phase code needs at least 2 symbols, got {arr.size}")
    code = arr.astype(CODE_DTYPE)
    if not np.all(np.abs(code) == 1) or not np.allclose(arr, code):
        raise ValueError("phase code symbols must all be +1 or -1")
    return code


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """(B, W) native ``uint64`` words of a (B, N) code matrix, W = ceil(N / 64).

    This is the packed form the genetic search works on and the score
    cache's key. Each row is the ``np.packbits`` of its N sign bits (+1 as
    1), zero-padded to 64 W bits and read as W big-endian words: symbol p
    is bit 63 - p % 64 of word p // 64, so word order and integer order are
    the bit-string order, and the words' big-endian bytes are the packed
    bytes on every platform. The words do not record N, so rows of one
    length only are compared and unpacked together; a longer code whose
    extra symbols are all -1 packs to the same words as its first N.
    """
    b, n = codes.shape
    bits = np.zeros((b, 64 * -(-n // 64)), dtype=bool)
    np.greater(codes, 0, out=bits[:, :n])
    return np.packbits(bits, axis=1).view(">u8").astype(np.uint64)


def unpack_codes(words: np.ndarray, N: int) -> np.ndarray:
    """The (B, N) int8 codes of (B, W) ``pack_codes`` words; a bit set past N raises."""
    W = -(-N // 64)
    if words.shape[1] != W:
        raise ValueError(f"length-{N} codes pack into {W} words, got {words.shape[1]}")
    if np.any(words[:, -1] & ~_HEAD_MASKS[(N - 1) % 64 + 1]):
        raise ValueError(f"words set a bit past symbol {N - 1} of a length-{N} code")
    codes = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1, count=N).view(CODE_DTYPE)
    codes *= 2  # bits 0/1 to symbols -1/+1, in place
    codes -= 1
    return codes


# _HEAD_MASKS[k] is a word whose top k bits are set, k = 0..64.
_HEAD_MASKS = np.array([(1 << 64) - (1 << (64 - k)) for k in range(65)], dtype=np.uint64)


def head_masks(splits: np.ndarray, W: int) -> np.ndarray:
    """(B, W) word masks of the first ``splits[i]`` symbols of a packed row."""
    starts = 64 * np.arange(W)
    return _HEAD_MASKS[np.clip(splits[:, None] - starts, 0, 64)]


def symbol_bits(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The word index and the one-bit word mask of each symbol position in ``pos``."""
    return pos // 64, np.left_shift(np.uint64(1), (63 - pos % 64).astype(np.uint64))


def unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a (B, W) ``pack_codes`` word matrix, in ascending key order.

    Returns ``keys`` (each distinct row's key, ascending and distinct),
    ``first`` (the index of each distinct row's first occurrence) and
    ``inverse`` (the distinct-row number of every row), so
    ``words[first][inverse]`` equals ``words``. A one-word key (N <= 64) is
    that word, which numpy sorts and searches as a plain integer; a wider
    key is the 8 W big-endian bytes of its words as one void (``tolist``
    gives the bytes). Both order keys as bit strings.

    One sort of the words groups equal rows and orders the groups as bit
    strings, which is the byte order numpy uses to sort and search voids.
    A one-word key takes numpy's SIMD ``argsort``, which is not stable;
    wider keys take ``np.lexsort``. Either way each group's first
    occurrence is its least index, found with ``np.minimum.reduceat``.
    """
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0])
    else:
        order = np.lexsort(words.T[::-1])
    ranked = words[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    if words.shape[1] == 1:
        return words[first, 0], first, inverse
    big = words[first].astype(">u8")
    return big.view(f"V{words.shape[1] * 8}")[:, 0], first, inverse


def shifted(s: PhaseCode, i: int) -> np.ndarray:
    """Aperiodic shift of ``s`` by lag ``i``: entry n is s[n+i], zero-padded.

    Equivalent to applying the lag-i shift matrix without materializing it.
    """
    n = len(s)
    if abs(i) > n - 1:
        raise ValueError(f"lag {i} out of range for code length {n}")
    out = np.zeros(n, dtype=np.float64)
    if i >= 0:
        out[: n - i] = s[i:]
    else:
        out[-i:] = s[: n + i]
    return out


def lag_values(N: int) -> np.ndarray:
    """The 2N-2 nonzero lags in canonical order: 1-N, ..., -1, +1, ..., N-1."""
    lags = np.arange(1 - N, N)
    return lags[lags != 0]


def lag_responses(s: PhaseCode, x: np.ndarray) -> np.ndarray:
    """The filter's response x . shifted(s, lag) at each lag of ``lag_values(N)``.

    A filter whose length is not N, or that is the zero vector, raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(s)
    if len(x) != n:
        raise ValueError(f"length mismatch: filter {len(x)} vs code {n}")
    if not np.any(x):
        raise ValueError("filter must not be the zero vector")
    return np.array([x @ shifted(s, int(lag)) for lag in lag_values(n)])


def autocorrelation(s: PhaseCode) -> np.ndarray:
    """Aperiodic autocorrelation r(d) = sum_t s[t]*s[t+d] for d = 0..N-1."""
    s = np.asarray(s, dtype=np.float64)
    n = len(s)
    r = np.empty(n)
    r[0] = s @ s
    for d in range(1, n):
        r[d] = s[: n - d] @ s[d:]
    return r


def random_codes(count: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """(count, N) matrix of independent uniform random codes (batch form)."""
    if N < 2:
        raise ValueError(f"code length must be >= 2, got {N}")
    codes = rng.integers(0, 2, size=(count, N), dtype=CODE_DTYPE)
    codes *= 2  # bits 0/1 to symbols -1/+1, in place
    codes -= 1
    return codes


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def legendre_code(N: int) -> PhaseCode:
    """Legendre sequence of odd prime length N.

    Symbol 0 is +1; symbol n >= 1 is +1 when n is a quadratic residue mod N
    and -1 otherwise.
    """
    if not _is_odd_prime(N):
        raise ValueError(f"Legendre code length must be an odd prime, got {N}")
    residues = {(k * k) % N for k in range(1, N)}
    code = np.empty(N, dtype=CODE_DTYPE)
    code[0] = 1
    for n in range(1, N):
        code[n] = 1 if n in residues else -1
    return code


def parse_code(text: str) -> PhaseCode:
    """Parse a comma- or whitespace-separated list of +1/-1/1 tokens."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty code text")
    symbols = []
    for pos, tok in enumerate(tokens):
        if tok in ("+1", "1"):
            symbols.append(1)
        elif tok == "-1":
            symbols.append(-1)
        else:
            raise ParseError(f"bad token {tok!r} at position {pos}", token_index=pos)
    return as_code(symbols)


def format_code(s: PhaseCode) -> str:
    """Comma-separated "+1"/"-1" text form; inverse of parse_code."""
    return ",".join("+1" if v > 0 else "-1" for v in s)
