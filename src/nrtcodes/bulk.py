"""Vectorized enumeration of linear spans and weight arrays.

Exhaustive sweeps walk full spans of up to a few hundred thousand words;
these helpers keep that fast by working on (N, width) label arrays with
field lookup tables.  All arithmetic stays exact (integer labels).
"""

from __future__ import annotations

import numpy as np

from .gf import GF
from .words import _BLOCK


def _index_dtype(q: int):
    """Smallest dtype that holds a flat add-table index a*q + b < q^2."""
    return np.int16 if q * q <= 1 << 15 else np.int32


def _span_blocks(gf: GF, rows, width: int, out=None, offset=None):
    """Yield the span of the flat rows in `span_array` order, plus the flat
    `offset` if given, one block of q^L words at a time, L the most low
    rows whose span fits in _BLOCK.  Block j is the low span, which starts
    from the offset, plus word j of the span of the other rows, by one
    flat gather add_table[a, b] = add_table.ravel()[a*q + b].  The blocks
    are slices of `out` when given, else one reused buffer."""
    q, k = gf.q, len(rows)
    low_k = 0
    while low_k < k and q ** (low_k + 1) <= _BLOCK:
        low_k += 1
    size = q ** low_k
    flat = gf.add_table.ravel()
    low = np.empty((size, width), dtype=np.int16) if out is None else out[:size]
    low[0] = 0 if offset is None else offset
    # a*q is summed in the small dtype; `take` reads intp indices without
    # a converted copy of them
    scaled = np.empty((size, width), dtype=_index_dtype(q))
    idx = np.empty((size, width), dtype=np.intp)
    part = 1
    for row in rows[:low_k]:
        # combination c*q^m + j is combination j plus c times row m
        mult = gf.mul_table[1:, np.asarray(row, dtype=np.intp)]
        np.multiply(low[:part], q, out=scaled[:part], dtype=scaled.dtype)
        np.add(scaled[None, :part], mult[:, None, :],
               out=idx[part:q * part].reshape(q - 1, part, width))
        # "clip" (the indices are in range anyway) lets take write to `out`
        # directly; the default "raise" buffers it
        np.take(flat, idx[part:q * part], out=low[part:q * part], mode="clip")
        part *= q
    yield low
    if low_k == k:
        return
    np.multiply(low, q, out=scaled, dtype=scaled.dtype)
    block = low  # the low span itself is not needed again
    for j, word in enumerate(span_array(gf, rows[low_k:], width)[1:], start=1):
        if out is not None:
            block = out[j * size:(j + 1) * size]
        np.add(scaled, word, out=idx)
        np.take(flat, idx, out=block, mode="clip")
        yield block


def span_array(gf: GF, rows, width: int, offset=None) -> np.ndarray:
    """All q^k combinations of the given flat rows, coefficient index m of
    combination i being digit m of i in base q (so prefixes of the output
    enumerate the spans of basis prefixes), each plus the flat `offset`
    if given."""
    out = np.empty((gf.q ** len(rows), width), dtype=np.int16)
    for _ in _span_blocks(gf, rows, width, out, offset):
        pass
    return out


def span_weight_histogram(gf: GF, rows, n: int, s: int) -> np.ndarray:
    """Counts (w_0, ..., w_ns) of the NRT weights of all q^k combinations
    of the flat rows, summed over the words block by block, so no
    q^k-word array is built.  Hamming counts are NRT counts at depth 1:
    pass (n*s, 1)."""
    hist = np.zeros(n * s + 1, dtype=np.int64)
    for block in _span_blocks(gf, rows, n * s):
        hist += np.bincount(nrt_weights(block, n, s), minlength=n * s + 1)
    return hist


def _row_weights(arr: np.ndarray, n: int, s: int) -> np.ndarray:
    """(N, n) NRT row weights of an (N, n*s) or (N, n, s) label array."""
    a = arr.reshape(arr.shape[0], n, s)
    # the first digit's nonzero mask is the weight so far, 0 or 1
    rw = (a[:, :, 0] != 0).view(np.int8)
    if s > 127:
        rw = rw.astype(np.int64)
    for i in range(1, s):
        # positions grow with i, so a row keeps that of its last nonzero digit
        np.maximum(rw, (a[:, :, i] != 0) * rw.dtype.type(i + 1), out=rw)
    return rw


def nrt_weights(arr: np.ndarray, n: int, s: int) -> np.ndarray:
    """NRT weight of every word: the sum of its `_row_weights`.  At s = 1
    it is the Hamming weight, one `np.count_nonzero` along the words."""
    if s == 1:
        return np.count_nonzero(arr.reshape(arr.shape[0], n), axis=1)
    rw = _row_weights(arr, n, s)
    # n column adds; a sum over the short row axis is about twice as slow
    out = rw[:, 0].astype(np.int64)
    for j in range(1, n):
        out += rw[:, j]
    return out


def _cumulative_counts(index, shape):
    """For every cell of an array of `shape`, the number of points whose
    cell (one index array per axis in `index`) is at or below it in every
    coordinate."""
    counts = np.bincount(np.ravel_multi_index(index, shape),
                         minlength=int(np.prod(shape))).reshape(shape)
    for axis in range(len(shape)):
        np.cumsum(counts, axis=axis, out=counts)
    return counts


def encode(arr: np.ndarray, q: int) -> np.ndarray:
    """One int64 key per word; requires q^width < 2^62."""
    flat = arr.reshape(arr.shape[0], -1).astype(np.int64)
    if q ** flat.shape[1] >= 1 << 62:
        raise ValueError("word space too large to encode in 64 bits")
    return flat @ (q ** np.arange(flat.shape[1], dtype=np.int64))


def sub_anchor(gf: GF, arr: np.ndarray, anchor) -> np.ndarray:
    """arr - anchor for an (N, width) label array and a flat anchor; a
    zero anchor returns `arr` itself, not a copy."""
    anchor = np.asarray(anchor, dtype=np.intp)
    if not anchor.any():
        return arr
    neg = gf.neg_table[anchor]
    return gf.add_table[arr, neg[None, :]]
