"""Vectorized enumeration of linear spans and weight arrays.

Exhaustive sweeps walk full spans of up to a few hundred thousand words;
these helpers keep that fast by working on (N, width) label arrays with
field lookup tables.  All arithmetic stays exact (integer labels).
"""

from __future__ import annotations

import numpy as np

from .gf import GF


def span_array(gf: GF, rows, width: int) -> np.ndarray:
    """All q^k combinations of the given flat rows, coefficient index m of
    combination i being digit m of i in base q (so prefixes of the output
    enumerate the spans of basis prefixes)."""
    q = gf.q
    add_t = gf.add_table
    mul_t = gf.mul_table
    out = np.zeros((q ** len(rows), width), dtype=np.int16)
    size = 1
    for row in rows:
        # combination c*q^m + j is combination j plus c times row m
        row = np.asarray(row, dtype=np.intp)
        for c in range(1, q):
            out[c * size:(c + 1) * size] = add_t[out[:size], mul_t[c, row]]
        size *= q
    return out


def row_basis(gf: GF, arr: np.ndarray) -> np.ndarray:
    """Echelon basis of the row space of an (N, width) label array: at
    most width rows, each with a unit pivot that is zero in the rows after
    it.  Each pivot is eliminated from all remaining rows at once, and
    the rows that become zero are dropped."""
    add_t, mul_t, neg_t = gf.add_table, gf.mul_table, gf.neg_table
    rows = arr[arr.any(axis=1)]
    basis = []
    for col in range(arr.shape[1]):
        if not len(rows):
            break
        hit = np.flatnonzero(rows[:, col])
        if not hit.size:
            continue
        pivot = mul_t[gf.inv(int(rows[hit[0], col])), rows[hit[0]]]
        basis.append(pivot)
        # row - c * pivot for every row with c = row[col] != 0; the pivot
        # row itself becomes zero
        rows[hit] = add_t[rows[hit], mul_t[neg_t[rows[hit, col]][:, None], pivot]]
        rows = rows[rows.any(axis=1)]
    return np.array(basis, dtype=np.int16).reshape(len(basis), arr.shape[1])


def nrt_weights(arr: np.ndarray, n: int, s: int) -> np.ndarray:
    """NRT weight of every word in an (N, n*s) or (N, n, s) label array,
    in one pass over the digits with (N, n) row weights (int8 up to
    s = 127)."""
    a = arr.reshape(arr.shape[0], n, s)
    rw = np.zeros((a.shape[0], n), dtype=np.int8 if s <= 127 else np.int64)
    for i in range(s):
        # positions grow with i, so a row keeps that of its last nonzero digit
        np.maximum(rw, (a[:, :, i] != 0) * rw.dtype.type(i + 1), out=rw)
    return rw.sum(axis=1, dtype=np.int64)


def hamming_weights(arr: np.ndarray, n: int, s: int) -> np.ndarray:
    a = arr.reshape(arr.shape[0], n, s) != 0
    return a.sum(axis=(1, 2))


def weights(arr: np.ndarray, n: int, s: int, metric: str) -> np.ndarray:
    if metric == "nrt":
        return nrt_weights(arr, n, s)
    if metric == "hamming":
        return hamming_weights(arr, n, s)
    raise ValueError(f"unknown metric {metric!r}")


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
