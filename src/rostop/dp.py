"""Collapsed backward induction for the hard instance.

Because the only information that matters at step ``k`` is whether the
constant ``a`` has already been probed, the full history-indexed dynamic
program collapses to two scalar sequences of expected future rewards:

* ``phi[k]``    -- future reward at step ``k`` given ``a`` was already probed,
* ``phibar[k]`` -- future reward at step ``k`` given ``a`` is still pending,

with terminal values ``phi[n] = E V = (1+bp)/n`` and ``phibar[n] = a`` and,
for ``k < n``,

    phi[k]    = E(V v phi[k+1])
    phibar[k] = (a v phi[k+1])/(n+1-k) + (1 - 1/(n+1-k)) * E(V v phibar[k+1])

where ``x v y = max(x, y)`` and ``E(V v x)`` expands into the three weighted
terms of the value distribution.  Each step is affine in the next entry,
with coefficients fixed by whether that entry is below ``b``; each table
crosses ``b`` once, so the pass splits into two constant-regime segments
per table, each evaluated in closed form with numpy (a geometric sum for
``phi``, one discounted cumulative sum for ``phibar``) in O(n) time; a
discounted sum runs in blocks short enough that its discount stays finite
(one block below ``p`` of about 600).  The pass walks ``k`` down in tiles
of ``_TILE`` steps, so it allocates the two tables and scratch of a few
tiles, and each low regime stops at its switch.  It takes every real law
(:func:`~rostop.instance.require_law`) and raises on other inputs.  The
pass runs down to ``k = 0``: ``phibar[0]``, the future reward before the
first arrival, is the optimal rule's expected reward.  Tables are built up
to ``n = MAX_TABLE_N``.

The optimal rule accepts a probed value exactly when it is at least the
applicable future reward; acceptance on equality is fixed (>=) so runs are
deterministic.  First-crossing indices of the tables against ``a`` and ``b``
are the acceptance times; an empty crossing set is encoded as ``n + 1``
(the final step accepts everything).

The curves CSV holds the bytes that ``"%d,%.15g,%.15g\n"`` gives row by
row.  Long curves are formatted with numpy in blocks of ``_CSV_BLOCK``
rows, sized so that a block's word array and temporaries stay in L2 and
are reused from the heap; the writer's scratch is about 1 MB and does not
grow with ``n``.  A value's 15 significant digits are its product with an
exact power of ten, rounded to an integer (Dekker's exact product settles
the near-ties, and ties go to even), and they are laid out as ASCII three
digits at a time.
Values outside ``%g``'s fixed notation, and short curves, go through ``%``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import IO

import numpy as np

from .instance import InstanceParams, ParameterError, require_law
from .prophet import prophet_exact

__all__ = [
    "MAX_TABLE_N",
    "ConsistencyError",
    "ThresholdTables",
    "AcceptanceTimes",
    "compute_thresholds",
    "acceptance_times",
    "optimal_value",
    "gambler_prophet_ratio",
    "write_threshold_csv",
]

# Largest size whose tables are built: two float64 arrays of n + 1 entries.
MAX_TABLE_N = 10**8

# The discounted sums weight step i of a block by (1 - rate)^-i; a block
# ends before this log-weight, so the weighted sums stay finite.
_MAX_LOG_DISCOUNT = 600.0

# The backward pass, the crossing scans and the sandwich walk k in tiles of
# at most this many steps, so their scratch stays in cache and does not grow
# with n.  At n = 10^6, 2^14 and 2^15 are fastest; 2^12 and 2^17 take
# 15-30% longer (2-vCPU x86-64 VM, 2 MiB L2 per core, numpy 2.4).
_TILE = 1 << 14


class ConsistencyError(RuntimeError):
    """Two internally equivalent evaluations disagree; signals a transcription bug."""


@dataclass(frozen=True)
class ThresholdTables:
    """Future-reward sequences indexed by step: entry ``k`` is valid for ``1 <= k <= n``.

    ``phibar[0]`` is also valid: the value before the first arrival, i.e.
    the optimal value.  ``phi[0]`` is NaN, since the constant cannot have
    been seen before any arrival.
    Arrays are read-only; a finished table is safe to share across threads.
    Construction raises ``ValueError`` unless ``n >= 1`` and both arrays hold ``n + 1`` entries.
    """

    n: int
    phi: np.ndarray
    phibar: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 1 or np.shape(self.phi) != (n + 1,) or np.shape(self.phibar) != (n + 1,):
            raise ValueError(
                f"tables for n={n} need n + 1 >= 2 entries each, "
                f"got {np.size(self.phi)} (phi) and {np.size(self.phibar)} (phibar)"
            )


@dataclass(frozen=True)
class AcceptanceTimes:
    """First steps from which each value would be accepted if probed.

    ``k_n``: value ``b`` after ``a`` was seen; ``kbar_n``: value ``b`` before
    ``a`` was seen; ``j_n``: the constant ``a`` itself.  Each lies in
    ``[1, n+1]`` with ``n+1`` meaning "only at the forced final step".
    ``lambda_n, mu_n, nu_n`` are the fractions ``j_n/n, k_n/n, kbar_n/n``.
    """

    n: int
    j_n: int
    k_n: int
    kbar_n: int
    lambda_n: float
    mu_n: float
    nu_n: float


def compute_thresholds(inst: InstanceParams) -> ThresholdTables:
    """Run the backward pass and return both future-reward tables.

    Raises :class:`ParameterError` when ``n`` exceeds :data:`MAX_TABLE_N`,
    and what :func:`~rostop.instance.require_law` raises on a law that is
    not real, before anything is allocated.
    """
    _require_table_size(inst.n)
    require_law(inst)
    phi, phibar = _closed_form_tables(inst)
    phi[0] = math.nan
    phi.flags.writeable = False
    phibar.flags.writeable = False
    return ThresholdTables(n=inst.n, phi=phi, phibar=phibar)


def _require_table_size(n: int) -> None:
    if n > MAX_TABLE_N:
        raise ParameterError(
            f"n = {n} exceeds MAX_TABLE_N = {MAX_TABLE_N}: the tables hold n + 1 floats each"
        )


def _geometric(x0, eps, terms, out=None):
    # x0 * sum_{i < terms} (1 - eps)^i for a number of terms, or elementwise
    # over a float array of terms into ``out``.  x0 * -e is computed as
    # e * -x0, the same float.  At eps = 1 the log is -inf and every sum is x0.
    t = np.multiply(terms, np.log1p(-eps) if eps < 1.0 else -math.inf, out=out)
    t = np.expm1(t, out=out)
    t *= -x0
    t /= eps
    return t


def _first(flags: np.ndarray) -> int:
    # Index of the first True entry, or len(flags) when there is none.
    i = int(flags.argmax())
    return i if flags[i] else flags.size


def _steps(down: np.ndarray, c: int, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    # c - k for k in [lo, hi), as floats: a view of ``down`` (m, ..., 1, 0)
    # where it holds them, else written into ``out``.
    m = down.size - 1
    if c - lo <= m:
        return down[m - c + lo:m - c + hi]
    return np.add(down[m - hi + lo:m], c - hi, out=out[:hi - lo])


def _blocks(rate: float) -> tuple[float, float]:
    # -log(beta) for beta = 1 - rate, and the most steps a block of the
    # discounted sum takes so that its weights beta^-i stay finite.
    if rate == 1.0:
        return math.inf, math.inf  # beta = 0: G_i = u_i, no weights
    log_discount = -math.log1p(-rate)
    return log_discount, int(_MAX_LOG_DISCOUNT / log_discount)  # at least 16, as rate <= 1 - 2^-53


def _closed_form_tables(inst: InstanceParams) -> tuple[np.ndarray, np.ndarray]:
    """Both tables from the closed forms of their constant-regime segments.

    Written in step order ``k``, with ``rem = n + 1 - k``.  While ``phi[k+1]
    < b`` the step is ``phi[k] = x0 + (1 - eps) * phi[k+1]``, a geometric
    sum; from the last ``k`` where ``phi`` reaches ``b`` it is ``phi[k] = top
    + (1 - w_top) * phi[k+1]``, which relaxes geometrically to its fixed
    point ``n``.  With ``g[k] = rem * phibar[k]`` the ``phibar`` step is
    affine in ``g``, ``g[k] = (a v phi[k+1]) + (n-k) * c + beta * g[k+1]``,
    with ``(c, beta)`` equal to ``(x0, 1 - eps)`` while ``phibar[k+1] < b``
    and ``(top, 1 - w_top)`` after, so each segment is one discounted
    cumulative sum, ``G_i = beta^i * (g0 + sum_{l <= i} beta^-l * u_l)``.
    On a real law every term is positive, so the sum does not cancel.  Its
    blocks keep ``beta^-l`` finite: each restarts from the last ``G`` before
    it and counts steps from its start.

    ``k`` runs down in tiles that never straddle a block; each tile writes
    ``phi``, then ``phibar``, and a cumulative sum carries into the next
    tile as the running sum added to that tile's first term, so every
    float is the same operation on the same operands as over whole arrays.
    The regime switches are read off the computed values with the
    recursion's own comparison (``b > x`` is the low regime).  Takes a real
    law, where both rates lie in (0, 1] and ``a < b``; raises
    :class:`ConsistencyError` if a regime flag flips back after its switch,
    which the closed form cannot represent.
    """
    n = inst.n
    a, b = inst.a, inst.b
    law = inst.distribution()
    w_top, w_mid, _ = law.masses
    eps = w_mid + w_top
    x0 = law.mean
    top = w_top * n
    log_top = math.log1p(-w_top)
    m = min(n, _TILE) + 1
    down = np.arange(float(m), -1.0, -1.0)
    g_buf, r_buf = np.empty(m), np.empty(m)
    phi = np.empty(n + 1)
    phibar = np.empty(n + 1)
    phibar[n] = a  # below b, as a < 1 < b: the low regime

    s1 = s2 = None  # the switches, once the walk has passed them
    done = n + 1  # phi is final on [done, n]
    c, (log_discount, size) = x0, _blocks(eps)
    g, stop, carry = a, n, None  # G before the block that ends at stop, the running sum
    hi = n  # phibar is final on [hi, n]
    while hi > 0:
        lo = max(0, hi - _TILE, stop - size)
        rem = _steps(down, n + 1, lo, hi + 1, r_buf)  # rem[k - lo]
        if lo < done:  # phi on [lo, done), done <= hi + 1
            if s1 is None:
                seg = _geometric(x0, eps, rem[:done - lo], phi[lo:done])
                if done > n:
                    phi[n] = x0
                i = _first(~(b > seg[::-1]))  # phi[k] < b for every k > s1; s1 = 0 is a no-op
                if i < seg.size:
                    s1 = done - 1 - i
            if s1 is not None:
                x_star = phi[s1]
                head = phi[lo:min(done, s1)]
                np.multiply(_steps(down, s1, lo, lo + head.size, head), log_top, out=head)
                np.expm1(head, out=head)
                head *= x_star - n  # (n - x_star) * -expm1, the same float
                head += x_star
                if (b > phi[max(lo, 1):lo + head.size]).any():
                    raise ConsistencyError(
                        f"phi falls below b again after step {s1}: no closed form"
                    )
            done = lo

        u = g_buf[:hi - lo]  # u, then G, on [lo, hi)
        w = phibar[lo:hi]  # scratch until phibar is written there
        np.maximum(a, phi[lo + 1:hi + 1], out=u)
        u += np.multiply(rem[1:], c, out=w)
        if size < math.inf:
            np.multiply(_steps(down, stop, lo, hi, w), log_discount, out=w)
            np.exp(w, out=w)
            u *= w
            if carry is not None:
                u[-1] += carry
            np.cumsum(u[::-1], out=u[::-1])
            carry = u.item(0)
            u += g
            u /= w
            if lo == stop - size:  # the block ends: the next restarts from its last G
                g, stop, carry = u.item(0), lo, None
        tile = np.divide(u, rem[:-1], out=w)
        if s2 is None:
            i = _first(~(b > tile[::-1]))  # phibar[k] < b for every k > s2; s2 = 0 is a no-op
            if i < tile.size:
                s2 = hi - 1 - i
                c, (log_discount, size) = top, _blocks(w_top)
                g, stop, carry, hi = u.item(s2 - lo), s2, None, s2
                continue
        elif (b > phibar[max(lo, 1):hi]).any():
            raise ConsistencyError(f"phibar falls below b again after step {s2}: no closed form")
        hi = lo
    return phi, phibar


def _require_matching_tables(inst: InstanceParams, tables: ThresholdTables) -> None:
    # Tables built for another size would be read as a different stopping rule.
    if tables.n != inst.n:
        raise ValueError(f"tables do not match the instance: tables.n={tables.n}, n={inst.n}")


def _first_crossing(table: np.ndarray, value: float) -> int:
    # min{k in [1, n]: value >= table[k]}, or n+1 when the set is empty,
    # scanned a tile at a time from k = 1 up to the first tile that holds it.
    lo = 1
    while lo < table.size:
        flags = table[lo:lo + _TILE] <= value
        i = _first(flags)
        if i < flags.size:
            return lo + i
        lo += _TILE
    return table.size


def acceptance_times(tables: ThresholdTables, inst: InstanceParams) -> AcceptanceTimes:
    """Acceptance times of ``a`` and ``b`` read off the tables (>= comparisons)."""
    _require_matching_tables(inst, tables)
    n = tables.n
    k_n = _first_crossing(tables.phi, inst.b)
    kbar_n = _first_crossing(tables.phibar, inst.b)
    j_n = _first_crossing(tables.phi, inst.a)
    return AcceptanceTimes(
        n=n,
        j_n=j_n,
        k_n=k_n,
        kbar_n=kbar_n,
        lambda_n=j_n / n,
        mu_n=k_n / n,
        nu_n=kbar_n / n,
    )


def optimal_value(inst: InstanceParams, tables: ThresholdTables) -> float:
    """Expected reward of the optimal stopping rule: ``phibar[0]``.

    Step 0 of the backward pass: the first arrival is the constant with
    probability 1/(n+1), otherwise a fresh draw of ``V``.  Raises
    ``ValueError`` when ``phibar[0]`` is not finite.
    """
    _require_matching_tables(inst, tables)
    value = float(tables.phibar[0])
    if not math.isfinite(value):
        raise ValueError(f"tables carry no optimal value: phibar[0] = {value!r}")
    return value


def gambler_prophet_ratio(inst: InstanceParams, tables: ThresholdTables) -> float:
    """Optimal-rule expectation divided by the offline maximum's expectation."""
    return optimal_value(inst, tables) / prophet_exact(inst)


def _curve_rows(tables: ThresholdTables, stride: int) -> int:
    # Number of curve rows, k = 1, 1+stride, ... plus always n; a bad stride raises.
    if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    return (tables.n - 2) // stride + 2


def _curve_columns(
    tables: ThresholdTables, stride: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Rows start..stop-1 of the curves: k = 1 + stride * row, the last row
    # capped at n, and phi/phibar there.  A stride above n gives the same rows
    # as n, which keeps stride * row inside int64.
    n = tables.n
    step = min(int(stride), n)
    ks = np.arange(1 + start * step, 1 + stop * step, step)
    ks[-1] = min(ks.item(-1), n)
    return ks, tables.phi[ks], tables.phibar[ks]


_CSV_ROW = "%d,%.15g,%.15g\n"
# Curves are formatted in numpy _CSV_BLOCK rows at a time, which bounds the
# writer's memory.  A block of 2^12 rows builds a 300 KB word array and
# temporaries of 32 KB each, which stay in L2 and come back from the heap
# instead of fresh mmaps.  The sweep times stride-1 curves at REF_PARAMS
# into a StringIO (medians of interleaved runs), and reads the tracemalloc
# peak into a sink at n = 10^5 and the peak RSS of perfbench's finite-size
# workload (seed 1, --seconds 8); 2-vCPU x86-64 VM, 2 MiB L2 per core,
# numpy 2.4:
#
#   block | n = 10^5 | n = 10^6 | peak, 10^5 | finite-size RSS
#   2^11  |  56 ms   |  567 ms  |  0.55 MB   |  51.9-52.1 MB
#   2^12  |  45 ms   |  469 ms  |  1.10 MB   |  52.4 MB
#   2^13  |  43 ms   |  451 ms  |  2.21 MB   |  52.8-52.9 MB
#   2^14  |  49 ms   |  479 ms  |  4.41 MB   |  53.8-53.9 MB
#   2^16  |  63 ms   |  613 ms  |  17.6 MB   |  60.9-61.1 MB
#
# 2^12 is as fast as 2^13 at half the scratch.  Below _CSV_MIN_ROWS rows one
# ``%`` over all of them is faster: 256 rows take 0.45-0.51 ms that way
# against 0.48-0.60 ms in numpy, 320 rows about 0.58 ms either way, and
# 1,001 rows 1.9 against 0.9-1.0 ms (medians of 400 interleaved runs).  The
# blocks' fixed cost dominates tiny curves: 2 rows (n = 10^3 at stride
# 1000) take 13 us with ``%`` and about 0.35 ms in numpy.
_CSV_BLOCK = 1 << 12
_CSV_MIN_ROWS = 320


def write_threshold_csv(tables: ThresholdTables, stride: int, out: IO[str]) -> None:
    """CSV emission: header ``k,phi,phibar``, 15 significant digits, LF endings.

    Each row is the text of ``"%d,%.15g,%.15g\n" % (k, phi[k], phibar[k])``.
    Curves of at least ``_CSV_MIN_ROWS`` rows are formatted and written in
    blocks of ``_CSV_BLOCK`` rows, so the memory the writer needs beyond the
    tables is bounded by one block.  There a value in ``%g``'s fixed
    notation gets its 15 digits from numpy, correctly rounded with ties to
    even; a row holding any other value (below 1e-4, at least 1e14,
    printed as an integer or a power of ten, not positive or not finite)
    is formatted with ``%``.  Shorter curves are formatted in one ``%``
    operation.  A bad ``stride`` raises before anything is written.
    """
    rows = _curve_rows(tables, stride)
    out.write("k,phi,phibar\n")
    if rows < _CSV_MIN_ROWS:
        ks, phi, phibar = _curve_columns(tables, stride, 0, rows)
        fields = [None] * (3 * rows)
        fields[0::3] = ks.tolist()
        fields[1::3] = phi.tolist()
        fields[2::3] = phibar.tolist()
        out.write(_CSV_ROW * rows % tuple(fields))
        return
    chunks = _chunk_words()
    for start in range(0, rows, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, rows)
        out.write(_csv_block(chunks, *_curve_columns(tables, stride, start, stop)))


@functools.cache
def _chunk_words() -> np.ndarray:
    # Word 9c + variant: the ASCII of the three-digit chunk c, NUL-padded to
    # four bytes.  Variants 0-3 are the digits with a point after none, one,
    # two or all three of them; variants 4-7 the same with trailing zeros
    # dropped (a row whose digits after the point are all zero is formatted
    # with ``%`` instead); variant 8 the digits with leading zeros dropped.
    # Built once per process, and read-only.
    c = np.arange(1000)[:, None]
    digits = c // [100, 10, 1] % 10 + ord("0")
    chars = np.concatenate([
        digits,
        np.where(c % [1000, 100, 10] != 0, digits, 0),
        np.where(c >= [100, 10, 1], digits, 0),
        np.full((1000, 2), [ord("."), 0]),
    ], axis=1).astype(np.uint8)
    point, nul = 9, 10
    layout = [[0, 1, 2, nul], [0, point, 1, 2], [0, 1, point, 2], [0, 1, 2, point]]
    layout += [[i + 3 if i < 3 else i for i in word] for word in layout] + [[6, 7, 8, nul]]
    words = chars[:, layout].reshape(-1).view(np.uint32)
    words.flags.writeable = False
    return words


def _csv_block(
    chunks: np.ndarray, ks: np.ndarray, phi: np.ndarray, phibar: np.ndarray
) -> str:
    # Each row as NUL-padded ASCII in four-byte words, the NULs deleted at the
    # end: k's chunks, a comma, phi's seven words, a comma, phibar's, a newline.
    kc = -(-len(str(int(ks[-1]))) // 3)  # ks increases
    words = np.empty((ks.size, kc + 17), np.uint32)
    comma, newline = np.frombuffer(b",\0\0\0\n\0\0\0", np.uint32)
    words[:, kc] = words[:, kc + 8] = comma
    words[:, -1] = newline
    prev = 0.0
    for j in range(kc):
        q = np.floor(ks / float(1000 ** (kc - 1 - j)))  # chunks 0..j
        v = 9.0 * (q - 1000.0 * prev)
        v += 8.0 * (prev == 0.0)  # no leading zeros
        words[:, j] = chunks[v.astype(np.intp)]
        prev = q
    fixed = _fixed_words(chunks, phi, words[:, kc + 1:kc + 8])
    fixed &= _fixed_words(chunks, phibar, words[:, kc + 9:-1])
    text = words.view(np.uint8)
    for r in np.flatnonzero(~fixed).tolist():
        row = (_CSV_ROW % (ks.item(r), phi.item(r), phibar.item(r))).encode("ascii")
        text[r] = 0
        text[r, :len(row)] = np.frombuffer(row, np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _fixed_words(chunks: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``'%.15g' % v`` for the entries ``v`` of ``x`` as seven words of ``out``.

    Covers ``v`` in ``%g``'s fixed notation, decimal exponent ``e`` in
    [-4, 14].  ``D``, the 15 significant digits, is ``v * 10^(14-e)``
    rounded to an integer: ``10^(14-e)`` is exact, the product's rounding
    error is recovered exactly (Dekker's two-product) where the fraction
    lies within 1/16 of 1/2, and exact ties go to even.  Only ``10^14 < D <
    10^15`` is kept, which also catches a ``log10`` off by one, and only
    values whose digits after the point are not all zero.  The words are a
    "0.", "0.0", ... prefix for ``e < 0`` and the five three-digit chunks of
    ``D``, with the point and the dropped trailing zeros chosen by the
    chunk's variant.  Returns the mask of the entries written; other rows
    hold garbage.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    ok = (e >= -4.0) & (e <= 14.0)  # false for nan, inf, zero and negatives
    x = np.where(ok, x, 2.0)
    e = np.where(ok, e, 0.0)
    scale = np.array([10**i for i in range(19)], float)[(14.0 - e).astype(np.intp)]
    hi = x * scale
    d = np.floor(hi)
    frac = hi - d
    up = frac > 0.5
    # |x * scale - hi| <= ulp(hi)/2 <= 1/16 for hi < 2^50
    near = np.flatnonzero(np.abs(frac - 0.5) <= 0.0625)
    if near.size:
        r = (frac[near] - 0.5) + _product_error(x[near], scale[near], hi[near])
        half = 0.5 * d[near]
        up[near] = (r > 0.0) | ((r == 0.0) & (np.floor(half) != half))
    d += up
    whole = d / scale  # integral exactly when every digit after the point is 0
    ok &= (d > 1e14) & (d < 1e15) & (np.floor(whole) != whole)

    prefixes = b"".join(p.ljust(8, b"\0") for p in (b"", b"0.", b"0.0", b"0.00", b"0.000"))
    lead = np.maximum(-e, 0.0).astype(np.intp)
    out[:, :2].view(np.uint64)[:, 0] = np.frombuffer(prefixes, np.uint64)[lead]
    third = np.floor(e / 3.0)  # the chunk holding the point; none for e < 0
    point = e - 3.0 * third + 1.0  # its variant
    prev = 0.0
    for j in range(5):
        s = float(1000 ** (4 - j))
        q = np.floor(d / s)  # chunks 0..j; exact below 2^53
        v = 9.0 * (q - 1000.0 * prev)
        v += 4.0 * (q * s == d)  # later chunks all zero
        v += np.where(third == j, point, 0.0)
        out[:, 2 + j] = chunks.take(v.astype(np.intp), mode="clip")  # rows not ok may overrun
        prev = q
    return ok


def _product_error(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    # a * b - p exactly, for p = fl(a * b): Dekker's two-product with
    # Veltkamp's split by 2^27 + 1.
    def split(v):
        c = v * 134217729.0
        high = c - (c - v)
        return high, v - high

    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
