"""Table data model and input reader, fixed-margin enumeration, and level-merging transforms.

A table is an I x J matrix of non-negative counts cross-classifying treatment
level (rows) by outcome level (columns).  Inference under the sharp null only
ever touches tables through their fixed-margin reference set, so the central
operation here is a deterministic stream over every non-negative integer
matrix with given row and column sums.  The stream fills cells row-major with
per-cell feasibility bounds, forcing the last column of each row and the whole
last row, so only feasible prefixes are ever visited and the output order is
lexicographic in the flattened cell vector.  ``enumerate_fixed_margin_array``
gives the same stream as one array, a row at a time, from the
bounded-composition expander that the exact engine's column network shares.

``collapse`` and ``crosscut`` are the table transforms used when comparing a
full I x J test against coarsened variants: collapsing merges adjacent levels
by summation, cross-cutting keeps only extreme levels and drops the subjects
in between.  Both take one table or a stack of count arrays, which the power
study transforms in one call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ContingencyTable",
    "Margins",
    "read_numbers",
    "enumerate_fixed_margin_tables",
    "enumerate_fixed_margin_array",
    "collapse",
    "crosscut",
]


@dataclass(frozen=True)
class Margins:
    """Row (treatment) and column (outcome) totals of a table.

    Every treatment level must be occupied (``rows[i] >= 1``); outcome levels
    may be empty.  Row and column sums must agree.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        rows, cols = _integers(self.rows, "rows"), _integers(self.cols, "cols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) < 1 or len(cols) < 1:
            raise ValueError("margins need at least one row and one column")
        if any(v < 1 for v in rows):
            raise ValueError("every treatment margin must be positive")
        if any(v < 0 for v in cols):
            raise ValueError("column margins must be non-negative")
        if sum(rows) != sum(cols):
            raise ValueError(f"margin sums disagree: {sum(rows)} != {sum(cols)}")

    @property
    def N(self) -> int:
        return sum(self.rows)

    @property
    def I(self) -> int:
        return len(self.rows)

    @property
    def J(self) -> int:
        return len(self.cols)


@dataclass(frozen=True)
class ContingencyTable:
    """Immutable I x J matrix of non-negative integer counts."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        counts = tuple(_integers(row, f"counts row {i}") for i, row in enumerate(self.counts, 1))
        object.__setattr__(self, "counts", counts)
        if len(counts) < 2 or len(counts[0]) < 2:
            raise ValueError("a contingency table needs at least 2 rows and 2 columns")
        width = len(counts[0])
        if any(len(row) != width for row in counts):
            raise ValueError("ragged rows")
        if any(v < 0 for row in counts for v in row):
            raise ValueError("negative cell count")
        if sum(v for row in counts for v in row) < 1:
            raise ValueError("table must contain at least one subject")

    @classmethod
    def from_array(cls, arr: Sequence[Sequence[int]] | np.ndarray) -> "ContingencyTable":
        return cls(np.asarray(arr).tolist())

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)

    @property
    def I(self) -> int:
        return len(self.counts)

    @property
    def J(self) -> int:
        return len(self.counts[0])

    @property
    def N(self) -> int:
        return sum(v for row in self.counts for v in row)

    def row_margins(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def col_margins(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.counts))

    def margins(self) -> Margins:
        return Margins(self.row_margins(), self.col_margins())

    # --- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"counts": [list(row) for row in self.counts]})

    @classmethod
    def from_json(cls, text: str) -> "ContingencyTable":
        data = json.loads(text)
        if not isinstance(data, dict) or "counts" not in data:
            raise ValueError('table JSON must be {"counts": [[...], ...]}')
        return _read_counts(data["counts"], "counts")

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.counts) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ContingencyTable":
        rows = [read_numbers(line, f"line {n}", int, text=True)
                for n, line in enumerate(text.splitlines(), 1)
                if line.strip() and not line.strip().startswith("#")]
        if not rows:
            raise ValueError("no table rows found")
        return cls(tuple(rows))


def read_numbers(value, field: str, kind: type = float, text: bool = False) -> tuple:
    """The numbers of a comma-separated flag or CSV row (``text``) or of a decoded JSON array.

    Exactly as written, of ``kind``: an empty entry or list, a count of 3.9
    or 3.0, and a JSON ``"3"``, ``true`` or ``null`` raise ``ValueError``
    naming ``field``.  Text entries may carry surrounding spaces.
    """
    show = repr if text else json.dumps
    entries = [tok.strip() for tok in value.split(",")] if text else value
    if not isinstance(entries, list):
        raise ValueError(f"{field} must be an array of numbers, not {show(value)}")
    if all(e == "" for e in entries):
        raise ValueError(f"empty {field} list")
    numbers = []
    for e in entries:
        try:
            if not (text or type(e) in (int, kind)):  # exact types: JSON true is not 1
                raise ValueError
            numbers.append(kind(e))
        except (ValueError, OverflowError):
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{field} entry {show(e)} is not {what}: {show(value)}") from None
    return tuple(numbers)


def _integers(values, field: str) -> tuple[int, ...]:
    """``values`` as ints.  Numpy integers and integral floats such as 3.0 pass; an entry
    that ``int`` would change (3.9, nan, inf, a string) raises ``ValueError`` naming ``field``."""
    values = tuple(values)
    try:
        ints = tuple(int(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise ValueError(f"{field} must hold integers, not {values}")
    return ints


def _read_counts(value, field: str) -> ContingencyTable:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be an array of rows, not {json.dumps(value)}")
    return ContingencyTable(tuple(read_numbers(row, f"{field} row {i}", int)
                                  for i, row in enumerate(value, 1)))


def enumerate_fixed_margin_tables(m: Margins) -> Iterator[ContingencyTable]:
    """Yield every non-negative integer table with the given margins exactly once.

    Cells are filled row-major; cell (i, j) ranges over
    ``max(0, rrem - rest) <= v <= min(rrem, crem_j)`` where ``rrem`` is what is
    left of row i and ``rest`` is the capacity of the columns after j, so each
    prefix extends to at least one complete table.  The last column of each
    row and the entire last row are forced.  Output order is lexicographic in
    the flattened cell vector.  Margins of fewer than 2 rows or 2 columns
    raise ``ValueError`` at the call, as no table of that shape exists.
    """
    if m.I < 2 or m.J < 2:
        raise ValueError("a contingency table needs at least 2 rows and 2 columns")
    return (ContingencyTable.from_array(np.asarray(flat).reshape(m.I, m.J))
            for flat in _enumerate_rec(m.rows, m.cols))


def _enumerate_rec(rows: tuple[int, ...], cols: tuple[int, ...]) -> Iterator[list[int]]:
    I, J = len(rows), len(cols)
    cells: list[int] = [0] * (I * J)
    crem = list(cols)

    def fill_row(i: int, j: int, rrem: int) -> Iterator[list[int]]:
        if i == I - 1:
            # whole last row forced by the column remainders
            for jj in range(J):
                cells[i * J + jj] = crem[jj]
            yield cells
            return
        if j == J - 1:
            cells[i * J + j] = rrem
            crem[j] -= rrem
            yield from fill_row(i + 1, 0, rows[i + 1])
            crem[j] += rrem
            return
        rest = sum(crem[j + 1 :])
        lo = max(0, rrem - rest)
        hi = min(rrem, crem[j])
        for v in range(lo, hi + 1):
            cells[i * J + j] = v
            crem[j] -= v
            yield from fill_row(i, j + 1, rrem - v)
            crem[j] += v

    yield from fill_row(0, 0, rows[0])


def _bounded_compositions(total: int, bounds: Sequence[int]) -> np.ndarray:
    """Non-negative integer vectors with given sum and per-entry caps.

    Returns them as the rows of an (S, n) int64 array in lexicographic order;
    no rows when ``total`` lies outside ``[0, sum(bounds)]``.  The one-owner
    case of ``_bounded_compositions_many``, behind ``exactdist.omega_q`` and
    the per-column splits of ``exactdist._table_q_weights``.
    """
    bounds = np.asarray(bounds, dtype=np.int64).reshape(1, -1)
    if not 0 <= total <= int(bounds.sum()):
        return np.zeros((0, bounds.shape[1]), dtype=np.int64)
    return _bounded_compositions_many(np.array([total]), bounds)[0]


def _bounded_compositions_many(
    totals: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounded compositions for K (total, caps) owners at once.

    Returns (vectors, owner): the rows of ``vectors`` are every non-negative
    integer vector with sum ``totals[k]`` and entries at most ``bounds[k]``,
    grouped by ``owner`` k ascending and lexicographic within a group.
    Prefixes grow one entry at a time: each prefix is repeated once per
    feasible value of the next entry (those that leave a remainder the later
    caps can absorb), in ascending order, so only feasible prefixes are ever
    made, and the last entry takes the remainder.  An owner whose total its
    caps cannot meet gets no rows.  Behind ``enumerate_fixed_margin_array``
    (one row of every table per call), the exact engine's column network
    (``exactdist._column_network``, one column per call) and the MVEHG
    supports (``exactdist._mvehg_laws``, one (rows, total) key per owner).
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    rem = np.asarray(totals, dtype=np.int64)
    tails = np.cumsum(bounds[:, ::-1], axis=1)[:, ::-1] - bounds  # caps after entry i
    n = bounds.shape[1]
    owner = np.flatnonzero((rem >= 0) & (rem <= (tails[:, 0] + bounds[:, 0] if n else 0)))
    rem = rem[owner]
    cols: list[np.ndarray] = []
    for i in range(n - 1):
        lo = np.maximum(0, rem - tails[owner, i])
        count = np.minimum(bounds[owner, i], rem) - lo + 1
        parent = np.repeat(np.arange(len(rem)), count)
        v = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(len(parent))
        cols = [c[parent] for c in cols] + [v]
        rem = rem[parent] - v
        owner = owner[parent]
    if n:
        cols.append(rem)
    return np.stack(cols, axis=1) if n else np.zeros((len(owner), 0), dtype=np.int64), owner


def enumerate_fixed_margin_array(m: Margins) -> np.ndarray:
    """All fixed-margin tables as one (ntables, I, J) int32 array, in stream order.

    Batched version of :func:`enumerate_fixed_margin_tables`.  Each row
    i < I - 1 of every prefix is expanded at once by
    ``_bounded_compositions_many``, capped by the column totals the prefix
    leaves, and the last row takes the remainder.  The expansion is
    lexicographic within each prefix, so the order is the stream's
    row-major lexicographic one.  It materializes the reference set, so it
    is the small-instance and test reference path: the exact engine
    (``exactdist.RejectionAggregate``) streams the set by column ids instead
    and never holds it.
    """
    left = np.asarray(m.cols, dtype=np.int64)[None, :]  # column totals still to fill
    parts: list[np.ndarray] = []
    for r in m.rows[:-1]:
        vec, owner = _bounded_compositions_many(np.full(len(left), r), left)
        parts = [p[owner] for p in parts] + [vec.astype(np.int32)]
        left = left[owner] - vec
    parts.append(left.astype(np.int32))
    return np.stack(parts, axis=1)


def _check_partition(groups: Sequence[Sequence[int]], n: int, what: str) -> list[list[int]]:
    seen: list[int] = []
    out = []
    for g in groups:
        block = [int(v) for v in g]
        if not block:
            raise ValueError(f"empty {what} block")
        if block != list(range(block[0], block[0] + len(block))):
            raise ValueError(f"{what} blocks must be contiguous index runs")
        seen.extend(block)
        out.append(block)
    if sorted(seen) != list(range(n)):
        raise ValueError(f"{what} blocks must partition 0..{n - 1}")
    return out


def _counts(t: ContingencyTable | np.ndarray) -> np.ndarray:
    return t.as_array() if isinstance(t, ContingencyTable) else np.asarray(t)


def _like(t: ContingencyTable | np.ndarray, out: np.ndarray) -> ContingencyTable | np.ndarray:
    return ContingencyTable.from_array(out) if isinstance(t, ContingencyTable) else out


def collapse(
    t: ContingencyTable | np.ndarray,
    row_groups: Sequence[Sequence[int]],
    col_groups: Sequence[Sequence[int]],
) -> ContingencyTable | np.ndarray:
    """Merge adjacent levels: cell (g, h) sums counts over the given blocks.

    ``t`` is a table, giving a table, or an (M, I, J) count stack, giving the
    (M, G, H) stack of each table's collapse.
    """
    arr = _counts(t)
    rs = [g[0] for g in _check_partition(row_groups, arr.shape[-2], "row")]
    cs = [g[0] for g in _check_partition(col_groups, arr.shape[-1], "column")]
    # the blocks are contiguous runs, so one reduceat per axis over their
    # sorted starts sums them; blocks given out of order are put back after
    out = np.add.reduceat(np.add.reduceat(arr, sorted(rs), axis=-2), sorted(cs), axis=-1)
    if rs != sorted(rs) or cs != sorted(cs):
        out = out.take([sorted(rs).index(v) for v in rs], axis=-2)
        out = out.take([sorted(cs).index(v) for v in cs], axis=-1)
    return _like(t, out)


def _kept(keep: Sequence[int] | None, n: int, what: str) -> list[int]:
    if keep is None:
        return list(range(n))
    kept = sorted(int(v) for v in keep)
    for a, b in zip(kept, kept[1:]):
        if a == b:
            raise ValueError(f"cross-cut repeats {what} index {a}")
    return kept


def crosscut(
    t: ContingencyTable | np.ndarray,
    keep_rows: Sequence[int] | None,
    keep_cols: Sequence[int] | None,
) -> ContingencyTable | np.ndarray:
    """Keep only the selected rows and columns; subjects elsewhere are dropped.

    ``None`` keeps every level of that axis.  The kept levels stay in
    ascending order, and an index given twice raises ``ValueError``.  ``t``
    is a table, giving a table, or an (M, I, J) count stack, giving the
    stack of each table's cross-cut.
    """
    arr = _counts(t)
    I, J = arr.shape[-2:]
    kr, kc = _kept(keep_rows, I, "row"), _kept(keep_cols, J, "column")
    if len(kr) < 2 or len(kc) < 2:
        raise ValueError("cross-cut must retain at least 2 rows and 2 columns")
    if kr[0] < 0 or kr[-1] >= I or kc[0] < 0 or kc[-1] >= J:
        raise ValueError("cross-cut index out of range")
    return _like(t, arr.take(kr, axis=-2).take(kc, axis=-1))
