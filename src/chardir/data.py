"""Expression matrices, two-class designs, gene-set libraries, input readers.

All containers are frozen after construction and safe to share between
threads. Readers take text streams (file handles or plain strings), or a
path for gene lists, ranked, association and (with a parse cache)
expression files; all report errors with row/column locations.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import sys
import tempfile
from array import array
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

__all__ = [
    "ExpressionMatrix",
    "TwoClassDesign",
    "GeneSet",
    "GeneSetLibrary",
    "ExpressionDataError",
    "canonical_gene_id",
    "parse_expression_tsv",
    "parse_gmt",
    "parse_design_tsv",
    "align_design",
    "matrix_to_tsv",
    "write_table",
]

# Rows the table readers convert at a time, so only one chunk's cells are held
# as strings at once.
_CHUNK_ROWS = 1024
# Members the GMT reader sorts at a time, so only one block's keys are int64.
_GMT_BLOCK = 1 << 14
# The parse cache's bounds (``_read_expression_file``): 8 entries, 256 MiB in all.
_CACHE_ENTRIES, _CACHE_BYTES = 8, 1 << 28


class ExpressionDataError(ValueError):
    """Malformed expression, design, or gene-set input."""


def canonical_gene_id(raw: str) -> str:
    """Canonicalize a gene identifier: strip whitespace, upper-case."""
    return raw.strip().upper()


@dataclass(frozen=True)
class ExpressionMatrix:
    """Genes x samples table of log-scale expression values.

    Attributes:
        gene_ids: Unique canonical gene identifiers, one per row.
        sample_ids: Unique sample identifiers, one per column.
        values: Dense float array of shape (n_genes, n_samples), log space.
    """

    gene_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if values.ndim != 2:
            raise ExpressionDataError("expression values must be a 2-D array")
        if values.shape != (len(self.gene_ids), len(self.sample_ids)):
            raise ExpressionDataError(
                f"value shape {values.shape} does not match "
                f"{len(self.gene_ids)} genes x {len(self.sample_ids)} samples"
            )
        if len(set(self.gene_ids)) != len(self.gene_ids):
            raise ExpressionDataError("duplicate gene ids")
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ExpressionDataError("duplicate sample ids")
        if values.size == 0:
            raise ExpressionDataError("empty expression matrix")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ExpressionDataError(
                f"non-finite value at gene {self.gene_ids[bad[0]]!r}, "
                f"sample {self.sample_ids[bad[1]]!r}"
            )

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    def column_index(self, sample_id: str) -> int:
        try:
            return self.sample_ids.index(sample_id)
        except ValueError:
            raise ExpressionDataError(f"unknown sample id {sample_id!r}") from None


@dataclass(frozen=True)
class TwoClassDesign:
    """Partition of samples into class 1 (control) and class 2 (treatment).

    Sample order within each class is preserved; it defines the column
    order of the aligned sub-matrices.
    """

    class1_samples: tuple[str, ...]
    class2_samples: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class1_samples", tuple(self.class1_samples))
        object.__setattr__(self, "class2_samples", tuple(self.class2_samples))
        for label, samples in (("1", self.class1_samples), ("2", self.class2_samples)):
            if len(set(samples)) != len(samples):
                raise ExpressionDataError(f"duplicate sample ids in class {label}")
            if len(samples) < 2:
                raise ExpressionDataError(
                    f"class {label} too small: need >= 2 samples, got {len(samples)}"
                )
        overlap = set(self.class1_samples) & set(self.class2_samples)
        if overlap:
            raise ExpressionDataError(
                f"samples assigned to both classes: {sorted(overlap)}"
            )


@dataclass(frozen=True)
class GeneSet:
    """Named set of gene identifiers (canonicalized, deduplicated)."""

    name: str
    description: str
    members: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.name:
            raise ExpressionDataError("gene set name must be non-empty")
        if not self.members:
            raise ExpressionDataError(f"gene set {self.name!r} has no members")


@dataclass(frozen=True, eq=False)
class GeneSetLibrary:
    """Ordered gene sets with unique names, stored in columns: the set
    ``names`` and ``descriptions``; ``ids``, the distinct member ids in
    first-seen order, one string object each; ``code``, the int32 id code
    of every member, set by set, ascending and unrepeated inside a set; and
    the int64 ``offsets``, where each set's codes start, plus their end,
    every set holding a member. Iteration and ``sets`` hand out ``GeneSet``
    views built on demand; ``from_sets`` builds a library from them."""

    names: tuple[str, ...]
    descriptions: tuple[str, ...]
    ids: tuple[str, ...]
    offsets: np.ndarray
    code: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if self.names.count(n) > 1})
            raise ExpressionDataError(f"duplicate gene set names: {dupes}")
        offsets = self.offsets
        if not (len(offsets) == len(self.names) + 1 and offsets[0] == 0
                and offsets[-1] == len(self.code) and np.all(offsets[1:] > offsets[:-1])):
            raise ExpressionDataError("set offsets must rise from 0 to the member count")

    @classmethod
    def from_sets(cls, sets: Iterable[GeneSet]) -> GeneSetLibrary:
        """The library of ``sets``, in their order."""
        return _library((s.name, s.description, sorted(s.members)) for s in sets)

    @property
    def sets(self) -> tuple[GeneSet, ...]:
        members = np.split(self.code, self.offsets[1:-1])
        return tuple(
            GeneSet(name, description, frozenset(map(self.ids.__getitem__, m.tolist())))
            for name, description, m in zip(self.names, self.descriptions, members)
        )

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.sets)


def _as_lines(text: str | TextIO | Iterable[str]) -> Iterable[str]:
    if isinstance(text, str):
        return io.StringIO(text)
    return text


def _numbered_lines(text: str | TextIO | Iterable[str]) -> Iterator[tuple[int, str]]:
    """Physical line number and text of each line that is neither blank nor
    a ``#`` comment, with the line ending stripped."""
    for lineno, line in enumerate(_as_lines(text), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def _value_block(
    chunk: list[tuple[int, str]], n_columns: int, already_log: bool, pseudocount: float
) -> tuple[list[str], np.ndarray]:
    """Canonical ids and stored values of the numbered gene rows, converted
    column-wise. Of several faults the earliest row's first is raised, with
    the checks in the order cell count, empty id, non-numeric, non-finite and
    log-invalid: each check reads only the rows before the fault found by
    the checks ahead of it, since that fault wins over any later row's."""
    linenos, rows = zip(*chunk)
    width, end, fault = n_columns - 1, len(rows), None
    tabs = np.fromiter(map(str.count, rows, repeat("\t")), np.int64, len(rows))
    if (bad := np.flatnonzero(tabs != width)).size:
        end = int(bad[0])
        fault = f"row {linenos[end]}: expected {n_columns} columns, got {tabs[end] + 1}"
    cells = "\t".join(rows[:end]).split("\t") if end else []
    genes = list(map(str.upper, map(str.strip, cells[::n_columns])))  # canonical_gene_id
    if "" in genes:
        end = genes.index("")
        fault = f"row {linenos[end]}: empty gene id"
    del cells[::n_columns]
    del cells[end * width :]
    try:
        # Accepts and rejects exactly the spellings float() does.
        raw = np.array(cells, dtype=np.float64)
    except ValueError:
        converted: list[float] = []
        with suppress(ValueError):
            converted.extend(map(float, cells))  # keeps the values before a failure
        end, col = divmod(len(converted), width)
        fault = f"row {linenos[end]}, column {col + 2}: non-numeric value {cells[len(converted)]!r}"
        raw = np.array(converted)
    raw = raw[: end * width].reshape(end, width)
    if (bad := np.flatnonzero(~np.isfinite(raw))).size:
        end, col = divmod(int(bad[0]), width)
        fault = f"row {linenos[end]}, column {col + 2}: non-finite value"
    shifted = None if already_log else raw[:end] + pseudocount
    if shifted is not None and (bad := np.flatnonzero(shifted <= 0)).size:
        row, col = divmod(int(bad[0]), width)
        fault = (f"row {linenos[row]}, column {col + 2}: value {float(raw[row, col])!r} not "
                 f"positive after pseudocount {pseudocount}")
    if fault:
        raise ExpressionDataError(fault)
    return genes, raw if shifted is None else np.log2(shifted)


def parse_expression_tsv(
    text: str | TextIO | Iterable[str],
    already_log: bool = True,
    pseudocount: float = 1.0,
) -> ExpressionMatrix:
    """Parse a tab-separated expression table.

    The first non-comment row is a header whose first cell is arbitrary and
    whose remaining cells are sample ids. Each following row is a gene id
    plus one numeric value per sample, in Python ``float()`` syntax. Blank
    lines and lines starting with ``#`` are ignored. When ``already_log``
    is false, values are stored as ``log2(x + pseudocount)``.

    Duplicate gene ids (after canonicalization) are collapsed by keeping
    the row with the largest mean absolute stored value; the surviving row
    stays at the first occurrence's position. Ties keep the earlier row.

    Raises:
        ExpressionDataError: ragged rows, non-numeric cells, duplicate
            sample ids, values invalid for the log transform, or an empty
            matrix; each reported with its physical line number (blank and
            comment lines counted) and column. Of several faults, the
            earliest row's first is reported.
    """
    if not 0 <= pseudocount < math.inf:
        raise ExpressionDataError(
            f"pseudocount must be a nonnegative finite number, got {pseudocount!r}"
        )

    numbered = _numbered_lines(text)
    first = next(numbered, None)
    if first is None:
        raise ExpressionDataError("empty input: no header row")
    header_lineno, header_line = first
    header = [c.strip() for c in header_line.split("\t")]
    sample_ids = header[1:]
    if not sample_ids:
        raise ExpressionDataError(f"row {header_lineno}: header has no sample ids")
    seen: set[str] = set()
    for sid in sample_ids:
        if not sid:
            raise ExpressionDataError(f"row {header_lineno}: empty sample id")
        if sid in seen:
            raise ExpressionDataError(f"row {header_lineno}: duplicate sample id {sid!r}")
        seen.add(sid)

    genes: list[str] = []
    blocks: list[np.ndarray] = []
    while chunk := list(islice(numbered, _CHUNK_ROWS)):
        block = _value_block(chunk, len(header), already_log, pseudocount)
        genes += block[0]
        blocks.append(block[1])
    if not genes:
        raise ExpressionDataError("empty matrix: no gene rows")
    values = np.concatenate(blocks)
    unique = list(dict.fromkeys(genes))
    if len(unique) < len(genes):
        index = dict(zip(unique, range(len(unique))))
        group = np.fromiter(map(index.__getitem__, genes), np.intp, len(genes))
        # lexsort is stable and each row is reduced like a 1-D mean, so the
        # largest mean |value| comes first in its group and ties keep order.
        by_group = np.lexsort((-np.abs(values).mean(axis=1), group))
        _, first = np.unique(group[by_group], return_index=True)
        values = values[by_group[first]]
    return ExpressionMatrix(tuple(unique), tuple(sample_ids), values)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_expression_file(path, already_log: bool, pseudocount: float):
    """``(parse_expression_tsv of the file at path, its SHA-256)``, the table
    cached in ``$XDG_CACHE_HOME/chardir`` (``~/.cache/chardir`` by default; a
    relative location is unused). An entry that does not load is a miss, a
    cache that cannot be used is passed over silently, and the newest entries
    within ``_CACHE_ENTRIES`` and ``_CACHE_BYTES`` stay."""
    digest, entry = _sha256(path), None
    root = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "chardir")
    # The key holds the encoding ``open`` decodes the table with, and this
    # module's bytes, so that an edit to the parser retires every entry.
    with suppress(OSError):
        key = repr((digest, already_log, None if already_log else pseudocount, np.__version__,
                    sys.version, io.TextIOWrapper(io.BytesIO()).encoding, _sha256(__file__)))
        if root.is_absolute():
            entry = root / f"expression-{hashlib.sha256(key.encode()).hexdigest()}.npy"
    with suppress(OSError, ValueError):  # an entry that does not load is a miss
        if entry:
            with open(entry, "rb") as stored:
                *ids, values = [np.lib.format.read_array(stored, allow_pickle=False)
                                for _ in range(3)]
            matrix = ExpressionMatrix(*(i.tobytes().decode().split("\t") for i in ids), values)
            with suppress(OSError):  # an entry that cannot be touched still serves
                os.utime(entry)
            return matrix, digest
    with open(path) as handle:
        matrix = parse_expression_tsv(handle, already_log, pseudocount)
    # Stored only if the file did not change while it was parsed, and if it fits.
    if (after := _sha256(path)) == digest and entry and matrix.values.nbytes <= _CACHE_BYTES:
        with suppress(OSError):
            root.mkdir(mode=0o700, parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(".tmp", "expression-", root)  # mode 0600
            try:  # the ids as tab-joined bytes: a numpy string array drops trailing NULs
                with os.fdopen(fd, "wb") as out:
                    for names in (matrix.gene_ids, matrix.sample_ids):
                        np.save(out, np.frombuffer("\t".join(names).encode(), np.uint8))
                    np.save(out, matrix.values)
                os.replace(temp, entry)
            except BaseException:
                os.unlink(temp)  # a failed write leaves no file behind
                raise
            total = 0
            for rank, old in enumerate(sorted(root.glob("expression-*"),
                                              key=lambda p: -p.stat().st_mtime_ns)):
                if rank >= _CACHE_ENTRIES or (total := total + old.stat().st_size) > _CACHE_BYTES:
                    old.unlink()
    return matrix, after


def _library(rows) -> GeneSetLibrary:
    """The library of ``(name, description, member ids)`` rows. Each member
    is coded by one dict operation as its row arrives, a new id taking the
    next code, so only the distinct ids are kept; the codes are sorted and
    deduplicated a block of rows holding about ``_GMT_BLOCK`` members at a
    time."""
    names, descriptions, block, codes, counts = [], [], [], [], []
    ids: defaultdict[str, int] = defaultdict(count().__next__)  # id -> code
    members = 0
    for name, description, genes in rows:
        names.append(name)
        descriptions.append(description)
        block.append(np.fromiter(map(ids.__getitem__, genes), np.int32, len(genes)))
        if (members := members + len(genes)) >= _GMT_BLOCK:
            _code_block(block, codes, counts)
            block, members = [], 0
    if block:
        _code_block(block, codes, counts)
    offsets = np.cumsum(np.concatenate([np.zeros(1, np.int64), *counts]))
    code = np.concatenate([np.zeros(0, np.int32), *codes])
    return GeneSetLibrary(tuple(names), tuple(descriptions), tuple(ids), offsets, code)


def _code_block(block: list[np.ndarray], codes: list, counts: list) -> None:
    """Append the codes of ``block``'s sets, sorted and unrepeated inside
    each set, to ``codes`` and each set's count to ``counts``, by one sort
    of int64 keys holding the set above the low 32 bits and the code in them."""
    key = np.repeat(np.arange(len(block), dtype=np.int64) << 32, list(map(len, block)))
    key |= np.concatenate(block)
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]
    codes.append((key & 0xFFFFFFFF).astype(np.int32))
    counts.append(np.bincount(key >> 32, minlength=len(block)))


def _gmt_rows(text: str | TextIO | Iterable[str]):
    """``(name, description, canonical member ids)`` per GMT line."""
    names: set[str] = set()
    for lineno, line in enumerate(_as_lines(text), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        cells = line.split("\t", 2)
        if len(cells) < 3:
            raise ExpressionDataError(
                f"line {lineno}: expected name, description and >= 1 gene, "
                f"got {len(cells)} fields"
            )
        name = cells[0].strip()
        if not name:
            raise ExpressionDataError(f"line {lineno}: empty set name")
        if name in names:
            raise ExpressionDataError(f"line {lineno}: duplicate set name {name!r}")
        # canonical_gene_id; upper-casing maps characters one by one and keeps tabs
        genes = list(filter(None, map(str.strip, cells[2].upper().split("\t"))))
        if not genes:
            raise ExpressionDataError(f"line {lineno}: set {name!r} has no members")
        names.add(name)
        yield name, cells[1].strip(), genes


def parse_gmt(text: str | TextIO | Iterable[str]) -> GeneSetLibrary:
    """Parse a GMT gene-set library: name, description, then member ids.

    Member ids are canonicalized to upper case and deduplicated; empty
    trailing fields are dropped. Each distinct id is one string object
    across the library. Raises on lines with fewer than 3 fields and on
    duplicate set names.
    """
    return _library(_gmt_rows(text))


def parse_design_tsv(text: str | TextIO | Iterable[str]) -> TwoClassDesign:
    """Parse a two-column design table: sample_id TAB class, class in {1,2}."""
    class1: list[str] = []
    class2: list[str] = []
    for lineno, line in _numbered_lines(text):
        cells = [c.strip() for c in line.split("\t")]
        if len(cells) != 2:
            raise ExpressionDataError(
                f"line {lineno}: expected sample_id and class, got {len(cells)} fields"
            )
        sample, label = cells
        if label == "1":
            class1.append(sample)
        elif label == "2":
            class2.append(sample)
        else:
            raise ExpressionDataError(
                f"line {lineno}: class must be 1 or 2, got {label!r}"
            )
    return TwoClassDesign(tuple(class1), tuple(class2))


def _read_gene_lines(path, unique: bool = False) -> list[str]:
    """The canonical ids of a gene list: one id per line, blank and ``#``
    lines skipped. A line with a tab inside its id fails, naming the line;
    with ``unique``, so does a repeated canonical id, naming both lines."""
    genes, line_of = [], {}
    with open(path) as handle:
        for lineno, line in _numbered_lines(handle):
            if (cells := line.strip().count("\t") + 1) > 1:
                raise ExpressionDataError(f"{path}: line {lineno}: expected one gene id "
                                          f"per line, got {cells} cells")
            genes.append(gene := canonical_gene_id(line))
            if unique and (first := line_of.setdefault(gene, lineno)) != lineno:
                raise ExpressionDataError(
                    f"{path}: lines {first} and {lineno}: duplicate gene id {gene!r}")
    return genes


def _read_ranked_file(path):
    """Read a ranked-gene or Welch output TSV line by line: (ranking,
    significant, coefficients), the canonical gene ids in row order, the
    significant ones and the coefficient column as an array (None without
    one). Only a ``#`` in column 1 starts a comment.

    Raises:
        ExpressionDataError: a required column missing from the header or a
            column read named twice in it; at the first faulty row, a row
            that stops before a column read, an empty or repeated canonical
            gene id, a significant cell other than ``true`` or ``false`` or
            a non-numeric coefficient, in that order, naming the physical
            lines and the column.
    """
    header, line_of, significant, values = None, {}, [], []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line.startswith("#") or not line.strip():
                continue
            cells = line.split("\t")
            if header is None:
                header = cells
                for column in ("gene_id", "significant"):
                    if column not in header:
                        raise ExpressionDataError(
                            f"{path}: expected a '{column}' column in the ranked file"
                        )
                if twice := [c for c in ("gene_id", "significant", "coefficient")
                             if header.count(c) > 1]:
                    raise ExpressionDataError(f"{path}: row {lineno}: duplicate column '{twice[0]}'")
                gene_col, flag_col = header.index("gene_id"), header.index("significant")
                coef_col = header.index("coefficient") if "coefficient" in header else None
                read = sorted({gene_col, flag_col, coef_col} - {None})
                continue
            if len(cells) <= read[-1]:
                col = next(c for c in read if c >= len(cells))
                raise ExpressionDataError(
                    f"{path}: row {lineno}, column {col + 1}: missing '{header[col]}' cell"
                )
            if not (gene := canonical_gene_id(cells[gene_col])):
                raise ExpressionDataError(
                    f"{path}: row {lineno}, column {gene_col + 1}: empty gene id"
                )
            if (first := line_of.setdefault(gene, lineno)) != lineno:
                raise ExpressionDataError(
                    f"{path}: rows {first} and {lineno}: duplicate gene id {gene!r}"
                )
            if (flag := cells[flag_col]) == "true":
                significant.append(gene)
            elif flag != "false":
                raise ExpressionDataError(f"{path}: row {lineno}, column {flag_col + 1}: "
                                          f"significant cell {flag!r} is neither true nor false")
            if coef_col is not None:
                try:
                    values.append(float(cells[coef_col]))
                except ValueError:
                    raise ExpressionDataError(
                        f"{path}: row {lineno}, column {coef_col + 1}: "
                        f"non-numeric coefficient {cells[coef_col]!r}"
                    ) from None
    if header is None:
        raise ExpressionDataError(f"{path}: empty ranked file")
    coefficients = None if coef_col is None else np.array(values, dtype=np.float64)
    return list(line_of), significant, coefficients


def _read_associations(path) -> tuple[list[str], np.ndarray]:
    """Read a gene-to-TSS-distance TSV (two cells per line, an optional
    ``gene_id`` header as the first content line, blank and ``#`` lines
    skipped) into the canonical gene ids and the distances, in file order.

    Raises:
        ExpressionDataError: at the first faulty line, a line without
            exactly two cells, an empty gene id, or a distance that is not a
            number or is negative or non-finite, naming the physical line.
    """
    genes, distances = [], array("d")  # 8 bytes a distance, not a float object's 32
    with open(path) as handle:
        numbered = _numbered_lines(handle)
        first = next(numbered, None)
        if first is not None and first[1].split("\t")[0] != "gene_id":
            numbered = chain([first], numbered)
        for lineno, line in numbered:
            cells = line.split("\t")
            if len(cells) != 2:
                raise ExpressionDataError(f"{path}: line {lineno}: expected gene_id and distance")
            if not (gene := canonical_gene_id(cells[0])):
                raise ExpressionDataError(f"{path}: line {lineno}, column 1: empty gene id")
            try:
                distance = float(cells[1])
            except ValueError:
                raise ExpressionDataError(
                    f"{path}: line {lineno}, column 2: non-numeric distance {cells[1]!r}"
                ) from None
            if not 0 <= distance < math.inf:
                raise ExpressionDataError(
                    f"{path}: line {lineno}, column 2: invalid distance {cells[1]!r}"
                )
            genes.append(gene)
            distances.append(distance)
    return genes, np.array(distances)


def align_design(
    matrix: ExpressionMatrix, design: TwoClassDesign
) -> tuple[np.ndarray, np.ndarray]:
    """Split the matrix columns into the two class sub-matrices.

    Returns (X1, X2) with columns in design order and gene rows unchanged.
    Raises on sample ids missing from the matrix.
    """
    idx1 = [matrix.column_index(s) for s in design.class1_samples]
    idx2 = [matrix.column_index(s) for s in design.class2_samples]
    return matrix.values[:, idx1], matrix.values[:, idx2]


def _cells(column) -> Iterable[str]:
    """One column's cells: booleans as ``true``/``false``, everything else by
    ``str`` (a float's ``str`` is its shortest round-trip ``repr``); arrays
    are read through ``tolist()``, so numpy scalars print as Python's."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if bool in set(map(type, values)):
        return [("true" if v else "false") if type(v) is bool else str(v) for v in values]
    return map(str, values)


def write_table(out: TextIO, header, columns, comment: str = "") -> None:
    """Write a TSV table: ``# comment`` when given, the header line, then one
    line per row of the equally long ``columns``, each column formatted once.
    This is the one formatter of output-table cells; a table with zero rows
    is its header alone."""
    if comment:
        out.write(f"# {comment}\n")
    out.write("\t".join(header) + "\n")
    rows = map("\t".join, zip(*map(_cells, columns)))
    out.writelines(f"{row}\n" for row in rows)


def matrix_to_tsv(matrix: ExpressionMatrix, out: TextIO) -> None:
    """Write the matrix as a TSV that parse_expression_tsv round-trips."""
    write_table(out, ["gene_id", *matrix.sample_ids], [matrix.gene_ids, *matrix.values.T])
