"""Independent oracles the tests check the implementation against.

Each oracle deliberately takes a different computational route than the
code under test: exact integer combinatorics instead of floating-point
recurrences, numerical quadrature instead of special functions, full-space
normal equations instead of PCA-space regression, closed forms
instead of adaptive integration, a row-by-row walk instead of the
column-wise expression parser, gene-space nulls and deflation instead
of the sample-space factorisation, and 40-digit hypergeometric series
instead of the double-precision incomplete-beta continued fraction,
a cell-by-cell row writer instead of the column-wise table writer,
per-set Python set intersections instead of the member spans
behind hypergeometric enrichment, a big-integer anchor (or exact
big-integer sums with 40-digit logarithms) instead of the log-space
hypergeometric kernel, exact fractions or 40-digit log-Gamma functions
instead of Loader's saddle-point binomial density, line-by-line readers instead of the columnar GMT
and ranked-file readers, a loop over n instead of the column
reduction behind overlap-curve aggregation, a gene-by-gene prefix walk
with a Python set test instead of the per-span bincount behind
overlap counts, one global int64 key sort over every member instead of
the GMT reader's blocks of rows and of the bounded member spans behind
every set statistic, one SVD of the whole
centred samples instead of their row-blocked tall-skinny QR, and a
kernel sum term by term instead of the broadcast density estimate.
np1's label-permutation null, which the package evaluates in closed form
as its infinite-shuffle limit, survives here as a Monte Carlo route.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from itertools import combinations, count, repeat
from typing import Iterable, NamedTuple, TextIO

import mpmath
import numpy as np
from scipy import integrate, special

from chardir.data import ExpressionDataError, ExpressionMatrix, GeneSet, canonical_gene_id
from chardir.linalg import _SampleFactors


def exact_hypergeom_tail(k: int, n_marked: int, n_drawn: int, universe: int) -> float:
    """P(K >= k) from exact integer binomials; the only rounding is the
    final big-int division, which Python performs correctly rounded."""
    lo = max(0, n_marked + n_drawn - universe)
    hi = min(n_marked, n_drawn)
    if k <= lo:
        return 1.0
    total = math.comb(universe, n_drawn)
    tail = sum(
        math.comb(n_marked, j) * math.comb(universe - n_marked, n_drawn - j)
        for j in range(k, hi + 1)
    )
    return tail / total


def exact_log_hypergeom_tail(k: int, n_marked: int, n_drawn: int, universe: int) -> float:
    """log P(K >= k) from exact integer binomials, the logarithm of their
    ratio taken at 40 digits, so it stays finite where the tail underflows."""
    lo = max(0, n_marked + n_drawn - universe)
    hi = min(n_marked, n_drawn)
    if k <= lo:
        return 0.0
    tail = sum(
        math.comb(n_marked, j) * math.comb(universe - n_marked, n_drawn - j)
        for j in range(k, hi + 1)
    )
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.mpf(tail) / math.comb(universe, n_drawn)))


def exact_log_dbinom(x: int, size: int, p: Fraction) -> float:
    """log of the binomial density ``C(size, x) p^x (1 - p)^(size - x)``,
    formed exactly from an integer binomial and fractions, its logarithm
    taken at 40 digits."""
    density = math.comb(size, x) * p**x * (1 - p) ** (size - x)
    with mpmath.workdps(40):
        return float(mpmath.log(density.numerator) - mpmath.log(density.denominator))


def log_dbinom_mpmath(x: float, size: float, p: float) -> float:
    """log of the binomial density at real ``0 <= x <= size``, its
    coefficient through 40-digit log-Gamma functions rather than Stirling
    errors and deviances."""
    with mpmath.workdps(40):
        x, size, p = (mpmath.mpf(v) for v in (x, size, p))
        return float(mpmath.loggamma(size + 1) - mpmath.loggamma(x + 1)
                     - mpmath.loggamma(size - x + 1) + x * mpmath.log(p)
                     + (size - x) * mpmath.log(1 - p))


def anchored_hypergeom_tail(k: int, n_marked: int, n_drawn: int, universe: int) -> float:
    """P(K >= k) anchored at the largest tail term, computed exactly from
    three integer binomials, and extended by term ratios in double
    precision; the anchor underflows to 0 in the far tail."""
    lo = max(0, n_marked + n_drawn - universe)
    hi = min(n_marked, n_drawn)
    if k <= lo:
        return 1.0
    mode = (n_marked + 1) * (n_drawn + 1) // (universe + 2)
    anchor = min(max(k, mode), hi)
    anchor_pmf = (
        math.comb(n_marked, anchor) * math.comb(universe - n_marked, n_drawn - anchor)
    ) / math.comb(universe, n_drawn)

    def ratio(j: int) -> float:  # pmf(j + 1) / pmf(j)
        return ((n_marked - j) * (n_drawn - j)) / (
            (j + 1) * (universe - n_marked - n_drawn + j + 1)
        )

    terms = [anchor_pmf]
    value = anchor_pmf
    for j in range(anchor, hi):  # upward from the anchor
        value *= ratio(j)
        if value == 0.0:
            break
        terms.append(value)
    value = anchor_pmf
    for j in range(anchor - 1, k - 1, -1):  # downward to k
        value /= ratio(j)
        if value == 0.0:
            break
        terms.append(value)
    return min(1.0, math.fsum(terms))


def enumerated_hypergeom_tail(k: int, n_marked: int, n_drawn: int, universe: int) -> float:
    """Brute force over every possible draw; only viable for tiny universes."""
    marked = set(range(n_marked))
    hits = 0
    total = 0
    for draw in combinations(range(universe), n_drawn):
        total += 1
        if len(marked.intersection(draw)) >= k:
            hits += 1
    return hits / total


def student_t_two_sided_quad(t: float, df: float) -> float:
    """Two-sided Student-t tail by adaptive quadrature of the density."""

    def pdf(x: float) -> float:
        log_norm = (
            special.gammaln((df + 1) / 2)
            - special.gammaln(df / 2)
            - 0.5 * math.log(df * math.pi)
        )
        return math.exp(log_norm - (df + 1) / 2 * math.log1p(x * x / df))

    if abs(t) < 1.0:
        # Near zero the density over [0, |t|] resolves 1 - p; the tail
        # integral over [|t|, inf) leaves it to quadrature error.
        body, _ = integrate.quad(pdf, 0.0, abs(t), epsabs=1e-14, epsrel=1e-14)
        return 1.0 - 2.0 * body
    tail, _ = integrate.quad(pdf, abs(t), np.inf, epsabs=1e-12, epsrel=1e-12)
    return min(1.0, 2.0 * tail)


def betainc_mpmath(a: float, b: float, x: float | Fraction) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` in 40-digit arithmetic.

    ``x`` is taken exactly, as a float or a :class:`~fractions.Fraction`, so
    an argument such as ``df / (df + t^2)`` can be given without rounding.
    """
    with mpmath.workdps(40):
        if isinstance(x, Fraction):
            x = mpmath.mpf(x.numerator) / x.denominator
        return float(mpmath.betainc(a, b, 0, x, regularized=True))


def normal_equation_direction(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Unit hyperplane normal from the full-space least-squares fit of the
    -1/+1 class contrast on the centered pooled data (minimum-norm
    solution), oriented along the centroid difference."""
    pooled = np.hstack([x1, x2])
    centered = pooled - pooled.mean(axis=1, keepdims=True)
    target = np.concatenate([-np.ones(x1.shape[1]), np.ones(x2.shape[1])])
    beta, *_ = np.linalg.lstsq(centered.T, target, rcond=None)
    b = beta / np.linalg.norm(beta)
    if b @ (x2.mean(axis=1) - x1.mean(axis=1)) < 0:
        b = -b
    return b


def np1_rank_restricted(
    x1: np.ndarray, x2: np.ndarray, n_permutations: int, rng: np.random.Generator
) -> np.ndarray:
    """np1 by Monte Carlo from the gene-space null: the genes x permutations
    matrix of ``n_permutations`` label-shuffle centroid differences, built
    one shuffle at a time from column means, its SVD, and the axes beyond
    ``numpy.linalg.matrix_rank`` dropped; the centroid difference is divided
    by the null's RMS spread along each axis. Unit norm, oriented along the
    centroid difference. ``np1_direction`` is its limit as the shuffles
    grow without bound."""
    pooled = np.hstack([x1, x2])
    n1 = x1.shape[1]
    perms = np.argsort(rng.random((n_permutations, pooled.shape[1])), axis=1)
    nulls = np.empty((pooled.shape[0], n_permutations))
    for j, perm in enumerate(perms):
        nulls[:, j] = pooled[:, perm[n1:]].mean(axis=1) - pooled[:, perm[:n1]].mean(axis=1)
    u, s, _ = np.linalg.svd(nulls, full_matrices=False)
    rank = np.linalg.matrix_rank(nulls)
    stds = s[:rank] / math.sqrt(n_permutations)
    diff = x2.mean(axis=1) - x1.mean(axis=1)
    raw = u[:, :rank] @ ((u[:, :rank].T @ diff) / stds)
    b = raw / np.linalg.norm(raw)
    return -b if b @ diff < 0 else b


def np1_gram_whitening(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """np1's infinite-shuffle limit from the samples' Gram matrix instead of
    a gene-space factorisation: the centred pooled data ``C`` times
    ``(C^T C)^(-1/2)`` (eigendecomposition, restricted to the top
    ``numpy.linalg.matrix_rank(C)`` eigenvalues) times the class-mean
    contrast weights. Unit norm, oriented along the centroid difference."""
    pooled = np.hstack([x1, x2])
    centred = pooled - pooled.mean(axis=1, keepdims=True)
    n1, n2 = x1.shape[1], x2.shape[1]
    weights = np.concatenate([np.full(n1, -1.0 / n1), np.full(n2, 1.0 / n2)])
    eigenvalues, vectors = np.linalg.eigh(centred.T @ centred)
    rank = np.linalg.matrix_rank(centred)
    top, v = eigenvalues[-rank:], vectors[:, -rank:]
    raw = centred @ (v @ ((v.T @ weights) / np.sqrt(top)))
    b = raw / np.linalg.norm(raw)
    return -b if b @ (centred @ weights) < 0 else b


def hierarchy_normal_equations(
    x1: np.ndarray, x2: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """(directions, coords) of the projection hierarchy by gene-space
    deflation of the centred data, with :func:`normal_equation_direction`
    fitted at every level."""
    pooled = np.hstack([x1, x2])
    current = pooled - pooled.mean(axis=1, keepdims=True)
    n1 = x1.shape[1]
    directions, coords = [], []
    for _ in range(depth):
        b = normal_equation_direction(current[:, :n1], current[:, n1:])
        directions.append(b)
        coords.append(b @ current)
        current = current - np.outer(b, b @ current)
    return np.array(directions), np.array(coords)


def angle_pvalue_betainc(theta: float, n: int) -> float:
    """Closed form for the isotropic principal-angle tail:
    integrating sin(phi)^(n-2) from theta to pi/2 and normalizing gives
    the regularized incomplete beta I_{cos^2 theta}(1/2, (n-1)/2)."""
    c = math.cos(theta)
    return float(special.betainc(0.5, (n - 1) / 2, c * c))


def angle_pdf(theta, n: int) -> np.ndarray:
    """Density of the principal angle between isotropic directions in an
    n-dimensional space, renormalized over [0, pi/2].

    The angle between two isotropic directions has density proportional to
    ``sin(theta)^(n-2)`` on [0, pi]; principal angles fold onto [0, pi/2],
    which doubles the density. Computed in log space so large ``n`` cannot
    overflow.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    theta = np.asarray(theta, dtype=np.float64)
    log_coef = (
        math.log(2.0)
        - 0.5 * math.log(math.pi)
        + special.gammaln(n / 2.0)
        - special.gammaln((n - 1) / 2.0)
    )
    with np.errstate(divide="ignore"):
        log_sin = np.where(theta > 0, np.log(np.sin(np.clip(theta, 0, math.pi))), -np.inf)
    return np.exp(log_coef + (n - 2) * log_sin)


def angle_pvalue_quad(theta: float, n: int) -> float:
    """Isotropic principal-angle tail by adaptive quadrature of
    :func:`angle_pdf` from ``theta`` to pi/2."""
    if theta >= math.pi / 2:
        return 0.0
    # For large n the density concentrates within O(1/sqrt(n)) of pi/2;
    # hint the quadrature at the edge of that region.
    hint = math.pi / 2 - 10.0 / math.sqrt(n)
    value, _ = integrate.quad(
        lambda phi: float(angle_pdf(phi, n)),
        theta,
        math.pi / 2,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
        points=[hint] if theta < hint else None,
    )
    return min(1.0, max(0.0, value))


def mann_whitney_auc(scores, mask) -> float:
    """AUC as the Mann-Whitney statistic with half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    pos = scores[mask]
    neg = scores[~mask]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (len(pos) * len(neg))


def covariance_eigendecomposition(data: np.ndarray):
    """PCA by brute-force eigendecomposition of the sample covariance."""
    centered = data - data.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / (data.shape[1] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], eigvecs[:, order]


def single_svd_factors(data: np.ndarray) -> _SampleFactors:
    """The sample factorisation by one numpy SVD of the whole row-centred
    ``data``, which is left unchanged: no row blocks and no QR."""
    scale = float(np.abs(data).max())
    centred = data - data.mean(axis=1)[:, None]
    u, s, vt = np.linalg.svd(centred, full_matrices=False)
    tol = float(s.max(initial=0.0)) * max(data.shape) * np.finfo(np.float64).eps
    r = int(np.count_nonzero(s > tol))
    return _SampleFactors(u[:, :r], s[:r], s[:r, None] * vt[:r], scale)


def _as_lines(text: str | TextIO | Iterable[str]) -> Iterable[str]:
    if isinstance(text, str):
        return io.StringIO(text)
    return text


def parse_expression_rows(
    text: str | TextIO | Iterable[str],
    already_log: bool = True,
    pseudocount: float = 1.0,
) -> ExpressionMatrix:
    """Row-by-row reference for ``chardir.data.parse_expression_tsv``: each
    line is validated and converted cell by cell with ``float()``, and
    duplicate ids are collapsed through a dict as rows arrive.

    Parse a tab-separated expression table.

    The first non-comment row is a header whose first cell is arbitrary and
    whose remaining cells are sample ids. Each following row is a gene id
    plus one numeric value per sample. Lines starting with ``#`` are
    ignored. When ``already_log`` is false, values are stored as
    ``log2(x + pseudocount)``.

    Duplicate gene ids (after canonicalization) are collapsed by keeping
    the row with the largest mean absolute stored value; the surviving row
    stays at the first occurrence's position. Ties keep the earlier row.

    Raises:
        ExpressionDataError: ragged rows, non-numeric cells, duplicate
            sample ids, values invalid for the log transform, or an empty
            matrix; each reported with its row/column location.
    """
    if not 0 <= pseudocount < math.inf:
        raise ExpressionDataError(
            f"pseudocount must be a nonnegative finite number, got {pseudocount!r}"
        )

    header: list[str] | None = None
    order: list[str] = []
    rows: dict[str, np.ndarray] = {}
    means: dict[str, float] = {}

    for lineno, line in enumerate(_as_lines(text), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        if header is None:
            header = [c.strip() for c in cells]
            sample_ids = header[1:]
            if not sample_ids:
                raise ExpressionDataError(f"row {lineno}: header has no sample ids")
            seen: set[str] = set()
            for sid in sample_ids:
                if not sid:
                    raise ExpressionDataError(f"row {lineno}: empty sample id")
                if sid in seen:
                    raise ExpressionDataError(
                        f"row {lineno}: duplicate sample id {sid!r}"
                    )
                seen.add(sid)
            continue

        if len(cells) != len(header):
            raise ExpressionDataError(
                f"row {lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        gene = canonical_gene_id(cells[0])
        if not gene:
            raise ExpressionDataError(f"row {lineno}: empty gene id")
        raw = np.empty(len(cells) - 1, dtype=np.float64)
        for col, cell in enumerate(cells[1:], start=2):
            try:
                raw[col - 2] = float(cell)
            except ValueError:
                raise ExpressionDataError(
                    f"row {lineno}, column {col}: non-numeric value {cell!r}"
                ) from None
        if not np.all(np.isfinite(raw)):
            col = int(np.argwhere(~np.isfinite(raw))[0][0]) + 2
            raise ExpressionDataError(f"row {lineno}, column {col}: non-finite value")
        if already_log:
            stored = raw
        else:
            shifted = raw + pseudocount
            if np.any(shifted <= 0):
                col = int(np.argwhere(shifted <= 0)[0][0]) + 2
                raise ExpressionDataError(
                    f"row {lineno}, column {col}: value {float(raw[col - 2])!r} not "
                    f"positive after pseudocount {pseudocount}"
                )
            stored = np.log2(shifted)

        mean_abs = float(np.mean(np.abs(stored)))
        if gene not in rows:
            order.append(gene)
            rows[gene] = stored
            means[gene] = mean_abs
        elif mean_abs > means[gene]:
            rows[gene] = stored
            means[gene] = mean_abs

    if header is None:
        raise ExpressionDataError("empty input: no header row")
    if not order:
        raise ExpressionDataError("empty matrix: no gene rows")

    values = np.vstack([rows[g] for g in order])
    return ExpressionMatrix(tuple(order), tuple(header[1:]), values)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def row_table(header, rows, comment: str = "") -> str:
    """A TSV table written one row at a time with each cell formatted on its
    own, booleans as ``true``/``false``, floats by ``repr`` and the rest by
    ``str``, instead of one column at a time."""
    out = io.StringIO()
    if comment:
        out.write(f"# {comment}\n")
    out.write("\t".join(header) + "\n")
    for row in rows:
        out.write("\t".join(map(_fmt, row)) + "\n")
    return out.getvalue()


def hypergeom_enrich_rows(significant, library, universe, ranking=None) -> list[tuple]:
    """Hypergeometric enrichment set by set with Python set intersections
    and a rank list per set, instead of the member spans and their sums.
    Rows are ``(set_name, overlap, set_size, p, q, mean_rank, diagnostic)``,
    sorted by p and then set name."""
    from chardir.special import _log_hypergeom_tail
    from chardir.welch import bh_fdr

    universe_set = set(universe)
    sig = set(significant) & universe_set
    ranks = (
        {g: i for i, g in enumerate(ranking, start=1) if g in universe_set}
        if ranking is not None
        else None
    )
    rows = []
    for gene_set in library:
        members = gene_set.members & universe_set
        if not members:
            rows.append([gene_set.name, 0, 0, 1.0, 1.0, math.nan,
                         "no overlap with gene universe"])
            continue
        overlap = len(members & sig)
        p = float(np.exp(_log_hypergeom_tail(overlap, len(sig), len(members), len(universe_set))))
        member_ranks = [ranks[g] for g in members if g in ranks] if ranks is not None else []
        mean_rank = float(np.mean(member_ranks)) if member_ranks else math.nan
        rows.append([gene_set.name, overlap, len(members), p, None, mean_rank, ""])
    tested = [row for row in rows if not row[6]]
    for row, q in zip(tested, bh_fdr([row[3] for row in tested]).tolist()):
        row[4] = q
    return sorted(map(tuple, rows), key=lambda row: (row[3], row[0]))


def parse_gmt_lines(text: str) -> tuple[list[GeneSet], list[str]]:
    """A GMT library line by line, each set's members as a Python set: the
    sets in order and the distinct member ids in first-seen order."""
    sets: list[GeneSet] = []
    ids: dict[str, None] = {}
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) < 3:
            raise ExpressionDataError(
                f"line {lineno}: expected name, description and >= 1 gene, "
                f"got {len(cells)} fields"
            )
        name = cells[0].strip()
        if not name:
            raise ExpressionDataError(f"line {lineno}: empty set name")
        if name in {s.name for s in sets}:
            raise ExpressionDataError(f"line {lineno}: duplicate set name {name!r}")
        members = set()
        for cell in cells[2:]:
            if cell.strip():
                members.add(canonical_gene_id(cell))
                ids.setdefault(canonical_gene_id(cell))
        if not members:
            raise ExpressionDataError(f"line {lineno}: set {name!r} has no members")
        sets.append(GeneSet(name, cells[1].strip(), frozenset(members)))
    return sets, list(ids)


def read_ranked_lines(path):
    """A ranked-gene TSV line by line with a dict per row: (ranking,
    significant, {gene: coefficient} or None), raising at the first faulty
    row. A header that repeats a column read is rejected, since the row dict
    would keep only the last one."""
    line_of: dict[str, int] = {}
    significant: list[str] = []
    coefficients: dict[str, float] | None = None
    header = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cells = line.split("\t")
            if header is None:
                header = cells
                for column in ("gene_id", "significant"):
                    if column not in header:
                        raise ValueError(
                            f"{path}: expected a '{column}' column in the ranked file"
                        )
                for c in ("gene_id", "significant", "coefficient"):
                    # A name past its first column is a repeat.
                    if c in header and c in header[header.index(c) + 1:]:
                        raise ValueError(f"{path}: row {lineno}: duplicate column '{c}'")
                read = sorted(
                    header.index(c) for c in ("gene_id", "significant", "coefficient") if c in header
                )
                if "coefficient" in header:
                    coefficients = {}
                continue
            if len(cells) <= read[-1]:
                col = next(i for i in read if i >= len(cells))
                raise ValueError(
                    f"{path}: row {lineno}, column {col + 1}: missing '{header[col]}' cell"
                )
            row = dict(zip(header, cells))
            gene = canonical_gene_id(row["gene_id"])
            if not gene:
                raise ValueError(
                    f"{path}: row {lineno}, column {header.index('gene_id') + 1}: empty gene id"
                )
            if gene in line_of:
                raise ValueError(
                    f"{path}: rows {line_of[gene]} and {lineno}: duplicate gene id {gene!r}"
                )
            line_of[gene] = lineno
            if row["significant"] not in ("true", "false"):
                raise ValueError(
                    f"{path}: row {lineno}, column {header.index('significant') + 1}: "
                    f"significant cell {row['significant']!r} is neither true nor false"
                )
            if row["significant"] == "true":
                significant.append(gene)
            if coefficients is not None:
                try:
                    coefficients[gene] = float(row["coefficient"])
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {header.index('coefficient') + 1}: "
                        f"non-numeric coefficient {row['coefficient']!r}"
                    ) from None
    if header is None:
        raise ValueError(f"{path}: empty ranked file")
    return list(line_of), significant, coefficients


def read_association_lines(path):
    """A gene-to-TSS-distance TSV read whole and split once, with no helper
    of ``chardir.data``: (canonical ids, distances as a list), raising at the
    first faulty line. The first content line is a header when its first
    cell is ``gene_id``."""
    with open(path) as handle:
        lines = handle.read().split("\n")
    content = [
        (lineno, line) for lineno, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if content and content[0][1].split("\t")[0] == "gene_id":
        content = content[1:]
    genes, distances = [], []
    for lineno, line in content:
        cells = line.split("\t")
        if len(cells) != 2:
            raise ValueError(f"{path}: line {lineno}: expected gene_id and distance")
        gene = cells[0].strip().upper()
        if gene == "":
            raise ValueError(f"{path}: line {lineno}, column 1: empty gene id")
        try:
            distance = float(cells[1])
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}, column 2: non-numeric distance {cells[1]!r}"
            ) from None
        if not math.isfinite(distance) or distance < 0:
            raise ValueError(f"{path}: line {lineno}, column 2: invalid distance {cells[1]!r}")
        genes.append(gene)
        distances.append(distance)
    return genes, distances


def aggregate_ratios_by_n(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of ``ratios`` (experiments x n), the mean of the finite
    values and their ddof=1 standard error (NaN below two), one n at a time."""
    mean = np.full(ratios.shape[1], np.nan)
    stderr = np.full(ratios.shape[1], np.nan)
    for i in range(ratios.shape[1]):
        vals = ratios[np.isfinite(ratios[:, i]), i]
        if vals.size:
            mean[i] = vals.mean()
        if vals.size >= 2:
            stderr[i] = vals.std(ddof=1) / math.sqrt(vals.size)
    return mean, stderr


def overlap_counts_loop(ranking_a, ranking_b, library, n_max: int):
    """``(counts_a, counts_b)``, sets x n_max: per set and per ranking, the
    running count of members met walking the ranking gene by gene."""
    counts = []
    for ranking in (ranking_a, ranking_b):
        rows = []
        for gene_set in library:
            hits, row = 0, []
            for gene in list(ranking)[:n_max]:
                hits += gene in gene_set.members
                row.append(hits)
            rows.append(row)
        counts.append(np.array(rows, dtype=np.int64).reshape(len(rows), n_max))
    return counts[0], counts[1]


def kde_on_grid(classes, bandwidths, points: int = 256):
    """``(grid, densities)``: each class's Gaussian kernel sum, one term per
    point and grid value, on a linspace grid from the least ``x - 3h`` to the
    greatest ``x + 3h`` over all classes, each curve divided by its
    trapezoid-rule area written out as a sum of panels."""
    lo = min(min(x) - 3 * h for x, h in zip(classes, bandwidths))
    hi = max(max(x) + 3 * h for x, h in zip(classes, bandwidths))
    grid = np.linspace(lo, hi, points)
    densities = []
    for x, h in zip(classes, bandwidths):
        curve = [sum(math.exp(-0.5 * ((g - xi) / h) ** 2) for xi in x) for g in grid.tolist()]
        area = sum((grid[i + 1] - grid[i]) * (curve[i] + curve[i + 1]) / 2
                   for i in range(points - 1))
        densities.append(np.array(curve) / area)
    return grid, np.array(densities)


class KeySortLibrary(NamedTuple):
    """A gene-set library as per-member columns: each member's set number
    ``which`` and id code ``code`` (its id's first-seen position in ``ids``)."""

    names: tuple[str, ...]
    ids: tuple[str, ...]
    which: np.ndarray
    code: np.ndarray


def keysort_library(text: str) -> KeySortLibrary:
    """The per-member columns of a valid GMT library: each member coded by
    the counter value at its id's first sight, the values remapped to
    first-seen positions, and one global int64 key ``set * n_ids + position``
    sorted, with repeats inside a set dropped by a neighbour comparison."""
    names, codes = [], []
    ids: dict[str, int] = {}  # id -> counter value at first sight
    counter = count()
    for line in io.StringIO(text):
        cells = line.rstrip("\n").rstrip("\r").split("\t")
        if line.strip():
            genes = [canonical_gene_id(c) for c in cells[2:] if c.strip()]
            names.append(cells[0].strip())
            codes.append(np.fromiter(map(ids.setdefault, genes, counter), np.int64, len(genes)))
    position = np.zeros(next(counter), np.int64)
    position[np.fromiter(ids.values(), np.int64, len(ids))] = np.arange(len(ids))
    key = np.repeat(np.arange(len(codes), dtype=np.int64) * len(ids), list(map(len, codes)))
    key += position[np.concatenate(codes)] if codes else 0
    key.sort()
    which, code = np.divmod(key[np.diff(key, prepend=-1) != 0], max(len(ids), 1))
    return KeySortLibrary(tuple(names), tuple(ids), which, code)


def keysort_member_index(index: dict[str, int], library: KeySortLibrary):
    """``(which, where)``: the set number and gene position of every member
    found in ``index`` (gene id -> position), by one global int64 key
    ``set * len(index) + position`` sorted; members outside are dropped."""
    if not library.names:
        raise ValueError("gene set library is empty")
    where = np.fromiter(map(index.get, library.ids, repeat(-1)), np.int64, len(library.ids))
    where = where[library.code]
    key = library.which * len(index) + where
    key = key[where >= 0]
    key.sort()
    return np.divmod(key, len(index))


def hypergeom_enrich_keysort(significant, library: KeySortLibrary, universe, ranking=None):
    """``hypergeom_enrich`` over ``keysort_member_index``: per-set bincounts
    of the globally sorted members, and the package's tail kernel and
    table sort."""
    from chardir.enrichment import EnrichmentResult, _tabulate
    from chardir.special import _log_hypergeom_tail

    universe = list(universe)
    index = dict(zip(universe, range(len(universe))))
    n, n_sets = len(index), len(library.names)
    which, where = keysort_member_index(index, library)
    marked = np.zeros(n, dtype=bool)
    found = np.fromiter(map(index.get, significant, repeat(-1)), np.int64)
    marked[found[found >= 0]] = True
    size = np.bincount(which, minlength=n_sets)
    overlap = np.bincount(which[marked[where]], minlength=n_sets)
    pairs, inverse = np.unique(overlap * (n + 1) + size, return_inverse=True)
    k, m = np.divmod(pairs, n + 1)
    p = np.exp(_log_hypergeom_tail(k, np.count_nonzero(marked), m, n))[inverse]
    rank = np.zeros(n)
    if ranking is not None:
        found = np.fromiter(map(index.get, ranking, repeat(-1)), np.int64)
        rank[found[found >= 0]] = np.flatnonzero(found >= 0) + 1
    member_rank = rank[where]
    with np.errstate(invalid="ignore"):
        mean_rank = np.bincount(which, member_rank, n_sets) / np.bincount(
            which[member_rank > 0], minlength=n_sets)
    return _tabulate(EnrichmentResult, library, size, overlap=overlap, set_size=size,
                     p=p, mean_rank=mean_rank)


def angle_enrich_keysort(gene_ids, coefficients, library: KeySortLibrary):
    """``angle_enrich`` over ``keysort_member_index``: each set's squared
    coefficients summed by one bincount of the globally sorted members."""
    from chardir.enrichment import AngleEnrichmentResult, _tabulate, angle_null_pvalue

    index = dict(zip(gene_ids, range(len(gene_ids))))
    which, where = keysort_member_index(index, library)
    mass = np.bincount(which, np.asarray(coefficients)[where] ** 2, len(library.names))
    thetas = np.arccos(np.sqrt(np.minimum(mass, 1.0)))
    present = np.bincount(which, minlength=len(library.names))
    pvals = np.where(present > 0, angle_null_pvalue(thetas, len(gene_ids)), 1.0)
    return _tabulate(AngleEnrichmentResult, library, present, theta=thetas, p=pvals)


def overlap_counts_keysort(ranking_a, ranking_b, library: KeySortLibrary, n_max: int):
    """``overlap_counts`` over ``keysort_member_index``: one bincount of
    (set, top-n position) per ranking, summed along n."""
    counts = []
    for ranking in (ranking_a, ranking_b):
        index = dict(zip(list(ranking)[:n_max], range(n_max)))
        which, where = keysort_member_index(index, library)
        hits = np.bincount(which * n_max + where, minlength=len(library.names) * n_max)
        counts.append(hits.reshape(len(library.names), n_max).cumsum(axis=1))
    return counts[0], counts[1]
