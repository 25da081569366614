"""Command-line front end: reproducible file-in/file-out pipelines.

Each subcommand's handler computes its tables and returns ``(summary,
outputs)``: the summary line and, in file order, each output's name and the
writer of its open file. Only once the handler has succeeded does ``main``
make ``--out``, write the outputs and a ``manifest.json`` recording the
command, resolved parameters, input digests, seed and tool version, and
print the summary with the paths written; a failed run creates no output
directory. Re-running with the same manifest reproduces the outputs byte
for byte when ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` are left unset (``import chardir`` then pins BLAS to
one thread) or set equal between the runs.
Exit codes: 0 success, 1 analysis error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ExpressionMatrix,
    TwoClassDesign,
    _read_associations,
    _read_expression_file,
    _read_gene_lines,
    _read_ranked_file,
    _sha256,
    matrix_to_tsv,
    parse_design_tsv,
    parse_gmt,
    write_table,
)
from .direction import (
    _fit,
    _two_class_samples,
    call_significant,
    write_ranked_json,
    write_ranked_tsv,
)
from .enrichment import (
    angle_enrich,
    dedupe_tss_associations,
    hypergeom_enrich,
    sliding_window_profile,
)
from .linalg import DEFAULT_EPSILON, DEFAULT_MAX_COMPONENTS, _principal_components
from .projection import _project_samples, density_estimate
from .simulate import (
    METHODS,
    SyntheticSpec,
    _validated_methods,
    benchmark_sweep_roc,
    generate,
    synthetic_gene_ids,
)
from .welch import ttest_screen

USAGE_ERROR = 2
ANALYSIS_ERROR = 1

# Every error the package raises on bad input or degenerate data is a ValueError.
_ANALYSIS_ERRORS = (ValueError, OSError)


class _InputFile(str):
    """The ``type`` of every input-file flag: ``main`` checks that each such
    value names a file, and the manifest records its digest: ``digest``, if
    the reader hashed the file, or else a fresh one."""
    digest = None


def _checked(convert, accept, expected: str):
    """An argparse ``type``: ``convert(value)``, where ``accept`` holds for it."""
    def parse(value: str):
        with contextlib.suppress(ValueError):
            if accept(converted := convert(value)):
                return converted
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
    return parse


_fraction = _checked(float, lambda v: 0 < v <= 1, "a number in (0, 1]")
_epsilon = _checked(float, lambda v: 0 <= v < 1, "a number in [0, 1)")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_pseudocount = _checked(float, lambda v: 0 <= v < math.inf, "a nonnegative finite number")
# Kept as given, so the manifest records the bandwidth as typed.
_bandwidth = _checked(str, lambda v: v == "auto" or 0 < float(v) < math.inf,
                      "'auto' or a positive finite number")


def _input_files(args) -> dict[str, str]:
    """The input-file flags given, by destination."""
    return {k: v for k, v in vars(args).items() if isinstance(v, _InputFile)}


def _write_manifest(args, out) -> None:
    """``manifest.json``: every flag of the command (unset ones as ""), the
    SHA-256 of every input file given, the seed (null for an unseeded
    command that draws no random numbers) and the tool version."""
    params = {
        k: "" if v is None else v
        for k, v in vars(args).items()
        if k not in ("command", "func", "parser", "config", "seed")
    }
    manifest = {
        "command": args.command,
        "parameters": params,
        "input_digests": {k: v.digest or _sha256(v) for k, v in _input_files(args).items()},
        "seed": args.seed,
        "tool_version": __version__,
    }
    json.dump(manifest, out, indent=2, sort_keys=True)
    out.write("\n")


def _resolve_seed(args) -> None:
    """Draw and print ``args.seed`` when ``--seed`` is unset, so the run can
    be repeated; only the commands that draw random numbers (simulate,
    benchmark) call this."""
    if args.seed is None:
        args.seed = int(np.random.SeedSequence().entropy % (2**63))
        print(f"seed: {args.seed} (drawn; pass --seed to reproduce)")


def _resolve_design(parser, args) -> TwoClassDesign:
    if args.design is not None:
        if args.class1 or args.class2:
            parser.error("--design cannot be combined with --class1/--class2")
        with open(args.design) as handle:
            return parse_design_tsv(handle)
    if not (args.class1 and args.class2):
        parser.error("provide --design, or both --class1 and --class2")
    split = lambda v: tuple(s.strip() for s in v.split(",") if s.strip())
    return TwoClassDesign(split(args.class1), split(args.class2))


def _two_class_input(parser, args):
    """``(gene_ids, design, pooled, n1)``: ``pooled`` holds the class columns,
    the ``n1`` of class 1 first, in one new array the caller owns. The parsed
    table is not kept, so its values are freed before the fit. The design is
    resolved first, so a usage error is reported before the table is parsed."""
    design = _resolve_design(parser, args)
    matrix, args.expression.digest = _read_expression_file(
        args.expression, not args.log2_transform, args.pseudocount)
    columns = [matrix.column_index(s) for s in design.class1_samples + design.class2_samples]
    return matrix.gene_ids, design, matrix.values[:, columns], len(design.class1_samples)


# ---------------------------------------------------------------------------
# Subcommands: each returns its summary line and its outputs, an ordered
# {file name: writer of the open file}; main writes them.


def _cmd_chdir(parser, args):
    gene_ids, _, pooled, n1 = _two_class_input(parser, args)
    samples = _two_class_samples(gene_ids, pooled, n1)
    direction = _fit(samples, args.method.upper(), args.epsilon, args.max_components)
    call = call_significant(direction, args.alpha)

    write = write_ranked_tsv if args.format == "tsv" else write_ranked_json
    summary = (
        f"{direction.method}: {len(call.gene_ids)} genes ranked, "
        f"{call.selected_count} significant at alpha={args.alpha} "
        f"(magnitude {direction.magnitude:.4g})"
    )
    return summary, {f"ranked_genes.{args.format}": partial(write, call, method=direction.method)}


def _cmd_ttest(parser, args):
    gene_ids, _, pooled, n1 = _two_class_input(parser, args)
    screen = ttest_screen(gene_ids, pooled[:, :n1], pooled[:, n1:], args.fdr)
    order = np.lexsort((screen.gene_ids, screen.p))
    columns = [
        c[order]
        for c in (screen.gene_ids, screen.t, screen.df, screen.p, screen.q,
                  screen.significant, screen.diagnostic)
    ]
    summary = (
        f"welch: {len(screen.gene_ids)} genes tested, "
        f"{int(screen.significant.sum())} significant at FDR {args.fdr}"
    )
    return summary, {"welch_results.tsv": partial(
        write_table,
        header=["gene_id", "t", "df", "p", "q", "significant", "diagnostic"],
        columns=columns,
        comment="two-sided p-values",
    )}


def _cmd_enrich(parser, args):
    if args.mode == "angle" and (args.genes or args.universe):
        parser.error("--mode angle scores the genes of its --ranked file: "
                     "it takes neither --genes nor --universe")
    if args.genes and not args.universe:
        parser.error("--genes needs --universe")
    with open(args.gmt) as handle:
        library = parse_gmt(handle)

    if args.ranked:
        ranking, significant, coefficients = _read_ranked_file(Path(args.ranked))
    else:
        ranking, significant, coefficients = None, _read_gene_lines(Path(args.genes)), None
    universe = _read_gene_lines(Path(args.universe), unique=True) if args.universe else ranking

    if args.mode == "hypergeom":
        result = hypergeom_enrich(significant, library, universe, ranking)
    elif coefficients is None:
        raise ValueError(
            "--mode angle needs a ranked file with a coefficient column "
            "(the chdir command's output)"
        )
    else:
        result = angle_enrich(ranking, coefficients, library)
    columns = vars(result)
    n_hits = int(np.count_nonzero((result.q <= args.fdr) & (result.diagnostic == "")))
    top = result.set_name[0] if len(result.set_name) else "none"
    summary = (
        f"enrich ({args.mode}): {len(result.set_name)} sets tested, {n_hits} at FDR {args.fdr}, "
        f"top hit {top}"
    )
    return summary, {"enrichment.tsv": partial(
        write_table, header=list(columns), columns=list(columns.values())
    )}


def _cmd_profile(parser, args):
    genes, distances = dedupe_tss_associations(*_read_associations(Path(args.associations)))
    significant = _read_gene_lines(Path(args.significant))
    mean_distance, log_p = sliding_window_profile(
        genes, distances, significant, args.window, args.universe
    )
    return f"profile: {len(log_p)} windows over {len(genes)} genes", {"profile.tsv": partial(
        write_table,
        header=["mean_distance", "minus_log10_p"],
        # 0.0 - x rather than -x, so a window whose p is exactly 1 prints 0.0, not -0.0.
        columns=[mean_distance, 0.0 - log_p / math.log(10)],
    )}


def _cmd_project(parser, args):
    gene_ids, design, pooled, n1 = _two_class_input(parser, args)
    samples = _two_class_samples(gene_ids, pooled, n1)
    hierarchy = _project_samples(samples, args.depth, args.epsilon, args.max_components)
    sample_ids = list(design.class1_samples) + list(design.class2_samples)

    bandwidth = None if args.bandwidth == "auto" else float(args.bandwidth)
    curve = density_estimate(np.split(hierarchy.coords[0], [n1]), bandwidth)
    for label, (h, diagnostic) in enumerate(zip(curve.bandwidth, curve.diagnostic), start=1):
        if diagnostic:
            print(f"chardir project: warning: class {label} density: {diagnostic} {h!r}",
                  file=sys.stderr)

    scores = _principal_components(samples.factors, 2)
    pc2 = scores[1] if scores.shape[0] > 1 else np.zeros(len(sample_ids))
    note = f" ({hierarchy.truncated_reason})" if hierarchy.truncated_reason else ""
    return f"project: depth {hierarchy.depth}{note}", {
        "projection.tsv": partial(
            write_table,
            header=["sample_id", "class", *(f"cd{i + 1}" for i in range(hierarchy.depth))],
            columns=[sample_ids, hierarchy.class_of_sample, *hierarchy.coords],
            comment=f"truncated: {hierarchy.truncated_reason}" if hierarchy.truncated_reason else "",
        ),
        "density.tsv": partial(
            write_table,
            header=["grid_x", "density_class1", "density_class2"],
            columns=[curve.grid, *curve.density],
        ),
        "pca.tsv": partial(
            write_table,
            header=["sample_id", "class", "pc1", "pc2"],
            columns=[sample_ids, hierarchy.class_of_sample, scores[0], pc2],
        ),
    }


def _spec_from_args(parser, args, samples_per_class, flag: str = "") -> SyntheticSpec:
    """The spec of ``args`` at ``samples_per_class`` (a count or its text);
    a value the spec rejects is a usage error, prefixed by ``flag``."""
    try:
        return SyntheticSpec(
            n_genes=args.n_genes,
            samples_per_class=int(samples_per_class),
            seed=args.seed,
            intrinsic_dim=args.intrinsic_dim,
            variance_scale=args.variance_scale,
            frac_correlating=args.frac_correlating,
            frac_de=args.frac_de,
            de_magnitude=args.de_magnitude,
        )
    except ValueError as exc:
        parser.error(f"{flag}{exc}")


def _cmd_simulate(parser, args):
    spec = _spec_from_args(parser, args, args.samples_per_class)  # before a seed is drawn
    _resolve_seed(args)
    spec = replace(spec, seed=args.seed)
    outcome = generate(spec)

    gene_ids = synthetic_gene_ids(spec.n_genes)
    n = spec.samples_per_class
    sample_ids = tuple(
        [f"ctrl_{i + 1}" for i in range(n)] + [f"pert_{i + 1}" for i in range(n)]
    )
    matrix = ExpressionMatrix(
        gene_ids, sample_ids, np.hstack([outcome.x_control, outcome.x_perturbed])
    )
    planted = [g for g, m in zip(gene_ids, outcome.de_mask) if m]
    summary = (
        f"simulate: {spec.n_genes} genes x {2 * n} samples, {len(planted)} planted DE genes"
    )
    return summary, {
        "expression.tsv": partial(matrix_to_tsv, matrix),
        "design.tsv": lambda out: out.writelines(f"{sid}\t{1 if i < n else 2}\n"
                                                 for i, sid in enumerate(sample_ids)),
        "truth.gmt": lambda out: out.write(
            "TRUE_DE\tplanted differentially expressed genes\t" + "\t".join(planted) + "\n"
        ),
    }


def _cmd_benchmark(parser, args):
    try:
        methods = _validated_methods(m.strip() for m in args.methods.split(",") if m.strip())
    except ValueError as exc:
        parser.error(str(exc))
    template = _spec_from_args(parser, args, 2)  # every flag of the spec but the sample size
    sizes = [_spec_from_args(parser, args, s, "--sizes: ").samples_per_class
             for s in args.sizes.split(",") if s.strip()]
    _spec_from_args(parser, args, args.roc_samples, "--roc-samples: ")
    if not sizes:
        parser.error("--sizes must list at least one sample size")
    _resolve_seed(args)
    template = replace(template, samples_per_class=max(sizes), seed=args.seed)
    cells, curves = benchmark_sweep_roc(
        template, sizes, args.roc_samples, args.runs, methods, n_jobs=args.jobs
    )
    fields = ("method", "samples_per_class", "mean_gini", "stderr", "n_runs", "n_excluded")
    return f"benchmark: {len(sizes)} sizes x {args.runs} runs", {
        "sweep.tsv": partial(
            write_table, header=fields, columns=[[getattr(c, f) for c in cells] for f in fields]
        ),
        "roc.tsv": partial(
            write_table,
            header=["method", "fpr", "tpr"],
            columns=[[c.method for c in curves for _ in c.fpr],
                     *(np.concatenate([getattr(c, f) for c in curves]) for f in ("fpr", "tpr"))],
        ),
    }


# ---------------------------------------------------------------------------
# Parser assembly


def _add_expression_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--expression", type=_InputFile, required=True, help="expression TSV (genes x samples)"
    )
    p.add_argument(
        "--log2-transform",
        action="store_true",
        help="input is raw scale; store log2(x + pseudocount)",
    )
    p.add_argument("--pseudocount", type=_pseudocount, default=1.0)


def _add_design_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--design", type=_InputFile, help="two-column TSV: sample_id, class in {1,2}")
    p.add_argument("--class1", help="comma-separated class-1 (control) sample ids")
    p.add_argument("--class2", help="comma-separated class-2 (treatment) sample ids")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="random seed (simulate, benchmark)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="flat key=value file of flag defaults")


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-genes", type=int, default=100)
    p.add_argument("--intrinsic-dim", type=int, default=SyntheticSpec.intrinsic_dim)
    p.add_argument("--variance-scale", type=float, default=SyntheticSpec.variance_scale)
    p.add_argument("--frac-correlating", type=float, default=SyntheticSpec.frac_correlating)
    p.add_argument("--frac-de", type=float, default=SyntheticSpec.frac_de)
    p.add_argument("--de-magnitude", type=float, default=SyntheticSpec.de_magnitude)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chardir",
        description="Characteristic-direction differential expression toolkit",
    )
    parser.add_argument("--version", action="version", version=f"chardir {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chdir", help="rank genes by a characteristic direction")
    _add_expression_args(p)
    _add_design_args(p)
    p.add_argument("--method", choices=("lr1", "np1"), default="lr1")
    p.add_argument("--alpha", type=_fraction, default=0.3, help="cumulative squared-coefficient cutoff")
    p.add_argument(
        "--epsilon", type=_epsilon, default=DEFAULT_EPSILON, help="PCA unexplained-variance budget"
    )
    p.add_argument("--max-components", type=_positive_int, default=DEFAULT_MAX_COMPONENTS)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    _add_common_args(p)
    p.set_defaults(func=_cmd_chdir)

    p = sub.add_parser("ttest", help="Welch t-test screen with BH correction")
    _add_expression_args(p)
    _add_design_args(p)
    p.add_argument("--fdr", type=_fraction, default=0.05)
    _add_common_args(p)
    p.set_defaults(func=_cmd_ttest)

    p = sub.add_parser("enrich", help="gene-set enrichment of a result file")
    lists = p.add_mutually_exclusive_group(required=True)
    lists.add_argument(
        "--ranked", type=_InputFile, help="ranked TSV from the chdir or ttest command"
    )
    lists.add_argument(
        "--genes", type=_InputFile, help="plain significant-gene list (one id per line)"
    )
    p.add_argument("--universe", type=_InputFile, help="universe gene list (one id per line)")
    p.add_argument("--gmt", type=_InputFile, required=True, help="gene-set library, GMT format")
    p.add_argument("--mode", choices=("hypergeom", "angle"), default="hypergeom")
    p.add_argument("--fdr", type=_fraction, default=0.05)
    _add_common_args(p)
    p.set_defaults(func=_cmd_enrich)

    p = sub.add_parser("profile", help="sliding-window enrichment along TSS distances")
    p.add_argument("--associations", type=_InputFile, required=True, help="TSV: gene_id, distance")
    p.add_argument("--significant", type=_InputFile, required=True, help="significant-gene list")
    p.add_argument("--window", type=_positive_int, required=True, help="window size in genes")
    p.add_argument("--universe", type=_positive_int, required=True, help="total genes measured")
    _add_common_args(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("project", help="projection plot data (directions, KDE, PCA)")
    _add_expression_args(p)
    _add_design_args(p)
    p.add_argument("--depth", type=_positive_int, default=2)
    p.add_argument(
        "--epsilon", type=_epsilon, default=DEFAULT_EPSILON, help="PCA unexplained-variance budget"
    )
    p.add_argument("--max-components", type=_positive_int, default=DEFAULT_MAX_COMPONENTS)
    p.add_argument("--bandwidth", type=_bandwidth, default="auto", help="KDE bandwidth or 'auto'")
    _add_common_args(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("simulate", help="draw a synthetic dataset with known truth")
    _add_spec_args(p)
    p.add_argument("--samples-per-class", type=int, required=True)
    _add_common_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("benchmark", help="method-recovery sweep on synthetic data")
    _add_spec_args(p)
    p.add_argument("--sizes", default="3,4,5,6,8,10", help="comma-separated sample sizes")
    p.add_argument("--runs", type=_positive_int, default=100)
    p.add_argument(
        "--methods", default="lr1,welch", help=f"comma-separated subset of {METHODS}"
    )
    p.add_argument("--roc-samples", type=int, required=True, help="sample size for the ROC table")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    _add_common_args(p)
    p.set_defaults(func=_cmd_benchmark)

    # Each command reports its usage errors with its own usage line.
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Inject key=value pairs from --config as flags before the explicit
    ones, so the command line wins on conflicts. The file is found as
    argparse finds it, so ``--config=PATH`` and ``--config PATH`` agree."""
    finder = argparse.ArgumentParser(prog="chardir", add_help=False)
    finder.add_argument("--config")
    config = finder.parse_known_args(argv)[0].config
    if config is None:
        return argv
    config_path = Path(config)
    if not config_path.is_file():
        raise FileNotFoundError(f"--config: file not found: {config_path}")
    injected: list[str] = []
    with open(config_path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{config_path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    injected.append(flag)
            else:
                injected.extend([flag, value])
    # Insert after the subcommand (first non-flag token).
    for i, token in enumerate(argv):
        if not token.startswith("-"):
            return argv[: i + 1] + injected + argv[i + 1 :]
    return argv + injected


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv)
    except (FileNotFoundError, ValueError) as exc:
        parser.exit(USAGE_ERROR, f"{parser.prog}: error: {exc}\n")
    args = parser.parse_args(argv)

    for attr, value in _input_files(args).items():
        if not Path(value).is_file():
            args.parser.error(f"--{attr}: file not found: {Path(value)}")

    try:
        summary, outputs = args.func(args.parser, args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in {**outputs, "manifest.json": partial(_write_manifest, args)}.items():
            with open(out_dir / name, "w") as handle:
                write(handle)
    except _ANALYSIS_ERRORS as exc:
        print(f"chardir {args.command}: error: {exc}", file=sys.stderr)
        return ANALYSIS_ERROR
    print(f"{summary}; wrote {', '.join(str(out_dir / name) for name in outputs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
