"""End-to-end tests of the command-line interface."""

import errno
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from itertools import chain, count
from pathlib import Path

import numpy as np
import pytest

import chardir.data
from chardir.cli import main
from chardir.data import (
    _CHUNK_ROWS,
    _read_associations,
    _read_expression_file,
    _read_gene_lines,
    _read_ranked_file,
)

from oracles import (
    covariance_eigendecomposition,
    exact_hypergeom_tail,
    read_association_lines,
    read_ranked_lines,
)

TOY_EXPRESSION = (
    "gene_id\tc1\tc2\tc3\tt1\tt2\tt3\n"
    "GA\t0\t0.1\t0\t5\t5.1\t5\n"
    "GB\t0\t0\t0.1\t0\t0\t0.1\n"
)
TOY_DESIGN = "c1\t1\nc2\t1\nc3\t1\nt1\t2\nt2\t2\nt3\t2\n"

# Runs the CLI with an import hook that fails every import of scipy.
REFUSE_SCIPY_LAUNCHER = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy import refused: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from chardir.cli import main
sys.exit(main())
"""


# The BLAS thread-count variables that ``import chardir`` pins.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def env_without_thread_variables(**extra):
    """This process's environment with none of the thread variables, so a
    runner's own settings cannot leak into a subprocess, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    return {**env, **extra}


def run(argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.fixture
def toy(tmp_path):
    expr = tmp_path / "expr.tsv"
    expr.write_text(TOY_EXPRESSION)
    design = tmp_path / "design.tsv"
    design.write_text(TOY_DESIGN)
    return expr, design, tmp_path


def write_two_class(tmp_path, values, n1):
    """expr.tsv (genes G0, G1, ...) and design.tsv for ``values``, whose
    first ``n1`` columns (c0, c1, ...) are class 1 and the rest (t0, ...)
    class 2."""
    samples = [f"c{j}" for j in range(n1)] + [f"t{j}" for j in range(values.shape[1] - n1)]
    expr = tmp_path / "expr.tsv"
    expr.write_text(
        "gene_id\t" + "\t".join(samples) + "\n"
        + "".join(
            f"G{i}\t" + "\t".join(repr(float(v)) for v in row) + "\n"
            for i, row in enumerate(values)
        )
    )
    design = tmp_path / "design.tsv"
    design.write_text("".join(f"{s}\t{1 if s[0] == 'c' else 2}\n" for s in samples))
    return expr, design


def cache_entries():
    """The parse cache's entries under this test's ``XDG_CACHE_HOME``."""
    return sorted(Path(os.environ["XDG_CACHE_HOME"], "chardir").glob("expression-*.npy"))


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


RANKED_HEADER = "gene_id\tcoefficient\tsignificant\n"
RANKED_CASES = {
    "padded_lower_case_ids": "# method: lr1\n" + RANKED_HEADER + " ga \t0.8\ttrue\ngB\t-0.6\tfalse\n",
    "crlf_endings": RANKED_HEADER.replace("\n", "\r\n") + "GA\t0.8\ttrue\r\nGB\t0.6\tfalse\r\n",
    "blank_lines": "\n# method: np1\n\n" + RANKED_HEADER + "\nGA\t0.8\ttrue\n\n \nGB\t0.6\ttrue\n",
    "trailing_tabs": "gene_id\tcoefficient\tsignificant\t\nGA\t0.8\ttrue\t\nGB\t0.6\tfalse\t\t\n",
    "columns_reordered_row_lengths_vary": "rank\tsignificant\tgene_id\tcoefficient\tnote\n"
    "1\ttrue\tGA\t0.8\n2\tfalse\tGB\t-0.1\tx\ty\n",
    "no_coefficient_column": "gene_id\tsignificant\nGA\ttrue\nGB\tfalse\n",
    "ragged_row": RANKED_HEADER + "GA\t0.8\ttrue\nGB\t0.6\nGC\t0.1\tfalse\n",
    "missing_column": "gene_id\tcoefficient\nGA\t0.8\n",
    "non_numeric_coefficient": RANKED_HEADER + "GA\t0.8\ttrue\n\nGB\tx0.6\ttrue\n",
    "duplicate_id": RANKED_HEADER + "GA\t0.8\ttrue\nGB\t0.5\tfalse\n\nga\t0.3\tfalse\n",
    "empty_id": "coefficient\tgene_id\tsignificant\n0.8\tGA\ttrue\n0.8\t \ttrue\n0.5\t\ttrue\n",
    "faults_in_several_rows": RANKED_HEADER + "GA\t0.8\ttrue\nGB\tx\ttrue\nga\t0.1\tfalse\nGC\n",
    "duplicate_and_non_numeric_in_one_row": RANKED_HEADER + "GA\t0.8\ttrue\nga\tzz\ttrue\nGB\n",
    "header_only": "# method: lr1\n" + RANKED_HEADER,
    "repeated_gene_id_column": "gene_id\tsignificant\tgene_id\nGA\ttrue\tGB\nGC\tfalse\tGD\n",
    "repeated_significant_column": "\nsignificant\tgene_id\tsignificant\nfalse\tGA\ttrue\n",
    "repeated_coefficient_column": "gene_id\tcoefficient\tsignificant\tcoefficient\n"
    "GA\t0.8\ttrue\t0.1\n",
    "repeated_unread_column": "note\tgene_id\tnote\tsignificant\t\t\nx\tGA\ty\ttrue\t\t\n",
    "missing_column_and_repeated_column": "gene_id\tgene_id\nGA\tGB\n",
    "empty": "# method: lr1\n\n",
    "significant_upper_case": RANKED_HEADER + "GA\t0.8\ttrue\nGB\t0.6\tTRUE\nGC\t0.1\tyes\n",
    "significant_one": RANKED_HEADER + "GA\t0.8\tfalse\n\nGB\t0.6\t1\n",
    "significant_empty": RANKED_HEADER + "GA\t0.8\ttrue\nGB\t0.6\t\n",
    "duplicate_id_and_bad_significant_in_one_row": RANKED_HEADER + "GA\t0.8\ttrue\nga\t0.6\tTRUE\n",
    "bad_significant_and_non_numeric_in_one_row": RANKED_HEADER + "GA\t0.8\ttrue\nGB\tx\tyes\n",
}


@pytest.mark.parametrize("text", RANKED_CASES.values(), ids=RANKED_CASES.keys())
def test_ranked_reader_matches_line_by_line_oracle(tmp_path, text):
    path = tmp_path / "ranked.tsv"
    path.write_bytes(text.encode())
    try:
        ranking, significant, coefficients = read_ranked_lines(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _read_ranked_file(path)
        assert str(raised.value) == str(exc)
        return
    got = _read_ranked_file(path)
    assert len(got) == 3 and got[0] == ranking and got[1] == significant
    if coefficients is None:
        assert got[2] is None
    else:
        assert repr(got[2].tolist()) == repr([coefficients[g] for g in ranking])


def _long_associations() -> str:
    """1,100 data lines after a header; line 1,030, past the first 1,024
    lines, is faulty, as is a later one."""
    cells = [f"{i}" for i in range(1100)]
    cells[1028], cells[1050] = "x7", "-3"
    return "gene_id\tdistance\n" + "".join(f"G{i}\t{c}\n" for i, c in enumerate(cells))


ASSOCIATION_CASES = {
    "header": "gene_id\tdistance\nga\t1\n gB \t2.5\n",
    "no_header": "GA\t1\nGB\t0\n",
    "header_after_comment": "# tss\n\ngene_id\tdistance\nGA\t3\n",
    "header_one_cell": "gene_id\nGA\t3\n",
    "header_not_first": "GA\t3\ngene_id\tdistance\n",
    "crlf_endings": "gene_id\tdistance\r\nGA\t1\r\nGB\t2\r\n",
    "blank_and_comment_lines": "\n  \nGA\t1\n\t\n  # indented\n#\nGB\t2\n",
    "three_cells": "GA\t1\nGB\t2\t3\n",
    "one_cell": "GA\t1\nGB\n",
    "empty_id": "GA\t1\n\t5\n",
    "blank_id": "gene_id\tdistance\nGA\t1\n  \t5\n",
    "underscore_distance": "GA\t1_0\n",
    "padded_exponent_distance": "GA\t 2e3 \n",
    "negative_zero_distance": "GA\t-0.0\n",
    "nan_distance": "GA\t1\nGB\tnan\n",
    "inf_distance": "GA\tinf\n",
    "negative_distance": "GA\t1\nGB\t-3\n",
    "non_numeric_distance": "GA\t1\nGB\tx7\n",
    "empty_distance": "GA\t\n",
    "two_faults_earlier_wins": "GA\t1\nGB\t-3\nGC\tx7\n\t1\n",
    "kinds_in_reverse_order": "GA\tx7\nGB\t1\t2\n",
    "fault_past_line_1025": _long_associations(),
    "empty": "# only a comment\n\n",
}


@pytest.mark.parametrize("text", ASSOCIATION_CASES.values(), ids=ASSOCIATION_CASES.keys())
def test_associations_reader_matches_split_text_oracle(tmp_path, text):
    path = tmp_path / "assoc.tsv"
    path.write_bytes(text.encode())
    try:
        genes, distances = read_association_lines(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _read_associations(path)
        assert str(raised.value) == str(exc)
        return
    got = _read_associations(path)
    assert got[0] == genes
    assert got[1].dtype == np.float64 and repr(got[1].tolist()) == repr(distances)


def test_association_battery_reaches_each_outcome(tmp_path):
    messages = []
    for name, text in ASSOCIATION_CASES.items():
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(text.encode())
        try:
            read_association_lines(path)
        except ValueError as exc:
            messages.append(str(exc))
    for fragment in ("expected gene_id and distance", "column 1: empty gene id",
                     "non-numeric distance", "invalid distance 'nan'",
                     "invalid distance 'inf'", "invalid distance '-3'", "line 1030,"):
        assert any(fragment in m for m in messages), fragment
    assert len(messages) < len(ASSOCIATION_CASES) - 5


class TestChdirCommand:
    def test_toy_ranks_shifted_gene_first(self, toy):
        expr, design, tmp = toy
        out = tmp / "out"
        code = run(
            ["chdir", "--expression", expr, "--design", design,
             "--alpha", "0.99", "--seed", "1", "--out", out]
        )
        assert code == 0
        rows = read_rows(out / "ranked_genes.tsv")
        assert rows[0]["gene_id"] == "GA"
        assert rows[0]["significant"] == "true"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "chdir"
        assert manifest["seed"] == 1
        assert "expression" in manifest["input_digests"]

    def test_alpha_one_flags_everything(self, toy):
        expr, design, tmp = toy
        out = tmp / "out"
        assert run(
            ["chdir", "--expression", expr, "--design", design,
             "--alpha", "1.0", "--seed", "1", "--out", out]
        ) == 0
        rows = read_rows(out / "ranked_genes.tsv")
        assert all(r["significant"] == "true" for r in rows)

    @pytest.mark.parametrize("pseudocount", ["-1", "nan", "inf"])
    def test_bad_pseudocount_is_usage_error_before_any_file_is_read(
        self, toy, capsys, monkeypatch, pseudocount
    ):
        import chardir.cli

        for reader in ("parse_design_tsv", "_read_expression_file"):
            monkeypatch.setattr(chardir.cli, reader, lambda *args, **kwargs: pytest.fail("read"))
        expr, design, tmp = toy
        out = tmp / "out"
        assert run(
            ["chdir", "--expression", expr, "--design", design, "--log2-transform",
             "--pseudocount", pseudocount, "--seed", "1", "--out", out]
        ) == 2
        assert ("chardir chdir: error: argument --pseudocount: expected a nonnegative finite "
                f"number, got {pseudocount!r}\n") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_design_file_is_usage_error(self, toy, capsys):
        expr, _, tmp = toy
        code = run(
            ["chdir", "--expression", expr, "--design", tmp / "nope.tsv",
             "--seed", "1", "--out", tmp / "out"]
        )
        assert code == 2
        assert "--design" in capsys.readouterr().err

    def test_class_lists_instead_of_design_file(self, toy):
        expr, _, tmp = toy
        out = tmp / "out"
        assert run(
            ["chdir", "--expression", expr, "--class1", "c1,c2,c3",
             "--class2", "t1,t2,t3", "--seed", "1", "--out", out]
        ) == 0

    def test_np1_rerun_bit_identical(self, toy):
        expr, design, tmp = toy
        out_a, out_b = tmp / "a", tmp / "b"
        for out in (out_a, out_b):
            assert run(
                ["chdir", "--expression", expr, "--design", design,
                 "--method", "np1", "--seed", "7", "--out", out]
            ) == 0
        assert (out_a / "ranked_genes.tsv").read_bytes() == (
            out_b / "ranked_genes.tsv"
        ).read_bytes()

    def test_np1_output_independent_of_seed(self, tmp_path):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((50, 9))
        values[:5, 4:] += 2.0
        expr, design = write_two_class(tmp_path, values, 4)
        tables = []
        for seed in ("1", "2"):
            out = tmp_path / f"np1_{seed}"
            assert run(
                ["chdir", "--expression", expr, "--design", design,
                 "--method", "np1", "--seed", seed, "--out", out]
            ) == 0
            tables.append((out / "ranked_genes.tsv").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert "permutations" not in manifest["parameters"]
        assert tables[0] == tables[1]

    def test_permutations_flag_is_usage_error(self, toy):
        expr, design, tmp = toy
        argv = ["chdir", "--expression", expr, "--design", design,
                "--method", "np1", "--seed", "1"]
        assert run([*argv, "--permutations", "200", "--out", tmp / "flag"]) == 2
        config = tmp / "run.cfg"
        config.write_text("permutations = 200\n")
        assert run([*argv, "--config", config, "--out", tmp / "config"]) == 2

    def test_json_format(self, toy):
        expr, design, tmp = toy
        out = tmp / "out"
        assert run(
            ["chdir", "--expression", expr, "--design", design,
             "--format", "json", "--seed", "1", "--out", out]
        ) == 0
        payload = json.loads((out / "ranked_genes.json").read_text())
        assert payload["method"] == "LR1"
        assert payload["genes"][0]["gene_id"] == "GA"

    def test_identical_classes_is_analysis_error(self, tmp_path, capsys):
        expr = tmp_path / "expr.tsv"
        expr.write_text(
            "id\tc1\tc2\tt1\tt2\nGA\t1\t2\t1\t2\nGB\t0\t1\t0\t1\n"
        )
        code = run(
            ["chdir", "--expression", expr, "--class1", "c1,c2",
             "--class2", "t1,t2", "--seed", "1", "--out", tmp_path / "out"]
        )
        assert code == 1
        assert "differential" in capsys.readouterr().err


class TestTtestCommand:
    def test_identical_classes_nothing_significant(self, tmp_path):
        expr = tmp_path / "expr.tsv"
        expr.write_text("id\tc1\tc2\tt1\tt2\nGA\t1\t2\t1\t2\nGB\t3\t0\t3\t0\n")
        out = tmp_path / "out"
        assert run(
            ["ttest", "--expression", expr, "--class1", "c1,c2",
             "--class2", "t1,t2", "--seed", "1", "--out", out]
        ) == 0
        rows = read_rows(out / "welch_results.tsv")
        assert all(r["significant"] == "false" for r in rows)

    def test_fdr_one_flags_every_defined_gene(self, toy):
        expr, design, tmp = toy
        out = tmp / "out"
        assert run(
            ["ttest", "--expression", expr, "--design", design,
             "--fdr", "1.0", "--seed", "1", "--out", out]
        ) == 0
        rows = read_rows(out / "welch_results.tsv")
        assert all(r["significant"] == "true" for r in rows if not r["diagnostic"])

    def test_shifted_gene_flagged(self, tmp_path):
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal((51, 5))
        x2 = rng.standard_normal((51, 5))
        x2[0] += 10.0
        lines = ["id\t" + "\t".join(f"c{i}" for i in range(5)) + "\t" + "\t".join(f"t{i}" for i in range(5))]
        for g in range(51):
            lines.append(
                f"G{g:03d}\t"
                + "\t".join(repr(float(v)) for v in x1[g])
                + "\t"
                + "\t".join(repr(float(v)) for v in x2[g])
            )
        expr = tmp_path / "expr.tsv"
        expr.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(
            ["ttest", "--expression", expr,
             "--class1", ",".join(f"c{i}" for i in range(5)),
             "--class2", ",".join(f"t{i}" for i in range(5)),
             "--seed", "1", "--out", out]
        ) == 0
        rows = read_rows(out / "welch_results.tsv")
        flagged = [r["gene_id"] for r in rows if r["significant"] == "true"]
        assert flagged == ["G000"]
        # Sidedness recorded in the header comment.
        assert (out / "welch_results.tsv").read_text().startswith("# two-sided")


class TestEnrichCommand:
    def test_significant_set_is_top_hit(self, toy):
        expr, design, tmp = toy
        ranked_out = tmp / "ranked"
        assert run(
            ["chdir", "--expression", expr, "--design", design,
             "--alpha", "0.99", "--seed", "1", "--out", ranked_out]
        ) == 0
        gmt = tmp / "sets.gmt"
        gmt.write_text("HIT\tdesc\tGA\nBOTH\tdesc\tGA\tGB\nOUT\tdesc\tZZ\n")
        out = tmp / "enr"
        assert run(
            ["enrich", "--ranked", ranked_out / "ranked_genes.tsv",
             "--gmt", gmt, "--seed", "1", "--out", out]
        ) == 0
        rows = read_rows(out / "enrichment.tsv")
        assert rows[0]["set_name"] == "HIT"
        assert float(rows[0]["p"]) == pytest.approx(0.5)  # 1 marked of 2, draw 1
        flagged = [r for r in rows if r["diagnostic"]]
        assert len(flagged) == 1 and flagged[0]["set_name"] == "OUT"
        assert float(flagged[0]["p"]) == 1.0

    def test_hand_built_universe_matches_enumeration(self, tmp_path):
        universe = [f"G{i}" for i in range(10)]
        sig = universe[:5]
        genes = tmp_path / "sig.txt"
        genes.write_text("\n".join(sig) + "\n")
        uni = tmp_path / "universe.txt"
        uni.write_text("\n".join(universe) + "\n")
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("PAIR\td\tG0\tG1\nSPLIT\td\tG4\tG5\nCOLD\td\tG8\tG9\n")
        out = tmp_path / "enr"
        assert run(
            ["enrich", "--genes", genes, "--universe", uni, "--gmt", gmt,
             "--seed", "1", "--out", out]
        ) == 0
        rows = {r["set_name"]: r for r in read_rows(out / "enrichment.tsv")}
        assert float(rows["PAIR"]["p"]) == pytest.approx(
            exact_hypergeom_tail(2, 5, 2, 10), rel=1e-12
        )
        assert float(rows["SPLIT"]["p"]) == pytest.approx(
            exact_hypergeom_tail(1, 5, 2, 10), rel=1e-12
        )
        assert float(rows["COLD"]["p"]) == pytest.approx(
            exact_hypergeom_tail(0, 5, 2, 10), rel=1e-12
        )

    @pytest.mark.parametrize("mode", ["angle", "hypergeom"])
    def test_enrichment_independent_of_hash_seed(self, tmp_path, mode):
        # Set members iterate in string-hash order, which differs between
        # processes; the enrichment table must not.
        rng = np.random.default_rng(12)
        coefficients = rng.standard_normal(2000)
        coefficients /= np.linalg.norm(coefficients)
        ranked = tmp_path / "ranked.tsv"
        ranked.write_text(
            "gene_id\tcoefficient\tsignificant\n"
            + "".join(
                f"G{i}\t{c!r}\t{'true' if i < 200 else 'false'}\n"
                for i, c in enumerate(coefficients.tolist())
            )
        )
        gmt = tmp_path / "sets.gmt"
        sets = [rng.choice(2000, 100, replace=False) for _ in range(50)]
        gmt.write_text(
            "".join(
                f"S{k}\td\t" + "\t".join(f"G{i}" for i in members) + "\n"
                for k, members in enumerate(sets)
            )
        )
        tables = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"enr{hash_seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "chardir.cli", "enrich", "--ranked", str(ranked),
                 "--gmt", str(gmt), "--mode", mode, "--seed", "1", "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            tables.append((out / "enrichment.tsv").read_bytes())
        assert tables[0] == tables[1]

    def test_angle_mode_runs_on_chdir_output(self, toy):
        expr, design, tmp = toy
        ranked_out = tmp / "ranked"
        assert run(
            ["chdir", "--expression", expr, "--design", design,
             "--seed", "1", "--out", ranked_out]
        ) == 0
        gmt = tmp / "sets.gmt"
        gmt.write_text("A_ONLY\td\tGA\nB_ONLY\td\tGB\n")
        out = tmp / "enr"
        code = run(
            ["enrich", "--ranked", ranked_out / "ranked_genes.tsv", "--gmt", gmt,
             "--mode", "angle", "--seed", "1", "--out", out]
        )
        assert code == 1  # two-gene universe is below the angle null's n >= 3

        # A three-gene toy works.
        expr3 = tmp / "expr3.tsv"
        expr3.write_text(
            "id\tc1\tc2\tc3\tt1\tt2\tt3\n"
            "GA\t0\t0.1\t0\t5\t5.1\t5\n"
            "GB\t0\t0\t0.1\t0\t0\t0.1\n"
            "GC\t1\t1.1\t1\t1\t1.1\t1\n"
        )
        ranked3 = tmp / "ranked3"
        assert run(
            ["chdir", "--expression", expr3, "--design", design,
             "--seed", "1", "--out", ranked3]
        ) == 0
        assert run(
            ["enrich", "--ranked", ranked3 / "ranked_genes.tsv", "--gmt", gmt,
             "--mode", "angle", "--seed", "1", "--out", out]
        ) == 0
        rows = read_rows(out / "enrichment.tsv")
        assert set(rows[0]) == {"set_name", "theta", "p", "q", "diagnostic"}
        by_name = {r["set_name"]: float(r["theta"]) for r in rows}
        assert by_name["A_ONLY"] < by_name["B_ONLY"]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("GB\t0.6", "row 5, column 3: missing 'significant' cell"),
            ("GB\tx0.6\ttrue", "row 5, column 2: non-numeric coefficient 'x0.6'"),
            ("GB\t0.6\tTRUE", "row 5, column 3: significant cell 'TRUE' is neither true nor false"),
        ],
        ids=["short_row", "non_numeric_coefficient", "upper_case_significant"],
    )
    def test_bad_ranked_row_names_line_and_column(self, tmp_path, capsys, row, message):
        ranked = tmp_path / "ranked.tsv"
        ranked.write_text(
            "# method: lr1\ngene_id\tcoefficient\tsignificant\nGA\t0.8\ttrue\n\n" + row + "\n"
        )
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("S\td\tGA\tGB\n")
        code = run(["enrich", "--ranked", ranked, "--gmt", gmt, "--mode", "angle",
                    "--seed", "1", "--out", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err == f"chardir enrich: error: {ranked}: {message}\n"

    @pytest.mark.parametrize("mode", ["hypergeom", "angle"])
    def test_ranked_gene_ids_are_canonicalised(self, tmp_path, mode):
        ranked = tmp_path / "ranked.tsv"
        ranked.write_text(
            "gene_id\tcoefficient\tsignificant\n"
            "ga\t0.8\ttrue\n gb \t0.6\ttrue\ngc\t0.0\tfalse\n"
        )
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("S\td\tGA\tGB\n")
        out = tmp_path / "out"
        assert run(["enrich", "--ranked", ranked, "--gmt", gmt, "--mode", mode,
                    "--seed", "1", "--out", out]) == 0
        (row,) = read_rows(out / "enrichment.tsv")
        assert row["diagnostic"] == ""
        if mode == "hypergeom":
            assert row["overlap"] == "2"
        else:
            # The direction lies in the set: theta is 0 to rounding.
            assert float(row["theta"]) <= 1e-7

    def test_duplicate_canonical_ranked_ids_name_both_lines(self, tmp_path, capsys):
        ranked = tmp_path / "ranked.tsv"
        ranked.write_text(
            "# method: lr1\ngene_id\tcoefficient\tsignificant\n"
            "GA\t0.8\ttrue\nGB\t0.5\tfalse\n\nga\t0.3\tfalse\n"
        )
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("S\td\tGA\tGB\n")
        code = run(["enrich", "--ranked", ranked, "--gmt", gmt,
                    "--seed", "1", "--out", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"chardir enrich: error: {ranked}: rows 3 and 6: duplicate gene id 'GA'\n"
        )

    @pytest.mark.parametrize("lists", ["--genes", "--ranked"])
    def test_duplicate_canonical_universe_ids_name_both_lines(self, tmp_path, capsys, lists):
        listed = {"--genes": "G1\ng1\n", "--ranked": RANKED_HEADER + "G1\t1.0\ttrue\n"}
        given = tmp_path / "given.txt"
        given.write_text(listed[lists])
        universe = tmp_path / "universe.txt"
        universe.write_text("G1\n# note\ng1\nG2\n")
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("S\td\tG1\n")
        out = tmp_path / "out"
        assert run(["enrich", lists, given, "--universe", universe, "--gmt", gmt,
                    "--seed", "1", "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"chardir enrich: error: {universe}: lines 1 and 3: duplicate gene id 'G1'\n"
        )
        assert not out.exists()
        # With each universe id once the run succeeds; a --genes list may
        # name a gene more than once, and it counts once.
        universe.write_text("G1\nG2\n")
        assert run(["enrich", lists, given, "--universe", universe, "--gmt", gmt,
                    "--seed", "1", "--out", out]) == 0
        (row,) = read_rows(out / "enrichment.tsv")
        assert row["overlap"] == "1" and row["set_size"] == "1"

    @pytest.mark.parametrize("mode", ["hypergeom", "angle"])
    def test_method_comment_does_not_change_the_enrichment(self, tmp_path, mode):
        body = RANKED_HEADER + "GA\t0.8\ttrue\nGB\t0.6\tfalse\nGC\t0.0\tfalse\n"
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("A\td\tGA\nBC\td\tGB\tGC\n")
        tables = []
        for name, comment in [("lr1", "# method: LR1\n"), ("np1", "# method: NP1\n"),
                              ("none", "")]:
            ranked = tmp_path / f"{name}.tsv"
            ranked.write_text(comment + body)
            out = tmp_path / f"out_{name}"
            assert run(["enrich", "--ranked", ranked, "--gmt", gmt, "--mode", mode,
                        "--seed", "1", "--out", out]) == 0
            tables.append((out / "enrichment.tsv").read_bytes())
        assert tables[0] == tables[1] == tables[2]

    def test_analysis_error_leaves_no_output_directory(self, toy, capsys):
        expr, design, tmp = toy
        assert run(["ttest", "--expression", expr, "--design", design,
                    "--seed", "1", "--out", tmp / "welch"]) == 0
        gmt = tmp / "sets.gmt"
        gmt.write_text("HIT\tdesc\tGA\n")
        out = tmp / "angle"
        assert run(["enrich", "--ranked", tmp / "welch" / "welch_results.tsv", "--gmt", gmt,
                    "--mode", "angle", "--seed", "1", "--out", out]) == 1
        assert "--mode angle needs a ranked file with a coefficient column" in capsys.readouterr().err
        assert not out.exists()

    def test_genes_without_universe_is_usage_error(self, tmp_path, capsys):
        genes = tmp_path / "genes.txt"
        genes.write_text("G1\n")
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("S\td\tG1\n")
        code = run(["enrich", "--genes", genes, "--gmt", gmt, "--seed", "1",
                    "--out", tmp_path / "out"])
        assert code == 2
        assert "--universe" in capsys.readouterr().err

    @pytest.mark.parametrize("lists", [[], ["--universe"]])
    def test_no_gene_list_is_usage_error(self, tmp_path, capsys, lists):
        universe = tmp_path / "universe.txt"
        universe.write_text("G1\n")
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("S\td\tG1\n")
        flags = [flag for name in lists for flag in (name, universe)]
        code = run(["enrich", *flags, "--gmt", gmt, "--seed", "1", "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--ranked" in err and "--genes" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("mode", ["hypergeom", "angle"])
    def test_empty_gmt_is_analysis_error_in_both_modes(self, tmp_path, capsys, mode):
        ranked = tmp_path / "ranked.tsv"
        ranked.write_text("gene_id\tcoefficient\tsignificant\nGA\t1.0\ttrue\n")
        gmt = tmp_path / "blank.gmt"
        gmt.write_text("\n \n\n")
        out = tmp_path / "out"
        assert run(["enrich", "--ranked", ranked, "--gmt", gmt, "--mode", mode,
                    "--seed", "1", "--out", out]) == 1
        assert capsys.readouterr().err == "chardir enrich: error: gene set library is empty\n"
        assert not out.exists()

    def test_ranked_with_genes_is_usage_error(self, toy, capsys):
        _, _, tmp = toy
        ranked = tmp / "ranked.tsv"
        ranked.write_text("gene_id\tcoefficient\tsignificant\nGA\t1.0\ttrue\n")
        genes = tmp / "genes.txt"
        genes.write_text("GA\n")
        gmt = tmp / "sets.gmt"
        gmt.write_text("S\td\tGA\n")
        code = run(["enrich", "--ranked", ranked, "--genes", genes, "--universe", genes,
                    "--gmt", gmt, "--seed", "1", "--out", tmp / "out"])
        assert code == 2
        assert "argument --genes: not allowed with argument --ranked" in capsys.readouterr().err
        assert not (tmp / "out").exists()


@pytest.mark.parametrize("flag", ["--genes", "--universe", "--significant"])
def test_gene_list_with_a_second_column_is_rejected(tmp_path, capsys, flag):
    table = tmp_path / "table.tsv"
    table.write_text("# calls\ngene_id\tsignificant\nGA\ttrue\nGB\tfalse\n")
    plain = tmp_path / "plain.txt"
    plain.write_text("GA\nGB\n")
    lists = {"--genes": plain, "--universe": plain, "--significant": plain, flag: table}
    if flag == "--significant":
        tss = tmp_path / "tss.tsv"
        tss.write_text("GA\t1\nGB\t2\n")
        argv = ["profile", "--associations", tss, "--significant", lists[flag],
                "--window", "1", "--universe", "2"]
    else:
        gmt = tmp_path / "sets.gmt"
        gmt.write_text("S\td\tGA\tGB\n")
        argv = ["enrich", "--genes", lists["--genes"], "--universe", lists["--universe"],
                "--gmt", gmt]
    out = tmp_path / "out"
    assert run([*argv, "--seed", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"error: {table}: line 2: expected one gene id per line, got 2 cells\n" in err
    assert not out.exists()


def test_gene_list_ids_padded_with_tabs_are_one_id(tmp_path):
    path = tmp_path / "genes.txt"
    path.write_text("\tga\t\n# x\ty\n\n gB \t\n")
    assert _read_gene_lines(path) == ["GA", "GB"]


@pytest.mark.parametrize("command,flags", [
    ("chdir", ["--design", "{design}", "--class1", "c1,c2"]),
    ("ttest", ["--class1", "c1,c2"]),
    ("chdir", ["--design", "{tmp}/nope.tsv"]),
    ("enrich", ["--genes", "{design}", "--gmt", "{design}"]),
    ("enrich", ["--mode", "angle", "--ranked", "{design}", "--universe", "{design}",
                "--gmt", "{design}"]),
    ("enrich", ["--mode", "angle", "--genes", "{design}", "--universe", "{design}",
                "--gmt", "{design}"]),
    ("benchmark", ["--roc-samples", "1"]),
    ("ttest", ["--design", "{design}", "--class1", "c1,c2"]),
    ("project", ["--design", "{design}", "--class1", "c1,c2"]),
    ("simulate", ["--n-genes", "0", "--samples-per-class", "3"]),
    ("simulate", ["--variance-scale", "nan", "--samples-per-class", "3"]),
    ("simulate", ["--de-magnitude", "inf", "--samples-per-class", "3"]),
])
def test_usage_error_prints_the_commands_usage(toy, capsys, command, flags):
    # Raised by the command's handler, not by argparse, yet usage names the
    # command; it comes before the expression table, here malformed, is parsed.
    _, design, tmp = toy
    malformed = tmp / "malformed.tsv"
    malformed.write_text("gene_id\tc1\tt1\nGA\t0\n")
    if command in ("chdir", "ttest", "project"):
        flags = ["--expression", malformed, *flags]
    flags = [str(f).format(design=design, tmp=tmp) for f in flags]
    assert run([command, *flags, "--seed", "1", "--out", tmp / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: chardir {command} "), err
    assert f"chardir {command}: error: " in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("value", ["0", "-3", "1.5", "nan", "abc"])
@pytest.mark.parametrize("command,flag", [("ttest", "--fdr"), ("enrich", "--fdr"),
                                          ("chdir", "--alpha")])
def test_bad_fraction_is_usage_error_before_any_file_is_read(
    toy, capsys, monkeypatch, command, flag, value
):
    import chardir.cli

    for reader in ("parse_design_tsv", "_read_expression_file", "parse_gmt"):
        monkeypatch.setattr(chardir.cli, reader, lambda *args, **kwargs: pytest.fail("read"))
    expr, design, tmp = toy
    if command == "enrich":
        inputs = ["--genes", design, "--universe", design, "--gmt", design]
    else:
        inputs = ["--expression", expr, "--design", design]
    out = tmp / "out"
    assert run([command, *inputs, f"{flag}={value}", "--seed", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: chardir {command} "), err
    assert (f"chardir {command}: error: argument {flag}: expected a number in (0, 1], "
            f"got {value!r}\n") in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,expected", [
    ("--epsilon", "7", "a number in [0, 1)"),
    ("--epsilon", "1", "a number in [0, 1)"),
    ("--epsilon", "-0.5", "a number in [0, 1)"),
    ("--epsilon", "nan", "a number in [0, 1)"),
    ("--max-components", "-4", "an integer >= 1"),
    ("--max-components", "0", "an integer >= 1"),
    ("--max-components", "2.5", "an integer >= 1"),
])
@pytest.mark.parametrize("command", [["chdir", "--method", "lr1"], ["chdir", "--method", "np1"],
                                     ["project"]])
def test_bad_pca_flag_is_usage_error_for_every_method(toy, capsys, command, flag, value, expected):
    expr, design, tmp = toy
    out = tmp / "out"
    assert run([*command, "--expression", expr, "--design", design, f"{flag}={value}",
                "--seed", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"chardir {command[0]}: error: argument {flag}: expected {expected}, got {value!r}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2", "1.5"])
@pytest.mark.parametrize("command,flag", [("project", "--depth"), ("profile", "--window"),
                                          ("profile", "--universe")])
def test_count_below_one_is_usage_error_before_any_file_is_read(
    toy, capsys, monkeypatch, command, flag, value
):
    import chardir.cli

    for reader in ("parse_design_tsv", "_read_expression_file", "_read_associations",
                   "_read_gene_lines"):
        monkeypatch.setattr(chardir.cli, reader, lambda *args, **kwargs: pytest.fail("read"))
    expr, design, tmp = toy
    if command == "profile":
        args = {"--associations": design, "--significant": design, "--window": "1",
                "--universe": "10"}
    else:
        args = {"--expression": expr, "--design": design}
    args[flag] = value
    out = tmp / "out"
    assert run([command, *(f"{k}={v}" for k, v in args.items()), "--seed", "1",
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: chardir {command} "), err
    assert (f"chardir {command}: error: argument {flag}: expected an integer >= 1, "
            f"got {value!r}\n") in err
    assert not out.exists()


@pytest.mark.parametrize("command,flags,names", [
    ("chdir", ["--expression", "{expr}", "--design", "{design}"], ["ranked_genes.tsv"]),
    ("ttest", ["--expression", "{expr}", "--design", "{design}"], ["welch_results.tsv"]),
    ("enrich", ["--genes", "{tmp}/genes.txt", "--universe", "{tmp}/universe.txt",
                "--gmt", "{tmp}/sets.gmt"], ["enrichment.tsv"]),
    ("profile", ["--associations", "{tmp}/assoc.tsv", "--significant", "{tmp}/genes.txt",
                 "--window", "1", "--universe", "10"], ["profile.tsv"]),
    ("project", ["--expression", "{expr}", "--design", "{design}"],
     ["projection.tsv", "density.tsv", "pca.tsv"]),
    ("simulate", ["--n-genes", "20", "--samples-per-class", "3"],
     ["expression.tsv", "design.tsv", "truth.gmt"]),
    ("benchmark", ["--n-genes", "20", "--sizes", "3", "--runs", "1", "--roc-samples", "3"],
     ["sweep.tsv", "roc.tsv"]),
])
def test_summary_line_names_every_output(toy, capsys, command, flags, names):
    expr, design, tmp = toy
    (tmp / "genes.txt").write_text("GA\n")
    (tmp / "universe.txt").write_text("GA\nGB\n")
    (tmp / "sets.gmt").write_text("HIT\tdesc\tGA\n")
    (tmp / "assoc.tsv").write_text("GA\t1\nGB\t2\n")
    flags = [f.format(expr=expr, design=design, tmp=tmp) for f in flags]
    out = tmp / "out"
    assert run([command, *flags, "--seed", "1", "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("; wrote " + ", ".join(str(out / name) for name in names)), lines
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])


class TestProfileCommand:
    def test_profile_output(self, tmp_path):
        assoc = tmp_path / "assoc.tsv"
        assoc.write_text(
            "gene_id\tdistance\n"
            + "".join(f"G{i}\t{i * 10}.0\n" for i in range(12))
        )
        sig = tmp_path / "sig.txt"
        sig.write_text("G0\nG1\nG2\n")
        out = tmp_path / "out"
        assert run(
            ["profile", "--associations", assoc, "--significant", sig,
             "--window", "3", "--universe", "100", "--seed", "1", "--out", out]
        ) == 0
        lines = (out / "profile.tsv").read_text().splitlines()
        assert lines[0] == "mean_distance\tminus_log10_p"
        assert len(lines) - 1 == 12 - 3 + 1
        first_mean, first_logp = (float(v) for v in lines[1].split("\t"))
        assert first_mean == pytest.approx(10.0)
        expected_p = exact_hypergeom_tail(3, 3, 3, 100)
        assert first_logp == pytest.approx(-math.log10(expected_p), rel=1e-9)

    def test_far_tail_windows_are_finite_and_exact(self, tmp_path):
        # G1..G400 at distances 1..400 with G1..G300 significant: window i
        # (from 0) overlaps the significant set in 300 - i genes, and the
        # p-values of 100 of the 101 windows underflow a double.
        assoc = tmp_path / "assoc.tsv"
        assoc.write_text("".join(f"G{i}\t{i}\n" for i in range(1, 401)))
        sig = tmp_path / "sig.txt"
        sig.write_text("".join(f"G{i}\n" for i in range(1, 301)))
        out = tmp_path / "out"
        assert run(
            ["profile", "--associations", assoc, "--significant", sig,
             "--window", "300", "--universe", "20000", "--seed", "1", "--out", out]
        ) == 0
        rows = read_rows(out / "profile.tsv")
        assert len(rows) == 101
        den = math.comb(20000, 300)
        num = 0
        for i in range(101):  # overlap k = 300 - i: each window adds one tail term
            k = 300 - i
            num += math.comb(300, k) * math.comb(19700, 300 - k)
            exact = -(math.log(num) - math.log(den)) / math.log(10)
            cell = rows[i]["minus_log10_p"]
            assert cell != "inf" and abs(float(cell) - exact) <= 1e-9, (i, cell, exact)

    def profile_run(self, tmp_path, associations):
        assoc = tmp_path / "assoc.tsv"
        assoc.write_text(associations)
        sig = tmp_path / "sig.txt"
        sig.write_text("G0\nG1\n")
        return run(
            ["profile", "--associations", assoc, "--significant", sig,
             "--window", "2", "--universe", "100", "--seed", "1", "--out", tmp_path / "out"]
        )

    def test_header_after_comment_line(self, tmp_path):
        rows = "".join(f"G{i}\t{i * 10}.0\n" for i in range(5))
        assert self.profile_run(tmp_path, "# tss\ngene_id\tdistance\n" + rows) == 0
        with_header = (tmp_path / "out" / "profile.tsv").read_bytes()
        assert self.profile_run(tmp_path, rows) == 0
        assert (tmp_path / "out" / "profile.tsv").read_bytes() == with_header
        assert len(with_header.splitlines()) == 1 + 5 - 2 + 1

    def test_non_numeric_distance_names_line_and_column(self, tmp_path, capsys):
        code = self.profile_run(tmp_path, "gene_id\tdistance\n\nG0\t1.0\nG1\tx7\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "assoc.tsv: line 4, column 2: non-numeric distance 'x7'" in err

    def test_infinite_distance_names_line_and_column(self, tmp_path, capsys):
        code = self.profile_run(tmp_path, "G0\t1.0\nG1\tinf\nG2\t2.0\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "assoc.tsv: line 2, column 2: invalid distance 'inf'" in err

    def test_negative_distance_names_line_and_column(self, tmp_path, capsys):
        code = self.profile_run(tmp_path, "# tss\nG0\t1.0\nG1\t5.0\nG2\t-3\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "assoc.tsv: line 4, column 2: invalid distance '-3'" in err

    def test_empty_gene_id_names_line_and_column(self, tmp_path, capsys):
        code = self.profile_run(tmp_path, "gene_id\tdistance\nG0\t1.0\n\t5\nG1\t2.0\n")
        assert code == 1
        assert "assoc.tsv: line 3, column 1: empty gene id" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_window_with_p_one_prints_zero_not_negative_zero(self, tmp_path):
        # Windows past G0 and G1 hold no significant gene: p = 1 exactly.
        rows = "".join(f"G{i}\t{i}\n" for i in range(6))
        assert self.profile_run(tmp_path, rows) == 0
        cells = [r["minus_log10_p"] for r in read_rows(tmp_path / "out" / "profile.tsv")]
        assert cells[-3:] == ["0.0", "0.0", "0.0"]
        assert "-0.0" not in cells

    def test_associations_read_holds_one_chunk_of_lines(self, tmp_path):
        # Ten chunks: the whole file's lines and cells as strings would be
        # about four times the ids and distances read.
        path = tmp_path / "assoc.tsv"
        n = 10 * _CHUNK_ROWS
        path.write_text("gene_id\tdistance\n" + "".join(f"gene{i:05d}\t{i * 37}\n" for i in range(n)))
        tracemalloc.start()
        try:
            genes, distances = _read_associations(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert genes == [f"GENE{i:05d}" for i in range(n)]
        assert distances.tolist() == [float(i * 37) for i in range(n)]
        assert peak < 2 * held

    @pytest.mark.parametrize("row", [_CHUNK_ROWS - 1, _CHUNK_ROWS])
    @pytest.mark.parametrize("cell,message", [
        ("x7", ", column 2: non-numeric distance 'x7'"),
        ("-3", ", column 2: invalid distance '-3'"),
        ("1\t2", ": expected gene_id and distance"),
    ])
    def test_fault_at_a_chunk_boundary_names_its_line(self, tmp_path, row, cell, message):
        # Data row ``row`` (from 0) is the last of the first chunk or the
        # first of the second; a later row's fault is not the one raised.
        cells = [str(i) for i in range(2 * _CHUNK_ROWS)]
        cells[row], cells[row + 5] = cell, "y"
        path = tmp_path / "assoc.tsv"
        path.write_text("# tss\ngene_id\tdistance\n"
                        + "".join(f"G{i}\t{c}\n" for i, c in enumerate(cells)))
        with pytest.raises(ValueError) as raised:
            _read_associations(path)
        assert str(raised.value) == f"{path}: line {row + 3}{message}"

    def test_more_significant_genes_than_universe_is_analysis_error(self, tmp_path, capsys):
        assoc = tmp_path / "assoc.tsv"
        assoc.write_text("A\t1\nB\t2\nC\t3\n")
        sig = tmp_path / "sig.txt"
        sig.write_text("A\nB\nC\nD\nE\n")
        code = run(["profile", "--associations", assoc, "--significant", sig,
                    "--window", "2", "--universe", "4", "--seed", "1", "--out", tmp_path / "out"])
        assert code == 1
        assert "more distinct significant genes than the universe" in capsys.readouterr().err


class TestProjectCommand:
    def test_projection_files(self, toy):
        expr, design, tmp = toy
        out = tmp / "out"
        assert run(
            ["project", "--expression", expr, "--design", design,
             "--depth", "2", "--seed", "1", "--out", out]
        ) == 0
        proj = read_rows(out / "projection.tsv")
        assert set(proj[0]) == {"sample_id", "class", "cd1", "cd2"}
        cd1 = {r["sample_id"]: float(r["cd1"]) for r in proj}
        class1 = [cd1[s] for s in ("c1", "c2", "c3")]
        class2 = [cd1[s] for s in ("t1", "t2", "t3")]
        assert max(class1) < min(class2)

        dens = (out / "density.tsv").read_text().splitlines()
        assert dens[0] == "grid_x\tdensity_class1\tdensity_class2"
        assert len(dens) == 1 + 256

        pca = read_rows(out / "pca.tsv")
        assert set(pca[0]) == {"sample_id", "class", "pc1", "pc2"}

    @pytest.mark.parametrize("bandwidth", ["nan", "inf", "-inf", "abc", "0", "-1"])
    def test_bad_bandwidth_is_usage_error_before_the_parse(
        self, toy, capsys, monkeypatch, bandwidth
    ):
        import chardir.cli

        monkeypatch.setattr(chardir.cli, "_read_expression_file",
                            lambda *args, **kwargs: pytest.fail("the table was parsed"))
        expr, design, tmp = toy
        out = tmp / "out"
        assert run(
            ["project", "--expression", expr, "--design", design,
             f"--bandwidth={bandwidth}", "--seed", "1", "--out", out]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: chardir project "), err
        assert ("chardir project: error: argument --bandwidth: expected 'auto' or a positive "
                f"finite number, got {bandwidth!r}\n") in err
        assert not out.exists()

    def test_numeric_bandwidth_is_used_and_recorded_as_given(self, toy):
        expr, design, tmp = toy
        out = tmp / "out"
        assert run(
            ["project", "--expression", expr, "--design", design,
             "--bandwidth", "0.25", "--seed", "1", "--out", out]
        ) == 0
        grid = np.loadtxt(out / "density.tsv", skiprows=1)[:, 0]
        coords = [float(r["cd1"]) for r in read_rows(out / "projection.tsv")]
        assert grid[0] == pytest.approx(min(coords) - 3 * 0.25)
        assert json.loads((out / "manifest.json").read_text())["parameters"]["bandwidth"] == "0.25"

    @pytest.mark.parametrize("fixture", ["shift 3", "shift 300", "in range"])
    def test_density_columns_integrate_to_one_with_more_genes_than_samples(
        self, tmp_path, fixture
    ):
        # With p > n the level-1 coordinates are constant within each class
        # up to rounding, so the automatic bandwidth must take the fallback.
        # At shift 300 the classes sit far apart on the shared grid; "in
        # range" repeats one column as class 2, whose coordinates fall inside
        # class 1's range, between grid points far more than a bandwidth apart.
        if fixture == "in range":
            rng = np.random.default_rng(5)
            values = np.hstack([1e5 * rng.standard_normal((3, 6)),
                                np.repeat(1e4 * rng.standard_normal((3, 1)), 6, axis=1)])
        else:
            rng = np.random.default_rng(13)
            values = rng.standard_normal((200, 8))
            values[:20, 4:] += float(fixture.split()[1])
        expr, design = write_two_class(tmp_path, values, values.shape[1] // 2)
        out = tmp_path / "out"
        assert run(
            ["project", "--expression", expr, "--design", design,
             "--depth", "1", "--seed", "1", "--out", out]
        ) == 0
        dens = np.loadtxt(out / "density.tsv", skiprows=1)
        for column in (1, 2):
            assert np.trapezoid(dens[:, column], dens[:, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_density_fallback_is_reported_on_stderr(self, tmp_path, capsys):
        # With more genes than samples cd1 piles each class onto one point,
        # so both classes take the fallback bandwidth; a bandwidth given on
        # the command line takes none, and the tables do not change.
        values = np.random.default_rng(3).standard_normal((8, 6))
        values[:2, 3:] += 2.0
        expr, design = write_two_class(tmp_path, values, 3)
        expected = {"auto": [f"chardir project: warning: class {label} density: zero spread: "
                             "fell back to fixed bandwidth 1.0" for label in (1, 2)],
                    "1.0": []}
        for bandwidth, warnings in expected.items():
            out = tmp_path / bandwidth
            assert run(["project", "--expression", expr, "--design", design, "--bandwidth",
                        bandwidth, "--seed", "1", "--out", out]) == 0
            assert capsys.readouterr().err.splitlines() == warnings
        for table in ("projection.tsv", "density.tsv", "pca.tsv"):
            assert (tmp_path / "auto" / table).read_bytes() == (tmp_path / "1.0" / table).read_bytes()

    @pytest.mark.parametrize("fixture", ["spread", "dominated"])
    def test_pca_scores_match_covariance_eigendecomposition(self, tmp_path, fixture):
        if fixture == "dominated":
            # The first component holds all but about 1e-6 of the variance,
            # yet a second axis exists, and pc2 must be its score.
            rng = np.random.default_rng(3)
            values = 100 * np.outer(rng.standard_normal(200), rng.standard_normal(8))
            values += 0.1 * rng.standard_normal((200, 8))
            values[:10, 4:] += 0.5
        else:
            rng = np.random.default_rng(17)
            values = rng.standard_normal((30, 9)) * np.linspace(3.0, 0.5, 30)[:, None]
            values[:5, 4:] += 2.0
        expr, design = write_two_class(tmp_path, values, 4)
        out = tmp_path / "out"
        assert run(
            ["project", "--expression", expr, "--design", design,
             "--depth", "2", "--seed", "1", "--out", out]
        ) == 0
        rows = read_rows(out / "pca.tsv")
        n2 = values.shape[1] - 4
        assert [r["sample_id"] for r in rows] == [*(f"c{j}" for j in range(4)),
                                                  *(f"t{j}" for j in range(n2))]
        _, eigvecs = covariance_eigendecomposition(values)
        centred = values - values.mean(axis=1, keepdims=True)
        for k in range(2):
            got = np.array([float(r[f"pc{k + 1}"]) for r in rows])
            want = eigvecs[:, k] @ centred
            gap = min(np.abs(got - want).max(), np.abs(got + want).max())
            assert gap <= 1e-10 * np.abs(want).max()

    def test_one_gene_space_svd_per_run(self, tmp_path, monkeypatch):
        # The hierarchy and the PCA view share one factorisation.
        rng = np.random.default_rng(18)
        values = rng.standard_normal((40, 9))
        values[:, 4:] += rng.standard_normal(40)[:, None]
        expr, design = write_two_class(tmp_path, values, 4)
        rows = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert run(
            ["project", "--expression", expr, "--design", design,
             "--depth", "3", "--seed", "1", "--out", tmp_path / "out"]
        ) == 0
        assert rows.count(40) == 1

    def test_outputs_independent_of_blas_thread_variable(self, tmp_path):
        # A full-rank 20,000 x 10+10 pooled matrix: large enough that
        # OpenBLAS splits its products over threads when it may.
        rng = np.random.default_rng(23)
        values = rng.standard_normal((20000, 20)) * rng.uniform(0.5, 3.0, (20000, 1))
        values += rng.uniform(2.0, 12.0, (20000, 1))
        values[:400, 10:] += 2.0
        expr, design = write_two_class(tmp_path, values, 10)
        outputs = []
        for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "chardir.cli", "project", "--expression", str(expr),
                 "--design", str(design), "--depth", "3", "--seed", "1", "--out", str(out)],
                env=env_without_thread_variables(**extra),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / t).read_bytes()
                            for t in ("projection.tsv", "pca.tsv", "density.tsv")])
        assert outputs[0] == outputs[1]


class TestWorkingSet:
    @pytest.mark.parametrize("command,bound", [("chdir", 2.3), ("ttest", 3.0)])
    def test_traced_peak_after_the_parse(self, tmp_path, monkeypatch, command, bound):
        # The command keeps one class-ordered copy of the samples, frees the
        # parsed table before the fit and screens in row blocks. The peak
        # traced allocation after the parse, over the parsed values' bytes,
        # reads 1.6 (chdir) and 1.8 (ttest) on this table; a run that keeps
        # the parsed table beside a copy of each class reads 3.1 and 4.3.
        # The first run parses the table and stores it in the parse cache,
        # the second loads it from there; both are held to the bound.
        import chardir.cli

        sim = tmp_path / "sim"
        assert run(["simulate", "--n-genes", "8192", "--samples-per-class", "10",
                    "--seed", "3", "--out", sim]) == 0
        read, after = chardir.cli._read_expression_file, {}

        def read_then_reset_peak(*args, **kwargs):
            matrix, digest = read(*args, **kwargs)
            after.update(held=tracemalloc.get_traced_memory()[0], nbytes=matrix.values.nbytes)
            tracemalloc.reset_peak()
            return matrix, digest

        monkeypatch.setattr(chardir.cli, "_read_expression_file", read_then_reset_peak)
        for run_index in range(2):
            tracemalloc.start()
            try:
                code = run([command, "--expression", sim / "expression.tsv",
                            "--design", sim / "design.tsv", "--out", tmp_path / f"out{run_index}"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert (peak - after["held"]) / after["nbytes"] < bound, run_index
        assert len(cache_entries()) == 1


class TestExpressionCache:
    """The parse cache behind ``chdir``, ``ttest`` and ``project``: a warm run
    loads the table the cold run stored and writes the same bytes."""

    COMMANDS = {
        "chdir_lr1": ["chdir", "--method", "lr1"],
        "chdir_np1": ["chdir", "--method", "np1"],
        "ttest": ["ttest"],
        "project": ["project", "--depth", "3"],
    }

    @staticmethod
    def outputs(argv, out):
        """Run ``argv`` into a fresh ``out``: its exit code and its files' bytes."""
        shutil.rmtree(out, ignore_errors=True)
        code = run([*argv, "--seed", "1", "--out", out])
        return code, {f.name: f.read_bytes() for f in sorted(out.glob("*"))}

    @staticmethod
    def count_parses(monkeypatch):
        """The list that gets one item per parse of an expression table."""
        parse, parses = chardir.data.parse_expression_tsv, []
        monkeypatch.setattr(chardir.data, "parse_expression_tsv",
                            lambda *args, **kwargs: parses.append(1) or parse(*args, **kwargs))
        return parses

    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
    def test_warm_run_writes_the_cold_runs_bytes_without_a_parse(self, tmp_path, monkeypatch,
                                                                 command):
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-genes", "300", "--samples-per-class", "5",
                    "--seed", "2", "--out", sim]) == 0
        argv = [*command, "--expression", sim / "expression.tsv", "--design", sim / "design.tsv"]
        parses = self.count_parses(monkeypatch)
        cold = self.outputs(argv, tmp_path / "out")
        assert cold[0] == 0 and len(cold[1]) > 1 and parses == [1]
        assert self.outputs(argv, tmp_path / "out") == cold
        assert parses == [1] and len(cache_entries()) == 1

    def test_entry_and_its_directory_are_private(self, toy):
        _read_expression_file(toy[0], True, 1.0)
        [entry] = cache_entries()
        assert entry.parent.stat().st_mode & 0o077 == 0
        assert entry.stat().st_mode & 0o077 == 0

    def test_parse_options_give_distinct_entries(self, toy, monkeypatch):
        expr, design, tmp = toy
        variants = [[], ["--log2-transform"], ["--log2-transform", "--pseudocount", "3"]]
        argvs = [["chdir", "--expression", expr, "--design", design, *v] for v in variants]
        cold = [self.outputs(argv, tmp / "out") for argv in argvs]
        assert [code for code, _ in cold] == [0, 0, 0] and len(cache_entries()) == 3
        parses = self.count_parses(monkeypatch)
        assert [self.outputs(argv, tmp / "out") for argv in argvs] == cold
        assert parses == []

    def test_ids_that_differ_by_a_trailing_nul_survive_a_warm_read(self, tmp_path, monkeypatch):
        path = tmp_path / "expr.tsv"
        path.write_text("gene_id\ts1\ts1\x00\nG1\x00\t1\t2\nG1\t3\t4\n")
        cold, _ = _read_expression_file(path, True, 1.0)
        assert cold.gene_ids == ("G1\x00", "G1") and cold.sample_ids == ("s1", "s1\x00")
        parses = self.count_parses(monkeypatch)
        warm, _ = _read_expression_file(path, True, 1.0)
        assert parses == [] and (warm.gene_ids, warm.sample_ids) == (cold.gene_ids, cold.sample_ids)
        assert warm.values.tobytes() == cold.values.tobytes()

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "one_array",
                                        "zip_archive", "duplicate_gene_ids", "wrong_shape"])
    def test_damaged_entry_is_a_miss_and_is_rewritten(self, toy, monkeypatch, damage):
        expr, design, tmp = toy
        argv = ["chdir", "--expression", expr, "--design", design]
        cold = self.outputs(argv, tmp / "out")
        [entry] = cache_entries()
        good = entry.read_bytes()
        ids = lambda text: np.frombuffer(text.encode(), np.uint8)
        samples = ids("c1\tc2\tc3\tt1\tt2\tt3")
        if damage == "truncated":
            entry.write_bytes(good[: len(good) // 2])
        elif damage == "garbage":
            entry.write_bytes(b"not an entry\n" * 10)
        elif damage == "empty":
            entry.write_bytes(b"")
        elif damage == "one_array":
            np.save(entry, ids("GA\tGB"))
        elif damage == "zip_archive":
            np.savez(entry, genes=ids("GA\tGB"), samples=samples, values=np.zeros((2, 6)))
            entry.with_suffix(".npy.npz").replace(entry)
        else:
            genes, shape = ("GA\tGA", (2, 6)) if damage == "duplicate_gene_ids" else ("GA\tGB", (3, 6))
            with open(entry, "wb") as handle:
                for array in (ids(genes), samples, np.zeros(shape)):
                    np.save(handle, array)
        parses = self.count_parses(monkeypatch)
        assert self.outputs(argv, tmp / "out") == cold
        assert parses == [1] and cache_entries() == [entry]
        assert self.outputs(argv, tmp / "out") == cold
        assert parses == [1]

    def test_unwritable_cache_location_runs_uncached_and_silently(self, toy, capsys, monkeypatch):
        expr, design, tmp = toy
        argv = ["chdir", "--expression", expr, "--design", design]
        cold = self.outputs(argv, tmp / "out")
        capsys.readouterr()
        regular_file = tmp / "cache_home"
        regular_file.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(regular_file))
        parses = self.count_parses(monkeypatch)
        for _ in range(2):
            assert self.outputs(argv, tmp / "out") == cold
            assert capsys.readouterr().err == ""
        assert parses == [1, 1] and regular_file.read_text() == ""

    def test_relative_cache_location_neither_reads_nor_writes(self, toy, monkeypatch):
        expr, design, tmp = toy
        argv = ["ttest", "--expression", expr, "--design", design]
        cold = self.outputs(argv, tmp / "out")
        [entry] = cache_entries()
        monkeypatch.chdir(tmp)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        parses = self.count_parses(monkeypatch)
        assert self.outputs(argv, tmp / "out") == cold
        assert parses == [1] and not (tmp / "relative").exists()
        # A valid entry where the relative location would find it is not read.
        planted = tmp / "relative" / "chardir" / entry.name
        planted.parent.mkdir(parents=True)
        shutil.copy(entry, planted)
        assert self.outputs(argv, tmp / "out") == cold
        assert parses == [1, 1] and list(planted.parent.iterdir()) == [planted]

    def test_entry_that_cannot_be_touched_still_serves(self, toy, monkeypatch):
        _read_expression_file(toy[0], True, 1.0)

        def refuse(*args, **kwargs):
            raise PermissionError("read-only file system")

        monkeypatch.setattr(os, "utime", refuse)
        parses = self.count_parses(monkeypatch)
        _read_expression_file(toy[0], True, 1.0)
        assert parses == [] and len(cache_entries()) == 1

    def test_unreadable_parser_module_runs_uncached(self, toy, capsys, monkeypatch):
        expr, design, tmp = toy
        argv = ["chdir", "--expression", expr, "--design", design]
        monkeypatch.setattr(chardir.data, "__file__", str(tmp / "missing.py"))
        parses = self.count_parses(monkeypatch)
        cold = self.outputs(argv, tmp / "out")
        assert cold[0] == 0 and capsys.readouterr().err == ""
        assert self.outputs(argv, tmp / "out") == cold
        assert parses == [1, 1] and cache_entries() == []

    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_log_scale_runs_share_an_entry_and_a_bad_pseudocount_still_fails(
        self, toy, capsys, monkeypatch, bad
    ):
        expr, design, tmp = toy
        argv = ["chdir", "--expression", expr, "--design", design]
        tables = lambda files: {k: v for k, v in files.items() if k != "manifest.json"}
        code, cold = self.outputs(argv, tmp / "out")
        parses = self.count_parses(monkeypatch)
        code3, warm = self.outputs([*argv, "--pseudocount", "3"], tmp / "out")
        assert code == code3 == 0 and tables(warm) == tables(cold)
        assert parses == [] and len(cache_entries()) == 1
        capsys.readouterr()
        assert run([*argv, "--pseudocount", bad, "--out", tmp / "bad"]) == 2
        message = f"argument --pseudocount: expected a nonnegative finite number, got {bad!r}"
        assert message in capsys.readouterr().err
        assert parses == [] and len(cache_entries()) == 1

    def test_expression_file_is_hashed_once_on_a_hit_and_twice_on_a_miss(self, toy,
                                                                        monkeypatch):
        expr, design, tmp = toy
        sha256, hashed = chardir.data._sha256, []
        monkeypatch.setattr(chardir.data, "_sha256",
                            lambda path: hashed.append(Path(path)) or sha256(path))
        monkeypatch.setattr(chardir.cli, "_sha256", chardir.data._sha256)
        argv = ["chdir", "--expression", expr, "--design", design]
        for times in (2, 1):
            hashed.clear()
            code, files = self.outputs(argv, tmp / "out")
            assert code == 0 and hashed.count(expr) == times
            digests = json.loads(files["manifest.json"])["input_digests"]
            assert digests["expression"] == hashlib.sha256(expr.read_bytes()).hexdigest()
            assert hashed.count(design) == 1

    def test_entries_stay_within_the_byte_bound(self, tmp_path, monkeypatch):
        paths = []
        for i in range(4):
            paths.append(tmp_path / f"expr{i}.tsv")
            paths[-1].write_text(f"gene_id\ts1\ts2\nGA\t{i}\t1\n")
        _read_expression_file(paths[0], True, 1.0)
        [first] = cache_entries()
        size = first.stat().st_size
        monkeypatch.setattr(chardir.data, "_CACHE_BYTES", 2 * size + size // 2)
        entry_of = {0: first}
        os.utime(first, ns=(10**9, 10**9))
        for i in (1, 2, 3):
            before = set(cache_entries())
            _read_expression_file(paths[i], True, 1.0)
            [entry_of[i]] = set(cache_entries()) - before
            os.utime(entry_of[i], ns=((i + 1) * 10**9,) * 2)
            assert sum(e.stat().st_size for e in cache_entries()) <= 2 * size + size // 2
        assert cache_entries() == sorted([entry_of[2], entry_of[3]])

    def test_table_above_the_byte_bound_is_not_written(self, toy, monkeypatch):
        matrix, _ = _read_expression_file(toy[0], False, 1.0)
        monkeypatch.setattr(chardir.data, "_CACHE_BYTES", matrix.values.nbytes - 1)
        monkeypatch.setattr(chardir.data.tempfile, "mkstemp",
                            lambda *args, **kwargs: pytest.fail("an entry was written"))
        assert len(cache_entries()) == 1
        _read_expression_file(toy[0], True, 1.0)
        assert len(cache_entries()) == 1

    def test_failed_write_leaves_no_file(self, toy, monkeypatch):
        save = np.save

        def save_then_fail(file, array):
            save(file, array)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "save", save_then_fail)
        matrix, _ = _read_expression_file(toy[0], True, 1.0)
        assert matrix.gene_ids == ("GA", "GB")
        cache = Path(os.environ["XDG_CACHE_HOME"], "chardir")
        assert cache.is_dir() and list(cache.iterdir()) == []

    @pytest.mark.parametrize("table,flags,message", [
        (TOY_EXPRESSION + "GC\t0\t0\t0\tx\t5\t5\n", [], "row 4, column 5: non-numeric value 'x'"),
        (TOY_EXPRESSION + "GC\t-4\t0\t0\t0\t0\t0\n", ["--log2-transform", "--pseudocount", "3"],
         "row 4, column 2: value -4.0 not positive after pseudocount 3.0"),
    ], ids=["non_numeric", "below_pseudocount"])
    def test_failing_table_leaves_no_entry(self, tmp_path, capsys, table, flags, message):
        expr = tmp_path / "expr.tsv"
        expr.write_text(table)
        design = tmp_path / "design.tsv"
        design.write_text(TOY_DESIGN)
        errors = []
        for _ in range(2):
            code = run(["chdir", "--expression", expr, "--design", design, *flags,
                        "--out", tmp_path / "out"])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"chardir chdir: error: {message}\n"
        assert cache_entries() == []

    def test_at_most_eight_entries_stay_the_least_recently_used_go(self, tmp_path):
        paths = []
        for i in range(10):
            paths.append(tmp_path / f"expr{i}.tsv")
            paths[-1].write_text(f"gene_id\ts1\ts2\nGA\t{i}\t1\n")
        # Each new entry's time is set to its place in the sequence, so the
        # order does not rest on the file system's timestamp resolution; a
        # hit stamps its entry with the present, later than every such time.
        entry_of, stamp = {}, count(1)
        for i in [*range(8), 0, 8, 9]:
            before = set(cache_entries())
            _read_expression_file(paths[i], True, 1.0)
            if new := set(cache_entries()) - before:
                [entry_of[i]] = new
                os.utime(entry_of[i], ns=(next(stamp) * 10**9,) * 2)
            assert len(cache_entries()) <= 8
        assert cache_entries() == sorted(entry_of[i] for i in (0, 3, 4, 5, 6, 7, 8, 9))

    def test_an_edit_to_the_parser_module_changes_the_key(self, toy, tmp_path, monkeypatch):
        expr = toy[0]
        _read_expression_file(expr, True, 1.0)
        source = chardir.data.__file__
        edited = tmp_path / "data.py"
        edited.write_bytes(Path(source).read_bytes() + b"# edited\n")
        monkeypatch.setattr(chardir.data, "__file__", str(edited))
        parses = self.count_parses(monkeypatch)
        _read_expression_file(expr, True, 1.0)
        assert parses == [1] and len(cache_entries()) == 2
        monkeypatch.setattr(chardir.data, "__file__", source)
        _read_expression_file(expr, True, 1.0)
        assert parses == [1]

    def test_the_encoding_the_table_is_decoded_with_is_in_the_key(self, toy):
        read = f"from chardir.data import _read_expression_file as r; r({str(toy[0])!r}, True, 1.0)"
        for utf8 in ("0", "1"):  # under the C locale: ASCII, then UTF-8
            proc = subprocess.run([sys.executable, "-c", read], capture_output=True, text=True,
                                  env={**os.environ, "LC_ALL": "C", "PYTHONUTF8": utf8})
            assert proc.returncode == 0, proc.stderr
        assert len(cache_entries()) == 2

    def test_table_changed_during_the_parse_is_not_stored(self, toy, monkeypatch):
        expr = toy[0]
        parse = chardir.data.parse_expression_tsv

        def parse_then_edit(*args, **kwargs):
            matrix = parse(*args, **kwargs)
            expr.write_text(TOY_EXPRESSION.replace("5.1", "5.2"))
            return matrix

        monkeypatch.setattr(chardir.data, "parse_expression_tsv", parse_then_edit)
        _read_expression_file(expr, True, 1.0)
        assert cache_entries() == []


class TestThreadPin:
    """``import chardir`` before numpy pins BLAS to one thread unless one
    of the thread variables is already set."""

    @staticmethod
    def thread_variables_after(statement, **extra):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import json, os; {statement}; "
             f"print(json.dumps([os.environ.get(v) for v in {THREAD_VARIABLES!r}]))"],
            env=env_without_thread_variables(**extra),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_sets_all_three(self):
        assert self.thread_variables_after("import chardir") == ["1", "1", "1"]

    def test_user_setting_is_kept_and_nothing_added(self):
        got = self.thread_variables_after("import chardir", OMP_NUM_THREADS="3")
        assert got == [None, "3", None]

    def test_numpy_loaded_first_leaves_all_unset(self):
        got = self.thread_variables_after("import numpy; import chardir")
        assert got == [None, None, None]


class TestPipeline:
    def test_simulate_chdir_enrich_end_to_end(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(
            ["simulate", "--n-genes", "60", "--samples-per-class", "6",
             "--seed", "21", "--out", sim]
        ) == 0
        ranked = tmp_path / "ranked"
        assert run(
            ["chdir", "--expression", sim / "expression.tsv",
             "--design", sim / "design.tsv", "--seed", "21", "--out", ranked]
        ) == 0
        enr = tmp_path / "enr"
        assert run(
            ["enrich", "--ranked", ranked / "ranked_genes.tsv",
             "--gmt", sim / "truth.gmt", "--seed", "21", "--out", enr]
        ) == 0
        rows = read_rows(enr / "enrichment.tsv")
        assert rows[0]["set_name"] == "TRUE_DE"
        assert 0.0 < float(rows[0]["p"]) < 1.0
        assert int(rows[0]["overlap"]) >= 1

    def test_benchmark_deterministic_across_runs_and_workers(self, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"bench{jobs}"
            assert run(
                ["benchmark", "--n-genes", "30", "--sizes", "3,4", "--runs", "4",
                 "--methods", "lr1,welch", "--roc-samples", "4", "--jobs", jobs,
                 "--seed", "5", "--out", out]
            ) == 0
            outputs.append(
                ((out / "sweep.tsv").read_bytes(), (out / "roc.tsv").read_bytes())
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("flag", ["--runs", "--jobs"])
    def test_benchmark_count_below_one_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bench"
        assert run(
            ["benchmark", "--n-genes", "30", "--sizes", "3", "--roc-samples", "3",
             "--runs", "2", flag, value, "--seed", "5", "--out", out]
        ) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected an integer >= 1, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--sizes", "3,x"), ("--sizes", "1"), ("--roc-samples", "1"), ("--methods", "lr1,foo"),
    ])
    def test_benchmark_flag_error_is_usage_error_before_any_run(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        import chardir.simulate

        monkeypatch.setattr(chardir.simulate, "generate", lambda spec: pytest.fail("a run started"))
        args = {"--sizes": "3,4", "--roc-samples": "3", "--methods": "lr1,welch", flag: value}
        out = tmp_path / "bench"
        assert run(
            ["benchmark", "--n-genes", "30", "--runs", "2", *chain(*args.items()),
             "--seed", "5", "--out", out]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: chardir benchmark "), err
        assert "chardir benchmark: error: " in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--sizes", "3,1", "--sizes: samples_per_class must be >= 2"),
        ("--sizes", "3,x", "--sizes: invalid literal for int() with base 10: 'x'"),
        ("--roc-samples", "1", "--roc-samples: samples_per_class must be >= 2"),
        ("--n-genes", "0", "n_genes must be >= 1"),
        ("--variance-scale", "nan", "variance_scale must be a finite number above 1"),
        ("--variance-scale", "inf", "variance_scale must be a finite number above 1"),
        ("--de-magnitude", "nan", "de_magnitude must be a finite nonnegative number"),
        ("--de-magnitude", "inf", "de_magnitude must be a finite nonnegative number"),
    ])
    def test_benchmark_size_error_names_its_flag(self, tmp_path, capsys, flag, value, message):
        args = {"--n-genes": "30", "--sizes": "3,4", "--roc-samples": "3", flag: value}
        out = tmp_path / "bench"
        assert run(
            ["benchmark", "--runs", "2", *chain(*args.items()), "--seed", "5", "--out", out]
        ) == 2
        assert capsys.readouterr().err.endswith(f"chardir benchmark: error: {message}\n")
        assert not out.exists()

    def test_benchmark_simulates_each_size_and_run_once(self, tmp_path, monkeypatch):
        import chardir.simulate

        generated = []
        original = chardir.simulate.generate

        def counting(spec):
            generated.append((spec.samples_per_class, spec.seed))
            return original(spec)

        monkeypatch.setattr(chardir.simulate, "generate", counting)
        assert run(
            ["benchmark", "--n-genes", "30", "--sizes", "3,5", "--runs", "3",
             "--methods", "lr1,welch", "--roc-samples", "5", "--jobs", "1",
             "--seed", "5", "--out", tmp_path / "bench"]
        ) == 0
        assert len(generated) == len(set(generated)) == 6

    def test_benchmark_repeated_sizes_and_methods_count_once(self, tmp_path):
        sweeps = []
        for sizes, methods in (("3,3,5", "lr1,welch,lr1"), ("3,5", "lr1,welch")):
            out = tmp_path / sizes
            assert run(
                ["benchmark", "--n-genes", "30", "--sizes", sizes, "--runs", "3",
                 "--methods", methods, "--roc-samples", "3", "--seed", "5", "--out", out]
            ) == 0
            sweeps.append((out / "sweep.tsv").read_bytes())
        assert sweeps[0] == sweeps[1]

    def test_config_file_provides_defaults(self, toy):
        expr, design, tmp = toy
        config = tmp / "run.cfg"
        config.write_text("alpha = 0.99\nmethod = lr1\n")
        out = tmp / "out"
        assert run(
            ["chdir", "--expression", expr, "--design", design,
             "--config", config, "--seed", "1", "--out", out]
        ) == 0
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert manifest["parameters"]["alpha"] == 0.99
        # Explicit flags win over the config file.
        out2 = tmp / "out2"
        assert run(
            ["chdir", "--expression", expr, "--design", design,
             "--config", config, "--alpha", "0.5", "--seed", "1", "--out", out2]
        ) == 0
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest2["parameters"]["alpha"] == 0.5

    def test_config_equals_spelling_applies_the_file(self, toy, capsys):
        expr, design, tmp = toy
        config = tmp / "cfg.txt"
        config.write_text("alpha = 0.9\n")
        out = tmp / "out"
        assert run(
            ["chdir", "--expression", expr, "--design", design,
             f"--config={config}", "--seed", "1", "--out", out]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["alpha"] == 0.9
        missing = tmp / "missing.cfg"
        assert run(
            ["chdir", "--expression", expr, "--design", design,
             f"--config={missing}", "--seed", "1", "--out", tmp / "out2"]
        ) == 2
        assert f"--config: file not found: {missing}" in capsys.readouterr().err

    def test_console_script_entry_point(self, toy):
        expr, design, tmp = toy
        out = tmp / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "chardir.cli", "chdir", "--expression",
             str(expr), "--design", str(design), "--seed", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "ranked_genes.tsv").exists()

    def test_cli_import_skips_scipy_integrate(self):
        """No scipy module at all, scipy.integrate included, after import."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, chardir.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_skips_process_pool(self):
        """The process pool is loaded only by ``benchmark --jobs`` above 1."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, chardir.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_p_value_commands_run_with_scipy_refused(self, tmp_path):
        """ttest, enrich --mode angle and benchmark under an import hook that
        refuses scipy write the same tables as an unrestricted run."""
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-genes", "40", "--samples-per-class", "4",
                    "--seed", "3", "--out", sim]) == 0
        assert run(["chdir", "--expression", sim / "expression.tsv", "--design",
                    sim / "design.tsv", "--seed", "3", "--out", tmp_path / "ranked"]) == 0
        commands = {
            "ttest": (["ttest", "--expression", sim / "expression.tsv",
                       "--design", sim / "design.tsv"], ["welch_results.tsv"]),
            "angle": (["enrich", "--ranked", tmp_path / "ranked" / "ranked_genes.tsv",
                       "--gmt", sim / "truth.gmt", "--mode", "angle"], ["enrichment.tsv"]),
            "benchmark": (["benchmark", "--n-genes", "30", "--sizes", "3,4", "--runs", "2",
                           "--methods", "lr1,welch", "--roc-samples", "3"],
                          ["sweep.tsv", "roc.tsv"]),
        }
        for name, (argv, tables) in commands.items():
            free, refused = tmp_path / f"{name}_free", tmp_path / f"{name}_refused"
            assert run([*argv, "--seed", "3", "--out", free]) == 0
            proc = subprocess.run(
                [sys.executable, "-c", REFUSE_SCIPY_LAUNCHER,
                 *map(str, argv), "--seed", "3", "--out", str(refused)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            for table in tables:
                assert (refused / table).read_bytes() == (free / table).read_bytes()

    def test_chdir_lr1_runs_without_scipy(self, toy):
        expr, design, tmp = toy
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "chardir.cli", "chdir",
             "--expression", str(expr), "--design", str(design), "--method", "lr1",
             "--seed", "1", "--out", str(tmp / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines() if line.startswith("import time:")]
        assert "numpy" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []

    def test_unseeded_run_prints_drawn_seed(self, tmp_path, capsys):
        assert run(
            ["simulate", "--n-genes", "20", "--samples-per-class", "3", "--out", tmp_path / "o"]
        ) == 0
        seed = json.loads((tmp_path / "o" / "manifest.json").read_text())["seed"]
        assert f"seed: {seed} (drawn" in capsys.readouterr().out

    def test_unseeded_deterministic_command_draws_no_seed(self, toy, capsys):
        expr, design, tmp = toy
        manifests = []
        for out in ("a", "b"):
            assert run(
                ["chdir", "--expression", expr, "--design", design, "--out", tmp / out]
            ) == 0
            assert "seed:" not in capsys.readouterr().out
            manifest = (tmp / out / "manifest.json").read_text()
            manifests.append(manifest.replace(str(tmp / out), "OUT"))
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["seed"] is None
