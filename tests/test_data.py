"""Tests for expression-matrix, design, and gene-set parsing."""

import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from chardir.data import (
    _CHUNK_ROWS,
    ExpressionDataError,
    ExpressionMatrix,
    GeneSet,
    GeneSetLibrary,
    TwoClassDesign,
    align_design,
    canonical_gene_id,
    matrix_to_tsv,
    parse_design_tsv,
    parse_expression_tsv,
    parse_gmt,
    write_table,
)

from oracles import parse_expression_rows, parse_gmt_lines, row_table


class TestParseExpression:
    def test_identity_passthrough(self):
        m = parse_expression_tsv("id\ts1\ts2\nG1\t1\t1\n", already_log=True)
        assert m.gene_ids == ("G1",)
        assert m.sample_ids == ("s1", "s2")
        np.testing.assert_array_equal(m.values, [[1.0, 1.0]])

    def test_log_transform_with_pseudocount(self):
        m = parse_expression_tsv("id\ts1\nG1\t3\n", already_log=False, pseudocount=1.0)
        assert m.values[0, 0] == 2.0  # log2(3 + 1)

    def test_duplicate_gene_keeps_larger_mean_abs(self):
        text = "id\ts1\ts2\nG1\t0.5\t0.5\nG2\t9\t9\nG1\t2\t2\n"
        m = parse_expression_tsv(text)
        assert m.gene_ids == ("G1", "G2")  # first-occurrence position kept
        np.testing.assert_array_equal(m.values[0], [2.0, 2.0])

    def test_gene_id_canonicalized(self):
        m = parse_expression_tsv("id\ts1\n g1 \t1\nG1\t5\n")
        assert m.gene_ids == ("G1",)
        assert m.values[0, 0] == 5.0

    def test_comment_lines_ignored(self):
        m = parse_expression_tsv("# note\nid\ts1\n# more\nG1\t1\n")
        assert m.gene_ids == ("G1",)

    def test_ragged_row_reports_location(self):
        with pytest.raises(ExpressionDataError, match="row 3"):
            parse_expression_tsv("id\ts1\ts2\nG1\t1\t2\nG2\t1\n")

    def test_non_numeric_cell_reports_location(self):
        with pytest.raises(ExpressionDataError, match="row 2, column 3"):
            parse_expression_tsv("id\ts1\ts2\nG1\t1\tx\n")

    def test_duplicate_sample_ids_rejected(self):
        with pytest.raises(ExpressionDataError, match="duplicate sample id"):
            parse_expression_tsv("id\ts1\ts1\nG1\t1\t2\n")

    def test_empty_matrix_rejected(self):
        with pytest.raises(ExpressionDataError, match="empty"):
            parse_expression_tsv("id\ts1\n")
        with pytest.raises(ExpressionDataError, match="empty"):
            parse_expression_tsv("")

    def test_nan_rejected_with_location(self):
        with pytest.raises(ExpressionDataError, match="row 2, column 2"):
            parse_expression_tsv("id\ts1\nG1\tnan\n")

    def test_negative_raw_value_rejected(self):
        message = "row 2, column 2: value -2.0 not positive after pseudocount 1.0"
        with pytest.raises(ExpressionDataError, match=f"^{re.escape(message)}$"):
            parse_expression_tsv("id\ts1\nG1\t-2\n", already_log=False, pseudocount=1.0)

    @pytest.mark.parametrize("pseudocount", [math.nan, math.inf, -1.0])
    def test_bad_pseudocount_is_named(self, pseudocount):
        message = f"pseudocount must be a nonnegative finite number, got {pseudocount!r}"
        with pytest.raises(ExpressionDataError, match=f"^{re.escape(message)}$"):
            parse_expression_tsv("id\ts1\nG1\t2\n", already_log=False, pseudocount=pseudocount)

    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(11)
        m = ExpressionMatrix(
            tuple(f"G{i}" for i in range(7)),
            tuple(f"s{j}" for j in range(4)),
            rng.standard_normal((7, 4)) * 100,
        )
        buf = io.StringIO()
        matrix_to_tsv(m, buf)
        again = parse_expression_tsv(buf.getvalue(), already_log=True)
        assert again.gene_ids == m.gene_ids
        assert again.sample_ids == m.sample_ids
        np.testing.assert_array_equal(again.values, m.values)

    def test_parse_holds_one_chunk_of_cells(self, tmp_path):
        # Four and a half chunks: the whole table's cells as strings would
        # be about 15 times the matrix.
        rng = np.random.default_rng(9)
        values = rng.standard_normal((4 * _CHUNK_ROWS + _CHUNK_ROWS // 2, 20))
        path = tmp_path / "expression.tsv"
        with open(path, "w") as out:
            matrix_to_tsv(ExpressionMatrix(
                tuple(f"G{i}" for i in range(len(values))),
                tuple(f"s{j}" for j in range(values.shape[1])),
                values,
            ), out)
        tracemalloc.start()
        try:
            with open(path) as handle:
                m = parse_expression_tsv(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.values.tobytes() == values.tobytes()
        assert peak < 6 * m.values.nbytes

    def test_reparse_is_deterministic(self):
        text = "id\ts1\ts2\nG1\t0.5\t0.5\nG1\t0.5\t-0.5\nG2\t1\t2\n"
        a = parse_expression_tsv(text)
        b = parse_expression_tsv(text)
        assert a.gene_ids == b.gene_ids
        np.testing.assert_array_equal(a.values, b.values)



def _wide_ties() -> str:
    """Wide rows (pairwise-summed means) with exact mean-|x| ties and a
    larger duplicate, plus a random block with repeated ids."""
    rng = np.random.default_rng(3)
    row = rng.normal(size=300)
    rows = [("GA", row), ("GB", row + 1.0), ("ga", row[::-1]), ("GA", -row),
            ("GB", row + 2.0), ("GC", row * 0.5)]
    ids = rng.integers(0, 40, size=120)
    rows += [(f"R{i}", v) for i, v in zip(ids, rng.normal(size=(120, 300)))]
    lines = ["id\t" + "\t".join(f"s{j}" for j in range(300))]
    lines += [gid + "\t" + "\t".join(map(repr, v.tolist())) for gid, v in rows]
    return "\n".join(lines) + "\n"


# Each entry is an expression table; the column-wise parser must agree with
# the row walk on ids, values (bit for bit) and error messages.
PARSER_BATTERY = {
    "plain": "id\ts1\ts2\nG1\t1\t2\nG2\t3.5\t-4e-3\n",
    "ragged_first": "id\ts1\ts2\nG1\t1\nG2\t1\t2\nG3\t1\t2\n",
    "ragged_middle": "id\ts1\ts2\nG1\t1\t2\nG2\t1\t2\t3\nG3\t1\t2\n",
    "ragged_last": "id\ts1\ts2\nG1\t1\t2\nG2\t1\t2\nG3\t1\n",
    "non_numeric": "id\ts1\ts2\nG1\t1\t2\nG2\t1\tx\n",
    "underscore_digits": "id\ts1\ts2\nG1\t1_0\t2\nG2\t3\t1_000.5\n",
    "double_underscore": "id\ts1\ts2\nG1\t1\t2\nG2\t1__0\t2\n",
    "arabic_indic_digit": "id\ts1\ts2\nG1\t\u0661\t2\n",
    "hex_rejected": "id\ts1\nG1\t0x10\n",
    "empty_cell": "id\ts1\ts2\nG1\t\t2\n",
    "form_feed_cell": "id\ts1\ts2\nG1\t\x0c1\t 1.5 \nG2\t\x0c\t2\n",
    "line_separators_in_id": "id\ts1\nG\u20281\t1\nG\x1c2\t2\nG\x0b3\t3\n",
    "crlf": "id\ts1\ts2\r\nG1\t1\t2\r\nG2\t3\t4\r\n",
    "crlf_fault": "id\ts1\ts2\r\nG1\t1\t2\r\nG2\t3\ty\r\n",
    "comments_and_blanks": "# a\n\n  \nid\ts1\n# b\n\nG1\t1\n  # c\nG2\tz\n",
    "nan": "id\ts1\ts2\nG1\t1\tnan\n",
    "inf": "id\ts1\ts2\nG1\t1\t2\nG2\t-inf\t2\n",
    "empty_gene_id": "id\ts1\nG1\t1\n  \t2\n",
    "header_only": "id\ts1\ts2\n",
    "empty": "",
    "comments_only": "# x\n\n",
    "header_without_samples": "# x\nid\nG1\n",
    "duplicate_sample": "id\ts1\ts1\nG1\t1\t2\n",
    "duplicate_ties": "id\ts1\ts2\nG1\t1\t-2\ng1\t-2\t1\nG2\t0\t0\n G1 \t2\t1\n",
    "duplicate_larger_later": "id\ts1\ts2\nG1\t0.5\t0.5\nG2\t9\t9\nG1\t2\t2\n",
    "below_pseudocount": "id\ts1\ts2\nG1\t3\t4\nG2\t1\t-1\nG3\t-2\t5\n",
    "several_faults": "id\ts1\ts2\n\nG1\t1\t-3\nG2\tinf\tq\nG3\t1\n\t1\t2\n",
    "faults_in_one_row": "id\ts1\ts2\ts3\nG1\t-5\tinf\tq\n",
    "wide_ties": _wide_ties(),
}


def _chunked_tables() -> dict[str, str]:
    """Tables of two chunks and a bit, each with its case at a chunk
    boundary; row k is gene row k, counted from 0."""
    rng = np.random.default_rng(12)
    n = _CHUNK_ROWS
    lines = ["id\ts1\ts2\ts3"] + [
        f"G{i}\t" + "\t".join(map(repr, row))
        for i, row in enumerate(rng.uniform(0.5, 9.0, (2 * n + 5, 3)).tolist())
    ]

    def table(edits=(), eol="\n"):
        rows = list(lines)
        for k, line in edits:
            rows[k + 1] = line
        return eol.join(rows) + eol

    straddle = [lines[: n - 1], ["", "# c", "  "], lines[n - 1 : n + 1], ["#", ""], lines[n + 1 :]]
    straddle = [line for part in straddle for line in part]
    return {
        "chunk_second_first_row_fault": table([(n, f"G{n}\t1\tx\t2")]),
        "chunk_last_row_fault": table([(2 * n + 4, "GZ\t1\t2\t-inf")]),
        "chunk_two_faults": table([(n - 3, "GA\t1\t2\tq"), (n + 2, "GB\t1\t2")]),
        "chunk_earlier_kinds_later": table([(5, "GA\t-3\t2\t1"), (2 * n, "GB\t1")]),
        "chunk_comments_straddle": "\n".join(straddle) + "\n",
        "chunk_comments_straddle_fault": "\n".join(straddle).replace(f"\nG{n}\t", f"\nG{n}\tv\t", 1),
        "chunk_duplicates_across": table([(n + 7, "g3\t9\t9\t9"), (2 * n + 1, " G5 \t0.5\t0.5\t0.5"),
                                          (n - 1, "G8\t" + lines[9].split("\t", 1)[1])]),
        "chunk_crlf": table(eol="\r\n"),
        "chunk_crlf_fault": table([(n + 1, "GC\t1\t\t2")], eol="\r\n"),
    }


# Tables longer than one parse chunk; the row walk reads them whole.
CHUNKED_TABLES = _chunked_tables()


def _sources(text, tmp_path):
    """Factories of the same table as a str, a string handle, a generator of
    lines without endings and a file opened in text mode."""
    path = tmp_path / "expression.tsv"
    path.write_text(text, newline="")
    return {
        "str": lambda: text,
        "string_handle": lambda: io.StringIO(text),
        "generator": lambda: (line for line in text.split("\n")),
        "file_handle": lambda: open(path),
    }


def _parse_outcome(parse, source, already_log, pseudocount):
    try:
        m = parse(source, already_log=already_log, pseudocount=pseudocount)
    except ExpressionDataError as exc:
        return "error", str(exc)
    finally:
        if hasattr(source, "close"):
            source.close()
    return "matrix", (m.gene_ids, m.sample_ids, m.values.shape, m.values.tobytes())


FAULT_KINDS = ("cell_count", "empty_id", "non_numeric", "non_finite", "log_invalid")


def _with_fault(row: list[str], kind: str, col: int) -> list[str]:
    """``row`` with one fault of ``kind``, a value fault in cell ``col``."""
    if kind == "cell_count":
        return row + ["1"]
    if kind == "empty_id":
        return [" ", *row[1:]]
    value = {"non_numeric": "q", "non_finite": "nan", "log_invalid": "-4"}[kind]
    return row[:col] + [value] + row[col + 1 :]


class TestParserMatchesRowWalk:
    @pytest.mark.parametrize("name", sorted(PARSER_BATTERY) + sorted(CHUNKED_TABLES))
    @pytest.mark.parametrize("already_log,pseudocount", [(True, 1.0), (False, 1.0), (False, 2.5)])
    def test_same_matrix_or_same_message(self, name, already_log, pseudocount, tmp_path):
        text = {**PARSER_BATTERY, **CHUNKED_TABLES}[name]
        for form, source in _sources(text, tmp_path).items():
            expected = _parse_outcome(parse_expression_rows, source(), already_log, pseudocount)
            got = _parse_outcome(parse_expression_tsv, source(), already_log, pseudocount)
            assert got == expected, (name, form)

    def test_battery_reaches_each_outcome(self):
        outcomes = [
            _parse_outcome(parse_expression_rows, text, already_log, 1.0)
            for text in PARSER_BATTERY.values()
            for already_log in (True, False)
        ]
        messages = {value for kind, value in outcomes if kind == "error"}
        for fragment in ("expected 3 columns", "non-numeric", "non-finite",
                         "empty gene id", "not positive after pseudocount",
                         "empty matrix", "empty input", "duplicate sample id",
                         "header has no sample ids"):
            assert any(fragment in m for m in messages), fragment
        assert sum(kind == "matrix" for kind, _ in outcomes) >= 10

    @pytest.mark.parametrize("later_row", [False, True], ids=["same_row", "later_row"])
    @pytest.mark.parametrize("second", FAULT_KINDS)
    @pytest.mark.parametrize("first", FAULT_KINDS)
    def test_two_faults_raise_as_the_row_walk_does(self, first, second, later_row):
        # ``first`` in the last value cell of gene row 1, ``second`` in the
        # first value cell of the same row or of the next one.
        rows = [[f"G{i}", "1.5", "2.5", "3.5"] for i in range(4)]
        rows[1] = _with_fault(rows[1], first, 3)
        rows[1 + later_row] = _with_fault(rows[1 + later_row], second, 1)
        text = "id\ts1\ts2\ts3\n\n" + "\n".join(map("\t".join, rows)) + "\n"
        for already_log in (True, False):
            expected = _parse_outcome(parse_expression_rows, text, already_log, 1.0)
            assert expected[0] == "error" or already_log  # -4 is a valid log value
            assert _parse_outcome(parse_expression_tsv, text, already_log, 1.0) == expected

    def test_line_numbers_count_comment_and_blank_lines(self):
        with pytest.raises(ExpressionDataError, match=r"^row 9, column 2: non-numeric value 'z'$"):
            parse_expression_tsv(PARSER_BATTERY["comments_and_blanks"])


class TestParseGmt:
    def test_basic_line(self):
        lib = parse_gmt("SET1\tdesc\tG1\tG2\n")
        assert len(lib) == 1
        assert lib.sets[0].members == frozenset({"G1", "G2"})

    def test_case_canonical_dedup(self):
        lib = parse_gmt("SET1\td\tG1\tg1\n")
        assert lib.sets[0].members == frozenset({"G1"})

    def test_empty_input_gives_empty_library(self):
        assert len(parse_gmt("")) == 0

    def test_short_line_rejected(self):
        with pytest.raises(ExpressionDataError, match="line 1"):
            parse_gmt("SET1\tdesc\n")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ExpressionDataError, match="duplicate set name"):
            parse_gmt("S\td\tG1\nS\td\tG2\n")

    def test_trailing_empty_fields_dropped(self):
        lib = parse_gmt("S\td\tG1\t\t\n")
        assert lib.sets[0].members == frozenset({"G1"})

    def test_members_match_per_member_canonicalisation(self):
        lines = [
            "S1\td\tg1\t G2 \t\t  \tG1\tgA\t\n",
            "S2\t d \t\t x \tY\t\t\n",
            "S3\td\tstra\u00dfe\t\u01c5\tz\u00a0\t\x0bq\r\n",
            "S4\td\t mixedCase\tMIXEDcase \tmixedcase\t\t\t\n",
        ]
        lib = parse_gmt("".join(lines))
        for line, gene_set in zip(lines, lib.sets):
            cells = line.rstrip("\n").rstrip("\r").split("\t")
            assert gene_set.members == {canonical_gene_id(c) for c in cells[2:] if c.strip()}

    def test_member_id_is_one_object_across_sets(self):
        lib = parse_gmt("S1\td\tg1\tG2\nS2\td\t G1\tg2 \nS3\td\tG1\n")
        copies = [g for s in lib for g in s.members if g == "G1"]
        assert len(copies) == 3 and all(g is copies[0] for g in copies)


GMT_CASES = {
    "padded_lower_case_ids": "S1\tdesc\t g1 \tg2\tG3\nS2\t\tgA \t\x0bq\n",
    "repeated_members": "S1\td\tG1\tg1\t G1 \tG2\tG2\nS2\td\tG2\tg2\tG1\n",
    "crlf_endings": "S1\td\tG1\tG2\r\nS2\td\tG2\tG3\r\n",
    "blank_lines": "\n\nS1\td\tG1\n  \n\t\nS2\td\tG1\tG4\n",
    "trailing_tabs": "S1\td\tG1\t\t\t\nS2\t d \tG2\t \t\n",
    "hash_line_is_a_set": "# c\tx\tG1\nS1\td\tg1\n",
    "duplicate_set_name": "S\td\tG1\nS2\td\tG3\n S \td\tG2\n",
    "empty_set_name": "S1\td\tG1\n \td\tG2\n",
    "short_line": "S1\td\tG1\nS2\td\n",
    "no_members": "S1\td\tG1\nS2\td\t \t\n",
}


class TestParseGmtColumns:
    @pytest.mark.parametrize("text", GMT_CASES.values(), ids=GMT_CASES.keys())
    def test_matches_line_by_line_oracle(self, text):
        try:
            sets, ids = parse_gmt_lines(text)
        except ExpressionDataError as exc:
            with pytest.raises(ExpressionDataError, match=f"^{re.escape(str(exc))}$"):
                parse_gmt(text)
            return
        lib = parse_gmt(text)
        assert lib.sets == tuple(sets)
        assert lib.ids == tuple(ids)
        assert lib.names == tuple(s.name for s in sets)
        assert lib.descriptions == tuple(s.description for s in sets)

    def test_codes_are_unrepeated_and_ascending_within_a_set(self):
        lib = parse_gmt(GMT_CASES["repeated_members"])
        assert lib.offsets.tolist() == [0, 2, 4]
        assert lib.code.tolist() == [0, 1, 0, 1]
        assert lib.offsets.dtype == np.int64 and lib.code.dtype == np.int32

    @pytest.mark.parametrize("names,offsets", [
        (("A", "B"), [0, 3]),
        (("A", "B", "C"), [0, 1, 1, 3]),
        (("A", "B"), [1, 2, 3]),
        (("A", "B"), [0, 1, 2]),
    ], ids=["one_short", "empty_set", "not_from_zero", "not_to_the_member_count"])
    def test_offsets_must_rise_from_zero_to_the_member_count(self, names, offsets):
        with pytest.raises(ExpressionDataError, match="set offsets must rise"):
            GeneSetLibrary(names, ("",) * len(names), ("G1", "G2", "G3"), np.array(offsets),
                           np.arange(3, dtype=np.int32))

    def test_from_sets_round_trips_views(self):
        lib = parse_gmt(GMT_CASES["padded_lower_case_ids"] + "S3\td\tG9\tg1\n")
        again = GeneSetLibrary.from_sets(lib)
        assert again.sets == lib.sets and again.names == lib.names


class TestDesign:
    def make_matrix(self, n_samples=6):
        return ExpressionMatrix(
            ("G1", "G2", "G3"),
            tuple(f"s{j}" for j in range(n_samples)),
            np.arange(3 * n_samples, dtype=float).reshape(3, n_samples),
        )

    def test_align_3v3(self):
        m = self.make_matrix()
        design = TwoClassDesign(("s0", "s1", "s2"), ("s3", "s4", "s5"))
        x1, x2 = align_design(m, design)
        assert x1.shape == (3, 3) and x2.shape == (3, 3)
        np.testing.assert_array_equal(x1, m.values[:, :3])
        np.testing.assert_array_equal(x2, m.values[:, 3:])

    def test_design_order_respected(self):
        m = self.make_matrix()
        design = TwoClassDesign(("s2", "s0"), ("s5", "s3"))
        x1, _ = align_design(m, design)
        np.testing.assert_array_equal(x1[:, 0], m.values[:, 2])

    def test_unknown_sample_named_in_error(self):
        m = self.make_matrix()
        design = TwoClassDesign(("s0", "sX"), ("s3", "s4"))
        with pytest.raises(ExpressionDataError, match="sX"):
            align_design(m, design)

    def test_small_class_rejected(self):
        with pytest.raises(ExpressionDataError, match="too small"):
            TwoClassDesign(("s0",), ("s3", "s4"))

    def test_overlapping_classes_rejected(self):
        with pytest.raises(ExpressionDataError, match="both classes"):
            TwoClassDesign(("s0", "s1"), ("s1", "s2"))

    def test_parse_design_tsv(self):
        design = parse_design_tsv("s0\t1\ns1\t1\ns2\t2\ns3\t2\n")
        assert design.class1_samples == ("s0", "s1")
        assert design.class2_samples == ("s2", "s3")

    def test_parse_design_bad_label(self):
        with pytest.raises(ExpressionDataError, match="line 2"):
            parse_design_tsv("s0\t1\ns1\t3\ns2\t2\ns3\t2\n")

    def test_align_preserves_values_bitwise(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((4, 6))
        m = ExpressionMatrix(
            ("A", "B", "C", "D"), tuple(f"s{j}" for j in range(6)), values
        )
        x1, x2 = align_design(m, TwoClassDesign(("s0", "s1", "s2"), ("s3", "s4", "s5")))
        assert np.array_equal(np.hstack([x1, x2]), values)


class TestGeneSetTypes:
    def test_empty_members_rejected(self):
        with pytest.raises(ExpressionDataError):
            GeneSet("S", "", frozenset())

    def test_duplicate_library_names_rejected(self):
        s1 = GeneSet("S", "", frozenset({"G1"}))
        s2 = GeneSet("S", "", frozenset({"G2"}))
        with pytest.raises(ExpressionDataError, match="duplicate"):
            GeneSetLibrary.from_sets((s1, s2))


class TestWriteTable:
    HEADER = ["name", "count", "flag", "value"]
    ROWS = [
        ("a", 3, True, float("nan")),
        ("b", -7, False, float("inf")),
        ("c", 0, True, -0.0),
        ("d", 10**20, False, 1e-310),
        ("e", 1, False, 0.1),
        ("f", 2, True, -float("inf")),
    ]

    def written(self, header, columns, comment=""):
        out = io.StringIO()
        write_table(out, header, columns, comment)
        return out.getvalue()

    @pytest.mark.parametrize("comment", ["", "two-sided p-values"])
    def test_matches_row_writer_on_mixed_table(self, comment):
        columns = [list(c) for c in zip(*self.ROWS)]
        expected = row_table(self.HEADER, self.ROWS, comment)
        assert self.written(self.HEADER, columns, comment) == expected
        arrays = [np.array(c) for c in columns]
        assert self.written(self.HEADER, arrays, comment) == expected

    def test_zero_rows_is_header_alone(self):
        expected = row_table(self.HEADER, [], "note")
        assert self.written(self.HEADER, [[], np.array([]), [], []], "note") == expected
        assert expected == "# note\nname\tcount\tflag\tvalue\n"
