import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqsc import checks, cli
from aqsc.cli import FORMATS
from aqsc.design import enumerate_admissible
from aqsc.geometry import Surface


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def rows_of_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestParams:
    def test_genus5_37(self, run):
        code, out, err = run(["params", "-p", "3", "-q", "7", "-g", "5",
                              "--non-orientable"])
        assert code == 0 and err == ""
        (row,) = rows_of_csv(out)
        assert (row["p"], row["q"], row["n_f"], row["n"], row["k"],
                row["d_z"], row["d_x"]) == ("3", "7", "42", "63", "5", "7", "4")
        assert row["l_pq"] == "1.0905"

    def test_genus9_58(self, run):
        code, out, _ = run(["params", "-p", "5", "-q", "8", "-g", "9",
                            "--non-orientable"])
        assert code == 0
        (row,) = rows_of_csv(out)
        assert (row["n"], row["k"], row["d_z"], row["d_x"]) == ("20", "9", "3", "2")

    def test_inadmissible_exits_2(self, run):
        code, out, err = run(["params", "-p", "4", "-q", "4", "-g", "1",
                              "--orientable"])
        assert code == 2
        assert out == ""
        assert err.startswith("inadmissible:")

    def test_fractional_vertex_count_exits_2(self, run):
        code, _, err = run(["params", "-p", "3", "-q", "10", "-g", "5",
                            "--non-orientable"])
        assert code == 2 and "vertex count" in err

    def test_orientability_required(self, run):
        code, _, _ = run(["params", "-p", "3", "-q", "7", "-g", "5"])
        assert code == 1

    def test_both_orientabilities_rejected(self, run):
        code, _, _ = run(["params", "-p", "3", "-q", "7", "-g", "5",
                          "--orientable", "--non-orientable"])
        assert code == 1

    def test_bad_symbol_exits_1(self, run):
        code, _, _ = run(["params", "-p", "2", "-q", "7", "-g", "5",
                          "--non-orientable"])
        assert code == 1

    def test_json_carries_full_precision(self, run):
        code, out, _ = run(["params", "-p", "3", "-q", "7", "-g", "5",
                            "--non-orientable", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "p"
        (row,) = payload["rows"]
        assert row["l_pq"] == 1.0905496635070873
        assert row["l_pq_display"] == "1.0905"
        assert row["provenance"] == "formula"


class TestEnumerate:
    def test_superset_of_table(self, run):
        code, out, _ = run(["enumerate", "-g", "7", "--non-orientable",
                            "--max", "21"])
        assert code == 0
        pairs = {(r["p"], r["q"]) for r in rows_of_csv(out)}
        assert {("3", "7"), ("3", "21"), ("4", "5"), ("7", "3")} <= pairs

    def test_flat_surface_yields_empty_stream(self, run):
        code, out, err = run(["enumerate", "-g", "1", "--orientable",
                              "--max", "30"])
        assert code == 0 and err == ""
        assert rows_of_csv(out) == []

    def test_min_rate(self, run):
        # exactly the unfiltered rows with k/n >= r; {3,12}, {4,6} and their
        # duals meet r = 5/18 with equality
        argv = ["enumerate", "-g", "5", "--non-orientable", "--max", "30"]
        rate = lambda row: Fraction(int(row["k"]), int(row["n"]))
        every = rows_of_csv(run(argv)[1])
        code, out, _ = run(argv + ["--min-rate", "5/18"])
        kept = rows_of_csv(out)
        assert code == 0 and kept == [r for r in every if rate(r) >= Fraction(5, 18)]
        assert len(kept) < len(every) and Fraction(5, 18) in map(rate, kept)

    def test_split_bounds(self, run):
        code, out, _ = run(["enumerate", "-g", "11", "--non-orientable",
                            "--p-max", "6", "--q-max", "12"])
        assert code == 0
        pairs = {(r["p"], r["q"]) for r in rows_of_csv(out)}
        assert ("6", "12") in pairs
        assert all(int(p) <= 6 and int(q) <= 12 for p, q in pairs)

    @pytest.mark.parametrize("orientable", (True, False))
    def test_note_unless_complete(self, run, orientable):
        # with no note the list is the unbounded scan; at the default --max
        # 40 the note starts where designs are first lost
        kind = "--orientable" if orientable else "--non-orientable"
        first_cut = 4 if orientable else 8
        for genus in range(1, 31):
            full = [(cp.sym.p, cp.sym.q) for cp in
                    enumerate_admissible(Surface(genus, orientable), 10 ** 6, 10 ** 6)]
            largest = max((max(pq) for pq in full), default=3)
            for flags in ([], ["--max", str(largest)],
                          ["--p-max", str(largest), "--q-max", "40"]):
                code, out, err = run(["enumerate", "-g", str(genus), kind, *flags])
                assert code == 0
                listed = [(int(r["p"]), int(r["q"])) for r in rows_of_csv(out)]
                if err:
                    assert err.startswith("note: ") and err.count("\n") == 1
                else:
                    assert listed == full
                if not flags:
                    assert bool(err) == (genus >= first_cut)
                    assert (listed == full) == (genus < first_cut)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_note_in_every_format(self, run, fmt):
        code, out, err = run(["enumerate", "-g", "51", "--non-orientable", "--format", fmt])
        assert code == 0 and out and err.startswith("note: ") and "--max 300" in err
        code, out, err = run(["enumerate", "-g", "51", "--non-orientable", "--format", fmt,
                              "--max", "300"])
        assert code == 0 and out and err == ""


class TestTables:
    @pytest.mark.parametrize("table,n_rows", [("1", 9), ("2", 12), ("3", 14),
                                              ("4", 15)])
    def test_row_counts(self, run, table, n_rows):
        code, out, _ = run(["tables", table])
        assert code == 0
        assert len(rows_of_csv(out)) == n_rows

    def test_table2_known_rows(self, run):
        code, out, _ = run(["tables", "2"])
        rows = {(r["p"], r["q"]): r for r in rows_of_csv(out)}
        assert rows[("4", "14")]["n_f"] == "7"
        assert rows[("4", "14")]["n"] == "14"
        assert rows[("3", "21")]["d_z"] == "5"   # corrected ceiling
        assert rows[("3", "7")]["n"] == "105"

    def test_families_table(self, run):
        for name in ("5", "families"):
            code, out, _ = run(["tables", name])
            assert code == 0
            rows = rows_of_csv(out)
            assert len(rows) == 7
            assert {"p", "q", "n_f", "n", "k"} <= set(rows[0])
            assert any(r["n"] == "21(g-2)" for r in rows)

    def test_correction_noted_in_json(self, run):
        code, out, _ = run(["tables", "2", "--format", "json"])
        rows = json.loads(out)["rows"]
        (fixed,) = [r for r in rows if r["p"] == 3 and r["q"] == 21]
        assert fixed["d_z"] == 5
        assert "printed d_z=4" in fixed["note"]

    def test_bracket_typo_noted_in_json(self, run):
        code, out, _ = run(["tables", "3", "--format", "json"])
        rows = json.loads(out)["rows"]
        (noted,) = [r for r in rows if r["p"] == 3 and r["q"] == 27]
        assert "bracket" in noted["note"]

    def test_unknown_table_exits_1(self, run):
        assert run(["tables", "9"])[0] == 1


class TestFigures:
    def test_rate_series(self, run):
        code, out, _ = run(["figures", "5"])
        assert code == 0
        rows = rows_of_csv(out)
        assert len(rows) == 14 * 7
        for r in rows:
            g = int(r["genus"])
            assert g % 2 == 1
            r1 = Fraction(r["rate_orientable"])
            r2 = Fraction(r["rate_non_orientable"])
            assert r2 > r1
            assert Fraction(r["ratio"]) == Fraction(g - 2, g - 1)

    def test_rate_series_alias(self, run):
        assert run(["figures", "rates"])[1] == run(["figures", "5"])[1]

    def test_asymmetry_series_default(self, run):
        code, out, _ = run(["figures", "6"])
        rows = rows_of_csv(out)
        assert [r["genus"] for r in rows] == [str(g) for g in range(5, 32, 2)]
        by_genus = {r["genus"]: r for r in rows}
        assert (by_genus["5"]["d_z"], by_genus["5"]["d_x"]) == ("7", "4")
        assert by_genus["11"]["gap"] == "5"

    def test_asymmetry_custom_symbol_and_genera(self, run):
        code, out, _ = run(["figures", "asymmetry", "-p", "3", "-q", "8",
                            "--genera", "3", "4", "5"])
        assert code == 0
        rows = rows_of_csv(out)
        assert [r["genus"] for r in rows] == ["3", "4", "5"]

    def test_asymmetry_flat_symbol_exits_2(self, run):
        # the same line as `params` with that symbol, not an empty series
        code, out, err = run(["figures", "asymmetry", "-p", "3", "-q", "3"])
        assert (code, out, err) == (2, "", "inadmissible: {3,3} is spherical\n")
        assert run(["params", "-p", "3", "-q", "3", "-g", "5", "--non-orientable"])[2] == err

    def test_unknown_figure_exits_1(self, run):
        assert run(["figures", "7"])[0] == 1


class TestVerify:
    def test_small_suite_passes(self, run):
        code, out, _ = run(["verify", "all", "--format", "csv"])
        assert code == 0
        rows = rows_of_csv(out)
        assert rows and all(r["ok"] == "True" for r in rows)
        assert {r["suite"] for r in rows} == {"theorems", "oracle", "tables"}

    def test_json_default_format(self, run):
        code, out, _ = run(["verify", "tables"])
        assert code == 0
        json.loads(out)

    def test_failure_count_in_exit_code(self, run, monkeypatch):
        def broken():
            return [checks.Check("a", False, ""), checks.Check("b", True, ""),
                    checks.Check("c", False, "")]

        monkeypatch.setattr(checks, "tables", broken)
        code, out, _ = run(["verify", "tables"])
        assert code == 4  # 2 + number of failures

    def test_suite_selection(self, run):
        code, out, _ = run(["verify", "oracle", "--format", "csv"])
        assert code == 0
        assert all(r["suite"] == "oracle" for r in rows_of_csv(out))


class TestFormats:
    ARGS = ["params", "-p", "3", "-q", "7", "-g", "5", "--non-orientable"]

    def test_markdown_structure(self, run):
        code, out, _ = run(self.ARGS + ["--format", "markdown"])
        lines = out.strip().splitlines()
        assert lines[0].startswith("| p |")
        assert set(lines[1]) <= {"|", "-", " ", ":"}
        assert " 63 " in lines[2]

    def test_formats_agree_on_values(self, run):
        _, out_csv, _ = run(self.ARGS)
        _, out_json, _ = run(self.ARGS + ["--format", "json"])
        (crow,) = rows_of_csv(out_csv)
        (jrow,) = json.loads(out_json)["rows"]
        for key in ("p", "q", "n_f", "n", "k", "d_z", "d_x"):
            assert crow[key] == str(jrow[key])
        assert crow["l_pq"] == jrow["l_pq_display"]

    def test_env_format_ignored(self, run, monkeypatch):
        # a printed record follows from its argv alone
        monkeypatch.setenv("AQSC_FORMAT", "yaml")
        code, out, err = run(self.ARGS)
        assert (code, err) == (0, "") and out.startswith("p,q,n_f,")

    def test_byte_identical_reruns(self, run):
        first = run(["tables", "3", "--format", "json"])
        second = run(["tables", "3", "--format", "json"])
        assert first == second


huge = st.integers(-3, 10 ** 400)


class TestExtremeIntegers:
    """Any integer input ends in exit code 0, 1 or 2, never a traceback."""

    @given(p=huge, q=huge, genus=huge, orientable=st.booleans())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_params(self, run, p, q, genus, orientable):
        kind = "--orientable" if orientable else "--non-orientable"
        code, _, _ = run(["params", "-p", str(p), "-q", str(q), "-g", str(genus), kind])
        assert code in (0, 1, 2)

    @given(genus=huge, bound=st.integers(-1, 8), orientable=st.booleans())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_enumerate(self, run, genus, bound, orientable):
        kind = "--orientable" if orientable else "--non-orientable"
        code, _, _ = run(["enumerate", "-g", str(genus), kind, "--max", str(bound)])
        assert code in (0, 1, 2)

    @given(p=huge, q=huge, genera=st.lists(huge, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_asymmetry_genera(self, run, p, q, genera):
        code, _, _ = run(["figures", "asymmetry", "-p", str(p), "-q", str(q),
                          "--genera", *map(str, genera)])
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("argv", [
        ["params", "-p", "3", "-q", str(6 * (10 ** 200 - 1)), "-g", str(10 ** 200),
         "--non-orientable"],
        ["params", "-p", "3", "-q", str(6 * (2 * 10 ** 154 - 1)), "-g", str(2 * 10 ** 154),
         "--non-orientable"],
        ["params", "-p", "3", "-q", "7", "-g", str(10 ** 400), "--non-orientable"],
        ["enumerate", "-g", str(10 ** 400), "--non-orientable", "--max", "8"],
    ])
    def test_float_range_exits_1(self, run, argv):
        code, out, err = run(argv)
        assert code == 1 and out == "" and "out of float range" in err


class TestEntryPoints:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aqsc", "params", "-p", "3", "-q", "7",
             "-g", "5", "--non-orientable"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "63" in proc.stdout

    def test_usage_error_exits_1(self):
        proc = subprocess.run([sys.executable, "-m", "aqsc", "bogus"],
                              capture_output=True, text=True)
        assert proc.returncode == 1

    def test_no_command_exits_1(self, run):
        assert run([])[0] == 1

    _UNWRITABLE = [(argv, case) for argv in (
        ["params", "-p", "3", "-q", "7", "-g", "5", "--non-orientable"],
        ["enumerate", "-g", "5", "--non-orientable"], ["tables", "4"], ["figures", "6"],
        ["verify", "theorems"]) for case in ("closed pipe", "closed stdout", "full device")]
    # a cut scan writes its note on stderr
    _UNWRITABLE.append((["enumerate", "-g", "5", "--non-orientable", "--max", "10"],
                        "full stderr"))

    @pytest.mark.parametrize("argv,case", _UNWRITABLE,
                             ids=[f"{argv[0]}-{case}" for argv, case in _UNWRITABLE])
    def test_unwritable_output_exits_1(self, argv, case):
        # output that cannot be written exits 1 with no traceback: silently
        # on a pipe whose reader has gone, else with one error line
        cmd = [sys.executable, "-m", "aqsc", *argv]
        if case == "full stderr":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            normal = subprocess.run(cmd, capture_output=True)
            assert normal.returncode == 0 and normal.stderr.startswith(b"note: ")
            # an exception escaping console_entry would exit 1 too, and its
            # traceback go to the full device: here it exits 3
            entry = ("import sys\nfrom aqsc.cli import console_entry\n"
                     "try:\n    console_entry()\nexcept Exception:\n    sys.exit(3)\n")
            with open("/dev/full", "w") as full:
                proc = subprocess.run([sys.executable, "-c", entry, *argv],
                                      stdout=subprocess.PIPE, stderr=full)
            # the list is written whole before the note fails
            assert proc.returncode == 1 and proc.stdout == normal.stdout
            return
        if case == "closed pipe":
            read, write = os.pipe()
            os.close(read)   # the reader is gone before the command writes
            try:
                proc = subprocess.run(cmd, stdout=write, stderr=subprocess.PIPE, text=True)
            finally:
                os.close(write)
        elif case == "closed stdout":
            proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *cmd],
                                  stderr=subprocess.PIPE, text=True)
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            with open("/dev/full", "w") as full:
                proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        if case == "closed pipe":
            assert proc.stderr == ""
        else:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
