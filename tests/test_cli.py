import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from monicheb import (
    FareyPair,
    IntPoly,
    admissible_degree,
    bundled_table_path,
    format_poly,
    parse_poly,
    parse_table_file,
    run,
)
from monicheb import cli
from monicheb.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_REFUTED, EXIT_USAGE

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "t.poly"
    path.write_text("poly 1 -3 1\n")
    return str(path)


class TestCertifyCommand:
    def test_conjecture_certifies(self, witness_file):
        report = run(["certify", "--poly", witness_file, "--interval", "1/3", "2/5", "--conjecture"])
        assert report.exit_code == EXIT_OK
        assert "status=certified" in report.lines
        assert "tm_upper=1/3" in report.lines

    def test_explicit_bound_refuted(self, witness_file):
        report = run(["certify", "--poly", witness_file, "--interval", "1/3", "2/5", "--bound", "1/10"])
        assert report.exit_code == EXIT_REFUTED
        assert "status=refuted" in report.lines
        assert "refutation_point=1/3" in report.lines

    def test_negated_table_form_accepted(self, tmp_path):
        # leading coefficient -1 is flipped to the monic witness internally
        path = tmp_path / "neg.poly"
        path.write_text("poly -1 9 -20 -1\n")  # -(x**3 + 20x**2 - 9x + 1)
        report = run(["certify", "--poly", str(path), "--interval", "1/5", "2/9", "--conjecture"])
        assert report.exit_code == EXIT_OK
        assert "status=certified" in report.lines

    def test_non_monic_rejected(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("poly 1 -3 2\n")
        report = run(["certify", "--poly", str(path), "--interval", "1/3", "2/5", "--conjecture"])
        assert report.exit_code == EXIT_USAGE

    def test_rational_coefficients_refused(self, tmp_path):
        path = tmp_path / "half.poly"
        path.write_text("poly 1/2 1\n")
        report = run(["certify", "--poly", str(path), "--interval", "0", "1", "--bound", "2"])
        assert report.exit_code == EXIT_USAGE
        (error,) = [l for l in report.lines if l.startswith("error=")]
        assert "integer coefficients" in error

    def test_zero_polynomial_conjecture_refused(self, tmp_path):
        # once an uncaught IndexError, exit 1, the code for "refuted"
        path = tmp_path / "zero.poly"
        path.write_text("poly 0\n")
        report = run(["certify", "--poly", str(path), "--interval", "1/3", "2/5", "--conjecture"])
        assert report.exit_code == EXIT_USAGE
        assert report.lines == ["error=the zero polynomial is not a witness"]

    def test_non_farey_interval_usage_error(self, witness_file):
        report = run(["certify", "--poly", witness_file, "--interval", "1/4", "1/2", "--conjecture"])
        assert report.exit_code == EXIT_USAGE

    def test_missing_file(self):
        report = run(["certify", "--poly", "/nonexistent.poly", "--interval", "1/3", "2/5", "--conjecture"])
        assert report.exit_code == EXIT_USAGE

    def test_touch_at_non_dyadic_point_certifies(self, tmp_path):
        # 6x - 9x**2 touches 1 at x = 1/3: the prefilter is inconclusive, and
        # the subdivision decision takes the odd part of 1 - f = (3x - 1)**2
        path = tmp_path / "touch.poly"
        path.write_text("poly 0 6 -9\n")
        report = run(["certify", "--poly", str(path), "--interval", "0", "1/2", "--bound", "1"])
        assert report.exit_code == EXIT_OK
        assert report.lines == ["status=certified", "bound=1", "method=subdivision"]

    def test_refuted_conjecture_prints_no_tm_upper(self, tmp_path):
        path = tmp_path / "square.poly"
        path.write_text("poly 0 0 1\n")  # x**2 exceeds 1/9 on [1/3, 2/5]
        report = run(["certify", "--poly", str(path), "--interval", "1/3", "2/5", "--conjecture"])
        assert report.exit_code == EXIT_REFUTED
        assert "status=refuted" in report.lines
        assert not any(line.startswith("tm_upper=") for line in report.lines)

    def test_conjecture_on_integer_endpoints_refused(self, tmp_path):
        # [0, 1] has no conjectured value; its constant 1/2 is in the catalog
        path = tmp_path / "logistic.poly"
        path.write_text("poly 0 -1 1\n")
        report = run(["certify", "--poly", str(path), "--interval", "0", "1", "--conjecture"])
        assert report.exit_code == EXIT_USAGE
        (error,) = report.lines
        assert error.startswith("error=") and "interval_constant" in error


class TestConstantCommand:
    def test_interval(self):
        report = run(["constant", "--interval", "0", "1/2"])
        assert report.exit_code == EXIT_OK
        assert "value=1/2" in report.lines

    def test_sqrt_interval(self):
        report = run(["constant", "--interval", "-1/sqrt(2)", "1/sqrt(2)"])
        assert "value=(1/2)^(1/2)" in report.lines

    def test_unknown_interval(self):
        report = run(["constant", "--interval", "1/3", "2/5"])
        assert report.exit_code == EXIT_INCONCLUSIVE
        assert "value=unknown" in report.lines

    def test_large_surd_answered_or_refused_at_once(self):
        # the surd's square part once came from trial division up to its root
        start = time.perf_counter()
        report = run(["constant", "--interval", "0", "sqrt(1000000000000000000000000000057)"])
        assert time.perf_counter() - start < 2
        assert report.exit_code in (EXIT_INCONCLUSIVE, EXIT_USAGE)

    def test_zero_endpoint_denominator_refused(self):
        report = run(["constant", "--interval", "(1)/0", "2"])
        assert report.exit_code == EXIT_USAGE
        assert report.lines == ["error=zero denominator in endpoint: '(1)/0'"]

    def test_malformed_endpoint_refused(self):
        # once read as 1/2, with value=1/2 and exit 0
        report = run(["constant", "--interval", "0", "1/2-"])
        assert report.exit_code == EXIT_USAGE
        assert report.lines == ["error=malformed endpoint: '1/2-'"]

    def test_point(self):
        report = run(["constant", "--point", "3/7"])
        assert "value=1/7" in report.lines

    def test_set(self):
        report = run(["constant", "--set", "1/2,2/3"])
        assert "value=1/2" in report.lines


class TestFareyCommand:
    def test_order_three(self):
        report = run(["farey", "--order", "3"])
        assert report.exit_code == EXIT_OK
        fracs = [line for line in report.lines if line.startswith("fraction=")]
        assert len(fracs) == 5
        assert "count=5" in report.lines

    def test_pairs(self):
        report = run(["farey", "--order", "2", "--pairs"])
        assert report.lines == ["pair=0,1/2", "pair=1/2,1"]

    def test_bad_order(self):
        report = run(["farey", "--order", "0"])
        assert report.exit_code == EXIT_USAGE

    @pytest.mark.parametrize("extra", [[], ["--pairs"]])
    def test_order_above_cap_refused_before_work(self, monkeypatch, extra):
        import monicheb.cli as cli_mod

        def no_work(order):
            raise AssertionError("Farey sequence built before the order check")

        monkeypatch.setattr(cli_mod, "farey_sequence", no_work)
        monkeypatch.setattr(cli_mod, "farey_intervals", no_work)
        for order in (cli_mod.MAX_FAREY_ORDER + 1, 20000, 10**12):
            report = run(["farey", "--order", str(order), *extra])
            assert report.exit_code == EXIT_USAGE
            assert report.lines == [
                f"error=--order {order} is above the cap {cli_mod.MAX_FAREY_ORDER}"
            ]


class TestConstructCommand:
    def test_pair(self):
        report = run(["construct", "pair", "1/3", "2/5", "--degree", "4"])
        assert report.exit_code == EXIT_OK
        assert "poly 3 -27 81 -81 1" in report.lines
        assert "value@2/5=1/625" in report.lines
        assert "value@1/3=1/81" in report.lines

    def test_pair_bad_targets(self):
        report = run(["construct", "pair", "1/3", "2/5", "--degree", "4", "--targets", "2,1"])
        assert report.exit_code == EXIT_USAGE

    def test_pair_congruence_error_report(self):
        # CongruenceError is a ValueError: one error= line and exit 3
        report = run(["construct", "pair", "1/3", "2/5", "--degree", "3", "--targets", "2,1"])
        assert report.exit_code == EXIT_USAGE
        assert report.lines == ["error=2 is not congruent to 2^3 mod 5"]

    def test_triple(self):
        report = run(["construct", "triple", "0", "1", "--degree", "3", "--targets", "0,0,1"])
        assert report.exit_code == EXIT_OK
        assert "value@1/2=1/8" in report.lines

    def test_multi(self):
        report = run(["construct", "multi", "2/3", "--max-degree", "10"])
        assert report.exit_code == EXIT_OK
        assert "degree=2" in report.lines
        assert "poly -1 1 1" in report.lines

    @pytest.mark.parametrize("mode", ["pair", "triple"])
    def test_degree_above_cap_refused_at_once(self, mode):
        # degree 8000 on (1/3, 2/5) once ran 2.5 s and then failed on the
        # 4300-digit int-to-str limit
        start = time.perf_counter()
        report = run(["construct", mode, "1/3", "2/5", "--degree", "8000"])
        assert time.perf_counter() - start < 1
        assert report.exit_code == EXIT_USAGE
        assert report.lines == ["error=--degree 8000 is above the cap 4096"]

    def test_multi_max_degree_above_cap_refused_before_work(self, monkeypatch):
        # --max-degree 20000 on {1/4, 3/4} once built the degree-16384
        # output at 141 MB and then failed on the int-to-str limit
        def no_work(points, max_degree):
            raise AssertionError("construction started before the cap check")

        monkeypatch.setattr(cli, "multipoint_monic", no_work)
        for cap in (cli.MAX_CONSTRUCT_DEGREE + 1, 20000):
            report = run(["construct", "multi", "1/4,3/4", "--max-degree", str(cap)])
            assert report.exit_code == EXIT_USAGE
            assert report.lines == [f"error=--max-degree {cap} is above the cap 4096"]

    def test_degree_4000_pair_still_built(self):
        report = run(["construct", "pair", "1/3", "2/5", "--degree", "4000"])
        assert report.exit_code == EXIT_OK
        assert report.lines[1:] == [f"value@2/5=1/{5**4000}", f"value@1/3=1/{3**4000}"]

    @pytest.mark.parametrize("argv", [
        ["construct", "multi", "1/3,5/6", "--max-degree", "4096"],
        ["construct", "pair", "1/50", "1/49", "--degree", "4000"],
    ])
    def test_output_over_digit_limit_refused_whole(self, argv):
        # both once printed part of the report (degree=3888, or the poly
        # line) before failing on the int-to-str limit.  The largest
        # coefficient of {1/3, 5/6} has 12897 bits, about 3883 digits, under
        # the default limit of 4300, so that case lowers the limit to 640;
        # the pair is refused under the default limit.
        default = sys.get_int_max_str_digits()
        if argv[1] == "multi":
            sys.set_int_max_str_digits(640)
        try:
            limit = sys.get_int_max_str_digits()
            report = run(argv)
        finally:
            sys.set_int_max_str_digits(default)
        assert report.exit_code == EXIT_USAGE
        assert report.lines == [
            "error=output has an integer over the interpreter's limit of "
            f"{limit} digits for int-to-str conversion"
        ]

    def test_top_band_multi_printed_in_full(self):
        report = run(["construct", "multi", "1/3,5/6", "--max-degree", "4096"])
        assert report.exit_code == EXIT_OK
        assert report.lines[0] == "degree=3888"
        assert report.lines[2:] == [f"value@1/3=1/{3**3888}", f"value@5/6=1/{6**3888}"]

    def test_large_prime_denominator_refused_in_bounded_time(self):
        # 10**12 + 39 is prime; its order modulus was once trial-divided
        # for more than 30 s before the cap check
        start = time.perf_counter()
        report = run(["construct", "multi", "1/1000000000039,1/3", "--max-degree", "10"])
        assert time.perf_counter() - start < 5
        assert report.exit_code == EXIT_INCONCLUSIVE
        minimal = 70379505012668310900912118384832836261853391052713354655579536122880
        assert report.lines == [
            f"error=minimal admissible degree is {minimal}, above the cap 10",
            f"minimal_degree={minimal}",
        ]

    def test_semiprime_denominator_refused_in_bounded_time(self):
        # b = 1000000007 * 1000000009 was once trial-divided up to sqrt(b)
        start = time.perf_counter()
        report = run(["construct", "multi", "1/1000000016000000063,1/3", "--max-degree", "10"])
        assert time.perf_counter() - start < 5
        assert report.exit_code == EXIT_INCONCLUSIVE
        minimal = int(report.lines[-1].removeprefix("minimal_degree="))
        assert minimal == admissible_degree([F(1, 1000000016000000063), F(1, 3)]) > 10**100
        assert report.lines[0] == f"error=minimal admissible degree is {minimal}, above the cap 10"

    def test_unfactorable_denominator_refused(self):
        # b is a product of two 40-digit primes, out of reach of the rho budget
        b = (10**39 + 3) * (3 * 10**39 + 37)
        start = time.perf_counter()
        report = run(["construct", "multi", f"1/{b},1/3", "--max-degree", "10"])
        assert time.perf_counter() - start < 5
        assert report.exit_code == EXIT_USAGE
        assert len(report.lines) == 1 and report.lines[0].endswith("rho iterations")

    def test_multi_cap_exceeded(self):
        report = run(["construct", "multi", "1/4,3/4", "--max-degree", "100"])
        assert report.exit_code == EXIT_INCONCLUSIVE
        assert "minimal_degree=16384" in report.lines


class TestSearchCommand:
    def test_finds_witness(self):
        report = run(["search", "--interval", "1/3", "2/5", "--degree", "4", "--radius", "1"])
        assert report.exit_code == EXIT_OK
        assert "status=certified" in report.lines
        assert "tm_upper=1/3" in report.lines
        poly_lines = [l for l in report.lines if l.startswith("poly ")]
        assert len(poly_lines) == 1
        assert parse_poly(poly_lines[0]).is_monic

    def test_inadmissible_degree_usage_error(self):
        report = run(["search", "--interval", "1/3", "2/5", "--degree", "3"])
        assert report.exit_code == EXIT_USAGE

    def test_negative_radius_usage_error(self):
        report = run(["search", "--interval", "1/3", "2/5", "--degree", "4", "--radius", "-1"])
        assert report.exit_code == EXIT_USAGE
        assert "error=radius must be nonnegative" in report.lines

    def test_oversized_offset_box_usage_error(self):
        report = run(["search", "--interval", "1/3", "3/8", "--degree", "14", "--radius", "1"])
        assert report.exit_code == EXIT_USAGE

    def test_huge_degree_offset_box_refused_at_once(self):
        start = time.perf_counter()
        report = run(
            ["search", "--interval", "1/3", "3/8", "--degree", "1000000000", "--radius", "1"]
        )
        assert time.perf_counter() - start < 1
        assert report.exit_code == EXIT_USAGE
        assert (
            "error=radius 1 at degree 1000000000 gives more than 59049 offsets"
            in report.lines
        )

    def test_degree_above_cap_refused_at_once(self):
        start = time.perf_counter()
        report = run(["search", "--interval", "1/3", "2/5", "--degree", "200", "--radius", "0"])
        assert time.perf_counter() - start < 1
        assert report.exit_code == EXIT_USAGE
        assert report.lines == ["error=search degree 200 is above the cap 48"]

    def test_delta_flag_removed(self):
        report = run(["search", "--interval", "1/3", "2/5", "--degree", "4", "--delta", "1/2"])
        assert report.exit_code == EXIT_USAGE

    def test_strategy_flag_removed(self):
        report = run(["search", "--interval", "1/3", "2/5", "--degree", "4", "--strategy", "full"])
        assert report.exit_code == EXIT_USAGE


class TestVerifyTable:
    def test_bundled_table_certifies(self):
        report = run(["verify-table"])
        assert report.exit_code == EXIT_OK
        entry_lines = [l for l in report.lines if l.startswith("entry=")]
        assert len(entry_lines) == 73
        assert all(l.endswith("status=certified") for l in entry_lines)
        assert "total=73" in report.lines

    def test_bad_entry_flips_exit(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "interval 1/3 2/5\npoly 1 -3 1\n\ninterval 1/3 2/5\npoly 0 0 1\n"
        )
        report = run(["verify-table", str(path)])
        assert report.exit_code == EXIT_REFUTED
        statuses = [l.rsplit("=", 1)[1] for l in report.lines if l.startswith("entry=")]
        assert statuses == ["certified", "refuted"]

    @pytest.mark.parametrize("text", ["", "# comments only\n\n# no entries\n"],
                             ids=["empty", "comments-only"])
    def test_file_without_entries_refused(self, tmp_path, text):
        path = tmp_path / "table.txt"
        path.write_text(text)
        report = run(["verify-table", str(path)])
        assert report.exit_code == EXIT_USAGE
        assert report.lines == [f"error={path}: no table entries"]

    def test_whole_output_pinned(self):
        report = run(["verify-table"])
        lines = [f"command={report.command}"] + report.lines
        assert lines == (DATA / "verify_table.out").read_text(encoding="utf-8").splitlines()

    def test_underscore_coefficient_refused_with_line(self, tmp_path):
        # int() would read 1_0 as 10; the table grammar refuses it
        path = tmp_path / "table.txt"
        path.write_text("interval 1/3 2/5\npoly 1_0 -3 1\n")
        report = run(["verify-table", str(path)])
        assert report.exit_code == EXIT_USAGE
        assert report.lines == [f"error={path}:2: malformed rational: '1_0'"]

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "interval 1/4 2/7\npoly 1 -4 1\n\ninterval 1/3 2/5\npoly 1 -3 1\n"
        )
        report = run(["verify-table", str(path)])
        entries = [l for l in report.lines if l.startswith("entry=")]
        assert entries[0].startswith("entry=1/4..2/7")
        assert entries[1].startswith("entry=1/3..2/5")


@pytest.mark.parametrize("value", ["0", "zz"])
def test_depth_environment_variable_ignored(tmp_path, monkeypatch, value):
    # MIC_MAX_DEPTH once set the prefilter depth: at 0, 2x**2 - 1 on [-1, 1]
    # fell back to method=sturm, and "zz" was a usage error
    path = tmp_path / "cheb.poly"
    path.write_text("poly -1 0 2\n")
    commands = [
        ["certify", "--poly", str(path), "--interval", "-1", "1", "--bound", "1"],
        ["search", "--interval", "1/3", "2/5", "--degree", "4"],
        ["verify-table"],
    ]
    monkeypatch.delenv("MIC_MAX_DEPTH", raising=False)
    unset = [run(argv) for argv in commands]
    assert "method=bernstein" in unset[0].lines
    monkeypatch.setenv("MIC_MAX_DEPTH", value)
    for argv, before in zip(commands, unset):
        after = run(argv)
        assert (after.lines, after.exit_code) == (before.lines, before.exit_code)


class TestParseTableFile:
    def test_bundled_parses(self):
        entries = parse_table_file(bundled_table_path())
        assert len(entries) == 73
        assert all(e.poly.is_monic for e in entries)
        degrees = sorted({e.poly.degree for e in entries})
        assert degrees == [2, 3, 4, 5, 6, 8, 9, 12, 18]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n")
        assert parse_table_file(path) == []

    def test_missing_poly_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("interval 1/3 2/5\n\ninterval 1/4 2/7\npoly 1 -4 1\n")
        with pytest.raises(ValueError) as exc:
            parse_table_file(path)
        assert ":3:" in str(exc.value)

    def test_trailing_interval_reports_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("interval 1/3 2/5\n")
        with pytest.raises(ValueError) as exc:
            parse_table_file(path)
        assert ":1:" in str(exc.value)

    def test_rational_coefficients_report_line(self, tmp_path):
        path = tmp_path / "half.txt"
        path.write_text("interval 1/3 2/5\npoly 1 -3 1\n\ninterval 1/4 2/7\npoly 1/2 1\n")
        with pytest.raises(ValueError) as exc:
            parse_table_file(path)
        assert f"{path}:5:" in str(exc.value)
        assert "integer coefficients" in str(exc.value)

    @pytest.mark.parametrize(
        "line, pair",
        [
            ("interval 2/6 4/10", FareyPair(2, 5, 1, 3)),
            ("interval -1/2 1/-3", FareyPair(-1, 3, -1, 2)),
            ("interval +0 -1/-1", FareyPair(1, 1, 0, 1)),
        ],
        ids=["reduces", "sign-normalised", "integer"],
    )
    def test_endpoints_read_to_reduced_pairs(self, tmp_path, line, pair):
        path = tmp_path / "table.txt"
        path.write_text(f"{line}\npoly 1 -3 1\n")
        (entry,) = parse_table_file(path)
        assert entry.pair == pair
        assert (entry.pair.lo, entry.pair.hi) == (F(pair.a2, pair.b2), F(pair.a1, pair.b1))

    @pytest.mark.parametrize(
        "token, message",
        [
            ("1_0/3", "malformed rational: '1_0/3'"),
            ("0x1/2", "malformed rational: '0x1/2'"),
            ("1/0", "zero denominator in rational: '1/0'"),
        ],
    )
    def test_bad_endpoint_refused_with_line(self, tmp_path, token, message):
        path = tmp_path / "table.txt"
        path.write_text(f"# header\ninterval {token} 1/2\npoly 1 -3 1\n")
        with pytest.raises(ValueError) as exc:
            parse_table_file(path)
        assert str(exc.value) == f"{path}:2: {message}"

    def test_round_trip_polys(self):
        for entry in parse_table_file(bundled_table_path()):
            assert parse_poly(format_poly(entry.poly)) == entry.poly


class TestUsage:
    def test_unknown_subcommand(self):
        report = run(["frobnicate"])
        assert report.exit_code == EXIT_USAGE

    def test_no_args(self):
        report = run([])
        assert report.exit_code == EXIT_USAGE

    def test_command_echo(self):
        report = run(["farey", "--order", "1"])
        assert report.command == "farey --order 1"


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_runs_match_separate_processes(self, witness_file):
        # usage errors (missing option, clashing options, unknown command)
        # between valid commands that rely on defaults
        commands = [
            ["farey"],
            ["farey", "--order", "3"],
            ["certify", "--poly", witness_file, "--interval", "1/3", "2/5",
             "--bound", "1", "--conjecture"],
            ["construct", "pair", "1/3", "2/5", "--degree", "4"],
            ["frobnicate"],
            ["certify", "--poly", witness_file, "--interval", "1/3", "2/5", "--conjecture"],
            ["search", "--interval", "1/3", "2/5", "--degree", "4"],
        ]
        in_process = [run(argv) for argv in commands]
        for argv, report in zip(commands, in_process):
            result = subprocess.run(
                [sys.executable, "-m", "monicheb.cli", *argv],
                env=module_env(),
                capture_output=True,
                text=True,
                timeout=60,
            )
            printed = [f"command={report.command}"] + report.lines
            assert result.stdout == "".join(f"{line}\n" for line in printed)
            assert result.returncode == report.exit_code
        assert [r.exit_code for r in in_process] == [3, 0, 3, 0, 3, 0, 0]


def module_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_module_entry_point_runs_without_warnings():
    result = subprocess.run(
        [sys.executable, "-m", "monicheb.cli", "farey", "--order", "3"],
        env=module_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert "count=5" in result.stdout.splitlines()


def test_closed_pipe_ends_quietly():
    # about 180 kB of output, more than a pipe holds, so the command writes
    # into the pipe after its reader has closed it
    proc = subprocess.Popen(
        [sys.executable, "-m", "monicheb.cli", "farey", "--order", "200"],
        env=module_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "command=farey --order 200\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_OK
    assert stderr == ""
