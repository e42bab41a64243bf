import hashlib
import json
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

import quadcantor as qc
from quadcantor import ntheory
from quadcantor.cli import _decimal_digits, _emit, _plain, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestFactor:
    def test_matches_library(self, capsys, gauss):
        record = run_json(capsys, "factor", "-d", "-1", "10")
        fact = qc.factor_element(gauss.element(10))
        assert record["schema"] == 1
        assert record["norm"] == "100"
        got = {
            (f["p"], tuple(f["hnf"]), f["exponent"], f["e"], f["f"])
            for f in record["factors"]
        }
        want = {
            (
                str(p.p),
                (str(p.hnf.a), str(p.hnf.b), str(p.hnf.c)),
                str(b),
                str(p.e),
                str(p.f),
            )
            for p, b in fact.factors
        }
        assert got == want

    def test_norm_two_primes_near_a_million(self, capsys):
        # (408+913w)(134+991w), norm 1000033 * 1000037
        record = run_json(capsys, "factor", "-d", "-1", "--", "-850111+526670*w")
        assert record["norm"] == str(1000033 * 1000037)
        assert [(f["p"], f["exponent"]) for f in record["factors"]] == [
            ("1000033", "1"),
            ("1000037", "1"),
        ]


class TestOrder:
    def test_known_order(self, capsys):
        record = run_json(
            capsys, "order", "-d", "-1", "--beta", "3", "--p", "5", "--root", "2",
            "--n", "3",
        )
        assert record["order"] == "100"  # 20 * 5 above the stable level 2
        assert record["used_closed_form"] is True
        assert record["n0"] == "2" and record["m"] == "20"

    def test_closed_form_above_e_plus_one(self, capsys):
        # beta = 5 at (1+i): e = 2, n0 = 4; every n > e + 1 = 3 follows the law
        for n, closed in (("3", False), ("4", True)):
            record = run_json(capsys, "order", "-d", "-1", "--beta", "5", "--p", "2", "--n", n)
            assert record["n0"] == "4" and record["e"] == "2"
            assert record["used_closed_form"] is closed

    def test_orders_match_the_library(self, capsys, gauss):
        # the CLI sizes the closed form itself; the printed order must agree
        prime = next(q for q in qc.factor_rational_prime(gauss, 5).primes if q.root == 2)
        stab = qc.stabilization(gauss.element(3), prime)
        for n in range(1, 8):
            record = run_json(
                capsys, "order", "-d", "-1", "--beta", "3", "--p", "5", "--root", "2",
                "--n", str(n),
            )
            assert record["order"] == str(stab.order(n))

    def test_stabilization_runs_once(self, capsys, monkeypatch):
        from quadcantor import cli, orders

        calls = []
        original = orders.stabilization

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "stabilization", counted)
        monkeypatch.setattr(orders, "stabilization", counted)
        record = run_json(
            capsys, "order", "-d", "-1", "--beta", "3", "--p", "5", "--root", "2",
            "--n", "1",
        )
        assert record["order"] == "4" and record["used_closed_form"] is False
        assert len(calls) == 1

    def test_split_prime_needs_root(self, capsys):
        code, _, err = run_cli(capsys, "order", "-d", "-1", "--beta", "3", "--p", "5")
        assert code == 2
        assert "disambiguate" in err

    def test_hnf_picks_the_prime_of_its_root(self, capsys):
        # in Z[i], (5, w-2) has the form 5,3,1 and (5, w-3), which holds
        # beta = 2+w, the form 5,2,1
        argv = ("order", "-d", "-1", "--beta", "2+w", "--p", "5")
        by_hnf = run_cli(capsys, *argv, "--hnf", "5,3,1")
        assert by_hnf[0] == 0 and by_hnf == run_cli(capsys, *argv, "--root", "2")
        by_hnf = run_cli(capsys, *argv, "--hnf", "5,2,1")
        assert by_hnf == run_cli(capsys, *argv, "--root", "3")
        code, out, err = by_hnf
        assert code == 2 and out == ""
        assert "lies in the prime (5, w-3)" in err

    def test_no_such_prime_exits_2(self, capsys):
        argv = ("order", "-d", "-1", "--beta", "2+w", "--p", "5")
        for option, message in (
            (("--hnf", "5,1,1"), "hnf 5,1,1 is not a prime above 5"),
            (("--root", "4"), "w-4 does not cut out a prime above 5"),
        ):
            code, out, err = run_cli(capsys, *argv, *option)
            assert code == 2 and out == ""
            assert message in err


class TestMember:
    def test_half_not_member(self, capsys):
        record = run_json(
            capsys, "member", "-d", "-1", "--beta", "3", "--digits", "0,2",
            "--point", "1/2",
        )
        assert record["member"] is False
        assert record["period"] == []

    def test_quarter_member(self, capsys):
        record = run_json(
            capsys, "member", "-d", "-1", "--beta", "3", "--digits", "0,2",
            "--point", "1/4",
        )
        assert record["member"] is True
        assert record["period"] == ["0", "2"]
        assert int(record["states"]) <= int(record["bound"])

    def test_negative_digit_after_its_option(self, capsys):
        record = run_json(
            capsys, "member", "-d", "-1", "--beta", "3", "--digits", "-1,1",
            "--point", "1/2",
        )
        assert record["member"] is True
        assert record["period"] == ["1"]


class TestIntersect:
    def test_wall_bounded(self, capsys, gauss):
        record = run_json(
            capsys, "intersect", "-d", "-1", "--alpha", "2", "--beta", "3",
            "--digits", "0,2", "--mode", "bounded", "--nmax", "4",
        )
        values = {p["value"] for p in record["points"]}
        assert values == {"0", "1/4", "3/4", "1"}
        assert record["exhausted"] is False
        assert record["n0"] is not None
        quarter = next(p for p in record["points"] if p["value"] == "1/4")
        assert quarter["num"] == "1" and quarter["den_pow"] == "2"
        assert quarter["tuple"] == ["4"]
        assert quarter["period"] == ["0", "2"]

    def test_byte_identical_runs(self, capsys):
        argv = (
            "intersect", "-d", "-1", "--alpha", "2", "--beta", "3",
            "--digits", "0,2", "--mode", "bounded", "--nmax", "3",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_certified_falls_back_under_cap(self, capsys):
        argv = (
            "intersect", "-d", "-1", "--alpha", "2", "--beta", "3",
            "--digits", "0,2", "--mode", "certified",
        )
        # the one survivor (20,) costs 384, 2^6 balls of 6 rows and points
        # each: a 10^4 cap exhausts
        record = run_json(capsys, *argv, "--cap", "10000")
        assert record["exhausted"] is True
        assert record["level"] == record["n0"] == "44"
        assert record["survivors"] == [["20"]]
        assert record["swept"] == [{"tuple": ["20"], "cost": "384", "swept": True}]
        assert record["fallback"] is None
        assert {p["value"] for p in record["points"]} == {"0", "1/4", "3/4", "1"}
        # a cap below 384 falls back to the largest level that fits
        record = run_json(capsys, *argv, "--cap", "200")
        assert record["exhausted"] is False
        assert int(record["level"]) < int(record["n0"])
        assert record["fallback"] == [{"tuple": ["20"], "cost": "384", "swept": False}]
        assert {p["value"] for p in record["points"]} == {"0", "1/4", "3/4", "1"}

    def test_certified_case_two_names_the_over_cap_survivor(self, capsys):
        # the survivor (2,) left by the hole costs 1536, over this cap
        cap = 1024
        record = run_json(
            capsys, "intersect", "-d", "-1", "--alpha=-4+w", "--beta=-2+w",
            "--digits", "0,1,2,3", "--mode", "certified", "--cap", str(cap),
        )
        assert record["exhausted"] is False
        assert record["n0"] == "109"
        assert record["survivors"] == [["2"]]
        [skipped] = record["fallback"]
        assert skipped["tuple"] == ["2"] and skipped["swept"] is False
        assert int(skipped["cost"]) > cap
        swept = [s for s in record["swept"] if s["swept"]]
        assert swept == [{"tuple": [record["level"]], "cost": swept[0]["cost"], "swept": True}]
        assert int(swept[0]["cost"]) <= cap
        assert {p["value"] for p in record["points"]} == {"0"}

    def test_certified_case_two_exhausts_with_its_hole(self, capsys):
        record = run_json(
            capsys, "intersect", "-d", "-1", "--alpha=-4+w", "--beta=-2+w",
            "--digits", "0,1,2,3", "--mode", "certified",
        )
        assert record["exhausted"] is True
        assert record["level"] == record["n0"] == "109"
        assert record["survivors"] == [["2"]]
        assert record["swept"] == [{"tuple": ["2"], "cost": "1536", "swept": True}]
        assert record["fallback"] is None
        assert [p["value"] for p in record["points"]] == ["0"]
        hole = record["hole"]
        assert hole["rho_sq"] == "1/578" and hole["dropped"] == "10"
        assert set(hole) == {"centre", "rho_sq", "nodes", "dropped"}

    def test_hole_key_only_in_case_two(self, capsys):
        # case (i) runs keep their records; a case-(ii) run without a hole
        # says so
        record = run_json(
            capsys, "intersect", "-d", "-1", "--alpha", "2", "--beta", "3",
            "--digits", "0,2", "--mode", "certified",
        )
        assert "hole" not in record
        record = run_json(
            capsys, "intersect", "-d", "-1", "--alpha=-4+w", "--beta=-2+w",
            "--digits", "0,1,2,3", "--mode", "bounded", "--nmax", "1",
        )
        assert record["hole"] is None and record["survivors"] == [["1"]]


class TestBound:
    def test_case_two_trace(self, capsys):
        record = run_json(
            capsys, "bound", "-d", "-1", "--alpha", "-4+w", "--beta", "-2+w",
            "--digits", "0,1,2,3",
        )
        assert record["case"] == "case_ii"
        assert record["n0"] is not None
        assert all(s["excluded"] for s in record["samples"])

    def test_no_case_trace(self, capsys):
        record = run_json(
            capsys, "bound", "-d", "-1", "--alpha", "-4+w", "--beta", "-2+w",
            "--digits", "0,1,2,3,4",
        )
        assert record["case"] is None and record["n0"] is None


class TestDimRenderCns:
    def test_dim(self, capsys):
        record = run_json(capsys, "dim", "-d", "-1", "--beta", "3", "--digits", "0,2")
        assert record["sigma"].startswith("0.6309297535")
        assert record["r_prime_sq"] == "1"
        assert record["covering"][2]["bound"] == "4"

    def test_dim_negative_rows_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "dim", "-d", "-1", "--beta", "3", "--digits", "0,2", "--rows", "-3"
        )
        assert code == 2 and out == ""
        assert "--rows" in err

    def test_render(self, capsys, tmp_path):
        out = tmp_path / "pts.csv"
        svg = tmp_path / "pts.svg"
        record = run_json(
            capsys, "render", "-d", "-1", "--beta", "3", "--digits", "0,2",
            "--depth", "3", "--out", str(out), "--svg", str(svg),
        )
        assert record["points"] == "8"
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert all("," in line for line in lines)
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("target", ["--out", "--svg"])
    def test_render_to_a_missing_directory_exits_two(self, capsys, tmp_path, target):
        paths = {"--out": str(tmp_path / "pts.csv"), "--svg": str(tmp_path / "pts.svg")}
        paths[target] = str(tmp_path / "missing" / "x")
        code, out, err = run_cli(
            capsys, "render", "-d", "-1", "--beta", "3", "--digits", "0,2", "--depth", "3",
            *(t for item in paths.items() for t in item),
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and paths[target] in err

    def test_render_with_a_missing_svg_directory_leaves_no_csv(self, capsys, tmp_path):
        csv = tmp_path / "ok.csv"
        svg = str(tmp_path / "missing" / "x.svg")
        code, out, err = run_cli(
            capsys, "render", "-d", "-1", "--beta", "3", "--digits", "0,2", "--depth", "3",
            "--out", str(csv), "--svg", svg,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and svg in err
        assert not csv.exists()

    def test_render_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_json(capsys, "render", "-d", "-1", "--beta", "3", "--digits", "0,2",
                 "--depth", "4", "--out", str(a))
        run_json(capsys, "render", "-d", "-1", "--beta", "3", "--digits", "0,2",
                 "--depth", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, csv_sha, svg_sha",
        [
            (("-d", "-1", "--beta", "3", "--digits", "0,2", "--depth", "8"),
             "69cb957dcb42a9cf", "084fc564704f2646"),
            (("-d", "-1", "--beta", "-2+w", "--digits", "0,1,2,3", "--depth", "6"),
             "554b3d7fb4c71253", "337c84baa50b8627"),
            (("-d", "-3", "--beta", "2", "--digits", "0,1,w", "--depth", "7"),
             "6a18e9ccc9e843a2", "ac5531283a8b9b6d"),
        ],
    )
    def test_render_bytes_pinned(self, capsys, tmp_path, argv, csv_sha, svg_sha):
        # the bytes numpy-based sampling wrote; plain complex arithmetic matches them
        out, svg = tmp_path / "pts.csv", tmp_path / "pts.svg"
        run_json(capsys, "render", *argv, "--out", str(out), "--svg", str(svg))
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == csv_sha
        assert hashlib.sha256(svg.read_bytes()).hexdigest()[:16] == svg_sha

    def test_cns_expand(self, capsys):
        record = run_json(capsys, "cns", "--n", "2", "--expand", "5")
        assert record["digits"] == ["0", "1", "3", "1"]

    def test_cns_evaluate(self, capsys):
        record = run_json(capsys, "cns", "--n", "2", "--evaluate", "0,1,3,1")
        assert record["value"] == "5"


class TestExitCodes:
    def test_parse_error_names_token(self, capsys):
        code, _, err = run_cli(
            capsys, "member", "-d", "-1", "--beta", "3", "--digits", "0,2",
            "--point", "1/x",
        )
        assert code == 1
        assert "'x'" in err

    def test_precondition_failure(self, capsys):
        # alpha = beta = 2 are not coprime: certified mode has no case
        code, _, err = run_cli(
            capsys, "intersect", "-d", "-1", "--alpha", "2", "--beta", "2",
            "--digits", "0,1", "--mode", "certified",
        )
        assert code == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys, "render", "-d", "-1", "--beta", "3", "--digits", "0,2",
            "--depth", "25", "--out", "/dev/null", "--cap", "1000",
        )
        assert code == 3

    def test_survivor_over_cap_at_level_zero(self, capsys):
        # the one survivor (0,) of the first spec is over the cap itself, and
        # Wall's survivor (20,) has no part that fits, down to level 0: each
        # run stops before any sweep and names its survivor
        for argv, message in (
            (
                ("-d", "-1", "--alpha=-4-w", "--beta=-4+2*w",
                 "--digits", "3-w,2,-3-2*w", "--cap", "4"),
                "sweep of survivor (0,) may touch",
            ),
            (
                ("-d", "-1", "--alpha", "2", "--beta", "3", "--digits", "0,2", "--cap", "5"),
                "sweep of part (0,) of survivor (20,) may touch 6",
            ),
        ):
            code, out, err = run_cli(capsys, "intersect", *argv, "--mode", "certified")
            assert code == 3 and out == ""
            assert message in err

    @pytest.mark.parametrize("n_max", [10**5, 10**6, 10**12])
    def test_box_too_deep_refused_before_its_lattice_is_built(self, capsys, n_max):
        # no case applies, so bounded mode sweeps the whole box (2*n_max,)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "intersect", "-d", "-1", "--alpha", "2", "--beta", "3",
            "--digits", "0,1,2", "--mode", "bounded", "--nmax", str(n_max),
        )
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert f"sweep of survivor ({2 * n_max},) may touch at least 354294 " in err

    def test_negative_cap_refused(self, capsys):
        for argv in (
            ("intersect", "-d", "-1", "--alpha", "2", "--mode", "certified"),
            ("render", "-d", "-1", "--depth", "3", "--out", "/dev/null"),
        ):
            code, out, err = run_cli(
                capsys, *argv, "--beta", "3", "--digits", "0,2", "--cap", "-1"
            )
            assert code == 2 and out == ""
            assert "--cap" in err

    def test_order_too_long_to_print(self, capsys):
        # 20 * 5^9998 has 6,990 digits, over the interpreter's default 4,300
        code, out, err = run_cli(
            capsys, "order", "-d", "-1", "--beta", "3", "--p", "5", "--root", "2",
            "--n", "10000",
        )
        assert code == 3
        assert out == ""
        assert "6990 decimal digits" in err

    def test_huge_order_refused_before_it_is_built(self, capsys):
        # 20 * 5^9999998 has 6,989,700 digits; building it alone takes seconds,
        # and a float logarithm of the order at --n 10^400 overflows
        for n, message in (
            ("10000000", "has 6989700 decimal digits"),
            ("1" + "0" * 400, "has 69897000433"),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(
                capsys, "order", "-d", "-1", "--beta", "3", "--p", "5", "--root", "2",
                "--n", n,
            )
            assert time.perf_counter() - start < 1.0
            assert code == 3
            assert out == ""
            assert message in err

    def test_parse_limit_n_refused_at_once(self, capsys):
        # a 4,300-digit --n: the bit bound refuses it without the logarithm
        # to 4,300 digits that an exact count would need
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "order", "-d", "-1", "--beta", "3", "--p", "5", "--root", "2",
            "--n", "9" * 4300,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "more than 4300 decimal digits" in err

    def test_decimal_digits_match_the_printed_number(self):
        # powers of ten and their neighbours take the exact branch
        for m in (1, 2, 3, 7, 9, 10, 20, 99, 999999, 10**6, 10**6 + 1):
            for p in (2, 3, 5, 7, 10, 9973):
                for lift in (*range(40), 997, 1000):
                    assert _decimal_digits(m, p, lift) == len(str(m * p**lift))

    def test_factoring_over_rho_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(ntheory, "_RHO_STEP_BUDGET", 64)
        norm = str(1000033 * 1000037)
        code, _, err = run_cli(capsys, "factor", "-d", "-1", "--", "-850111+526670*w")
        assert code == 3
        assert norm in err
        code, _, err = run_cli(
            capsys, "bound", "-d", "-1", "--alpha", "-850111+526670*w",
            "--beta", "-2+w", "--digits", "0,1",
        )
        assert code == 3
        assert norm in err

    def test_invalid_field(self, capsys):
        code, _, err = run_cli(capsys, "factor", "-d", "-4", "10")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("member", "-d", "-1", "--digits", "0,2", "--point", "1/4"),
             "missing required option --beta"),
            (("cns", "--n", "2", "--expand", "5", "--evaluate", "0,1"),
             "cns needs exactly one of --expand or --evaluate"),
            (("cns", "--n", "2"), "cns needs exactly one of --expand or --evaluate"),
        ],
        ids=["missing-option", "cns-both", "cns-neither"],
    )
    def test_option_misuse(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("dim", "-d", "-1", "--beta", "1" + "0" * 200, "--digits", "0,1" + "0" * 170),
            ("render", "-d", "-1", "--beta", "1" + "0" * 309, "--digits", "0,1" + "0" * 170,
             "--depth", "1", "--out", "/dev/null"),
        ],
        ids=["dim", "render"],
    )
    def test_float_overflow(self, capsys, argv):
        # dim's |beta| and render's samples are floats, bounded near 1.8e308
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "out of float range" in err

    def test_exact_commands_take_norms_beyond_the_float_range(self, capsys):
        spec = ("-d", "-1", "--beta", "1" + "0" * 200, "--digits", "0,1" + "0" * 170)
        member = run_json(capsys, "member", *spec, "--point", "0")
        assert member["member"] is True
        bound = run_json(capsys, "bound", "--alpha", "3", *spec)
        assert bound["r_prime_sq"] == "1/4096"
        cert = run_json(capsys, "intersect", "--alpha", "3", *spec, "--mode", "certified")
        assert cert["exhausted"] is True and cert["level"] == cert["n0"]


class TestConfig:
    def test_defaults_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("# wall setup\nd = -1\nbeta = 3\ndigits = 0,2\n")
        record = run_json(
            capsys, "member", "--config", str(cfg), "--point", "1/4"
        )
        assert record["member"] is True

    def test_line_without_equals_refused(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("d = -1\nbeta 3\n")
        code, out, err = run_cli(capsys, "member", "--config", str(cfg), "--point", "1/4")
        assert code == 2 and out == ""
        assert "job.cfg:2: expected 'key = value'" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        missing = str(tmp_path / "none.cfg")
        code, out, err = run_cli(capsys, "member", "--config", missing, "--point", "1/4")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and missing in err

    def test_key_of_no_option_refused(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("d = -1\nbeta = 3\ndigit = 0,2\n")
        code, out, err = run_cli(capsys, "member", "--config", str(cfg), "--point", "1/4")
        assert code == 2 and out == ""
        assert "job.cfg:3: 'digit' is no option of any command" in err

    def test_file_shared_across_commands(self, capsys, tmp_path):
        # alpha and mode are options of intersect, not of member
        cfg = tmp_path / "job.cfg"
        cfg.write_text("d = -1\nbeta = 3\ndigits = 0,2\nalpha = 10\nmode = certified\n")
        assert run_json(capsys, "member", "--config", str(cfg), "--point", "1/4")["member"] is True
        record = run_json(capsys, "intersect", "--config", str(cfg))
        assert record["exhausted"] is True

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("d = -1\nbeta = 3\ndigits = 0,2\npoint = 1/2\n")
        record = run_json(
            capsys, "member", "--config", str(cfg), "--point", "1/4"
        )
        assert record["member"] is True


def _readme_commands():
    """The argv of each command in the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("quadcantor ")]
    return [shlex.split(line)[1:] for line in lines]


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


class TestFormat:
    def test_readme_records_hold_only_text_bools_and_null(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # render writes its files here
        commands = _readme_commands()
        assert {argv[0] for argv in commands} == {
            "factor", "order", "member", "intersect", "bound", "dim", "render", "cns"
        }
        for argv in commands:
            record = run_json(capsys, *argv)
            assert record.pop("schema") == 1
            for leaf in _leaves(record):
                assert leaf is None or isinstance(leaf, (str, bool)), (argv, leaf)

    def test_plain_maps_each_type(self, gauss):
        z = gauss.element(-4, 1)
        assert _plain(True) is True and _plain(False) is False
        assert _plain(None) is None and _plain("1/4") == "1/4"
        assert _plain(0.1 + 0.2) == "0.3" and _plain(1 / 3) == "0.333333333333333"
        assert _plain(-(10**40)) == "-1" + "0" * 40 and _plain(0) == "0"
        assert _plain(z) == "-4+w"
        assert _plain(qc.FieldElement(z, 5)) == "(-4+w)/5"
        assert _plain(Fraction(-3, 4)) == "-3/4"
        assert _plain({"a": (1, [True, None]), "b": {"c": z}}) == {
            "a": ["1", [True, None]],
            "b": {"c": "-4+w"},
        }
        other = object()
        assert _plain([other]) == [other]
        with pytest.raises(TypeError):
            _emit({"value": other})

    def test_plain_rejects_a_record(self, gauss):
        # records are named tuples, which json.dumps would write as bare lists
        coding = qc.Coding((), (gauss.element(0),))
        prime = qc.factor_rational_prime(gauss, 5).primes[0]
        for record in (coding, prime):
            name = type(record).__name__
            with pytest.raises(TypeError, match=name):
                _plain(record)
            with pytest.raises(TypeError, match=name):
                _emit({"value": [record]})
        assert _plain((1, (gauss.element(2),))) == ["1", ["2"]]
