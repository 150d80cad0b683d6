"""Command-line contracts: payload schemas, determinism, exit codes."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clzeta
from clzeta import verify
from clzeta.cli import build_parser, main
from clzeta.formulas import rank_series_hypergeometric
from clzeta.oracle import kernel_name
from clzeta.verify import Check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeriesCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--id", "fat-line", "--b", "2", "--q", "2",
            "--trunc", "5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"]["id"] == "fat-line"
        result = report["result"]
        assert result["vars"] == ["t"]
        assert result["trunc"] == [5]
        assert result["terms"][0] == [[0], "1/1"]
        assert result["terms"][2] == [[2], "14/3"]

    def test_tsv_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--id", "line", "--q", "3", "--trunc", "3",
            "--format", "tsv",
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows == [["0", "1", "1"], ["1", "3", "2"], ["2", "27", "16"]]

    def test_formal_series(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--id", "rank-series-hyper", "--trunc", "3",
            "--u-trunc", "3", "--q-trunc", "5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["vars"] == ["t", "u", "q"]

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--id", "bogus")
        assert code == 2
        assert "unknown formula id" in err

    def test_missing_q_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--id", "fat-line")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--id", "fat-line", "--q", "2", "--b", "0"),
            ("--id", "nonred-node-local", "--q", "2", "--b", "0"),
            ("--id", "rank-series-hyper", "--trunc", "3", "--u-trunc", "0"),
            ("--id", "rank-series-partitions", "--trunc", "3", "--q-trunc", "0"),
        ],
    )
    def test_zero_is_refused_not_replaced(self, capsys, argv):
        # a zero b or truncation order reaches the formula, which refuses it;
        # it is never swapped for the default
        code, out, err = run(capsys, "series", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_dvr_poly_refuses_a_q_that_is_not_a_prime_power(self, capsys):
        code, out, err = run(capsys, "series", "--id", "dvr-poly", "--q", "6", "--trunc", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "prime power" in err

    def test_unused_options_are_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["series", "--id", "line", "--q", "3", "--shards", "2"])
        assert err.value.code == 2

    def test_dvr_poly_matches_feit_fine(self, capsys):
        # the product over closed points takes the integer q as given
        terms = []
        for formula in ("dvr-poly", "feit-fine"):
            code, out, _ = run(capsys, "series", "--id", formula, "--q", "2", "--trunc", "5")
            assert code == 0
            terms.append(json.loads(out)["result"]["terms"])
        assert terms[0] == terms[1]

    def test_reproducible_payload(self, capsys):
        reports = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "series", "--id", "feit-fine", "--q", "2", "--trunc", "4"
            )
            report = json.loads(out)
            report.pop("elapsed_ms", None)
            reports.append(report)
        assert reports[0] == reports[1]


class TestOracleCommand:
    def test_single_count_record(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--relations", "A*B-B*A, A^2*B", "--q", "3", "--n", "2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["op"] == "count_matrix_points"
        assert report["result"]["value"] == "273"
        assert report["result"]["strategy"] == "linear-in-B"

    def test_payload_counts_scanned_rejected_inconsistent(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--relations", "A*B - B*A, A", "--q", "2", "--n", "2"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["value"] == "16"
        assert (result["scanned"], result["rejected"], result["inconsistent"]) == (16, 15, 0)

    def test_report_names_the_kernel(self, capsys):
        for size in (["--n", "1"], ["--nmax", "1"]):
            code, out, _ = run(capsys, "oracle", "--relations", "A*B-B*A", "--q", "2", *size)
            assert code == 0
            assert json.loads(out)["kernel"] == kernel_name()

    # 2147483659 is the least prime above 2^31; the budget admits its A space
    BEYOND_THE_KERNEL = (
        "oracle", "--relations", "A*B - B*A", "--q", "2147483659", "--n", "1",
        "--budget", "1099511627776",
    )

    def test_prime_beyond_the_compiled_kernel_is_exit_2(self, capsys):
        code, out, err = run(capsys, *self.BEYOND_THE_KERNEL)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2^31" in err

    def test_prime_beyond_the_compiled_kernel_is_refused_by_the_python_kernel(self):
        # the refusal comes before either kernel runs; without it the Python
        # kernel would start a scan of 2.1e9 matrices and hit the timeout
        src = str(Path(clzeta.__file__).resolve().parent.parent)
        env = dict(os.environ, CLZETA_FORCE_PY="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from clzeta.cli import main; sys.exit(main(sys.argv[1:]))",
             *self.BEYOND_THE_KERNEL],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "2^31" in proc.stderr

    # 2^64 A matrices, past the signed 64-bit odometer; the budget admits them
    BEYOND_THE_ODOMETER = (
        "oracle", "--relations", "A*B - B*A", "--q", "2", "--n", "8",
        "--budget", "100000000000000000000000",
    )

    def test_a_space_of_2_63_or_more_is_exit_2(self, capsys):
        code, out, err = run(capsys, *self.BEYOND_THE_ODOMETER)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2^63" in err

    def test_a_space_of_2_63_or_more_is_refused_by_the_python_kernel(self):
        src = str(Path(clzeta.__file__).resolve().parent.parent)
        env = dict(os.environ, CLZETA_FORCE_PY="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from clzeta.cli import main; sys.exit(main(sys.argv[1:]))",
             *self.BEYOND_THE_ODOMETER],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "2^63" in proc.stderr

    def test_payload_carries_the_nullity_histogram(self, capsys):
        code, out, _ = run(capsys, "oracle", "--relations", "A*B - B*A", "--q", "2", "--n", "2")
        assert code == 0
        result = json.loads(out)["result"]
        # 14 non-scalar A with a 2-dimensional centralizer, 2 scalar A: 88 = 14 * 2^2 + 2 * 2^4
        assert result["histogram"] == [0, 0, 14, 0, 2]
        assert result["value"] == "88"
        code, out, _ = run(capsys, "oracle", "--relations", "B*B", "--q", "2", "--n", "1")
        assert json.loads(out)["result"]["histogram"] is None

    def test_tsv_output_has_no_histogram(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--relations", "A*B - B*A", "--q", "2", "--n", "2",
            "--format", "tsv",
        )
        assert (code, out) == (0, "2\t88\t1\n")

    def test_shards_far_beyond_the_a_space_stay_cheap(self):
        # only min(shards, q^(n^2)) ranges are walked; walking all 10^8 of
        # them took 20 s
        src = str(Path(clzeta.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from clzeta.cli import main; sys.exit(main(sys.argv[1:]))",
             "oracle", "--relations", "A*B-B*A", "--q", "2", "--n", "1",
             "--shards", "100000000"],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["value"] == "4"

    def test_zero_shards_is_exit_2_for_the_full_strategy(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--relations", "B*B", "--q", "2", "--n", "1", "--shards", "0"
        )
        assert code == 2
        assert out == ""
        assert "shards" in err

    def test_series_mode(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--relations", "A*B-B*A", "--q", "2", "--nmax", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["terms"][2] == [[2], "44/3"]

    def test_requires_exactly_one_size(self, capsys):
        code, _, err = run(capsys, "oracle", "--relations", "A", "--q", "2")
        assert code == 2

    def test_budget_exceeded_is_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "oracle", "--relations", "A*B-B*A", "--q", "3", "--n", "3",
            "--budget", "100",
        )
        assert code == 2
        assert "exceeds budget" in err

    def test_syntax_error_is_exit_2(self, capsys):
        code, _, err = run(capsys, "oracle", "--relations", "A**B", "--q", "2", "--n", "1")
        assert code == 2
        assert "offset 2" in err


class TestDirichletCommand:
    def test_poly_ring_zeta(self, capsys):
        code, out, _ = run(
            capsys, "dirichlet", "--which", "cl-poly", "--ring", "Z", "--length", "8"
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["N"] == 8
        assert report["result"]["a"][3] == "14/3"

    def test_local_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "dirichlet", "--which", "an-local", "--p", "2", "--k", "2"
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == "14/3"

    def test_local_zeta_tsv(self, capsys):
        code, out, _ = run(
            capsys,
            "dirichlet", "--which", "cl-local", "--ring", "Zp", "--p", "3",
            "--length", "9", "--format", "tsv",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[2].split("\t") == ["3", "1", "2"]

    def test_missing_ring_parameter(self, capsys):
        code, _, err = run(capsys, "dirichlet", "--which", "cl-local", "--ring", "Zp")
        assert code == 2

    RING_ARGS = {
        "Z": ("--ring", "Z"),
        "Zp": ("--ring", "Zp", "--p", "3"),
        "FqPoly": ("--ring", "FqPoly", "--qparam", "4"),
        "FqPowerSeries": ("--ring", "FqPowerSeries", "--qparam", "4"),
    }

    @pytest.mark.parametrize("length", ["0", "-3"])
    @pytest.mark.parametrize(
        "which, ring",
        [
            ("zeta", "Z"),
            ("zeta", "Zp"),
            ("zeta", "FqPoly"),
            ("zeta", "FqPowerSeries"),
            ("cl-local", "Zp"),
            ("cl-local", "FqPowerSeries"),
            ("cl-poly", "Z"),
            ("cl-poly", "FqPoly"),
        ],
    )
    def test_nonpositive_length_is_exit_2(self, capsys, which, ring, length):
        code, out, err = run(
            capsys, "dirichlet", "--which", which, *self.RING_ARGS[ring], "--length", length
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "which, ring", [("cl-local", "Z"), ("cl-local", "FqPoly"), ("cl-poly", "Zp")]
    )
    def test_unsupported_ring_is_exit_2(self, capsys, which, ring):
        code, out, err = run(capsys, "dirichlet", "--which", which, *self.RING_ARGS[ring])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_large_prime_power_parameter_is_checked_quickly(self):
        # 2^31 - 1 is prime; the prime-power test must not try every divisor
        src = str(Path(clzeta.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from clzeta.cli import main; sys.exit(main(sys.argv[1:]))",
             "dirichlet", "--which", "zeta", "--ring", "FqPoly",
             "--qparam", "2147483647", "--length", "4"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["a"] == ["1/1", "0/1", "0/1", "0/1"]

    @pytest.mark.parametrize(
        ("p", "k"), [("2", "101"), ("2", "200"), ("101", "100"), ("2305843009213693951", "60")]
    )
    def test_local_coefficient_beyond_the_bound_is_refused_at_once(self, p, k):
        # k = 200 at p = 2 computed for 25 s and then failed to print; the
        # large-p cases computed for 12 s and over 30 s
        src = str(Path(clzeta.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from clzeta.cli import main; sys.exit(main(sys.argv[1:]))",
             "dirichlet", "--which", "an-local", "--p", p, "--k", k],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"k = {k}" in proc.stderr


class TestKernelFallbackNote:
    """oracle and verify announce the Python fallback on stderr when the
    compiled kernel fails to import, and stay quiet when CLZETA_FORCE_PY
    chooses it."""

    BLOCK = "sys.modules['clzeta.oracle._kernels'] = None; "

    @staticmethod
    def _run(prelude, argv, force_py):
        src = str(Path(clzeta.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "CLZETA_FORCE_PY"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if force_py:
            env["CLZETA_FORCE_PY"] = "1"
        return subprocess.run(
            [sys.executable, "-c",
             "import sys; " + prelude
             + "from clzeta.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    COMMANDS = [
        ("oracle", "--relations", "A*B - B*A", "--q", "2", "--n", "1"),
        ("verify", "--suite", "permutations"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_failed_import_is_announced(self, argv):
        proc = self._run(self.BLOCK, argv, force_py=False)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kernel"] == "python"
        assert proc.stderr.count("\n") == 1
        assert "Python fallback" in proc.stderr
        assert "clzeta.oracle._kernels" in proc.stderr

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_forced_fallback_is_silent(self, argv):
        proc = self._run(self.BLOCK, argv, force_py=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kernel"] == "python"
        assert proc.stderr == ""


class TestConjCommand:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "conj", "--p", "3", "--type", "1,1")
        assert code == 0
        assert json.loads(out)["result"]["classes"] == 8

    def test_oversized_tables_are_refused_at_once(self):
        # |Aut| = 65536 passes the conjugacy budget, but its 65536 tables of
        # 65537 entries each ran for more than 20 s on the way to memory
        # exhaustion before |Aut| * |N| was checked
        src = str(Path(clzeta.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "CLZETA_BUDGET"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from clzeta.cli import main; sys.exit(main(sys.argv[1:]))",
             "conj", "--p", "65537", "--type", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "4295032832" in proc.stderr


class TestParserReuse:
    """``main`` parses with one parser per process: calls must not see each
    other, whatever their order and whether an earlier call was refused."""

    SERIES = ("series", "--id", "fat-line", "--b", "2", "--q", "2", "--trunc", "5")
    VERIFY = ("verify", "--suite", "euler")

    @staticmethod
    def _reports(capsys, *argvs):
        reports = []
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            report = json.loads(out)
            report.pop("elapsed_ms")
            reports.append((code, report))
        return reports

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_order_does_not_change_the_output(self, capsys):
        forward = self._reports(capsys, self.SERIES, self.VERIFY)
        backward = self._reports(capsys, self.VERIFY, self.SERIES)
        assert forward == backward[::-1]
        assert [code for code, _ in forward] == [0, 0]

    def test_refused_options_do_not_leak(self, capsys):
        (fresh,) = self._reports(capsys, self.VERIFY)
        code, out, err = run(capsys, *self.VERIFY, "--budget", "5")
        assert code == 2 and out == "" and "--budget" in err
        with pytest.raises(SystemExit) as exc:
            main([*self.SERIES, "--shards", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert self._reports(capsys, self.VERIFY, self.SERIES) == [
            fresh,
            *self._reports(capsys, self.SERIES),
        ]


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "feit-fine", "--q", "2", "--nmax", "3"
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert all(c["passed"] for c in report["checks"])
        assert report["result"]["failed"] == 0
        assert report["kernel"] == kernel_name()

    def test_tsv_prints_both_sides(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "permutations", "--format", "tsv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert any(line.startswith("pass\t") for line in lines)

    def test_acceptance_id_alias(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "ac-13")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["suites"] == ["permutations"]

    def test_failure_exits_1(self, capsys, monkeypatch):
        def failing_suite(**kwargs):
            return [Check("forced", False, "0", "1")]

        monkeypatch.setitem(verify.SUITES, "permutations", failing_suite)
        code, out, _ = run(capsys, "verify", "--suite", "permutations")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 2

    def test_no_check_at_all_is_exit_2(self, capsys):
        # a budget that skips every module must not read as a pass
        code, out, err = run(capsys, "verify", "--suite", "aut-end", "--budget", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--suite", "euler", "--budget", "5"), "--budget"),
            (("--suite", "aut-end", "--q", "3"), "--q"),
            (("--suite", "feit-fine", "--b", "2"), "--b"),
            (("--suite", "permutations", "--shards", "2"), "--shards"),
        ],
    )
    def test_option_no_selected_suite_takes_is_exit_2(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

    def test_options_reach_the_suites_that_take_them(self, capsys, monkeypatch):
        # stand-ins keep each suite's signature through functools.wraps, as
        # the benchmark's tracing wrappers do
        received = {}
        for name, suite in list(verify.SUITES.items()):
            def stand_in(*args, _name=name, **kwargs):
                received[_name] = kwargs
                return [Check(_name, True, "0", "0")]

            monkeypatch.setitem(verify.SUITES, name, functools.wraps(suite)(stand_in))
        code, out, _ = run(capsys, "verify", "--suite", "all", "--q", "3")
        assert code == 0
        assert json.loads(out)["result"]["suites"] == [s for _, s in verify.ACCEPTANCE_ORDER]
        takes_q = {"feit-fine", "fat-line", "nonred-node"}
        assert received == {
            name: {"q_values": (3,)} if name in takes_q else {} for name in verify.SUITES
        }


def answer_digest(report):
    """sha256 of a report's exact answer: the checks and verdict of verify,
    the result payload of every other command."""
    if report["command"]["subcommand"] == "verify":
        checks = [[c["name"], c["passed"], c["lhs"], c["rhs"]] for c in report["checks"]]
        answer = {"verdict": report["verdict"], "checks": checks}
    else:
        answer = report["result"]
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()


class TestPinnedAnswers:
    """Answers recorded while every coefficient was stored as a Fraction; an
    int store must print them unchanged."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("series", "--id", "rank-series-hyper", "--trunc", "12",
                 "--u-trunc", "12", "--q-trunc", "40"),
                "080cacb33f622461367ce33e4abc2bb47b8eaf5001535ce4dcaa6a9dff6cd64a",
            ),
            (
                ("verify", "--suite", "durfee"),
                "788a1c7a306767b0e4315679fdf67058bace99c1119208597efe6aa9e6d6e186",
            ),
        ],
    )
    def test_answer_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert answer_digest(json.loads(out)) == digest

    def test_integer_series_store_only_int(self):
        series = rank_series_hypergeometric(6, 6, 12)
        assert series.terms()
        assert all(type(c) is int for _, c in series.terms())


@pytest.mark.parametrize(
    "argv, keys",
    [
        (("series", "--id", "line", "--q", "2"),
         ["subcommand", "id", "q", "b", "trunc", "u_trunc", "q_trunc", "format"]),
        (("oracle", "--relations", "A*B - B*A", "--q", "2", "--n", "1"),
         ["subcommand", "relations", "q", "n", "nmax", "shards", "budget", "format"]),
        (("dirichlet", "--which", "zeta", "--length", "4"),
         ["subcommand", "which", "ring", "p", "qparam", "length", "k", "format"]),
        (("verify", "--suite", "euler"),
         ["subcommand", "suite", "q", "b", "nmax", "shards", "budget", "format"]),
        (("conj", "--p", "2", "--type", "1"), ["subcommand", "p", "type", "budget", "format"]),
    ],
)
def test_report_echoes_every_option(capsys, argv, keys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert sorted(json.loads(out)["command"]) == sorted(keys)
