import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab import cli, partitions
from partlab.cli import main
from partlab.errors import BudgetError, DomainError
from partlab.partitions import enumerate_equipartitions, enumerate_partitions
from partlab.witness import Adversarial, Sampled, _comb_context, partition_space, verify_comb


# the package's public names by the module that defines them, as partlab.__all__ exports them
PUBLIC_API = {
    "counting": "CoarseningProfile CombRatioBound comb_ratio_bound count_extensions entropy_bounds profile_of ratio_R",
    "errors": "BudgetError CheckError DomainError InsufficientTruncationError NotACutError PartlabError ThresholdError",
    "e1": "AllocationScheme BinaryGrid blowup_inverse blowup_iso cs_decode cs_encode e1_window_equiv reduce_f "
    "round_robin_alloc",
    "partitions": "SetPartition coarsenings_of count_equipartitions count_partitions enumerate_equipartitions "
    "enumerate_partitions is_coarsening meet_refine",
    "prefixes": "PartitionPrefix approx_r cube_member depth induced_coarsening_h mu_sequence project_g trace",
    "reports": "WitnessReport",
    "tree": "BlockPartitionKN enumerate_sections find_section_witness least_N_below_one section_bound verify_tree",
    "witness": "Adversarial EMapTable Exhaustive Sampled bad_pairs find_witness fusion_conditions_hold fusion_step "
    "min_threshold_comb verify_comb witness_is_valid",
}


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else None
    return code, out


class TestCountAndEnumerate:
    def test_bell_twelve(self, capsys):
        code, out = run_cli("count", "--bell", "12", capsys=capsys)
        assert code == 0
        assert out.strip() == "4213597"

    def test_enumerate_three(self, capsys):
        code, out = run_cli("enumerate", "--n", "3", capsys=capsys)
        assert code == 0
        assert out.split() == ["0,0,0", "0,0,1", "0,1,0", "0,1,1", "0,1,2"]

    def test_enumerate_equipartitions(self, capsys):
        code, out = run_cli(
            "enumerate", "--k", "2", "--N", "2", "--m", "2", capsys=capsys
        )
        assert code == 0
        assert out.split() == ["0,1,0,1", "0,1,1,0"]

    def test_missing_parameters_is_usage_error(self, capsys):
        code, _ = run_cli("count", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_equals_the_enumeration(self, n, capsys):
        for m in range(n + 1):
            code, out = run_cli("count", "--n", str(n), "--m", str(m), capsys=capsys)
            assert code == 0
            assert out == f"{sum(1 for _ in enumerate_partitions(n, m))}\n"

    @pytest.mark.parametrize("k,N", [(k, N) for k in range(1, 10) for N in range(1, 10) if k * N <= 9])
    def test_equipartition_count_equals_the_enumeration(self, k, N, capsys):
        for m in range(k + 1):
            code, out = run_cli("count", "--k", str(k), "--N", str(N), "--m", str(m), capsys=capsys)
            assert code == 0
            assert out == f"{sum(1 for _ in enumerate_equipartitions(k, N, m))}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n", "0", "--m", "1"], "error: domain size must be >= 1\n"),
            (["--n", "3", "--m", "4"], "error: need 0 <= m <= n, got m=4, n=3\n"),
            (["--k", "2", "--N", "2", "--m", "3"], "error: need 0 <= m <= k, got m=3, k=2\n"),
            (["--k", "0", "--N", "2", "--m", "1"], "error: need k >= 1 and N >= 1\n"),
        ],
    )
    def test_count_out_of_range_is_usage_error(self, argv, message, capsys):
        assert main(["count", *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["count", "--bell", "5", "--n", "5"], "--bell cannot be combined with --n"),
            (["count", "--bell", "5", "--k", "2"], "--bell cannot be combined with --k"),
            (["count", "--bell", "5", "--N", "2"], "--bell cannot be combined with --N"),
            (["count", "--bell", "5", "--m", "2"], "--bell cannot be combined with --m"),
            (["count", "--n", "5", "--k", "2", "--N", "2"], "--n cannot be combined with --k"),
            (["count", "--n", "5", "--k", "2"], "--n cannot be combined with --k"),
            (["count", "--n", "5", "--N", "2"], "--n cannot be combined with --N"),
            (["enumerate", "--n", "3", "--N", "2"], "--n cannot be combined with --N"),
            (["enumerate", "--n", "3", "--k", "1"], "--n cannot be combined with --k"),
            (["count", "--N", "2"], "--N needs --k"),
            (["enumerate", "--N", "2", "--m", "1"], "--N needs --k"),
            (["count", "--k", "2", "--m", "1"], "--k needs --N"),
            (["enumerate", "--k", "2"], "--k needs --N"),
            (["count", "--m", "1"], "count needs --bell, --n, or --k with --N"),
            (["enumerate"], "enumerate needs --n (or --k with --N)"),
        ],
    )
    def test_an_option_the_mode_would_ignore_is_usage_error(self, argv, message, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("counted or enumerated before rejecting the options")

        for name in ("count_partitions", "count_equipartitions", "enumerate_partitions", "enumerate_equipartitions"):
            monkeypatch.setattr(cli, name, no_work)
        for name in ("iter_rgs", "iter_equipartition_rgs"):
            monkeypatch.setattr(partitions, name, no_work)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["--n", "15", "--m", "1"], 1382958545),
            (["--n", "60", "--m", "3"], 834423350176047280239112807758675914873979324257608220607709),
            (["--k", "5", "--N", "4", "--m", "1"], 2546168625),
            (["--k", "6", "--N", "6", "--m", "2"], 3178783019806130056320),
        ],
    )
    def test_count_with_m_enumerates_nothing(self, argv, value, capsys, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("count enumerated")

        for name in ("iter_rgs", "iter_equipartition_rgs"):
            monkeypatch.setattr(partitions, name, no_enumeration)
        assert run_cli("count", *argv, capsys=capsys) == (0, f"{value}\n")

    def test_bell_beside_a_zero_m_is_the_bell_number(self, capsys):
        assert run_cli("count", "--bell", "5", "--m", "0", capsys=capsys) == (0, "52\n")


class TestVerify:
    def test_comb_counterexample_exit(self, capsys):
        code, out = run_cli(
            "verify-comb", "--k", "2", "--m", "2", "--N", "1",
            "--strategy", "exhaustive", capsys=capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["report"]["details"]["all_witnessed"] is False
        assert doc["config"]["k"] == 2

    def test_comb_pass_exit(self, capsys):
        code, out = run_cli(
            "verify-comb", "--k", "1", "--m", "0", "--N", "1",
            "--strategy", "exhaustive", capsys=capsys,
        )
        assert code == 0

    def test_tree_sampled(self, capsys):
        code, out = run_cli(
            "verify-tree", "--k", "2", "--N", "8",
            "--strategy", "sampled:40:3", capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["details"]["lemma"] == "tree"

    @pytest.mark.parametrize("subcommand", ["verify-tree", "find-threshold"])
    def test_jobs_only_on_verify_comb(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--k", "2", "--N", "3", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["exhaustive", "adversarial:5:1", "sampled:1:7"])
    def test_jobs_only_with_seeded_strategy(self, strategy, capsys):
        argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", strategy]
        one_process = main(argv)
        capsys.readouterr()
        code = main(argv + ["--jobs", "2"])
        if strategy == "exhaustive":  # its maps have no index, so it cannot be chunked
            assert code == 2
            assert "--jobs" in capsys.readouterr().err
        else:
            assert code == one_process
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-comb", "--m", "2", "--N", "2"],
            ["verify-comb", "--k", "2", "--m", "2"],
            ["bad-pairs", "--N", "2"],
            ["bad-pairs", "--k", "2"],
            ["verify-tree", "--N", "2"],
            ["verify-tree", "--k", "2"],
            ["find-threshold", "--m", "2"],
            ["ratio", "--a1", "1", "--a2", "1", "--b1", "0", "--b2", "0"],
        ],
        ids=" ".join,
    )
    def test_missing_size_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "the following arguments are required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy-check", "--b-max", "2"],
            ["fusion-demo"],
            ["find-threshold", "--k", "2", "--m", "2"],
            ["count", "--n", "3"],
            ["enumerate", "--n", "3"],
            ["ratio", "--a1", "1", "--a2", "1", "--b1", "0", "--b2", "0", "--N", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_only_on_report_commands(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-comb", "--k", "2", "--m", "2", "--N", "1", "--strategy", "exhaustive"],
            ["verify-tree", "--k", "2", "--N", "3", "--strategy", "sampled:30:5"],
            ["bad-pairs", "--k", "2", "--m", "2", "--N", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_report_commands_take_format(self, argv, fmt, capsys):
        assert main(argv + ["--format", fmt]) in (0, 1)
        out = capsys.readouterr().out
        assert out.startswith("params,strategy," if fmt == "csv" else "params ")

    def test_budget_exit(self, capsys):
        code, _ = run_cli(
            "verify-tree", "--k", "2", "--N", "4",
            "--strategy", "exhaustive:10", capsys=capsys,
        )
        assert code == 3

    # Q(12) has 4213597 partitions, over the partition-space cap: verify-comb's context
    # and bad-pairs' total table both refuse it before any map is tested
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-comb", "--k", "4", "--m", "4", "--N", "3"],
            ["verify-comb", "--k", "4", "--m", "4", "--N", "3", "--strategy", "adversarial:5:1"],
            ["bad-pairs", "--k", "4", "--m", "4", "--N", "3"],
        ],
        ids=["verify-comb", "verify-comb-adversarial", "bad-pairs"],
    )
    def test_partition_space_size_wall(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: partition space of 12 points is too large to materialize\n")

    # the greedy adversary leaves 34 of 200 section maps at (3, 3) witness-free, and none at (2, 3)
    @pytest.mark.parametrize("k, N, failures, code", [(3, 3, 34, 1), (2, 3, 0, 0)])
    def test_tree_adversarial_strategy(self, k, N, failures, code, capsys):
        argv = ["verify-tree", "--k", str(k), "--N", str(N), "--strategy", "adversarial:200:7"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["report"]["details"]["failures"] == failures

    # bad-pairs checks the campaign's sizes before it builds the map over kN points
    @pytest.mark.parametrize("argv", [["--k", "0", "--m", "0", "--N", "2"], ["--k", "2", "--m", "0", "--N", "0"]])
    def test_bad_pairs_checks_k_and_N_before_the_map(self, argv, capsys):
        assert main(["bad-pairs", *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: need k >= 1 and N >= 1\n")

    def test_unknown_strategy_is_usage_error(self, capsys):
        assert main(["verify-comb", "--k", "2", "--m", "2", "--N", "1", "--strategy", "greedy"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: unknown strategy 'greedy'\n")

    @pytest.mark.parametrize(
        "form",
        ["constant", "constant:", "constant:0,1", "constant:0,x", "identity:junk", "random:1:2", "random:junk", "bogus"],
    )
    def test_malformed_e_map_is_usage_error(self, form, capsys):
        assert main(["bad-pairs", "--k", "2", "--m", "2", "--N", "2", "--e-map", form]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and repr(form) in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["encode", "--p", "0,,1"], "rgs text '0,,1' is not a comma-separated list of integers"),
            (["blowup", "--a", "L=x;0", "--d", "0,1"], "prefix text 'L=x;0' has a non-integer length 'x'"),
            (
                ["bad-pairs", "--k", "2", "--m", "2", "--N", "1", "--e-map", "constant:0,x"],
                "e-map 'constant:0,x': rgs text '0,x' is not a comma-separated list of integers",
            ),
        ],
        ids=["rgs", "prefix-header", "e-map"],
    )
    def test_malformed_partition_text_names_itself(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("n", range(1, 10))
    def test_random_e_map_draws_as_randrange(self, n):
        size = len(partition_space(n))
        for seed in (0, 7, 2**40):
            rng = random.Random(seed)
            expect = tuple(rng.randrange(size) for _ in range(size))
            assert cli._build_emap(f"random:{seed}", n).values == expect

    def test_comb_path_never_materialises_the_partition_space(self):
        partition_space.cache_clear()
        _comb_context.cache_clear()
        assert main(["bad-pairs", "--k", "3", "--m", "2", "--N", "3", "--e-map", "random:7"]) == 0
        verify_comb(3, 2, 2, Sampled(50, seed=7))
        verify_comb(4, 4, 2, Adversarial(3, seed=7))
        assert partition_space.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-comb", "--k", "2", "--m", "2", "--N", "2"],
            ["verify-tree", "--k", "2", "--N", "2"],
            ["find-threshold", "--k", "2", "--m", "2"],
        ],
    )
    @pytest.mark.parametrize("form, field", [("sampled:x", "x"), ("exhaustive:1e3", "1e3"), ("sampled:5:y", "y")])
    def test_non_integer_strategy_field_names_the_strategy(self, argv, form, field, capsys):
        assert main([*argv, "--strategy", form]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: strategy {form!r}: invalid literal for int() with base 10: {field!r}\n"
        )

    def test_reports_deterministic_up_to_timing(self, capsys):
        args = (
            "verify-comb", "--k", "2", "--m", "2", "--N", "2",
            "--strategy", "sampled:30:11",
        )
        _, out1 = run_cli(*args, capsys=capsys)
        _, out2 = run_cli(*args, capsys=capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1["report"].pop("elapsed_ms")
        d2["report"].pop("elapsed_ms")
        assert d1 == d2


class TestSmallCommands:
    def test_entropy_check(self, capsys):
        code, out = run_cli("entropy-check", "--b-max", "32", capsys=capsys)
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_ratio(self, capsys):
        code, out = run_cli(
            "ratio", "--a1", "1", "--a2", "1", "--b1", "0", "--b2", "0",
            "--N", "2", capsys=capsys,
        )
        assert code == 0
        assert out.strip() == "1/3"

    def test_blowup(self, capsys):
        code, out = run_cli(
            "blowup", "--a", "0,0,1,2", "--d", "0,1,0,1,2,3", capsys=capsys
        )
        assert code == 0
        assert out.strip() == "L=6;0,0,0,0,1,2"

    def test_blowup_takes_the_length_form(self, capsys):
        assert run_cli("blowup", "--a", "L=4;0,0,1,2", "--d", "0,1,0,1,2,3", capsys=capsys) == (0, "L=6;0,0,0,0,1,2\n")

    def test_encode(self, capsys):
        code, out = run_cli("encode", "--p", "0,1,0,1", capsys=capsys)
        assert code == 0
        assert out.split() == ["2", "4", "1010", "0101"]

    def test_decode_inverts_encode(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        assert main(["encode", "--p", "0,1,0,1", "--out", str(grid)]) == 0
        assert run_cli("encode", "--decode", str(grid), capsys=capsys) == (0, "L=4;0,1,0,1\n")

    def test_encode_needs_an_input(self, capsys):
        assert main(["encode"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: encode needs --p or --decode\n")

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["--p", ""], "a prefix must have positive length"),
            (["--decode", ""], "No such file or directory: ''"),
            (["--p", "0,1", "--decode", "grid.txt"], "--p cannot be combined with --decode"),
            (["--decode", "grid.txt", "--p", ""], "--p cannot be combined with --decode"),
        ],
        ids=["empty --p", "empty --decode", "--p then --decode", "--decode then --p"],
    )
    def test_encode_takes_exactly_one_input(self, argv, err, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grid.txt").write_text("2 4\n1010\n0101\n")
        assert main(["encode", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and err in captured.err

    def test_reduce_e1_reads_a_grid_file(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("2 4\n1010\n0101\n")
        assert run_cli("reduce-e1", "--grid", str(grid), "--L", "9", capsys=capsys) == (0, "L=9;0,1,0,1,2,3,3,0,2\n")

    def test_reduce_e1(self, capsys):
        code, out = run_cli(
            "reduce-e1", "--L", "9", "--rows", "4", "--cols", "4",
            "--seed", "1", capsys=capsys,
        )
        assert code == 0
        assert out.startswith("L=9;")

    def test_fusion_demo(self, capsys):
        code, out = run_cli(
            "fusion-demo", "--L", "8", "--Mprime", "3", "--seed", "4",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["approximation_kept"] and doc["trace_disjunction"]

    def test_fusion_demo_without_a_witness(self, capsys):
        # the induced map of this seed leaves Q^3(4) witness-free, which the independent scan confirms
        assert main(["fusion-demo", "--L", "10", "--n0", "2", "--Mprime", "4", "--seed", "2"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: no witness in Q^3(4); enlarge mprime\n")


class TestThresholdAndCheckpoint:
    def test_find_threshold_with_state_file(self, tmp_path, capsys):
        out_path = tmp_path / "thr.json"
        args = (
            "find-threshold", "--k", "2", "--m", "2", "--n-max", "4",
            "--samples", "50", "--seed", "1", "--out", str(out_path),
        )
        assert run_cli(*args, capsys=capsys)[0] == 0
        doc = json.loads(out_path.read_text())
        assert doc["threshold"] == 2
        assert doc["empirical"] is True
        state = json.loads((tmp_path / "thr.json.state").read_text())
        assert set(state["done"]) == {"1", "2"}
        assert state["config"]["k"] == 2
        # a resumed run reuses the recorded verdicts and agrees
        assert run_cli(*args, capsys=capsys)[0] == 0
        assert json.loads(out_path.read_text())["threshold"] == 2

    def test_find_threshold_honours_strategy(self, capsys):
        code, out = run_cli(
            "find-threshold", "--k", "2", "--m", "2", "--n-max", "3",
            "--strategy", "adversarial:20:9", capsys=capsys,
        )
        doc = json.loads(out)
        assert code == (0 if doc["threshold"] else 3)
        assert doc["reports"]
        assert {r["strategy"] for r in doc["reports"]} == {"adversarial(20, seed=9)"}
        assert {r["seed"] for r in doc["reports"]} == {9}

    def test_find_threshold_without_a_clean_N_exits_3(self, capsys):
        code, out = run_cli(
            "find-threshold", "--k", "3", "--m", "2", "--strategy", "adversarial:50:7", "--n-max", "2",
            capsys=capsys,
        )
        doc = json.loads(out)
        assert code == 3
        assert doc["threshold"] is None and doc["empirical"] is True
        assert [r["details"]["failures"] for r in doc["reports"]] == [50, 2]

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["--samples", "0", "--seed", "4"], "sampled(0, seed=4)"),
            (["--strategy", "sampled:0"], "sampled(0, seed=0)"),
            (["--strategy", "adversarial:0:7"], "adversarial(0, seed=7)"),
        ],
        ids=["samples", "sampled", "adversarial"],
    )
    def test_find_threshold_testing_no_maps_is_usage_error(self, argv, label, tmp_path, capsys):
        argv = ["find-threshold", "--k", "3", "--m", "2", *argv]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {label} tests no maps, so it can find no threshold\n")
        assert main(argv + ["--out", str(tmp_path / "thr.json")]) == 2
        assert list(tmp_path.iterdir()) == []  # nothing ran, so nothing was written

    def test_chunked_campaign_checkpoints(self, tmp_path, capsys):
        out_path = tmp_path / "camp.json"
        code, _ = run_cli(
            "verify-comb", "--k", "2", "--m", "2", "--N", "2",
            "--strategy", "sampled:25000:3", "--out", str(out_path),
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["report"]["details"]["tested"] == 25000
        state = json.loads((tmp_path / "camp.json.state").read_text())
        assert set(state["done"]) == {"0", "10000", "20000"}


def _campaign_report(tmp_path, name, kmn, strategy, *extra):
    """Exit code and report (minus elapsed_ms) of a verify-comb run written to --out."""
    k, m, N = kmn
    out_path = tmp_path / name
    code = main([
        "verify-comb", "--k", str(k), "--m", str(m), "--N", str(N),
        "--strategy", strategy, "--out", str(out_path), *extra,
    ])
    report = json.loads(out_path.read_text())["report"]
    report.pop("elapsed_ms")
    return code, report


def _round_trip(tmp_path, monkeypatch, kmn, strategy, count):
    """The single run of a campaign of count maps, after checking that its chunked, --jobs 2 and
    resumed runs in chunks of 7 report the same."""
    single = _campaign_report(tmp_path, "single.json", kmn, strategy)
    monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)
    runs = {
        "chunked": _campaign_report(tmp_path, "chunked.json", kmn, strategy, "--jobs", "1"),
        "parallel": _campaign_report(tmp_path, "parallel.json", kmn, strategy, "--jobs", "2"),
    }
    # drop the first and the last but one chunk from a finished run's state, then resume it
    _campaign_report(tmp_path, "resumed.json", kmn, strategy)
    state_path = tmp_path / "resumed.json.state"
    state = json.loads(state_path.read_text())
    starts = list(range(0, count, 7))
    assert set(state["done"]) == set(map(str, starts))
    del state["done"]["0"], state["done"][str(starts[-2])]
    state_path.write_text(json.dumps(state))
    runs["resumed"] = _campaign_report(tmp_path, "resumed.json", kmn, strategy)
    runs["fully resumed"] = _campaign_report(tmp_path, "resumed.json", kmn, strategy)
    for name, run in runs.items():
        assert run == single, name
    return single


class TestCampaignRoundTrip:
    # witnessed, failing, and one whose worst bad-pair count ties across chunks
    # (chunks 0 and 14, with different witnesses), so the chunk order matters
    @pytest.mark.parametrize("kmn,seed", [((3, 2, 2), 5), ((2, 2, 1), 5), ((2, 2, 2), 1)])
    def test_chunked_parallel_and_resumed_runs_match_single_run(
        self, tmp_path, monkeypatch, kmn, seed
    ):
        code, report = _round_trip(tmp_path, monkeypatch, kmn, f"sampled:40:{seed}", 40)
        details = report["details"]
        assert code == (0 if details["all_witnessed"] else 1)
        assert details["tested"] == 40
        if details["all_witnessed"]:
            assert report["witness"] is not None
        else:
            assert details["counterexample_shapes"] == [[[[0, 0], [0, 1]]]]

    # one witness-free map, in the chunk of maps 7-13, which the resumed run restores; and none
    @pytest.mark.parametrize("kmn,strategy,count,failures", [
        ((3, 2, 2), "adversarial:40:3", 40, 1),
        ((2, 2, 2), "adversarial:25:1", 25, 0),
    ])
    def test_adversarial_chunked_parallel_and_resumed_runs_match_single_run(
        self, tmp_path, monkeypatch, kmn, strategy, count, failures
    ):
        code, report = _round_trip(tmp_path, monkeypatch, kmn, strategy, count)
        assert code == (1 if failures else 0)
        assert (report["details"]["tested"], report["details"]["failures"]) == (count, failures)

    @settings(max_examples=100, deadline=None)
    @given(
        kmn=st.sampled_from([(2, 2, 1), (2, 0, 2), (2, 2, 2), (3, 2, 2), (2, 1, 3)]),
        kind=st.sampled_from(["sampled", "adversarial"]),
        seed=st.integers(0, 1000),
        count=st.integers(1, 30),
        every=st.integers(1, 12),
        dropped=st.integers(0, 2**30 - 1),
    )
    def test_chunked_and_resumed_runs_equal_the_single_run(self, kmn, kind, seed, count, every, dropped):
        strategy = f"{kind}:{count}:{seed}"
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            tmp_path = Path(tmp)
            single = _campaign_report(tmp_path, "single.json", kmn, strategy)
            mp.setattr("partlab.cli.CHECKPOINT_EVERY", every)
            chunked = _campaign_report(tmp_path, "chunked.json", kmn, strategy)
            if count > every:
                # forget the chunks picked by the bits of `dropped`, then resume
                state_path = tmp_path / "chunked.json.state"
                state = json.loads(state_path.read_text())
                assert sorted(map(int, state["done"])) == list(range(0, count, every))
                for i, key in enumerate(list(state["done"])):
                    if dropped >> i & 1:
                        del state["done"][key]
                state_path.write_text(json.dumps(state))
            resumed = _campaign_report(tmp_path, "chunked.json", kmn, strategy)
        assert chunked == single
        assert resumed == single

    def test_zero_map_run_with_jobs_matches_single_run(self, tmp_path):
        single = _campaign_report(tmp_path, "single.json", (3, 2, 2), "sampled:0:1")
        with_jobs = _campaign_report(tmp_path, "jobs.json", (3, 2, 2), "sampled:0:1", "--jobs", "2")
        assert with_jobs == single
        code, report = single
        assert code == 0
        assert report["details"]["tested"] == 0

    def test_workers_are_sized_to_the_pending_chunks(self, tmp_path, monkeypatch):
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)  # before the fork, so only the parent's list counts the workers
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        single = _campaign_report(tmp_path, "single.json", (2, 2, 2), "sampled:20:1")
        monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)
        for jobs, expected in (("64", 3), ("2", 2)):
            chunked = _campaign_report(tmp_path, f"jobs{jobs}.json", (2, 2, 2), "sampled:20:1", "--jobs", jobs)
            assert chunked == single
            assert len(forks) == expected
            forks.clear()
        # one pending chunk runs in process, without a fork
        state_path = tmp_path / "jobs64.json.state"
        state = json.loads(state_path.read_text())
        del state["done"]["7"]
        state_path.write_text(json.dumps(state))
        resumed = _campaign_report(tmp_path, "jobs64.json", (2, 2, 2), "sampled:20:1", "--jobs", "64")
        assert resumed == single
        assert forks == []

    @pytest.mark.parametrize(
        "error,code",
        [(DomainError("chunk refused"), 2), (BudgetError("chunk too dear"), 3), (RuntimeError("chunk broke"), None)],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_a_worker_error_is_reported_as_in_process(self, error, code, tmp_path, monkeypatch, capsys):
        def second_chunk_fails(k, m, N, strategy):
            if strategy.start == 7:
                raise error
            return verify_comb(k, m, N, strategy)

        monkeypatch.setattr("partlab.cli.verify_comb", second_chunk_fails)  # forked workers inherit it
        monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)
        outcomes = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", "sampled:20:1"]
            if code is None:
                with pytest.raises(type(error), match=str(error)):
                    main(argv + ["--jobs", jobs, "--out", str(out)])
            else:
                assert main(argv + ["--jobs", jobs, "--out", str(out)]) == code
            state = json.loads(Path(f"{out}.state").read_text())
            assert list(state["done"]) == ["0"]  # the first chunk, and nothing after the failing one
            state["done"]["0"].pop("elapsed_ms")
            assert not out.exists()
            outcomes.append((capsys.readouterr(), state))
        assert outcomes[0] == outcomes[1]
        if code is not None:
            assert outcomes[0][0].err == f"error: {error}\n"
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("mid_line", [False, True], ids=["before its line", "mid-line"])
    def test_a_killed_worker_leaves_its_chunks_to_the_parent(self, mid_line, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        doomed = []

        def killed_in_the_second_chunk(k, m, N, strategy):
            if os.getpid() != parent and strategy.start == 7:
                if not mid_line:
                    os.kill(os.getpid(), signal.SIGKILL)
                doomed.append(strategy)
            return verify_comb(k, m, N, strategy)

        def half_a_line(text, file, flush):
            if not doomed:
                return print(text, file=file, flush=flush)
            file.write(text[: len(text) // 2])
            file.flush()
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr("partlab.cli.verify_comb", killed_in_the_second_chunk)  # forked workers inherit it
        monkeypatch.setattr("partlab.cli.print", half_a_line, raising=False)  # the module's name shadows the builtin
        monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)
        single = _campaign_report(tmp_path, "jobs1.json", (2, 2, 2), "sampled:20:1", "--jobs", "1")
        assert _campaign_report(tmp_path, "jobs2.json", (2, 2, 2), "sampled:20:1", "--jobs", "2") == single
        assert capsys.readouterr().err == ""
        for jobs in ("1", "2"):
            state = json.loads((tmp_path / f"jobs{jobs}.json.state").read_text())
            assert list(state["done"]) == ["0", "7", "14"]
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_a_one_chunk_campaign_with_jobs_writes_no_state(self, count, tmp_path, monkeypatch):
        monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)
        strategy = f"sampled:{count}:1"
        single = _campaign_report(tmp_path, "jobs1.json", (2, 2, 2), strategy)
        assert _campaign_report(tmp_path, "jobs2.json", (2, 2, 2), strategy, "--jobs", "2") == single
        assert sorted(f.name for f in tmp_path.iterdir()) == ["jobs1.json", "jobs2.json"]

    def test_jobs_above_one_without_fork_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)  # three chunks, which --jobs 2 would fork for
        argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", "sampled:20:1"]
        assert main(argv + ["--jobs", "2", "--out", str(tmp_path / "out.json")]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # nothing ran, so nothing was written
        assert main(argv + ["--jobs", "1"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-comb", "--k", "2", "--m", "2", "--N", "1", "--jobs", "0"],
            ["verify-comb", "--k", "2", "--m", "2", "--N", "1", "--jobs", "-3"],
            ["find-threshold", "--k", "2", "--m", "2", "--n-max", "0"],
            ["entropy-check", "--b-max", "-1"],
            ["entropy-check", "--b-max", "0"],
        ],
        ids=" ".join,
    )
    def test_vacuous_size_is_usage_error(self, argv, tmp_path, capsys):
        code = main(argv + ["--out", str(tmp_path / "out.json")])
        assert code == 2
        assert ">= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # nothing ran, so nothing was written

    @pytest.mark.parametrize("strategy", ["sampled:-4:1", "adversarial:-1", "exhaustive:-1"])
    def test_negative_campaign_size_is_usage_error(self, strategy, capsys):
        code = main(["verify-comb", "--k", "2", "--m", "2", "--N", "1", "--strategy", strategy])
        assert code == 2
        assert ">= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["exhaustive:5:6", "sampled:3:1:junk", "adversarial:3:1:99"])
    @pytest.mark.parametrize(
        "argv",
        [["verify-comb", "--k", "2", "--m", "2", "--N", "1"], ["verify-tree", "--k", "1", "--N", "2"]],
        ids=lambda argv: argv[0],
    )
    def test_extra_strategy_fields_are_usage_error(self, argv, strategy, capsys):
        assert main(argv + ["--strategy", strategy]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"strategy {strategy!r} has too many fields" in captured.err

    def test_merge_takes_pigeonhole_over_every_chunk(self):
        from partlab.witness import Sampled, merge_campaign, verify_comb

        worst = verify_comb(2, 2, 1, Sampled(5, seed=1))
        other = verify_comb(2, 2, 1, Sampled(5, seed=1, start=5))
        other.details["pigeonhole_ok"] = False
        assert worst.bad_pair_count >= other.bad_pair_count
        merged = merge_campaign([worst, other], Sampled(10, seed=1), 0.0)
        assert merged.details["pigeonhole_ok"] is False

    def test_merged_adversarial_chunks_are_the_single_run(self):
        from partlab.witness import merge_campaign

        whole = verify_comb(3, 2, 2, Adversarial(40, seed=3))
        parts = [verify_comb(3, 2, 2, Adversarial(count, 3, start)) for start, count in ((0, 13), (13, 27))]
        assert [part.strategy for part in parts] == ["adversarial(13, seed=3)", "adversarial(27, seed=3, start=13)"]
        assert merge_campaign(parts, Adversarial(40, seed=3), whole.elapsed_ms) == whole

    def test_merged_report_has_the_invocation_wall_time(self, monkeypatch, capsys):
        from partlab import cli
        from partlab.reports import WitnessReport

        real = cli.verify_comb

        def slow_on_paper(k, m, N, strategy):
            r = real(k, m, N, strategy)
            return WitnessReport(r.params, r.strategy, r.seed, r.witness, r.bad_pair_count,
                                 r.candidate_count, r.census, r.ratio, 10_000.0, r.details)

        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 5)
        monkeypatch.setattr(cli, "verify_comb", slow_on_paper)
        argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", "sampled:10:1"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["report"]["elapsed_ms"] < 5_000

    def test_state_of_another_configuration_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)
        _campaign_report(tmp_path, "camp.json", (2, 2, 2), "sampled:20:1")
        (tmp_path / "camp.json").unlink()
        for strategy in ("sampled:20:2", "sampled:21:1", "adversarial:20:1"):
            code = main([
                "verify-comb", "--k", "2", "--m", "2", "--N", "2",
                "--strategy", strategy, "--out", str(tmp_path / "camp.json"),
            ])
            assert code == 2
            assert not (tmp_path / "camp.json").exists()
        assert "another configuration" in capsys.readouterr().err
        # the chunk size is part of the configuration too
        monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 6)
        code = main([
            "verify-comb", "--k", "2", "--m", "2", "--N", "2",
            "--strategy", "sampled:20:1", "--out", str(tmp_path / "camp.json"),
        ])
        assert code == 2

    def test_threshold_state_of_another_k_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "thr.json"
        base = (
            "find-threshold", "--m", "2", "--samples", "50", "--seed", "1",
            "--out", str(out_path),
        )
        assert run_cli(*base, "--k", "2", capsys=capsys)[0] == 0
        assert run_cli(*base, "--k", "3", capsys=capsys)[0] == 2
        assert json.loads(out_path.read_text())["config"]["k"] == 2

    def test_state_without_config_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "thr.json"
        (tmp_path / "thr.json.state").write_text(json.dumps({"1": {}}))
        code, _ = run_cli(
            "find-threshold", "--k", "2", "--m", "2", "--samples", "50",
            "--out", str(out_path), capsys=capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("shape", ["an empty report", "a list for done"])
    @pytest.mark.parametrize("command", ["verify-comb", "find-threshold"])
    def test_malformed_state_is_usage_error_before_any_chunk(self, command, shape, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)
        out_path = tmp_path / "run.json"
        if command == "verify-comb":
            argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", "sampled:20:1"]
        else:
            argv = ["find-threshold", "--k", "2", "--m", "2", "--samples", "50", "--seed", "1", "--n-max", "3"]
        argv += ["--out", str(out_path)]
        assert main(argv) == 0
        out_path.unlink()
        state_path = tmp_path / "run.json.state"
        state = json.loads(state_path.read_text())
        if shape == "an empty report":
            state["done"][list(state["done"])[-1]] = {}
        else:
            state["done"] = []
        state_path.write_text(json.dumps(state))
        written = state_path.read_text()
        capsys.readouterr()

        def no_chunk_runs(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr("partlab.cli.verify_comb", no_chunk_runs)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {state_path} is a malformed checkpoint (")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run.json.state"]
        assert state_path.read_text() == written

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failed_independent_check_exits_4(self, jobs, monkeypatch, capsys):
        from partlab import witness

        monkeypatch.setattr(witness, "_witness", lambda ctx, kills: None)  # forked workers inherit it
        if jobs == "2":
            monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 2)  # three chunks
        argv = ["verify-comb", "--k", "3", "--m", "2", "--N", "2", "--strategy", "sampled:5:7", "--jobs", jobs]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search and independent recheck disagree on witness absence\n"
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


class TestEmit:
    @pytest.mark.parametrize("extra", [0, 12345])
    @pytest.mark.parametrize("ending", ["", "\n"])
    def test_out_file_gets_a_long_payload_byte_for_byte(self, extra, ending, tmp_path):
        size = 3 * cli._OUT_SLICE + extra
        payload = "".join("\n" if i % 80 == 79 else chr(33 + i % 94) for i in range(size)) + ending
        assert not payload.endswith("\n") or ending
        out = tmp_path / "payload.txt"
        cli._emit(argparse.Namespace(out=str(out)), payload)
        assert out.read_bytes() == (payload if ending else payload + "\n").encode()


    @pytest.mark.parametrize("batch", [7, cli._LINES_PER_PIECE])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumerate_streams_the_bytes_of_the_joined_lines(self, n, batch, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_LINES_PER_PIECE", batch)
        joined = "\n".join(p.to_text() for p in enumerate_partitions(n)) + "\n"
        assert run_cli("enumerate", "--n", str(n), capsys=capsys) == (0, joined)
        out = tmp_path / "lines.txt"
        assert run_cli("enumerate", "--n", str(n), "--out", str(out), capsys=capsys) == (0, "")
        assert out.read_bytes() == joined.encode()

    def test_an_empty_stream_is_one_newline(self, tmp_path, capsys):
        out = tmp_path / "empty.txt"
        for payload in ("", iter(())):
            cli._emit(argparse.Namespace(out=None), payload)
            assert capsys.readouterr().out == "\n"
            cli._emit(argparse.Namespace(out=str(out)), payload)
            assert out.read_bytes() == b"\n"

    def test_a_stream_failing_at_its_start_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "lines.txt"
        assert run_cli("enumerate", "--n", "0", "--out", str(out), capsys=capsys) == (2, "")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, first_lines, verdict",
        [
            # Q(9) is 21147 lines, far more than a pipe buffers, so the writer meets the closed pipe
            (["enumerate", "--n", "9"], [b"0,0,0,0,0,0,0,0,0\n", b"0,0,0,0,0,0,0,0,1\n"], 0),
            # the (4,4,2) report is about 0.9 MB, and the campaign finds witness-free maps
            (
                ["verify-comb", "--k", "4", "--m", "4", "--N", "2", "--strategy", "adversarial:200:7"],
                [b"{\n", b'  "config": {\n'],
                1,
            ),
        ],
        ids=["enumerate", "verify-comb"],
    )
    def test_a_reader_that_stops_early_keeps_the_exit_code(self, argv, first_lines, verdict):
        proc = subprocess.Popen(
            [sys.executable, "-m", "partlab.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert [proc.stdout.readline() for _ in first_lines] == first_lines
        proc.stdout.close()
        assert proc.wait() == verdict
        assert proc.stderr.read() == b""
        proc.stderr.close()


# help, usage and error texts of the parser that builds every subparser, captured with Python 3.11 at 80 columns
CLI_TEXTS = json.loads((Path(__file__).parent / "data" / "cli_texts.json").read_text())


def parser_texts(parse, argv, monkeypatch, capsys):
    """(exit code, stdout, stderr) of parse(argv), a parse that ends the run by SystemExit."""
    monkeypatch.setenv("COLUMNS", str(CLI_TEXTS["columns"]))
    with pytest.raises(SystemExit) as info:
        parse(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


@pytest.mark.parametrize("case", CLI_TEXTS["cases"], ids=lambda case: " ".join(case["argv"]) or "no arguments")
class TestParserTexts:
    """The parser builds only the subparser argv invokes; what it prints is the full parser's."""

    def test_texts_are_the_full_parsers(self, case, monkeypatch, capsys):
        argv = case["argv"]
        got = parser_texts(main, argv, monkeypatch, capsys)
        full = parser_texts(lambda argv: cli.build_parser([]).parse_args(argv), argv, monkeypatch, capsys)
        assert got == full

    def test_texts_are_pinned(self, case, monkeypatch, capsys):
        if sys.version_info[:2] != tuple(map(int, CLI_TEXTS["python"].split("."))):
            pytest.skip(f"argparse's texts were captured with Python {CLI_TEXTS['python']}")
        got = parser_texts(main, case["argv"], monkeypatch, capsys)
        assert got == (case["code"], case["stdout"], case["stderr"])


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "partlab.cli", "count", "--bell", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "52"

    def test_closed_stdout_keeps_the_verdict(self):
        argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", "adversarial:5:1"]
        verdict = main(argv)
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "partlab.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == verdict
        assert proc.stderr == b""

    def test_import_leaves_out_dataclasses_inspect_and_csv(self):
        # dataclasses pulls in inspect, ast, dis and tokenize: about 20 ms of every command
        code = (
            "import sys; before = set(sys.modules); import partlab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'csv'} & (set(sys.modules) - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @staticmethod
    def new_partlab_modules(statement, only_partlab=True):
        """The partlab modules (or all modules) a fresh interpreter adds to sys.modules running statement."""
        code = (
            f"import sys; before = set(sys.modules); {statement}; "
            "print(' '.join(sorted(m for m in set(sys.modules) - before "
            f"if {not only_partlab} or m.split('.')[0] == 'partlab')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_bare_package_import_loads_no_submodule(self):
        assert self.new_partlab_modules("import partlab", only_partlab=False) == ["partlab"]

    def test_submodule_import_loads_only_what_it_imports(self):
        assert self.new_partlab_modules("import partlab.partitions") == [
            "partlab", "partlab.errors", "partlab.partitions"
        ]

    def test_cli_import_loads_the_nine_modules(self):
        # pinned: importing only what a subcommand runs must change this on purpose
        names = "cli counting e1 errors partitions prefixes reports tree witness".split()
        assert self.new_partlab_modules("import partlab.cli") == ["partlab"] + [f"partlab.{n}" for n in names]

    def test_a_name_loads_its_module_on_first_use(self):
        assert self.new_partlab_modules("import partlab; partlab.SetPartition") == [
            "partlab", "partlab.errors", "partlab.partitions"
        ]
        assert self.new_partlab_modules("import partlab; partlab.witness") == self.new_partlab_modules(
            "import partlab.witness"
        )

    def test_public_names_are_the_objects_their_modules_define(self):
        import importlib

        import partlab

        assert sorted(partlab.__all__) == sorted(name for names in PUBLIC_API.values() for name in names.split())
        assert len(partlab.__all__) == len(set(partlab.__all__)) == 57
        for module, names in PUBLIC_API.items():
            owner = importlib.import_module(f"partlab.{module}")
            for name in names.split():
                obj = getattr(partlab, name)
                assert obj is getattr(owner, name) and obj.__module__ == owner.__name__, name
        star = {}
        exec("from partlab import *", star)
        assert sorted(set(star) - {"__builtins__"}) == sorted(partlab.__all__)
        assert set(partlab.__all__) <= set(dir(partlab))
        with pytest.raises(AttributeError, match="no attribute 'verify_combs'"):
            partlab.verify_combs

    def test_main_leaves_the_collector_alone(self, capsys):
        import gc

        frozen = gc.get_freeze_count()
        assert main(["count", "--n", "5"]) == 0
        assert main(["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", "sampled:20:1"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_frozen_exit_leaves_reports_and_state_complete(self, tmp_path, monkeypatch):
        """The script's exit-time freeze writes nothing late: the same files as main in process."""
        monkeypatch.chdir(tmp_path)

        def strip(doc):
            if isinstance(doc, dict):
                return {k: strip(v) for k, v in doc.items() if k not in ("elapsed_ms", "out")}
            return [strip(v) for v in doc] if isinstance(doc, list) else doc

        def files(name):
            return [strip(json.loads((tmp_path / f).read_text())) for f in (name, name + ".state")]

        argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", "sampled:25000:5", "--jobs", "2"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))  # the working directory moved
        proc = subprocess.run(
            [sys.executable, "-m", "partlab.cli", *argv, "--out", "script.json"], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert main(argv + ["--out", "inproc.json"]) == 0
        assert files("script.json") == files("inproc.json")

    def test_workers_fork_from_a_single_threaded_process(self):
        """Python 3.12+ warns when a process with threads forks; an import that starts one fails here."""
        argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "2", "--strategy", "sampled:25000:5", "--jobs", "2"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-m", "partlab.cli", *argv],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
