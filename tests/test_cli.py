"""CLI-level tests: exit codes, output formats, determinism."""

import csv
import io
import json

import pytest
from mpmath import mp

from hardyz import divided_diff, extremal, hardy, identity, kernel, probes
from hardyz.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, build_parser, main
from hardyz.lemmas import _suite_rng, run_suites
from hardyz.precision import working_precision

PREC = 128


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_lemmas_single_suite(capsys):
    code, out = _run(capsys, ["--precision-bits", "128", "--seed", "7",
                              "--format", "text", "verify-lemmas", "divided_diff"])
    assert code == EXIT_OK
    assert "PASS divided_diff/" in out
    assert "FAIL" not in out
    assert "all_passed=True" in out


def test_verify_lemmas_json_shape(capsys):
    code, out = _run(capsys, ["--precision-bits", "128", "--seed", "7",
                              "verify-lemmas", "sequences"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["suites"][0]["suite"] == "sequences"
    assert all(c["passed"] for c in payload["suites"][0]["checks"])


def test_identity_suite_passes_at_the_lowest_precision(capsys):
    # the cardinal-reconstruction bound scales with the precision: a fixed
    # 2^-120 failed every precision below 113 bits
    code, out = _run(capsys, ["--precision-bits", "64", "--seed", "7",
                              "verify-lemmas", "identity"])
    assert code == EXIT_OK
    assert json.loads(out)["all_passed"] is True


def test_suite_runs_deterministic():
    a = run_suites(["divided_diff", "sequences"], seed=3, prec=128)
    b = run_suites(["divided_diff", "sequences"], seed=3, prec=128)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("prec", [128, 192])
@pytest.mark.parametrize("moved", [0, 1, 2])
def test_hermite_genocchi_check_sees_any_node_moved_by_2_to_the_minus_40(
        monkeypatch, prec, moved):
    simplex = divided_diff.divided_difference_simplex

    def off_by_2_to_the_minus_40(probe, nodes, prec):
        shifted = list(nodes.nodes)
        shifted[moved] += mp.mpf(2) ** -40
        return simplex(probe, divided_diff.NodeMultiset(shifted), prec=prec)

    monkeypatch.setattr(divided_diff, "divided_difference_simplex",
                        off_by_2_to_the_minus_40)
    checks = run_suites(["divided_diff"], seed=7, prec=prec)["suites"][0]["checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    assert failed == ["hermite-genocchi-oracle"]


def test_identity_cardinal(capsys):
    code, out = _run(capsys, ["--precision-bits", "192", "--seed", "4",
                              "identity", "--n", "3", "--m", "4",
                              "--probe", "cardinal"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["m"] == 4
    assert float(payload["reconstruction_error"]) < 1e-30


def test_identity_cardinal_reports_the_m_it_used(capsys):
    # reconstruction needs m >= n+1, so a smaller --m is raised to n+1
    code, out = _run(capsys, ["--precision-bits", "128", "--seed", "4",
                              "identity", "--n", "2", "--m", "1",
                              "--probe", "cardinal"])
    assert code == EXIT_OK
    assert json.loads(out)["m"] == 3


def test_identity_cosine(capsys):
    code, out = _run(capsys, ["--precision-bits", "192", "--seed", "5",
                              "identity", "--n", "2", "--m", "3",
                              "--probe", "cosine"])
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("probe, seed, m", [("cosine", 5, 3),
                                            ("polynomial", 1, 2)])
def test_identity_prints_full_precision(capsys, probe, seed, m):
    prec, n = 192, 2
    code, out = _run(capsys, ["--precision-bits", str(prec), "--seed", str(seed),
                              "identity", "--n", str(n), "--m", str(m),
                              "--probe", probe])
    assert code == EXIT_OK
    payload = json.loads(out)
    # the command's own draws, repeated in the same order
    rng = _suite_rng(seed, "identity-cmd")
    cfg = kernel.random_config(rng, n, prec=prec)
    if probe == "cosine":
        f = probes.cosine_probe(rng.uniform(0.3, 1.5), prec=prec)
    else:
        f = probes.polynomial_probe(
            [rng.uniform(-1, 1) for _ in range(2 * m + 3)], prec=prec)
    with working_precision(prec):
        mu = [mp.mpf(rng.uniform(-1, 1)) for _ in range(2 * n)]
        mu.append(-mp.fsum(mu))
    rep = identity.verify_key_identity(cfg, mu, f, m, prec=prec)
    with working_precision(prec):
        for key in ("lhs", "integral_term"):
            ref = getattr(rep, key)
            assert abs(mp.mpf(payload[key]) - ref) \
                <= abs(ref) * mp.mpf(2) ** -(prec - 8), key


def test_zeros_csv_count(capsys):
    code, out = _run(capsys, ["--precision-bits", "128", "--format", "csv",
                              "zeros", "10", "100"])
    assert code == EXIT_OK
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0].startswith("index,")
    assert len(lines) - 1 == 29
    first = float(lines[1].split(",")[1])
    assert abs(first - 14.134725) < 1e-5


def test_zeros_csv_rows_are_the_json_zeros(capsys):
    argv = ["--precision-bits", "128", "zeros", "480", "500"]
    code, out = _run(capsys, argv)
    assert code == EXIT_OK
    zeros = json.loads(out)["zeros"]
    code, out = _run(capsys, ["--format", "csv"] + argv)
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "t", "bracket_half_width"]
    assert len(zeros) == 13
    assert rows[1:] == [[str(i), z["t"], z["half_width"]]
                        for i, z in enumerate(zeros, start=1)]


def test_zeros_json_includes_count_stats(capsys):
    code, out = _run(capsys, ["--precision-bits", "128", "zeros", "0", "50"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 10
    assert payload["rescans"] == 0
    assert payload["suspected_missing"] is False
    assert "count_stats" in payload
    assert payload["count_stats"]["n_counted"] == 10


def test_extremal_exit_code_tracks_total(capsys):
    code, out = _run(capsys, ["--precision-bits", "128", "extremal",
                              "12", "0.95", "0.65", "30"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["total_below_one"] is True
    assert payload["admissible"] is True

    code, out = _run(capsys, ["--precision-bits", "128", "extremal",
                              "12", "0.94", "0.1", "32"])
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out)
    assert "total_below_one" in payload
    assert payload["total_below_one"] is False


def test_extremal_refuses_a_small_m_before_the_c_eps_search(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("c_eps search started")

    monkeypatch.setattr(extremal, "find_c_eps", refuse)
    assert main(["extremal", "12", "0.95", "0.65", "5"]) == EXIT_USAGE
    assert "m >= n log n" in capsys.readouterr().err


def test_explore_has_witness_field(capsys):
    # the one run of explore 100 0.3 2 in the suite: the report's shape
    code, out = _run(capsys, ["--precision-bits", "64", "explore",
                              "100", "0.3", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["m_used"] <= 2
    ks = [row["k"] for row in payload["rows"]]
    assert ks == sorted(set(ks))
    assert 2 * payload["m_used"] in ks
    assert "witness_k" in payload
    assert "exploratory_note" in payload
    assert payload["C"] == "0.3"
    assert payload["contours"] <= 7
    assert "series_error" in payload


def test_zeros_reads_the_window_at_working_precision(capsys):
    code, out = _run(capsys, ["--precision-bits", "128", "zeros", "14.1",
                              "14.2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["t_lo"], payload["t_hi"]) == ("14.1", "14.2")
    assert payload["count"] == 1


def test_zeros_refuses_an_infinite_window():
    for hi in ("inf", "nan", "ten"):
        assert main(["--precision-bits", "128", "zeros", "0", hi]) == EXIT_USAGE, hi


@pytest.mark.parametrize("argv, named", [
    (["--format", "csv", "explore", "100", "0.3", "2"], "--format"),
    (["--format", "text", "zeros", "10", "20"], "--format"),
    (["--format", "csv", "verify-lemmas", "sequences"], "--format"),
    (["--jobs", "0", "zeros", "10", "20"], "--jobs"),
    (["--jobs", "2", "zeros", "10", "20"], "--jobs"),
    (["--precision-bits", "32", "zeros", "10", "20"], "--precision-bits"),
    (["--out", "missing/x.json", "zeros", "10", "20"], "--out"),
    # s* = eta a falls outside (0, pi), and m = 5 >= 3 log 3 passes
    (["extremal", "3", "0.3", "0.6", "5"], "s*"),
])
def test_unhonourable_input_exits_2_before_computing(monkeypatch, capsys,
                                                     tmp_path, argv, named):
    def refuse(*args, **kwargs):
        raise AssertionError("computation started")

    for attr in ("find_zeros", "theorem1_explore"):
        monkeypatch.setattr(hardy, attr, refuse)
    monkeypatch.setattr(extremal, "find_c_eps", refuse)
    monkeypatch.setattr("hardyz.cli.run_suites", refuse)
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and named in captured.err


@pytest.mark.parametrize("argv, named", [
    (["identity", "--n", "0", "--m", "2", "--probe", "cosine"], "n >= 1"),
    (["identity", "--n", "-1", "--m", "2", "--probe", "cardinal"], "n >= 1"),
    (["explore", "nan", "0.3", "2"], "finite T"),
    (["explore", "100", "inf", "2"], "finite C"),
])
def test_an_empty_configuration_or_a_non_finite_explore_point_exits_2(
        capsys, argv, named):
    code = main(["--precision-bits", "64", *argv])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and named in captured.err


def test_a_rejected_explore_point_exits_1(capsys):
    # T is the fifth zero of Z, gamma_5
    code = main(["--precision-bits", "64", "explore",
                 "32.935061587739189690662368964074903488812715603517039",
                 "0.3", "2"])
    assert code == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", "error: Z(T) indistinguishable from zero\n")


def test_explore_reads_z_at_t_from_its_patches(monkeypatch, capsys):
    # neither z_eval nor theta runs on explore's path: Z(T) and the
    # rejection of T come from the patches' order-0 series
    def refuse(*args, **kwargs):
        raise AssertionError("explore read Z(T) off its patches")

    monkeypatch.setattr(hardy, "z_eval", refuse)
    monkeypatch.setattr(hardy, "theta", refuse)
    rep = hardy.theorem1_explore("60", "0.3", 2, prec=64)
    assert rep.z_at_T > 4 * rep.series_error
    test_a_rejected_explore_point_exits_1(capsys)


def test_jobs_is_not_listed_in_the_help():
    assert "--jobs" not in build_parser().format_help()


def test_usage_errors(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])
    # math-level validation errors map to the usage exit code
    assert main(["--precision-bits", "128", "zeros", "50", "40"]) == EXIT_USAGE
    # a window reaching below 15 is refused like any other; Z(-t) = Z(t), so
    # a negative t_lo would hold the mirrored zeros too
    for window in (["14.5", "14.2"], ["--", "-20", "30"]):
        assert main(["--precision-bits", "64", "zeros", *window]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


def test_out_file_writes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--precision-bits", "128", "--seed", "7", "--out", str(target),
                 "verify-lemmas", "sequences"])
    capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(target.read_text())
    assert payload["all_passed"] is True


@pytest.mark.parametrize("argv", [
    ["--seed", "7", "verify-lemmas", "sequences"],
    ["--format", "csv", "zeros", "14.1", "14.2"],
], ids=["json", "csv"])
def test_out_file_holds_the_bytes_stdout_prints(tmp_path, capsys, argv):
    target = tmp_path / "report"
    argv = ["--precision-bits", "128", *argv]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert main(["--out", str(target), *argv]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode()


def test_an_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["--precision-bits", "128", "--out", str(target),
                 "zeros", "10", "20"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
