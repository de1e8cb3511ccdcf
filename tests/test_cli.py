import json

import pytest

import rostop.cli as cli_module
from rostop import CertificationError, validate
from rostop.cli import main

ABP = ["--a", "0.789", "--b", "1.24", "--p", "0.421"]


def test_bound_plain_output(capsys):
    assert main(["bound", *ABP]) == 0
    out = capsys.readouterr().out
    assert "case = interior" in out
    # printed at 12 decimals, so parse-back agreement is to the 11-decimal contract
    m_line = next(l for l in out.splitlines() if l.startswith("M = "))
    assert abs(float(m_line.split("=")[1]) - 0.72348603329) < 1e-11
    nu_line = next(l for l in out.splitlines() if l.startswith("nu_hat = "))
    assert abs(float(nu_line.split("=")[1]) - 0.211231196923) < 2e-12


def test_bound_json_output(capsys):
    assert main(["bound", *ABP, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["M"] - 0.72348603329) < 1e-11
    assert abs(payload["nu_hat"] - 0.211231196923) < 1e-12
    assert payload["case"] == "interior"
    assert payload["qprime_sup"] < 1.0


def test_dp_ratio_line(capsys):
    assert main(["dp", *ABP, "--n", "10000", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["ratio"] - 0.72354) < 1e-4
    assert payload["k_n"] == 24


def test_dp_plain_is_byte_stable(capsys):
    assert main(["dp", *ABP, "--n", "1000"]) == 0
    first = capsys.readouterr().out
    assert main(["dp", *ABP, "--n", "1000"]) == 0
    assert capsys.readouterr().out == first
    assert "optimal_value = " in first


def test_validate_exit_codes(capsys):
    assert main(["validate", *ABP]) == 0
    capsys.readouterr()
    assert main(["validate", "--a", "0.5", "--b", "1.0", "--p", "0.4"]) == 1
    out = capsys.readouterr().out
    assert "ordering" in out and "FAIL" in out


def test_validate_text_pinned(capsys):
    assert main(["validate", "--a", "0.789", "--b", "1.24", "--p", "0.2", "--n", "1000000"]) == 1
    assert capsys.readouterr().out == (
        "ordering: lhs=0.2 rhs=0 PASS\n"
        "log: lhs=0.221542269947 rhs=0.2 FAIL\n"
        "I: lhs=0.154747769368 rhs=0.1578 PASS\n"
        "II: lhs=0.8118 rhs=1 PASS\n"
        "III: lhs=0.172628875436 rhs=0.324094478504 PASS\n"
        "IV: lhs=2.2256304 rhs=0 PASS\n"
        "V: lhs=0.977882495038 rhs=1 PASS\n"
        "pmf: lhs=2.00001e-07 rhs=1 PASS\n"
    )


@pytest.mark.parametrize("command", ["validate", "dp"])
def test_size_whose_square_overflows_exits_two(command, capsys):
    assert main([command, *ABP, "--n", "1" + "0" * 200]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: n must be at most")


def test_validate_json(capsys):
    assert main(["validate", *ABP, "--n", "100", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in rows] == [
        "ordering", "log", "I", "II", "III", "IV", "V", "pmf",
    ]


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["bound", "--a", "0.789", "--b", "1.24"]) == 2  # missing --p
    assert main(["bound", *ABP, "--bogus"]) == 2
    assert main(["frobnicate"]) == 2


def test_dp_requires_n(capsys):
    assert main(["dp", *ABP]) == 2


def test_infeasible_dp_exits_one(capsys):
    # a > 1 fails `ordering`, a row of the law
    assert main(["dp", "--a", "1.2", "--b", "1.24", "--p", "0.421", "--n", "100"]) == 1
    err = capsys.readouterr().err
    assert "infeasible" in err and "ordering: " in err and "log: " not in err


def test_dp_runs_on_a_law_without_a_zero_atom(capsys):
    # p/n + 1/n^2 = 1 exactly: every draw of V is b or n
    assert main(["dp", "--a", "0.5", "--b", "1.2", "--p", "1.5", "--n", "2"]) == 0
    assert "optimal_value = 1.550000000000\n" in capsys.readouterr().out


def test_dp_runs_where_only_asymptotic_rows_fail(capsys):
    # p = 0.2 fails `log`, which the bound needs and the finite-size law does not
    argv = ["--a", "0.789", "--b", "1.24", "--p", "0.2"]
    assert main(["dp", *argv, "--n", "100"]) == 0
    assert "ratio = " in capsys.readouterr().out
    assert main(["bound", *argv]) == 1
    assert "log: " in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("# reference parameters\na = 0.789\nb = 1.24\np = 0.421\nn = 100\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    # flag wins over the file: p=0.2 fails the log condition
    assert main(["validate", "--config", str(cfg), "--p", "0.2"]) == 1


def test_config_rejects_non_integral_n(tmp_path, capsys):
    # n is parsed as --n parses it, so an exponent is refused too
    cfg = tmp_path / "params.cfg"
    for text in ("1.5", "1e3"):
        cfg.write_text(f"a = 0.789\nb = 1.24\np = 0.421\nn = {text}\n")
        assert main(["dp", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "n must be an integer" in err and text in err


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("a = 0.789\nb = 1.24\np = 0.421\nbogus = 3\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_rejects_repeated_key(tmp_path, capsys):
    # An appended line must not silently override an earlier value.
    cfg = tmp_path / "params.cfg"
    cfg.write_text("a = 0.789\nb = 1.24\np = 0.421\nn = 1000\nn = 10\n")
    assert main(["dp", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: config key 'n' is given twice\n"
    assert captured.out == ""


def test_config_rejects_line_without_separator(tmp_path, capsys):
    # `=` is the only separator: a `key: value` line is refused too.
    cfg = tmp_path / "params.cfg"
    for line in ("b 1.24", "b: 1.24"):
        cfg.write_text(f"a = 0.789\n{line}\np = 0.421\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert f"config line not key=value: {line!r}" in capsys.readouterr().err


def test_dp_thresholds_out_matches_figure(tmp_path, capsys):
    curves, dp_curves = tmp_path / "curves.csv", tmp_path / "dp-curves.csv"
    argv = [*ABP, "--n", "1000000", "--stride", "1000"]
    assert main(["figure", *argv, "--out", str(curves)]) == 0
    assert main(["dp", *argv, "--thresholds-out", str(dp_curves)]) == 0
    assert dp_curves.read_bytes() == curves.read_bytes()
    # header, k = 1, 1001, ..., 999001, and the appended terminal row k = n
    assert curves.read_text().count("\n") == 1 + 1000 + 1


def test_figure_csv(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main(["figure", *ABP, "--n", "100", "--out", str(out), "--stride", "7"]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "k,phi,phibar"
    # ceil(100/7) strided rows plus the appended terminal row
    assert len(lines) == 1 + 15 + 1 + 1
    assert lines[-2].startswith("100,")


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", *ABP, "--n", "100", "--out"],
        ["dp", *ABP, "--n", "100", "--thresholds-out"],
    ],
)
@pytest.mark.parametrize("stride", ["0", "-3"])
def test_non_positive_stride_exits_two_without_a_file(argv, stride, tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main([*argv, str(out), "--stride", stride]) == 2
    captured = capsys.readouterr()
    assert "must be >= 1" in captured.err and captured.out == ""
    assert not out.exists()


def test_simulate_policy_and_histogram(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    code = main(
        ["simulate", *ABP, "--n", "50", "--trials", "2000", "--seed", "7",
         "--histogram-out", str(hist), "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 2000
    rows = hist.read_text().strip().split("\n")
    assert rows[0] == "step,count"
    assert sum(int(r.split(",")[1]) for r in rows[1:]) == 2000


def test_simulate_prophet_mode(capsys):
    assert main(
        ["simulate", *ABP, "--n", "50", "--trials", "500", "--seed", "3", "--prophet"]
    ) == 0
    out = capsys.readouterr().out
    assert "simulation = prophet" in out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_seed_outside_the_key_range_exits_two(seed, capsys):
    assert main(["simulate", *ABP, "--n", "50", "--trials", "10", "--seed", seed]) == 2
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--a", "0.789:0.809:0.01", "--b", "1.24:1.26:0.01",
         "--p", "0.421:0.441:0.01", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "grid points = 27" in text
    lines = out.read_text().split("\n")
    assert lines[0] == "a,b,p,feasible,failed_conditions,case,M"
    ref_row = next(l for l in lines if l.startswith("0.789,1.24,0.421,"))
    assert abs(float(ref_row.split(",")[-1]) - 0.72348603329) < 1e-11


def test_sweep_bad_range_syntax(capsys):
    assert main(["sweep", "--a", "0.7:0.8", "--b", "1.2:1.3:0.1",
                 "--p", "0.4:0.5:0.1", "--out", "/dev/null"]) == 2
    # three parts, one of which is not a number
    assert main(["sweep", "--a", "x:1:0.1", "--b", "1.2:1.3:0.1",
                 "--p", "0.4:0.5:0.1", "--out", "/dev/null"]) == 2
    assert "could not convert string to float: 'x'" in capsys.readouterr().err


def test_sweep_non_finite_range_exits_two(capsys):
    assert main(["sweep", "--a", "0.7:inf:0.01", "--b", "1.2:1.3:0.1",
                 "--p", "0.4:0.5:0.1", "--out", "/dev/null"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be finite" in err


def test_sweep_overflowing_point_count_exits_two_without_a_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--a=-1e308:1e308:1", "--b", "1.2:1.3:0.1",
                 "--p", "0.4:0.5:0.1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "points" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "tols, message",
    [
        (["--xtol", "0", "--rtol", "0"], "tolerance not reached"),
        (["--xtol", "nan"], "must be nonnegative"),
        (["--xtol", "-1"], "must be nonnegative"),
    ],
)
def test_bound_bad_tolerances_exit_two(capsys, tols, message):
    assert main(["bound", *ABP, *tols]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


# Every validate row passes here, yet the certificate refuses p ~ 1e-4: the
# rounding of q'(nu_hat)/p in m would reach the 12 printed digits.
UNBOUNDABLE = (0.601108, 1.00004720517, 0.000104734)


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--a", "0.601108", "--b", "1.00004720517", "--p", "0.000104734"],
        ["sweep", "--a", "0.6:0.61:0.01", "--b", "1.00004:1.00005:0.00001",
         "--p", "0.0001:0.00011:0.00001"],
    ],
)
def test_failed_numerical_check_exits_two_without_a_file(argv, tmp_path, capsys):
    assert validate(*UNBOUNDABLE).passed
    out = tmp_path / "sweep.csv"
    extra = ["--out", str(out)] if argv[0] == "sweep" else []
    assert main([*argv, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "is too small" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_failed_certificate_exits_two(monkeypatch, capsys):
    def refuse(hb):
        raise CertificationError("sup|q'| >= 1")

    monkeypatch.setattr(cli_module, "certify", refuse)
    assert main(["bound", *ABP]) == 2
    err = capsys.readouterr().err
    assert err == "error: sup|q'| >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dp", *ABP],
        ["figure", *ABP],
        ["simulate", *ABP, "--trials", "10", "--seed", "1"],
        ["sweep", "--a", "0.789:0.789:0.01", "--b", "1.24:1.24:0.01", "--p", "0.421:0.421:0.01"],
    ],
)
def test_table_size_over_cap_exits_two(argv, tmp_path, capsys):
    # Refused before any table (or, for sweep, any grid point) is computed.
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if argv[0] in ("figure", "sweep") else []
    assert main([*argv, *extra, "--n", "1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds MAX_TABLE_N" in err
    assert not out.exists()


def test_sweep_has_no_workers_option(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--a", "0.789:0.789:0.01", "--b", "1.24:1.24:0.01",
                 "--p", "0.421:0.421:0.01", "--workers", "2", "--out", str(out)]) == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-5"])
def test_sweep_rejects_non_positive_n_without_a_file(n, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--a", "0.789:0.789:0.01", "--b", "1.24:1.24:0.01",
                 "--p", "0.421:0.421:0.01", "--n", n, "--out", str(out)]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_refinement_and_cross_check(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--a", "0.779:0.799:0.01", "--b", "1.23:1.25:0.01",
         "--p", "0.411:0.431:0.01", "--refine", "1", "--shrink", "4",
         "--n", "1000", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    best_line = next(l for l in text.splitlines() if l.startswith("best:"))
    assert float(best_line.split("M=")[1]) < 0.7236
    assert "dp ratio at n=1000:" in text


def test_bound_plain_shows_certificate(capsys):
    assert main(["bound", *ABP]) == 0
    out = capsys.readouterr().out
    assert "certificate: sup|q'| =" in out


def test_config_n_parses_as_the_flag_does(tmp_path, capsys):
    # n = 10^17 + 1 is not a float: parsed through one, it became 10^17.
    n = "100000000000000001"
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"a = 0.789\nb = 1.24\np = 0.421\nn = {n}\n")
    run = ["simulate", "--prophet", "--trials", "10", "--seed", "1", "--json"]
    assert main([*run, "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main([*run, "--a", "0.789", "--b", "1.24", "--p", "0.421", "--n", n]) == 0
    assert from_config == capsys.readouterr().out
