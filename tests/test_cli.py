import math

import pytest

from qgame.cli import _build_parser, main
from qgame.discord import werner_discord_analytic

PI = math.pi

PD_FILE = """\
# custom dilemma
3 3
0 5
5 0
1 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table(out):
    lines = out.rstrip("\n").split("\n")
    head = lines[0].split()
    assert head == ["quantity", "value"]
    rows = {}
    for line in lines[1:]:
        key, value = line.split(None, 1)
        rows[key] = value.strip()
    return rows


def csv_rows(out):
    lines = out.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_payoff_quantum_profile_full_entanglement(capsys):
    code, out, err = run(capsys, "payoff", "--game", "pd", "--p", "1",
                         "--delta", str(PI / 2), "--theta1", "0", "--phi1",
                         str(PI / 2), "--theta2", "0", "--phi2", str(PI / 2))
    assert code == 0
    assert err == ""
    rows = table(out)
    for key in ("payoff_a_matrix", "payoff_b_matrix",
                "payoff_a_closed", "payoff_b_closed"):
        assert float(rows[key]) == pytest.approx(3.0, abs=1e-10)
    assert float(rows["route_mismatch"]) < 1e-10


def test_payoff_noise_only(capsys):
    code, out, _ = run(capsys, "payoff", "--game", "pd", "--p", "0",
                       "--delta", "0.7853981633974483", "--theta1", "1.0",
                       "--phi1", "0.5", "--theta2", "2.0", "--phi2", "0.1")
    assert code == 0
    rows = table(out)
    assert float(rows["payoff_a_matrix"]) == pytest.approx(2.25, abs=1e-10)
    assert float(rows["payoff_b_matrix"]) == pytest.approx(2.25, abs=1e-10)


def test_payoff_classical_corner(capsys):
    code, out, _ = run(capsys, "payoff", "--game", "cg", "--p", "1",
                       "--delta", str(PI / 2), "--theta1", "0", "--phi1", "0",
                       "--theta2", str(PI), "--phi2", "0")
    assert code == 0
    rows = table(out)
    assert float(rows["payoff_a_matrix"]) == pytest.approx(1.0, abs=1e-10)
    assert float(rows["payoff_b_matrix"]) == pytest.approx(4.0, abs=1e-10)


def test_payoff_accepts_angle_rounding_slack(capsys):
    # 3.1415927 overshoots pi by ~5e-8 and must clamp, not error
    code, out, _ = run(capsys, "payoff", "--game", "pd", "--p", "1",
                       "--delta", str(PI / 2), "--theta1", "0", "--phi1", "0",
                       "--theta2", "3.1415927", "--phi2", "0")
    assert code == 0
    rows = table(out)
    assert float(rows["payoff_a_matrix"]) == pytest.approx(0.0, abs=1e-10)
    assert float(rows["payoff_b_matrix"]) == pytest.approx(5.0, abs=1e-10)


def test_payoff_csv_format(capsys):
    code, out, _ = run(capsys, "payoff", "--game", "pd", "--p", "0.5",
                       "--delta", "1.0", "--theta1", "1", "--phi1", "1",
                       "--theta2", "1", "--phi2", "1", "--format", "csv")
    assert code == 0
    columns, rows = csv_rows(out)
    assert columns == ["quantity", "value"]
    assert [r[0] for r in rows] == ["payoff_a_matrix", "payoff_b_matrix",
                                    "payoff_a_closed", "payoff_b_closed",
                                    "route_mismatch"]


def test_payoff_custom_game_file(capsys, tmp_path):
    path = tmp_path / "dilemma.game"
    path.write_text(PD_FILE)
    code, out, _ = run(capsys, "payoff", "--game", str(path), "--p", "1",
                       "--delta", str(PI / 2), "--theta1", "0", "--phi1", "0",
                       "--theta2", "0", "--phi2", "0")
    assert code == 0
    assert float(table(out)["payoff_a_matrix"]) == pytest.approx(3.0, abs=1e-10)


def test_usage_errors_exit_one(capsys):
    for argv in (
        [],
        ["payoff", "--game", "pd", "--p", "1"],
        ["unknown-command"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error" in err


def test_input_errors_exit_one(capsys):
    cases = [
        (["payoff", "--game", "pd", "--p", "2", "--delta", "1",
          "--theta1", "0", "--phi1", "0", "--theta2", "0", "--phi2", "0"], "--p"),
        (["payoff", "--game", "pd", "--p", "0.5", "--delta", "1",
          "--theta1", "7", "--phi1", "0", "--theta2", "0", "--phi2", "0"], "--theta1"),
        (["payoff", "--game", "/no/such/file", "--p", "0.5", "--delta", "1",
          "--theta1", "0", "--phi1", "0", "--theta2", "0", "--phi2", "0"],
         "cannot read"),
        (["discord-curve", "--steps", "1"], "--steps"),
        (["nash-check", "--game", "pd", "--p", "0.5", "--grid", "banana"], "--grid"),
    ]
    for argv, needle in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert needle in err


def test_malformed_game_file_reports_line(capsys, tmp_path):
    path = tmp_path / "broken.game"
    path.write_text("3 3\nnot numbers\n5 0\n1 1\n")
    code, _, err = run(capsys, "payoff", "--game", str(path), "--p", "1",
                       "--delta", "1", "--theta1", "0", "--phi1", "0",
                       "--theta2", "0", "--phi2", "0")
    assert code == 1
    assert "line 2" in err


def test_discord_curve_values_and_regions(capsys):
    code, out, err = run(capsys, "discord-curve", "--steps", "5")
    assert code == 0
    assert err == ""
    columns, rows = csv_rows(out)
    assert columns == ["p", "discord_numeric", "discord_analytic",
                       "mutual_info", "classical_corr", "region"]
    assert len(rows) == 5
    assert [r[-1] for r in rows] == ["separable", "separable", "entangled_local",
                                     "nonlocal", "nonlocal"]
    for r in rows:
        p = float(r[0])
        assert float(r[1]) == pytest.approx(float(r[2]), abs=1e-6)
        assert float(r[2]) == pytest.approx(werner_discord_analytic(p), abs=1e-12)
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-8)
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-6)


def test_discord_curve_output_is_stable(capsys):
    _, first, _ = run(capsys, "discord-curve", "--steps", "3")
    _, second, _ = run(capsys, "discord-curve", "--steps", "3")
    assert first == second


def test_nash_check_equilibrium(capsys):
    code, out, _ = run(capsys, "nash-check", "--game", "pd", "--p", "0.5")
    assert code == 0
    rows = table(out)
    assert rows["is_equilibrium"] == "true"
    assert abs(float(rows["min_gap"])) < 1e-9
    assert rows["grid"] == "41x41"


def test_nash_check_non_equilibrium_exit_code(capsys):
    code, out, _ = run(capsys, "nash-check", "--game", "pd", "--p", "1",
                       "--theta1", "0", "--phi1", "0", "--theta2", "0",
                       "--phi2", "0", "--grid", "11x11")
    assert code == 1
    rows = table(out)
    assert rows["is_equilibrium"] == "false"
    assert float(rows["min_gap"]) == pytest.approx(-2.0, abs=1e-10)


def test_nash_check_degrees_matches_radians(capsys):
    _, radians_out, _ = run(capsys, "nash-check", "--game", "cg", "--p", "0.7",
                            "--grid", "11x11", "--theta1", "0", "--phi1",
                            str(PI / 2), "--theta2", "0", "--phi2", str(PI / 2))
    _, degrees_out, _ = run(capsys, "nash-check", "--game", "cg", "--p", "0.7",
                            "--grid", "11x11", "--degrees", "--theta1", "0",
                            "--phi1", "90", "--theta2", "0", "--phi2", "90")
    assert radians_out == degrees_out


def test_sweep_p_columns(capsys):
    code, out, _ = run(capsys, "sweep-p", "--game", "pd", "--steps", "3",
                       "--grid", "11x11")
    assert code == 0
    columns, rows = csv_rows(out)
    assert columns == ["p", "payoff_a", "payoff_b", "qq_gap_min", "discord"]
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    for r in rows:
        p = float(r[0])
        assert float(r[1]) == pytest.approx(2.25 + 0.75 * p, abs=1e-10)
        assert float(r[2]) == pytest.approx(2.25 + 0.75 * p, abs=1e-10)
        assert float(r[3]) >= -1e-9
        assert float(r[4]) == pytest.approx(werner_discord_analytic(p), abs=1e-12)


def test_classical_pd(capsys):
    code, out, _ = run(capsys, "classical", "--game", "pd")
    assert code == 0
    rows = table(out)
    assert rows["pure_nash"] == "DD"
    assert rows["nash_payoffs"] == "(1,1)"
    assert rows["dominant_a"] == "D"
    assert rows["dominant_b"] == "D"
    assert rows["pareto_optimal"] == "CC CD DC"


def test_classical_cg(capsys):
    code, out, _ = run(capsys, "classical", "--game", "cg", "--format", "csv")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    rows = {line.split(",", 1)[0]: line.split(",", 1)[1] for line in lines[1:]}
    assert rows["pure_nash"] == "CD DC"
    assert rows["nash_payoffs"] == "(1,4) (4,1)"
    assert rows["dominant_a"] == "none"
    assert rows["dominant_b"] == "none"


def test_report_resolved_and_unresolved(capsys):
    code, out, _ = run(capsys, "report", "--game", "cg", "--p", "1",
                       "--grid", "11x11")
    assert code == 0
    rows = table(out)
    assert rows["dilemma_resolved"] == "true"
    assert rows["region"] == "nonlocal"
    assert float(rows["qq_payoff_a"]) == pytest.approx(3.0, abs=1e-10)

    code, out, _ = run(capsys, "report", "--game", "pd", "--p", "0",
                       "--grid", "11x11")
    assert code == 0
    rows = table(out)
    assert rows["dilemma_resolved"] == "false"
    assert rows["is_equilibrium"] == "true"
    assert rows["classical_nash"] == "DD"


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "classical", "--game", "pd", "--format", "csv",
                       "--output", str(path))
    assert code == 0
    assert out == ""
    data = path.read_bytes().decode()
    assert "\r" not in data
    assert data.endswith("\n") and not data.endswith("\n\n")
    assert data.split("\n")[0] == "quantity,value"


def test_cached_parser_keeps_no_flags_between_calls(capsys):
    # the parser is built once per process; a second subcommand run with
    # defaulted flags must not see the flags of the call before it
    second = ("nash-check", "--game", "pd", "--p", "0.5", "--grid", "5x5")
    run(capsys, "payoff", "--game", "cg", "--p", "0.3", "--delta", "45",
        "--degrees", "--format", "csv", "--theta1", "30", "--phi1", "20",
        "--theta2", "60", "--phi2", "10")
    after = run(capsys, *second)
    assert _build_parser() is _build_parser()
    _build_parser.cache_clear()
    fresh = run(capsys, *second)
    assert after == fresh
    assert after[0] == 0
    assert table(after[1])["worst_deviation_phi"] == "1.57079632679"
