"""Self-tests of the benchmark: its oracles, inputs, tracer and accounting.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qgame
import oracles
import run
import tracer as tracing
from workloads import BUILTIN_TABLES, QQ, WORKLOADS, DiscordScan, Op, Workload

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def _make(name, seed, tmp_path):
    wl = WORKLOADS[name](qgame, seed, str(tmp_path / f"{name}-{seed}"))
    wl.setup()
    return wl


# ---------------------------------------------------------------- oracles

@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
def test_luo_matches_werner_analytic(p):
    mutual, discord = oracles.luo_discord(oracles.werner_correlations(p))
    assert discord == pytest.approx(qgame.werner_discord_analytic(p), abs=1e-12)
    assert mutual == pytest.approx(qgame.mutual_information(oracles.werner_matrix(p)),
                                   abs=1e-12)


def test_luo_matches_minimizer_on_a_rotated_state(tmp_path):
    op = next(op for op in _make("discord-scan", 11, tmp_path).cycle(0) if op.kind == "bell")
    report = qgame.quantum_discord(op.args)
    assert oracles.luo_discord(op.spec[1])[1] == pytest.approx(report.discord, abs=1e-9)


@pytest.mark.parametrize("tag, closed", [("pd", qgame.pd_gap_closed_form),
                                         ("cg", qgame.cg_gap_closed_form)])
def test_gap_oracle_matches_closed_form_gaps(tag, closed):
    a, b = BUILTIN_TABLES[tag]
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, theta, phi = rng.uniform(), rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2)
        for player in ("A", "B"):
            gap = oracles.single_gap(a, b, p, math.pi / 2, QQ, player, theta, phi)
            assert gap == pytest.approx(closed(p, theta, phi), abs=1e-12)


def test_payoff_oracles_match_both_routes():
    rng = np.random.default_rng(6)
    tables = [np.asarray(t, dtype=float) for t in BUILTIN_TABLES["pd"]]
    game = qgame.Bimatrix(*tables)
    for delta in (0.0, math.pi / 2, 0.7):
        for _ in range(20):
            p = rng.uniform()
            ta, tb = rng.uniform(0, math.pi, 2)
            fa, fb = rng.uniform(0, math.pi / 2, 2)
            cfg = qgame.QuantumGameConfig(game, p, delta)
            moves = qgame.StrategyParams(ta, fa), qgame.StrategyParams(tb, fb)
            ref = oracles.closed_form_payoffs(*tables, p, delta, ta, fa, tb, fb)
            assert qgame.payoffs_matrix_path(cfg, *moves) == pytest.approx(ref, abs=1e-10)
            assert qgame.payoffs_closed_form(cfg, *moves) == pytest.approx(ref, abs=1e-10)
            special = {0.0: oracles.product_basis_payoffs,
                       math.pi / 2: oracles.entangled_basis_payoffs}.get(delta)
            if special is not None:
                assert special(*tables, p, ta, fa, tb, fb) == pytest.approx(ref, abs=1e-12)


def test_nash_certificate_accepts_verdicts_and_rejects_tampering():
    a, b = BUILTIN_TABLES["cg"]
    cfg = qgame.QuantumGameConfig(qgame.builtin_cg(), 0.6, 0.4)
    profile = (1.0, 0.3, 2.0, 1.2)
    moves = qgame.StrategyParams(*profile[:2]), qgame.StrategyParams(*profile[2:])
    v = qgame.verify_profile_nash(cfg, moves, grid=(9, 9))
    verdict = {"is_equilibrium": v.is_equilibrium, "min_gap": v.min_gap,
               "worst_player": v.worst_player, "worst_theta": v.worst_deviation.theta,
               "worst_phi": v.worst_deviation.phi}
    assert oracles.nash_certificate(a, b, 0.6, 0.4, profile, (9, 9), verdict)[0] == []
    for change in ({"min_gap": v.min_gap + 1e-3}, {"is_equilibrium": not v.is_equilibrium},
                   {"worst_phi": v.worst_deviation.phi + 0.1}):
        assert oracles.nash_certificate(a, b, 0.6, 0.4, profile, (9, 9),
                                        {**verdict, **change})[0]


# ---------------------------------------------------------------- inputs

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    def specs(seed, tag):
        wl = WORKLOADS[name](qgame, seed, str(tmp_path / f"{tag}"))
        wl.setup()
        return [op.spec for k in (0, 1) for op in wl.cycle(k)]

    first = specs(3, "a")
    assert specs(3, "b") == first
    assert specs(4, "c") != first


def test_rotated_inputs_have_off_grid_optimal_axes(tmp_path):
    wl = _make("discord-scan", 2, tmp_path)
    grid = oracles.coarse_grid_vectors()
    thetas = np.linspace(0.0, math.pi, oracles.COARSE_STEPS)
    phis = np.arange(oracles.COARSE_STEPS) * (2 * math.pi / oracles.COARSE_STEPS)
    bells = [op for op in wl.cycle(0) if op.kind == "bell"]
    assert len(bells) == 4
    for op in bells[:2]:
        axis = np.array(op.spec[4])
        assert oracles.angle_to_grid(axis, grid) >= DiscordScan.MIN_GRID_ANGLE
        best = qgame.conditional_entropy(
            op.args, qgame.BlochDirection(math.acos(axis[2]), math.atan2(axis[1], axis[0])))
        coarse = min(qgame.conditional_entropy(op.args, qgame.BlochDirection(t, f))
                     for t in thetas for f in phis)
        # no coarse point reaches the optimum, so the refinement has work to do
        assert coarse > best + 1e-9


# ---------------------------------------------------------------- tracer

def test_tracer_counts_and_self_times_add_up():
    tr = tracing.Tracer(qgame)
    cfg = qgame.QuantumGameConfig(qgame.builtin_pd(), 0.5, math.pi / 2)
    original = qgame.equilibria.payoffs_matrix_path
    tr.install()
    try:
        tr.op = 0
        t0 = run.time.perf_counter()
        qgame.cli.verify_profile_nash(cfg, (qgame.QUANTUM, qgame.QUANTUM), (5, 5))
        wall = run.time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert qgame.equilibria.payoffs_matrix_path is original
    stats = tr.analyse()
    assert stats["evals_per_verdict"] == [1 + 2 * 5 * 5]
    assert stats["calls"]["qmat.validate_density_matrix"] == 3 * 51
    metrics = tracing.layer_metrics([stats], 1, wall, wall, {})
    own = sum(metrics[f"{layer}.self_ms_per_op"] for layer in tracing.LAYERS)
    unattributed = metrics["trace.unattributed_ms_per_op"]
    assert own + unattributed == pytest.approx(metrics["trace.op_ms_per_op"], abs=1e-9)
    assert 0.0 <= unattributed < 0.5 * metrics["trace.op_ms_per_op"]
    assert metrics["equilibria.share"] == pytest.approx(
        metrics["equilibria.self_ms_per_op"] / metrics["trace.op_ms_per_op"])


def test_measurement_key_merges_opposite_axes_and_poles():
    key = tracing._measurement_key
    assert key((0.0, 0.0)) == key((0.0, 2.5)) == key((math.pi, 1.0))
    assert key((1.0, 0.4)) == key((math.pi - 1.0, 0.4 + math.pi))
    assert key((1.0, 0.4)) != key((1.0, 0.5))


# ---------------------------------------------------------------- harness

def test_tail_percentile_leaves_ten_samples_beyond():
    values = np.arange(1, 101, dtype=float)
    assert run.tail_percentile(values) == (90.0, 90.0, 10)


def _grid_cells(op):
    """Cost model of a nash-sweep op: the cells of its Nash grid."""
    grid = "41x41" if op.kind == "report" or op.spec[5] is None else op.spec[5]
    rows, cols = (int(x) for x in grid.split("x"))
    return float(rows * cols)


def test_nash_sweep_tail_stays_on_the_same_kind_of_op_as_runs_grow(tmp_path):
    wl = _make("nash-sweep", 1, tmp_path)
    cycles = [[_grid_cells(op) for op in wl.cycle(k)] for k in range(300)]
    cycle_ops = len(cycles[0])
    for n in (wl.tail_cycles, 4, 5, 11, 50, 205, 300):
        values = np.array([c for cycle in cycles[:n] for c in cycle])
        pct, tail, beyond, windows = run.cycle_tail(values, cycle_ops, wl.tail_cycles, np)
        assert (tail, beyond, windows) == (41.0 * 41.0, 10, n - wl.tail_cycles + 1)
        assert pct == pytest.approx(100 * 20 / 30)


def test_reference_bursts_follow_op_time_and_scale_to_nominal():
    ref = run.Reference(np)
    ref.after_op(0.5 * ref.EVERY_S)
    assert ref.passes == 0
    ref.after_op(0.5 * ref.EVERY_S)
    assert ref.passes >= 1 and ref.seconds >= ref.SHARE * ref.EVERY_S
    assert ref.scale() == pytest.approx(ref.NOMINAL_US / (ref.seconds / ref.passes * 1e6))
    ref.after_op(0.01 * ref.EVERY_S)
    scales = ref.op_scales()
    (_, first_us), (_, last_us) = ref.bursts
    assert scales.tolist() == [ref.NOMINAL_US / first_us] * 2 + [ref.NOMINAL_US / last_us]


class _Flaky(Workload):
    def run(self, op):
        if op.spec == "raise":
            raise ValueError("boom")
        return op.spec

    def check(self, op, result):
        return (["missed"] if result == "miss" else []), {}


def test_setup_samples_are_spread_over_op_time(monkeypatch):
    started = []
    monkeypatch.setattr(run, "_child_setup_s", lambda args: started.append(1) or 0.5)
    setup = run.SetupSamples(None, 0.1, 10.0)
    for _ in range(3):
        setup.after_op(1.0)
    assert setup.samples == [0.1, 0.5] and len(started) == 1
    assert setup.finish() == [0.1] + [0.5] * (run.SETUP_SAMPLES - 1)


def test_failures_are_counted_and_the_run_continues():
    ledger = run.Ledger()
    ops = [Op("x", s, None) for s in ("ok", "raise", "miss", "ok")]
    run.run_ops(_Flaky(), ops, ledger)
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert "raised: ValueError: boom" in ledger.messages[0]


def test_nash_check_exit_1_on_a_true_non_equilibrium_is_correct(tmp_path):
    wl = _make("nash-sweep", 1, tmp_path)
    spec = ("nash-check", "pd", 1.0, 0.0, (0.0, 0.0, 0.0, 0.0), "5x5")
    op = Op("nash-check", spec, wl._argv(spec))
    code, out, err = result = wl.run(op)
    assert code == 1
    assert wl.check(op, result)[0] == []
    assert wl.check(op, (2, out, err))[0]


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_latency_p50_ms", "op_latency_tail_ms", "peak_rss_mb", "setup_s"}


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_layer_metric():
    done = _bench(ROOT, "--workload", "payoff-points", "--seed", "1", "--seconds", "0.3",
                  "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["quantize.payoffs_matrix_path.calls_per_op"] == 1.0
    assert metrics["qmat.validate_density_matrix.calls_per_op"] == 3.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "payoff-points", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
