"""qgame benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload nash-sweep --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the package is imported from its
`src` directory.  BLAS threads are pinned to 1 before numpy loads.  The
workload is a closed loop with one caller: each op is a single call into
qgame, timed with perf_counter, and checked against an independent oracle
after its cycle, outside the timed region.  Ops run in whole cycles until
--seconds of op and reference time are used; op and set-up times are
reported at the speed of a fixed reference kernel timed between ops (see
Reference).

--trace 0 reports the end-to-end metrics and patches nothing.  --trace 1
runs the first cycles of the workload untraced and then traced, repeatedly,
and reports the per-layer metrics; spans of the last traced pass are written
to .bench_out/ in the checkout when the run ends.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The line before it holds the environment and details
(seed, commit, versions, tail percentile, failures).  The exit code is 1 when
any op raised, exited 2 or missed its oracle, and 2 when the package is not
there.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# setup_s is the median over this many set-ups: this process plus fresh ones
# started at even steps of op time through the run
SETUP_SAMPLES = 5
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
# latencies live in a buffer touched up front, so peak RSS does not grow with
# the number of ops a faster program completes; peak_rss_mb leaves it out
LATENCY_CAPACITY = 1 << 20


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("nash-sweep", "discord-scan", "payoff-points"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def tail_percentile(sorted_values):
    """(percentile, value, samples beyond) of the highest nearest-rank
    percentile with at least TAIL_BEYOND samples beyond it; the maximum when
    there are fewer samples."""
    n = len(sorted_values)
    rank = max(1, n - TAIL_BEYOND)
    return 100.0 * rank / n, float(sorted_values[rank - 1]), n - rank


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qgame")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _environment(args, np) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _child_setup_s(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class SetupSamples:
    """Set-up times: this process's, then fresh --setup-only processes started
    between ops at even steps of op time, so that they sample the machine
    over the same stretch as the reference bursts."""

    def __init__(self, args, own_s: float, seconds: float):
        self.args = args
        self.samples = [own_s]
        self.every = seconds / SETUP_SAMPLES
        self.owed = 0.0

    def after_op(self, op_seconds: float) -> None:
        self.owed += op_seconds
        if self.owed >= self.every and len(self.samples) < SETUP_SAMPLES:
            self.owed -= self.every
            self.samples.append(_child_setup_s(self.args))

    def finish(self) -> list:
        """All samples, taking the ones a short run did not reach now."""
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(_child_setup_s(self.args))
        return self.samples


class Ledger:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.diag = {}

    def record(self, op, errors, diag=None) -> None:
        self.attempted += 1
        for key, value in (diag or {}).items():
            self.diag[key] = max(self.diag.get(key, 0.0), value)
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{op.spec}: {'; '.join(errors)}")


def run_ops(wl, ops, ledger, latencies=None, tracer=None, between=()) -> float:
    """Run ops one after another, then check each; return the timed total.
    Each of `between` is told every op's time, outside the timed region."""
    perf = time.perf_counter
    results = []
    raised = {}
    total = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf()
        try:
            res = wl.run(op)
        except Exception:  # one failing op must not end the run
            res = None
            raised[i] = traceback.format_exc(limit=3)
        dt = perf() - t0
        total += dt
        results.append(res)
        if latencies is not None:
            latencies.append(dt)
        for hook in between:
            hook.after_op(dt)
    done = [i for i in range(len(ops)) if i not in raised]
    checks = dict(zip(done, wl.check_many([ops[i] for i in done], [results[i] for i in done])))
    for i, op in enumerate(ops):
        if i in raised:
            ledger.record(op, [f"raised: {raised[i].strip().splitlines()[-1]}"])
        else:
            ledger.record(op, *checks[i])
    return total


class Latencies:
    def __init__(self, np):
        self.buf = np.full(LATENCY_CAPACITY, np.nan)
        self.extra = []
        self.n = 0

    def append(self, dt) -> None:
        if self.n < LATENCY_CAPACITY:
            self.buf[self.n] = dt
        else:
            self.extra.append(dt)
        self.n += 1

    def values(self, np):
        return np.concatenate([self.buf[:min(self.n, LATENCY_CAPACITY)],
                               np.asarray(self.extra, dtype=float)])


def cycle_tail(values, cycle_ops: int, window_cycles: int, np):
    """(percentile, value, samples beyond, windows): the median tail over
    every window of `window_cycles` consecutive whole cycles.  All windows
    hold the same mix of ops, so the percentile depends on the cycle's shape
    only; a stall of the machine moves a few windows, not the median."""
    size = cycle_ops * window_cycles
    starts = range(0, len(values) - size + 1, cycle_ops)
    tails = [tail_percentile(np.sort(values[i:i + size])) for i in starts]
    pct, _, beyond = tails[0]
    return pct, float(np.median([t[1] for t in tails])), beyond, len(tails)


class Reference:
    """A fixed kernel of small numpy calls and Python loops, independent of
    qgame, timed in bursts between ops.

    The machine this benchmark was written on slows down by up to 1.5x for
    minutes at a time when other tenants are busy, and its speed moves by
    about 20% from one second to the next.  The reference kernel's speed
    tracks both, so each op's time is scaled to a machine on which one
    reference pass takes NOMINAL_US, by the burst that follows the op.  The
    raw figures go to the details line.
    """

    NOMINAL_US = 300.0
    SHARE = 0.1  # reference time per unit of op time
    EVERY_S = 0.2  # a burst follows each this much op time

    def __init__(self, np):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        self.mats = list(np.eye(4) + 0.1 * (z + z.conj().transpose(0, 2, 1)))
        self.np = np
        self.seconds = 0.0
        self.passes = 0
        self.owed = 0.0
        self.ops = 0
        # (ops before the burst, microseconds per pass in the burst)
        self.bursts = []

    def _pass(self) -> None:
        np = self.np
        for m in self.mats:
            np.linalg.eigvalsh(m)
            np.trace(np.kron(m[:2, :2], m[2:, 2:]) @ m)
            sum(i * i for i in range(20))

    def after_op(self, op_seconds: float) -> None:
        """Once EVERY_S of op time has passed, run passes for SHARE of it."""
        self.ops += 1
        self.owed += op_seconds
        if self.owed >= self.EVERY_S:
            self._burst()

    def _burst(self) -> None:
        perf = time.perf_counter
        t0 = perf()
        passes = 0
        while True:
            self._pass()
            passes += 1
            spent = perf() - t0
            if spent >= self.SHARE * self.owed:
                break
        self.seconds += spent
        self.passes += passes
        self.owed = 0.0
        self.bursts.append((self.ops, spent / passes * 1e6))

    def op_scales(self):
        """Per op, the factor from its time to its time at the nominal speed,
        taken from the burst that follows it; a last burst covers the ops
        after the last regular one."""
        if self.ops > (self.bursts[-1][0] if self.bursts else 0):
            self._burst()
        np = self.np
        ends = np.array([k for k, _ in self.bursts])
        us = np.array([u for _, u in self.bursts])
        return np.repeat(self.NOMINAL_US / us, np.diff(ends, prepend=0))

    def scale(self) -> float:
        """Factor from this run's times to times at the nominal speed, over
        the whole run."""
        return self.NOMINAL_US / (self.seconds / self.passes * 1e6)


def measure(wl, first, seconds, setup, np):
    ledger = Ledger()
    lat = Latencies(np)
    ref = Reference(np)
    timed = 0.0
    k, ops = 0, first
    while True:
        cycle_s = run_ops(wl, ops, ledger, lat, between=(ref, setup))
        timed += cycle_s
        # stop before a cycle that would overrun --seconds, once the tail has
        # a whole window
        if timed + ref.seconds + cycle_s * (1 + ref.SHARE) > seconds \
                and k + 1 >= wl.tail_cycles:
            break
        k += 1
        ops = wl.cycle(k)
    # the buffer is the harness's, not the program's
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
              - lat.buf.nbytes) / 2**20
    setup_samples = setup.finish()
    raw = lat.values(np)
    values = raw * ref.op_scales()
    pct, tail, beyond, windows = cycle_tail(values, len(first), wl.tail_cycles, np)
    setup_s = statistics.median(setup_samples)
    scale = ref.scale()
    metrics = {
        "ops_per_s": (lat.n / float(values.sum()), "1/s"),
        "op_latency_p50_ms": (float(np.median(values)) * 1e3, "ms"),
        "op_latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s * scale, "s"),
    }
    details = {"ops": lat.n, "cycles": k + 1, "timed_s": timed,
               "tail_percentile": pct, "tail_samples_beyond": beyond, "tail_windows": windows,
               "reference_s": ref.seconds, "reference_us_per_pass": ref.seconds / ref.passes * 1e6,
               "reference_bursts": len(ref.bursts), "scale": scale,
               "raw_ops_per_s": lat.n / timed, "raw_p50_ms": float(np.median(raw)) * 1e3,
               "raw_tail_ms": cycle_tail(raw, len(first), wl.tail_cycles, np)[1] * 1e3,
               "raw_setup_s": setup_s, "setup_samples_s": setup_samples,
               "latency_buffer_mb": lat.buf.nbytes / 2**20}
    return ledger, metrics, details


def measure_traced(wl, qgame, seconds, out_path):
    from tracer import PER_LAYER, Tracer, layer_metrics

    ops = [op for k in range(wl.trace_cycles) for op in wl.cycle(k)]
    tracer = Tracer(qgame)
    ledger = Ledger()
    passes = []
    untraced = traced = 0.0
    while True:
        plain_s = run_ops(wl, ops, ledger)
        tracer.reset()
        tracer.install()
        try:
            traced_s = run_ops(wl, ops, ledger, tracer=tracer)
        finally:
            tracer.uninstall()
        untraced += plain_s
        traced += traced_s
        pass_s = plain_s + traced_s
        passes.append(tracer.analyse())
        if untraced + traced + pass_s > seconds:
            break
    tracer.write_spans(out_path)
    values = layer_metrics(passes, len(ops), untraced, traced, ledger.diag)
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    details = {"ops": len(ops), "passes": len(passes), "untraced_s": untraced,
               "traced_s": traced, "spans_per_pass": passes[0]["spans"],
               "spans_file": os.path.relpath(out_path, ROOT)}
    return ledger, metrics, details


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qgame", "__init__.py")):
        print(f"bench: no qgame package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import qgame
    if os.path.dirname(os.path.abspath(qgame.__file__)) != os.path.join(SRC, "qgame"):
        print(f"bench: imported qgame from {qgame.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](qgame, args.seed, workdir)
        wl.setup()
        first = wl.cycle(0)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # warm-up: lazy imports and first-call costs stay out of the timed region
        run_ops(wl, first[:1], Ledger())

        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            out_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.csv.gz")
            ledger, metrics, details = measure_traced(wl, qgame, args.seconds, out_path)
        else:
            setup = SetupSamples(args, setup_s, args.seconds)
            ledger, metrics, details = measure(wl, first, args.seconds, setup, np)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(environment=_environment(args, np),
                   failed_ops_frac=ledger.failed / ledger.attempted,
                   failures=ledger.messages, oracle=ledger.diag,
                   wall_s=time.perf_counter() - _T0)
    print(json.dumps(details, sort_keys=True))
    for msg in ledger.messages:
        print(f"bench: failed op {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
