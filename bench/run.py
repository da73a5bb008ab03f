"""Benchmark of heislab's sampling, grid, calculus and distance layers.

    python3 bench/run.py --workload mc-h3 --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; heislab is imported from ``src/``.  One
process imports heislab and runs ``heislab.cli.main`` with ``--workers 1``
over rounds of generated configs (see workloads.py), each CLI run in a child
forked from it, until ``--seconds`` have passed; every run is timed and
scaled to a reference host's speed (hostspeed.py).  Then it checks the
outputs against closed forms (checks.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run (tracing.py) with ``--trace 1``, each with
the unit that ``BENCHMARK.json`` gives it.
Outputs and the span dump go to ``runs/bench/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import statistics
import subprocess
import sys

# one BLAS thread: on a host of two shared cores a second, spinning BLAS
# thread (the distance solver's small solves used one) costs as much CPU as
# the work and times the neighbours' load; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
from checks import record_outcomes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "runs" / "bench"

# set-up is one fresh interpreter per sample, taken between the rounds at
# even steps of the timed seconds and scaled by the host-speed probes on
# either side of it; setup_s is the median of the scaled samples
SETUP_SAMPLES = 5
MIN_ROUNDS = 3

# what every CLI run pays before any work: import, config validation, and
# the preset with its curvature constants
SETUP_CODE = r"""
import sys
from time import perf_counter
t0 = perf_counter()
import heislab.cli as cli
t1 = perf_counter()
cfg = cli.load_config(sys.argv[1], sys.argv[2], None, sys.argv[3])
t2 = perf_counter()
preset = cli.make_preset(cfg.preset_name, **cfg.preset_params)
cli.curvature_constants(preset.form)
t3 = perf_counter()
print(t1 - t0, t2 - t1, t3 - t2)
"""


def metric_units(key: str) -> dict:
    """Metric name -> unit, for the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def round_time(rounds) -> float:
    """Seconds of one round: the sum over its CLI runs of each run's median.

    A median per run over the rounds drops the runs that a burst of host
    load hit.
    """
    return sum(statistics.median(times) for times in zip(*rounds))


def measure_setup(op_exp, cfg_path, out, env):
    """One fresh interpreter's set-up: its wall time scaled to the reference
    host, its raw wall time, and its import and config seconds."""
    before = hostspeed.probe()
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, op_exp, str(cfg_path), str(out)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = perf_counter() - t0
    after = hostspeed.probe()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    import_s, load_config_s, _ = (float(v) for v in proc.stdout.split())
    return hostspeed.scaled(wall, before, after), wall, import_s, load_config_s


def in_child(fn):
    """``fn()`` run in a child forked from this process: its result and the
    child's peak resident memory in KiB.

    The child starts from this process's state, with heislab imported, and
    ends after ``fn``, so every CLI run starts from the same allocator state,
    as a fresh ``heislab`` process would.  In one long-lived process the grid
    solve ran at either about 2.3 s or about 1.4 s per round, depending on
    which large blocks earlier runs had freed (glibc adapts its mmap and trim
    thresholds to them), and the mode changed at random between runs.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException as exc:  # reported by the parent
            payload, code = pickle.dumps((False, repr(exc))), 1
        with os.fdopen(wfd, "wb") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        raise RuntimeError(f"child {pid} ended with status {status} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"child {pid} failed: {value}")
    return value, usage.ru_maxrss


@dataclass
class Round:
    seconds: list          # raw seconds of each CLI run
    scaled: list           # the same, scaled to the reference host
    probes: list           # probe seconds: before the first run and after each
    attempted: int
    failed: int
    peak_kib: int          # largest peak resident memory of the round's runs
    drawn: list            # endpoint sets, when captured


def run_round(cli, ops, cfg_paths, outdir, tracer=None, capture=False) -> Round:
    """One round of CLI runs, each in a child process (``in_child``) and
    between two host-speed probes; with ``tracer``, each child runs traced,
    and with ``capture``, it collects the endpoint sets its verifiers read."""
    from workloads import drawn_sets

    def one(op):
        lo = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install()
        argv = [op.experiment, "--config", str(cfg_paths[op.name]),
                "--out", str(outdir / op.name), "--workers", "1"]
        capturing = drawn_sets() if capture else contextlib.nullcontext({})
        with capturing as drawn, contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - t0
        return code, seconds, tracer.spans[lo:] if tracer else [], list(drawn.values())

    for op in ops:
        with contextlib.suppress(FileNotFoundError):
            os.remove(outdir / op.name / "records.csv")
    rnd = Round([], [], [hostspeed.probe()], 0, 0, 0, [])
    codes = []
    for op in ops:
        (code, seconds, spans, drawn), peak = in_child(lambda: one(op))
        rnd.probes.append(hostspeed.probe())
        codes.append(code)
        rnd.seconds.append(seconds)
        rnd.scaled.append(hostspeed.scaled(seconds, rnd.probes[-2], rnd.probes[-1]))
        rnd.peak_kib = max(rnd.peak_kib, peak)
        rnd.drawn += drawn
        if tracer:
            tracer.spans += spans
    for op, code in zip(ops, codes):
        path = outdir / op.name / "records.csv"
        if code not in (0, 1) or not path.is_file():
            print(f"{op.name}: heislab {op.experiment} exited {code}", file=sys.stderr)
            rnd.attempted, rnd.failed = rnd.attempted + 1, rnd.failed + 1
            continue
        n, bad = record_outcomes(path.read_text(encoding="utf-8"))
        if bad:
            print(f"{op.name}: {bad} of {n} records failed", file=sys.stderr)
        rnd.attempted, rnd.failed = rnd.attempted + n, rnd.failed + bad
    return rnd


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc-h3", "mc-wide", "grid-h3", "calculus-geodesic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heislab" / "__init__.py").is_file():
        print(f"error: no heislab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    outdir = OUT / wl.name
    (outdir / "config").mkdir(parents=True, exist_ok=True)
    cfg_paths = {}
    for op in wl.ops:
        cfg_paths[op.name] = outdir / "config" / f"{op.name}.json"
        cfg_paths[op.name].write_text(json.dumps(op.config, indent=1) + "\n", encoding="utf-8")

    first = wl.ops[0]
    setups = []

    def take_setups(upto):
        while len(setups) < upto:
            setups.append(measure_setup(first.experiment, cfg_paths[first.name],
                                        outdir / first.name, env))

    import heislab.cli as cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    # objects alive now stay out of the children's collections, which would
    # otherwise copy every page they touch
    gc.freeze()
    # one core for this process and its children, so that the probes time
    # the core the CLI runs and set-ups then run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    attempted = failed = 0
    peak_kib = 0
    # per round, the seconds of each CLI run: raw, and scaled to the reference host
    plain_raw, plain, probes, traced, traced_ranges = [], [], [], [], []
    elapsed = 0.0          # seconds spent in rounds; set-up samples not counted
    while True:
        t0 = perf_counter()
        rnd = run_round(cli, wl.ops, cfg_paths, outdir)
        attempted, failed = attempted + rnd.attempted, failed + rnd.failed
        peak_kib = max(peak_kib, rnd.peak_kib)
        plain_raw.append(rnd.seconds)
        plain.append(rnd.scaled)
        probes.append(rnd.probes)
        if tracer is not None:
            lo = len(tracer.spans)
            rnd = run_round(cli, wl.ops, cfg_paths, outdir, tracer=tracer)
            attempted, failed = attempted + rnd.attempted, failed + rnd.failed
            traced.append(rnd.scaled)
            traced_ranges.append((lo, len(tracer.spans)))
        elapsed += perf_counter() - t0
        take_setups(min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * elapsed / args.seconds)))
        if elapsed >= args.seconds and len(plain) >= MIN_ROUNDS:
            break
    take_setups(SETUP_SAMPLES)
    peak_rss_mb = peak_kib / 1024.0

    # one more round, untimed, to collect the endpoint sets its verifiers read
    drawn = run_round(cli, wl.ops, cfg_paths, outdir, capture=True).drawn if wl.draws else []
    checks = wl.check(wl.ops, outdir, drawn)
    for chk in checks:
        if not chk.ok:
            print(f"check failed: {chk.name} {chk.detail}", file=sys.stderr)
    attempted += len(checks)
    failed += sum(1 for chk in checks if not chk.ok)
    with open(outdir / "rounds.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": [op.name for op in wl.ops], "plain_raw": plain_raw, "plain": plain,
                   "probes": probes, "traced": traced, "setup": setups}, fh)
    with open(outdir / "checks.json", "w", encoding="utf-8") as fh:
        json.dump([{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
                  fh, indent=1, default=float)

    if tracer is None:
        values = {
            "wall_s": round_time(plain),
            "setup_s": statistics.median(s[0] for s in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = metric_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        from tracing import layer_metrics, missed

        spans = tracer.spans
        unhit = missed(spans, wl.layers)
        if unhit:
            print(f"error: traced run never called {', '.join(unhit)} on {wl.name}; "
                  "a binding of these names was missed", file=sys.stderr)
            return 3
        tracer.write(outdir / "trace.csv", traced_ranges)
        per_round = [layer_metrics(spans[lo:hi]) for lo, hi in traced_ranges]
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["setup.raw_s"] = statistics.median(s[1] for s in setups)
        values["setup.import_s"] = statistics.median(s[2] for s in setups)
        values["setup.load_config_s"] = statistics.median(s[3] for s in setups)
        values["wall.raw_s"] = round_time(plain_raw)
        values["trace.overhead_s"] = round_time(traced) - round_time(plain)
        units = metric_units("per_layer")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
