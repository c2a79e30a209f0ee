"""Benchmark of the covsearch CLI and library on seeded workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload loo-wide --seed 1 --seconds 38 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics; BENCHMARK.json at the repository root lists both, with
their units.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; human-readable
lines come before it.  README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
PROBE_REPEATS = 3
# The yardstick's (passes.yardstick_s) median time on the machine README.md
# describes; timings are reported at this speed.
YARDSTICK_S = 0.0184

IMPORT_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import covsearch.cli
t1 = time.perf_counter()
covsearch.cli.builtin_catalog()
t2 = time.perf_counter()
open(sys.argv[1], "w").write(json.dumps([t1 - t0, t2 - t1]))
"""


class Checks:
    """Correctness bookkeeping for one run.

    Every output of a command, from the CLI or rendered from the library
    result, must match the first CLI output of that command in the run and,
    for the default seed, the reference digest in digests.json.  The oracle
    cross-check runs with every seed.
    """

    def __init__(self, workload, seed: int):
        self.commands = workload.commands
        self.first: list[str | None] = [None] * len(self.commands)
        self.reference = reference_digests(workload.name) if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.errors: list[str] = []

    def output(self, index: int, digest: str | None, error: str | None, source: str) -> None:
        self.attempted += 1
        if error is None:
            if self.first[index] is None:
                self.first[index] = digest
            elif digest != self.first[index]:
                error = "output differs from the first CLI run of this command"
            if self.reference is not None and digest != self.reference[index]:
                error = "output digest differs from the reference digest"
        if error is not None:
            self.errors.append(f"{source} [{self.commands[index].label}]: {error}")

    def cli(self, runs, source: str) -> None:
        for i, run in enumerate(runs):
            self.output(i, run.digest, run.error, source)

    def api(self, digests: list[str], source: str) -> None:
        for i, digest in enumerate(digests):
            self.output(i, digest, None, source)

    def cross_check(self, table) -> None:
        """The library's results on ``table`` against the oracle, outside
        the timing; each oracle check counts as one attempt."""
        import oracle

        for name, problems in oracle.cross_check(oracle.load_oracle(ROOT), table):
            self.attempted += 1
            if problems:
                self.errors.append(f"oracle {name}: {'; '.join(problems[:3])}")

    @property
    def failed(self) -> int:
        return len(self.errors)


def reference_digests(name: str) -> list[str] | None:
    if not DIGESTS.exists():
        return None
    entries = json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"].get(name)
    return None if entries is None else [e["sha256"] for e in entries]


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def tail(samples: list[float]) -> str:
    """The highest of p99/p90/p50 that has at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {value:.4f} (n={n})"
    return f"no tail percentile (n={n}, p50 needs 20)"


def warm_bytecode(scratch: Path) -> Path:
    """The bytecode cache of the CLI children, filled with everything the
    CLI imports.  It is kept across runs in the checkout; Python recompiles
    any module whose source changed."""
    from passes import child_env, run_child

    pycache = WORK / f"pycache-{sys.implementation.cache_tag}"
    env = child_env(pycache, scratch)
    run_child([sys.executable, "-m", "covsearch.cli", "--version"], env, scratch / "err")
    return pycache


def fresh_inputs(inputs, directory: Path):
    """A copy of the inputs in a new directory, so that no cache keyed on
    their paths carries over from an earlier pass."""
    directory.mkdir(parents=True)
    copies = {}
    for key in ("space", "scores", "tasks"):
        copies[key] = directory / getattr(inputs, key).name
        shutil.copyfile(getattr(inputs, key), copies[key])
    return type(inputs)(**{**inputs.__dict__, **copies})


def timed_run(w, seed: int, seconds: float, work: Path, report: list[str]):
    from passes import api_digests, api_pass, cli_pass
    from workloads import generate

    checks = Checks(w, seed)
    inputs = generate(w, seed, work / "inputs")
    pycache = warm_bytecode(work / "warm")

    # Set-up: the first command on fresh inputs, with the program's own
    # bytecode removed from the cache (dependencies stay compiled, as in any
    # installed environment).  One sample is taken in every other step
    # below, so they spread over the run like the timed passes; setup_s is
    # their median.
    setup = []

    def cold_setup() -> None:
        base = work / f"setup{len(setup)}"
        cold = base / "pycache"
        shutil.copytree(pycache, cold)
        shutil.rmtree(cold.joinpath(*(ROOT / "src").parts[1:]))
        (run,) = cli_pass(w.commands[:1], fresh_inputs(inputs, base / "inputs"), cold,
                          base)
        checks.output(0, run.digest, run.error, f"set-up {len(setup)}")
        setup.append(run)
        shutil.rmtree(base)

    api_runs = []
    table = None

    def library_pass() -> None:
        nonlocal table
        table = None
        gc.collect()
        api = api_pass(w, inputs)
        checks.api(api_digests(w, api), f"api pass {len(api_runs)}")
        api_runs.append((api.steps_s, api.yardstick_s))  # not the table: memory
        table = api.table

    # Each step is a library pass, one half of a CLI pass (the halves take
    # turns), another library pass and, every other step, a set-up sample.
    # The machine's speed drifts by tens of percent within seconds, so the
    # samples of every metric are spread over the whole run.  The run ends
    # before the step that would overrun --seconds, once MIN_PASSES whole
    # CLI passes are in.
    half = (len(w.commands) + 1) // 2
    command_runs = [[] for _ in w.commands]
    step = 0
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        first, last = (0, half) if step % 2 == 0 else (half, len(w.commands))
        step_dir = work / f"step{step}"
        library_pass()
        runs = cli_pass(w.commands[first:last],
                        fresh_inputs(inputs, step_dir / "inputs"), pycache, step_dir)
        library_pass()
        if step % 2 == 0:
            cold_setup()
        shutil.rmtree(step_dir)
        for i, run in enumerate(runs, first):
            checks.output(i, run.digest, run.error, f"cli step {step}")
            command_runs[i].append(run)
        step += 1

        now = time.perf_counter()
        if step >= 2 * MIN_PASSES and (now - started) + (now - began) > seconds:
            break
    checks.cross_check(table)

    # Every timing is read at the yardstick's nominal speed: divided by the
    # yardstick timed next to it, times YARDSTICK_S.  A pass is then a sum of
    # per-step medians, so one slow stretch moves a metric by no more than
    # one step's share.
    def paced(wall: float, yardstick: float) -> float:
        return wall * YARDSTICK_S / yardstick

    per_command = [statistics.median(paced(r.wall_s, r.yardstick_s) for r in runs)
                   for runs in command_runs]
    per_step = [statistics.median(paced(steps[i], yardstick) for steps, yardstick in api_runs)
                for i in range(len(api_runs[0][0]))]
    metrics = {
        "pipeline_s": sum(per_command),
        "api_s": sum(per_step),
        "peak_rss_mb": max(statistics.median(r.maxrss_mb for r in runs)
                           for runs in command_runs),
        "setup_s": statistics.median(paced(r.wall_s, r.yardstick_s) for r in setup),
    }
    cli = [r for runs in command_runs for r in runs]
    walls = [r.wall_s for r in cli]
    yardsticks = [r.yardstick_s for r in cli] + [y for _, y in api_runs]
    report.append(f"{step} steps: {min(map(len, command_runs))}+ samples of each CLI"
                  f" command, {len(api_runs)} library passes, {len(setup)} set-up samples")
    report.append(f"yardstick: median {statistics.median(yardsticks):.5f} s against"
                  f" {YARDSTICK_S} s nominal; {tail(yardsticks)}")
    report.append(
        "as measured, not paced: pipeline_s"
        f" {sum(statistics.median(r.wall_s for r in runs) for runs in command_runs):.4f},"
        f" api_s {statistics.median(sum(steps) for steps, _ in api_runs):.4f},"
        f" setup_s {statistics.median(r.wall_s for r in setup):.4f},"
        f" load_s {statistics.median(steps[0] for steps, _ in api_runs):.4f}")
    report.append(f"CLI command wall time: median {statistics.median(walls):.4f} s;"
                  f" {tail(walls)}; paced median per command:")
    for cmd, wall in zip(w.commands, per_command):
        report.append(f"  {wall:8.4f} s  {cmd.label}")
    return metrics, checks


def traced_run(w, seed: int, seconds: float, work: Path, report: list[str]):
    import covsearch.ingest as ingest
    import covsearch.model as model
    from passes import (api_digests, api_pass, child_env, cli_pass,
                        json_payload, run_child, text_body)
    from tracing import LAYERS, Tracer, layer_metrics
    from workloads import generate

    started = time.perf_counter()
    checks = Checks(w, seed)
    inputs = generate(w, seed, work / "inputs")
    pycache = warm_bytecode(work / "warm")

    # Start-up probes, each in a fresh child.
    probe = work / "probe"
    env = child_env(pycache, probe)
    version = [sys.executable, "-m", "covsearch.cli", "--version"]
    startup = [run_child(version, env, probe / "err")[0] for _ in range(PROBE_REPEATS)]
    imports, catalogs = [], []
    for _ in range(PROBE_REPEATS):
        run_child([sys.executable, "-c", IMPORT_PROBE, str(probe / "t.json")], env,
                  probe / "err")
        a, b = json.loads((probe / "t.json").read_text())
        imports.append(a)
        catalogs.append(b)

    runs = cli_pass(w.commands, inputs, pycache, work / "cli")
    checks.cli(runs, "cli pass")
    cli_s = sum(r.wall_s for r in runs)
    output_bytes = float(sum(r.out_bytes for r in runs))

    # Untraced and traced library passes alternate; their difference is the
    # tracing overhead.  The traced pass also renders every result both ways
    # under report-layer spans.  The probes and the CLI pass above count
    # toward --seconds.
    tracer = Tracer()
    untraced, traced, layers, firsts = [], [], [], []
    while True:
        cycle = time.perf_counter()
        gc.collect()
        api = api_pass(w, inputs)
        untraced.append(api.api_s)
        checks.api(api_digests(w, api), "api pass")
        del api

        gc.collect()
        first = len(tracer.name)
        firsts.append(first)
        tracer.top_set_keys.clear()
        tracer.install()
        try:
            api = api_pass(w, inputs)
            for cmd, result in zip(w.commands, api.results):
                with tracer.span("report.render"):
                    text_body(cmd, result)
                if json_payload(cmd, result) is not None:
                    with tracer.span("report.to_json"):
                        json.dumps(json_payload(cmd, result), indent=2)
        finally:
            tracer.uninstall()
        traced.append(api.api_s)
        layers.append(layer_metrics(tracer, first))
        checks.api(api_digests(w, api), "traced api pass")
        table = api.table
        del api
        now = time.perf_counter()
        if (len(traced) >= MIN_TRACED_PASSES
                and (now - started) + (now - cycle) > seconds):
            break

    space = table.space
    probes = {}
    for name, call in (
        ("model.grid_s", space.grid),
        ("model.score_table_s", lambda: model.ScoreTable(space, table.records)),
        ("ingest.completeness_report_s", lambda: ingest.completeness_report(table)),
    ):
        t0 = time.perf_counter()
        call()
        probes[name] = time.perf_counter() - t0

    metrics = {name: statistics.median(f[name] for f in layers) for name in layers[0]}
    startup_s = statistics.median(startup)
    metrics.update(probes)
    metrics.update({
        "cli.startup_s": startup_s,
        "cli.import_s": statistics.median(imports),
        "cli.startup_share": len(w.commands) * startup_s / cli_s,
        "ingest.builtin_catalog_s": statistics.median(catalogs),
        "ingest.rows": float(len(table)),
        "ingest.input_bytes": float(inputs.input_bytes),
        "model.contexts": float(len(table.contexts())),
        "model.fill_ratio": len(table) / (len(table.contexts()) * 2 * space.size),
        "report.output_bytes": output_bytes,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    })
    metrics["ingest.rows_per_s"] = metrics["ingest.rows"] / metrics["ingest.parse_scores_s"]

    spans = WORK / f"trace-{w.name}-seed{seed}"
    tracer.write(spans, {"workload": w.name, "seed": seed, "pass_first_span": firsts})
    report.append(f"spans of {len(traced)} traced passes: {spans.relative_to(ROOT)}.npz")
    report.append("layer  total s (entry calls)  self s   in the traced library pass")
    for lay in sorted(LAYERS, key=lambda lay: -metrics[f"{lay}.total_s"]):
        report.append(f"  {lay:<10} {metrics[f'{lay}.total_s']:8.4f}"
                      f" {metrics[f'{lay}.self_s']:8.4f}")
    dominant = max(LAYERS, key=lambda lay: metrics[f"{lay}.total_s"])
    report.append(f"dominant layer of the library pass: {dominant}; CLI start-up is"
                  f" {metrics['cli.startup_share']:.0%} of the CLI pass")
    return metrics, checks


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="covsearch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "covsearch" / "__init__.py").is_file():
        print(f"perfbench: no covsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # The harness and every child it starts share one CPU, so the yardstick
    # is timed on the CPU the children run on.  Only one of them is busy at
    # a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-{os.getpid()}"
    report = [f"perfbench {w.name} seed={args.seed} trace={args.trace}",
              "environment: " + json.dumps(environment())]
    run = traced_run if args.trace else timed_run
    try:
        metrics, checks = run(w, args.seed, args.seconds, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    if not args.trace:
        report.extend(f"{name:<12} {r['value']:.4f} {r['unit']}" for name, r in result.items())
    report.append(f"correct={checks.failed == 0} attempted={checks.attempted}"
                  f" failed={checks.failed} error_rate={checks.failed / checks.attempted:.4f}")
    report.extend(f"ERROR {e}" for e in checks.errors[:20])
    print("\n".join(report))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    sys.exit(main())
