"""One pass over a workload: through the CLI, or through the library.

A CLI pass runs each command as a fresh ``python -m covsearch.cli`` child,
one at a time, and records its wall time, exit status, largest resident set
and output digest.  An API pass loads the inputs once in this process and
makes the same analyses through the public functions.  Both passes produce
one digest per command, so the benchmark can check that the two agree with
each other, across passes, and with the reference digests.  Both also time
the yardstick, a fixed pure-Python loop, right before and after each
command or pass, so every sample can be read against the speed the machine
had at that moment.

Library functions are always looked up through their module at call time
(``covsearch.protocols.loo_cbs``, not a name bound at import), so the
wrappers the traced run installs on those attributes see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import covsearch.importance as importance
import covsearch.ingest as ingest
import covsearch.protocols as protocols
import covsearch.ranking as ranking
from covsearch import report

from workloads import Command, Inputs, Workload

COMMAND_TIMEOUT_S = 150.0
SRC = Path(__file__).resolve().parents[1] / "src"
YARDSTICK_LOOPS = 300_000


def yardstick_s() -> float:
    """Wall time of a fixed pure-Python loop that depends on nothing in the
    program: it slows down and speeds up with the machine, and with nothing
    else."""
    started = time.perf_counter()
    total = 0
    for i in range(YARDSTICK_LOOPS):
        total += i
    return time.perf_counter() - started


def output_digest(text: str, machine: bool) -> str:
    """sha256 of an output with its run manifest removed.

    Text outputs carry the manifest as leading '#' lines; JSON outputs carry
    it as the "manifest" key, and are re-serialized canonically after it is
    dropped, so the digest does not depend on indentation.
    """
    if machine:
        doc = json.loads(text)
        doc.pop("manifest", None)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        lines = text.split("\n")
        skip = 0
        while skip < len(lines) and lines[skip].startswith("#"):
            skip += 1
        text = "\n".join(lines[skip:])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_machine(cmd: Command) -> bool:
    return cmd.opts.get("format") == "machine"


# ---------------------------------------------------------------------------
# CLI pass
# ---------------------------------------------------------------------------


@dataclass
class CommandRun:
    cmd: Command
    wall_s: float
    maxrss_mb: float
    digest: str | None
    error: str | None
    out_bytes: int = 0
    yardstick_s: float = 0.0  # mean of the yardstick before and after the child


def child_env(pycache: Path, scratch: Path) -> dict:
    """Environment of a CLI child.

    The bytecode cache goes to ``pycache``; HOME, TMPDIR and the XDG cache
    point into ``scratch``, a directory made fresh for each pass, so nothing
    the program might cache on disk survives from one pass to the next.
    """
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and not k.startswith("XDG_")
    }
    for name in ("home", "tmp", "cache"):
        (scratch / name).mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(pycache),
        PYTHONHASHSEED="0",
        HOME=str(scratch / "home"),
        TMPDIR=str(scratch / "tmp"),
        XDG_CACHE_HOME=str(scratch / "cache"),
    )
    return env


def run_child(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, max RSS in MB).

    ``os.wait4`` gives the child's own resource usage, so the RSS is that
    child's peak and not the running maximum over all children.
    """
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_command(
    cmd: Command, inputs: Inputs, env: dict, workdir: Path, index: int
) -> CommandRun:
    out = workdir / f"out{index}"
    stderr_path = workdir / f"err{index}"
    argv = [sys.executable, "-m", "covsearch.cli"] + cmd.argv(
        inputs.space, inputs.scores, inputs.tasks, out
    )
    wall, code, rss = run_child(argv, env, stderr_path)
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    error = None
    digest = None
    size = 0
    if code != 0:
        error = f"exit {code}: {stderr.strip()[-400:]}"
    elif "Traceback (most recent call last)" in stderr:
        error = f"traceback on stderr: {stderr.strip()[-400:]}"
    elif not out.exists():
        error = "no output file written"
    else:
        size = out.stat().st_size
        try:
            digest = output_digest(out.read_text(encoding="utf-8"), is_machine(cmd))
        except (ValueError, UnicodeDecodeError) as exc:
            error = f"unreadable output: {exc}"
        out.unlink()
    return CommandRun(cmd, wall, rss, digest, error, size)


def cli_pass(
    commands: tuple[Command, ...], inputs: Inputs, pycache: Path, workdir: Path
) -> list[CommandRun]:
    env = child_env(pycache, workdir)
    runs = []
    before = yardstick_s()
    for i, cmd in enumerate(commands):
        run = run_command(cmd, inputs, env, workdir, i)
        after = yardstick_s()
        run.yardstick_s = (before + after) / 2
        runs.append(run)
        before = after
    return runs


# ---------------------------------------------------------------------------
# API pass
# ---------------------------------------------------------------------------


@dataclass
class ApiPass:
    steps_s: list[float]  # loading, then one entry per command
    table: object
    results: list
    yardstick_s: float  # mean of the yardstick before and after the pass

    @property
    def api_s(self) -> float:
        return sum(self.steps_s)


def _contexts(table, opts: dict):
    datasets, sizes = opts.get("datasets"), opts.get("train_sizes")
    if datasets is None and sizes is None:
        return None
    return [
        ctx for ctx in table.contexts("test")
        if (datasets is None or ctx.dataset in datasets)
        and (sizes is None or ctx.train_size in sizes)
    ]


def api_call(cmd: Command, table, inputs: Inputs):
    """The library calls behind one CLI command, with the CLI's defaults."""
    o = cmd.opts
    datasets, sizes = o.get("datasets"), o.get("train_sizes")
    if cmd.sub == "validate":
        return ingest.completeness_report(table)
    if cmd.sub == "rank":
        return ranking.rank(table, _contexts(table, o))
    if cmd.sub == "loo":
        return protocols.loo_cbs(table, datasets, sizes)
    if cmd.sub == "budget":
        return protocols.budget_curve(
            table, datasets, sizes, max_budget=o.get("max_budget", 10)
        )
    if cmd.sub == "compare":
        return protocols.compare_protocols(
            table, ingest.load_task_map(inputs.tasks), None,
            datasets=datasets, train_sizes=sizes,
        )
    if cmd.sub == "importance":
        if "train_size" in o:
            scopes = [o["train_size"]]
        elif o.get("combine_sizes"):
            scopes = [None]
        else:
            scopes = table.train_sizes()
        return [
            importance.importance_report(
                table, datasets, size,
                permutations=o.get("permutations", 100),
                seed=o.get("seed", 0),
                combine_train_sizes=bool(o.get("combine_sizes")),
            )
            for size in scopes
        ]
    raise ValueError(f"no library mirror for subcommand {cmd.sub!r}")


def api_pass(w: Workload, inputs: Inputs) -> ApiPass:
    before = yardstick_s()
    started = time.perf_counter()
    space = ingest.load_space(inputs.space)
    table = ingest.load_scores(inputs.scores, space, warn_incomplete=False)
    steps = [time.perf_counter() - started]
    results = []
    for cmd in w.commands:
        started = time.perf_counter()
        results.append(api_call(cmd, table, inputs))
        steps.append(time.perf_counter() - started)
    return ApiPass(steps, table, results, (before + yardstick_s()) / 2)


def text_body(cmd: Command, result) -> str:
    """The CLI's text output body for a library result."""
    if cmd.sub == "validate":
        return report.render_completeness(result)
    if cmd.sub == "rank":
        return report.render_ranking(result, cmd.opts.get("top"))
    if cmd.sub == "budget":
        return report.render_budget(result, details=bool(cmd.opts.get("details")))
    render = {
        "loo": report.render_loo,
        "compare": report.render_compare,
        "importance": report.render_importance,
    }[cmd.sub]
    return render(result)


def json_payload(cmd: Command, result) -> dict | None:
    """The CLI's JSON output for a library result, without the manifest."""
    if cmd.sub == "rank":
        return {"ranking": result.to_dict()}
    if cmd.sub == "budget":
        return {"curve": result.to_dict()}
    key = {"loo": "results", "compare": "rows", "importance": "reports"}.get(cmd.sub)
    return None if key is None else {key: [r.to_dict() for r in result]}


def render(cmd: Command, result) -> tuple[str, bool]:
    """The output body the CLI writes for a library result, and whether it is JSON."""
    if is_machine(cmd):
        return json.dumps(json_payload(cmd, result), indent=2), True
    return text_body(cmd, result), False


def api_digests(w: Workload, api: ApiPass) -> list[str]:
    out = []
    for cmd, result in zip(w.commands, api.results):
        text, machine = render(cmd, result)
        out.append(output_digest(text, machine))
    return out
