"""Untimed verification, and the reference digests the timed runs check.

Usage, from the root of the repository::

    python3 perfbench/verify.py            # check against digests.json
    python3 perfbench/verify.py --write    # check, then rewrite digests.json

For the default seed of every workload it first cross-checks the library
against the independent oracle in ``tests/oracle_impl.py``: the coverage
ranking, leave-one-out, the budget curve and one permutation p-value, the
same checks every timed run makes.  It then runs one
CLI pass, requires each output to equal the rendered library result, and
compares the digests with digests.json.  Only when every check passes does
``--write`` record the digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="verify the benchmark's outputs")
    parser.add_argument("--write", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import oracle
    from passes import api_digests, api_pass, cli_pass
    from run import DEFAULT_SEED, DIGESTS, WORK, reference_digests
    from workloads import WORKLOADS, generate

    module = oracle.load_oracle(ROOT)
    problems: list[str] = []
    digests = {}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="verify-", dir=WORK))
    try:
        for name, w in WORKLOADS.items():
            inputs = generate(w, DEFAULT_SEED, work / name / "inputs")
            api = api_pass(w, inputs)
            table = api.table
            found = [p for _, problems in oracle.cross_check(module, table) for p in problems]

            expected = api_digests(w, api)
            runs = cli_pass(w.commands, inputs, work / "pycache", work / name)
            for cmd, run, want in zip(w.commands, runs, expected):
                if run.error is not None:
                    found.append(f"[{cmd.label}] {run.error}")
                elif run.digest != want:
                    found.append(f"[{cmd.label}] CLI output differs from the library result")
            stored = reference_digests(name)
            if not args.write and stored != expected:
                found.append("digests differ from digests.json")
            digests[name] = [
                {"command": cmd.label, "sha256": d} for cmd, d in zip(w.commands, expected)
            ]
            print(f"{name}: {'ok' if not found else f'{len(found)} problem(s)'}")
            problems += [f"{name}: {p}" for p in found]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print("ERROR", p)
    if problems:
        return 1
    if args.write:
        DIGESTS.write_text(
            json.dumps({"seed": DEFAULT_SEED, "workloads": digests}, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    sys.exit(main())
