"""Record the reference CSV bodies that runs at the default seed are checked against.

    python3 perfbench/record_reference.py

Runs every workload's commands once at the default seed and writes each body
to ``perfbench/reference/<workload>.<command>.csv``.  Only needed when a
workload's inputs or commands change; a change to the library that moves
results by more than the check's tolerance is a failure, not a reason to
record again.
"""

from __future__ import annotations

import sys
import tempfile

import run


def main():
    if not run.prepare():
        return 2
    import checks
    import harness
    import workloads
    from mjpbounds import cli

    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=run.ROOT) as workdir:
        for workload in workloads.WORKLOADS.values():
            bench = harness.Bench(workload, workloads.DEFAULT_SEED, workdir, use_reference=False)
            for command, out in zip(workload.commands, bench.outs):
                code = cli.main(bench.argv(command, out))
                text = out.read_text() if code == 0 else ""
                _, failed, notes = checks.check_body(text, command.expected_rows)
                if code != 0 or failed:
                    print(f"{workload.name} {command.label}: exit {code}, {notes}", file=sys.stderr)
                    return 1
                harness.reference_path(workload, command).write_text(text)
                print(f"recorded {harness.reference_path(workload, command).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
