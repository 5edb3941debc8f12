"""One workload round in a fresh process.

Usage: python3 child.py ROUND_DIR [--trace] [--keep] [--setup-only]

The process imports ``qcweights.cli``, prints ``ready`` (the parent times
set-up up to that line), then runs every invocation listed in
``ROUND_DIR/ops.json`` through ``qcweights.cli.main``, in order, rendering
each output to ``ROUND_DIR/op-<i>.json``.  Only that loop is timed.  After
it, the process digests each output with the elapsed-time line removed,
deletes the outputs unless ``--keep`` is given, and writes
``ROUND_DIR/result.json``.  With ``--trace`` the public functions of each
layer are wrapped first and the spans go to ``ROUND_DIR/spans.json``.
With ``--setup-only`` the process exits right after ``ready``: the parent
uses such processes as extra set-up samples.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _set_up():
    """Import the CLI and announce readiness; set-up time ends here."""
    sys.path.insert(0, str(SRC))
    import qcweights.cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return qcweights.cli


def _digest(path: Path) -> str:
    import hashlib

    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            # The envelope's only run-dependent field, at indent level 1.
            if not line.startswith(b'  "elapsed_ms": '):
                sha.update(line)
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    cli = _set_up()
    if "--setup-only" in argv:
        return 0
    import json

    round_dir = Path(argv[0])
    traced, keep = "--trace" in argv, "--keep" in argv
    ops = json.loads((round_dir / "ops.json").read_text())
    outs = [round_dir / f"op-{i}.json" for i in range(len(ops))]
    invocations = [[*op, "--format", "json", "--out", str(out)] for op, out in zip(ops, outs)]
    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    cli_main = cli.main
    codes: list[int | None] = []
    errors: list[str | None] = []
    op_s: list[float] = []

    clock = time.perf_counter
    started = clock()
    for invocation in invocations:
        t0 = clock()
        try:
            codes.append(cli_main(invocation))
            errors.append(None)
        except Exception as exc:  # a crash is a failed operation, not a stop
            codes.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(clock() - t0)
    wall_s = clock() - started

    if recorder is not None:
        recorder.dump(round_dir / "spans.json")
    sizes, digests = [], []
    for out in outs:
        if out.exists():
            sizes.append(out.stat().st_size)
            digests.append(_digest(out))
            if not keep:
                out.unlink()
        else:
            sizes.append(0)
            digests.append(None)
    result = {"wall_s": wall_s, "op_s": op_s, "codes": codes, "errors": errors,
              "bytes": sizes, "digests": digests}
    (round_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
