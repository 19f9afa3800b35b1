"""Digest everything the CLI prints and writes over the benchmark's seeded ops.

    PYTHONPATH=src python3 tools/output_digest.py

Runs the ops of every workload of the benchmark (``perfbench/workloads.py``)
for seeds 1-10, ``OPS`` ops each, as the benchmark's worker does: in
process, each op one call to ``thurston_kit.cli.main`` with its config
file (the op's config and an ``out_dir``) in a temporary directory and
the files of the op before removed first.  Each op adds to its
workload's sha256 its exit code (or the type and message of what it
raised), its stdout and stderr, with the temporary directory replaced by
a fixed token, and the name and bytes of every file in ``out_dir``.
Prints one sha256 per workload and the sha256 of those lines.  Two
source checkouts keep every output byte of these ops when this prints
the same digests with each one's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from thurston_kit import cli  # noqa: E402

SEEDS = range(1, 11)
#: ops per workload and seed
OPS = 200
#: stands for the temporary directory in stdout and stderr
TOKEN = "<tmp>"


def _field(h, data: bytes) -> None:
    """Add ``data`` to ``h`` after its length, so no two op records hash alike by shifting a boundary."""
    h.update(len(data).to_bytes(8, "little"))
    h.update(data)


def digest(workload: str, seeds=SEEDS, ops: int = OPS) -> str:
    """The sha256 of the exit codes, output streams and artifacts of ``ops``
    ops of ``workload`` per seed."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg = Path(tmp) / "out", Path(tmp) / "op.cfg"
        for seed in seeds:
            for op in itertools.islice(WORKLOADS[workload].ops(random.Random(seed)), ops):
                for path in out.glob("*"):
                    path.unlink()
                argv = list(op.argv)
                if op.config:
                    cfg.write_text(op.config + f"out_dir={out}\n")
                    argv = ["--config", str(cfg), *argv]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        rc = cli.main(argv)
                    except SystemExit as exc:
                        rc = exc.code
                    except Exception as exc:  # a traceback would name the checkout's paths
                        rc = f"{type(exc).__name__}: {exc}"
                _field(h, repr(rc).encode())
                for stream in (stdout, stderr):
                    _field(h, stream.getvalue().replace(tmp, TOKEN).encode())
                for path in sorted(out.glob("*")):
                    _field(h, path.name.encode())
                    _field(h, path.read_bytes())
    return h.hexdigest()


def main() -> None:
    text = "".join(f"{name} {digest(name)}\n" for name in WORKLOADS)
    print(text + f"total {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
