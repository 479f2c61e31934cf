"""Exit code and stdout digest of every benchmark job, for one `src/` tree.

    python3 tools/report_digests.py SRC [INPUTS]

Imports `antipodes` from SRC and the job lists from this checkout's
`perfbench/workloads.py`, and runs every job of the three workloads at
seeds 1, 5 and 11 through `antipodes.cli.main`, once.  Each workload's
input files are written to INPUTS (default: `antipodes-report-digests`
in the system's temporary directory), emptied before every workload and
seed, so that two trees given the same INPUTS read their inputs from the
same paths.  Prints `{job: [exit code, sha256 of stdout]}` as JSON, a job
being named `workload:seed:name`; a job that raises is listed as
`[null, exception type]`.  Two trees print the same digests exactly when
every job gives the same exit code and report bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 5, 11)


def digests(src: Path, inputs: Path) -> dict:
    # perfbench/ is only read: no bytecode is cached beside it.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(src))
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("antipodes.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"antipodes was imported from {cli.__file__}, not {src}")
    out = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            shutil.rmtree(inputs, ignore_errors=True)
            for job in workloads.generate(workload, seed, inputs):
                text = io.StringIO()
                try:
                    with contextlib.redirect_stdout(text):
                        code = cli.main(list(job.argv))
                except (Exception, SystemExit) as exc:
                    result = [None, type(exc).__name__]
                else:
                    result = [code, hashlib.sha256(text.getvalue().encode()).hexdigest()]
                out[f"{workload}:{seed}:{job.name}"] = result
    shutil.rmtree(inputs, ignore_errors=True)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    default = Path(tempfile.gettempdir()) / "antipodes-report-digests"
    inputs = Path(argv[1]) if len(argv) == 2 else default
    print(json.dumps(digests(src, inputs.resolve()), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
