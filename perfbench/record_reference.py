"""Record the reference stdout digest of every workload for a range of seeds.

    python3 perfbench/record_reference.py --seeds 0:25

Each (workload, seed) runs the CLI once with ``--jobs 1``; the sha256 of
its stdout is stored in ``reference.json`` under the sha256 of the
generated ratings file, so a change to the generator shows up as data with
no reference rather than as a mismatch. Run this only when a workload's
command or the generator changes: the point of the file is that later
versions of the program must print the same bytes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0:25", help="start:stop seed range")
    start, stop = (int(x) for x in parser.parse_args().seeds.split(":"))
    synth, _ = run._test_helpers()
    table: dict[str, dict] = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for name, w in run.WORKLOADS.items():
            entries = table[name] = {}
            for seed in range(start, stop):
                records = synth.planted_records(seed=seed, n_users=w.users, n_items=w.items)
                ratings = workdir / "ratings.txt"
                data_sha = run.write_ratings(records, ratings)
                child = run.run_child(["-c", run.CLI_CODE, *w.argv(str(ratings), 1)], workdir)
                problems = run.check_stdout("reference run", child.code, child.stdout,
                                            child.stderr, None)
                problems += run.check_report(w, child.stdout.decode())
                if problems:
                    print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                entries[data_sha] = {"seed": seed,
                                     "stdout_sha256": run.sha256_bytes(child.stdout)}
                print(f"{name} seed {seed}: {child.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
