"""Record the reference outputs that `checks.py` compares against.

    python3 bench/record_reference.py [workload ...]

Run it only on a commit whose outputs are known good: it replaces
`bench/reference/<workload>/<seed>.json` with what the current
`src/cinefuse` computes for the reference seeds, at the workload shapes in
`run.py`. For `serve` it records the ranking for every title the request
sequence can draw, so every request on a reference seed is checked; that
takes about half an hour on a 2-core machine, so `serve` has fewer reference seeds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import checks
import gen
import run

REFERENCE_SEEDS = {"serve": range(10), "evaluate": range(21), "tune": range(21)}


def record(cf, name: str, seed: int) -> dict:
    data_dir = tempfile.mkdtemp(prefix=f"ref-{name}-{seed}-", dir=run.OUT)
    try:
        files = gen.generate(data_dir, seed, run.SHAPES[name])
        work = run.KINDS[name](cf, files, seed)
        vars(work).update(work.setup())
        if name == "serve":
            outputs = {
                title: checks.serve_summary(cf.recommend_hybrid(work.catalog, title, cf.PipelineConfig()))
                for title in files.popular_titles
            }
        elif name == "evaluate":
            outputs = checks.evaluate_summary(work.op(0))
        else:
            outputs = {label: o["best"] for label, o in work.op(0).items()}
        return {"shape": files.shape, "outputs": outputs}
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def write(name: str, seed: int, entry: dict) -> None:
    """One line per output, so a re-recording diffs by output."""

    def dump(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    outputs = ",\n".join(f"  {json.dumps(k)}: {dump(v)}" for k, v in sorted(entry["outputs"].items()))
    path = checks.reference_path(name, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"shape": {dump(entry["shape"])}, "outputs": {{\n{outputs}\n}}}}\n')


def main(argv) -> int:
    cf = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    for name in argv or list(run.WORKLOADS):
        seeds = REFERENCE_SEEDS[name]
        shutil.rmtree(checks.REFERENCE_DIR / name, ignore_errors=True)
        for seed in seeds:
            write(name, seed, record(cf, name, seed))
        print(f"recorded {name} for seeds {seeds.start}..{seeds.stop - 1}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
