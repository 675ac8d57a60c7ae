#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [workload ...]

For each workload (all three by default):
  * the same seed gives a byte-identical input hash, and another seed a
    different one;
  * every exact count of the traced run repeats exactly across two runs
    with the same seed;
  * both modes print, as the last line, a result with exactly the keys
    correct/attempted/failed/metrics, every op correct, and exactly the
    metric names BENCHMARK.json lists for that mode.
Exit code 0 when every check passes.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build entry point)

EXACT = [
    "core.log_evals_per_draw",
    "core.filter_skip_frac",
    "core.crossover.alias_frac",
    "core.wheelset.flip_frac",
    "dist.rounds_per_batch",
    "dist.messages_per_draw",
    "dist.words_per_draw",
    "dist.critical_path_words_per_draw",
    "persist.bytes_per_record",
    "persist.snapshot_bytes",
]


def bench(binary, workload, seed, *extra):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--work-dir", str(run.WORK_DIR), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return p.stdout.splitlines()


def input_hash(binary, workload, seed):
    lines = bench(binary, workload, seed, "--inputs-only")
    return next(l.split()[1] for l in lines if l.startswith("input_hash "))


def result(binary, workload, seed, trace):
    r = json.loads(bench(binary, workload, seed, "--seconds", "1", "--trace", trace)[-1])
    assert sorted(r) == ["attempted", "correct", "failed", "metrics"], sorted(r)
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, r
    return r["metrics"]


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = sorted(m["name"] for m in spec["end_to_end"])
    layers = sorted(m["name"] for m in spec["per_layer"])
    workloads = sys.argv[1:] or run.WORKLOADS
    binary = run.build()
    run.WORK_DIR.mkdir(exist_ok=True)
    failures = 0
    for w in workloads:
        try:
            h = input_hash(binary, w, 7)
            assert h == input_hash(binary, w, 7), "input hash differs for one seed"
            assert h != input_hash(binary, w, 8), "input hash ignores the seed"

            m = result(binary, w, 7, "0")
            assert sorted(m) == e2e, f"end-to-end metrics {sorted(m)}"
            assert all(v["value"] > 0 for v in m.values()), "an end-to-end metric is 0"

            a = result(binary, w, 7, "1")
            b = result(binary, w, 7, "1")
            assert sorted(a) == layers, f"per-layer metrics {sorted(a)}"
            for name in EXACT:
                assert a[name]["value"] == b[name]["value"], (
                    f"{name}: {a[name]['value']} != {b[name]['value']}")
            print(f"ok   {w}  input_hash {h}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {w}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
