#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload of BENCHMARK.json at a tiny size, end-to-end and
traced, and checks that

  * each run is correct and prints every metric BENCHMARK.json names, with
    its unit;
  * a deliberately perturbed pin is reported as a named failure;
  * perfbench/pins.json pins every input set of every workload, and
    perfbench/manifest.json records every workload and per-layer metric;
  * the benchmark refuses to run (non-zero exit, no result line) from a
    directory that holds only BENCHMARK.json and perfbench/.

Usage (from the root of a checkout): python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (perfbench/run.py)

FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)
        print("FAIL: " + message)


def run_py(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    spec = bench.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    bench.build()
    scratch = os.path.join(bench.build_dir(), "selftest")
    os.makedirs(scratch, exist_ok=True)

    pins = bench.load_json(bench.PINS)
    for w in workloads:
        got = set(pins.get("workloads", {}).get(w, {}))
        check(got == {str(i) for i in range(bench.INPUT_SETS)},
              f"pins.json does not pin every input set of {w}")
    manifest = bench.load_json(os.path.join(HERE, "manifest.json"))
    check(set(manifest["workloads"]) == set(workloads), "manifest.json workloads differ")
    check(set(manifest["per_layer"]) == {m["name"] for m in spec["per_layer"]},
          "manifest.json per-layer predictions differ from BENCHMARK.json")

    tiny_pins = os.path.join(scratch, "pins_tiny.json")
    if os.path.exists(tiny_pins):
        os.remove(tiny_pins)
    proc = run_py("--emit-pins", "--tiny", "--pins", tiny_pins)
    check(proc.returncode == 0, "recording tiny pins failed:\n" + proc.stderr[-2000:])

    for w in workloads:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_py("--workload", w, "--seed", "0", "--seconds", "1", "--trace", str(trace),
                          "--tiny", "--pins", tiny_pins)
            result = last_json(proc)
            check(proc.returncode == 0 and result is not None,
                  f"{w} trace {trace}: no result line\n{proc.stderr[-2000:]}")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{w} trace {trace}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{w} trace {trace}: not correct\n{proc.stdout[-2000:]}")
            for m in metrics:
                printed = result["metrics"].get(m["name"])
                check(printed is not None and printed.get("unit") == m["unit"]
                      and isinstance(printed.get("value"), (int, float)),
                      f"{w} trace {trace}: metric {m['name']} missing or without unit {m['unit']}")
            check(len(result["metrics"]) == len(metrics),
                  f"{w} trace {trace}: prints metrics BENCHMARK.json does not name")
        print(f"ok: {w}")

    perturbed = bench.load_json(tiny_pins)
    stats = perturbed["workloads"][workloads[0]]["0"]
    victim = sorted(stats)[0]
    stats[victim] += 1
    perturbed_path = os.path.join(scratch, "pins_perturbed.json")
    with open(perturbed_path, "w", encoding="utf-8") as f:
        json.dump(perturbed, f)
    proc = run_py("--workload", workloads[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                  "--tiny", "--pins", perturbed_path)
    result = last_json(proc)
    check(result is not None and not result["correct"] and result["failed"] >= 1
          and f"pin drift: {workloads[0]}[0] {victim}" in proc.stdout,
          f"a perturbed pin ({victim}) was not reported as a failure")
    print("ok: perturbed pin reported")

    bare = os.path.join(scratch, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = run_py("--workload", workloads[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=bare, env=env)
    check(proc.returncode != 0 and last_json(proc) is None,
          "the benchmark ran without the library sources next to it")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses to run without the sources")

    print("selftest: " + ("FAILED" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
