"""hardyz benchmark runner.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 30 \
        --trace 0

Run from the root of a hardyz checkout.  Prints human-readable lines and,
as its last line, one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 4
WORKER_TIMEOUT_S = 165
WORK_DIR = ".perfbench"


def _fail(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def _machine() -> dict:
    import mpmath
    import mpmath.libmp
    with open("/proc/loadavg") as fh:
        load = fh.read().split()[:3]
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "loadavg": " ".join(load)}


def _env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HARDYZ_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One fresh interpreter running perfbench/worker.py."""

    def __init__(self, root: str, spec_path: str, tag: str, **opts):
        self.root = root
        self.result = os.path.join(root, WORK_DIR, f"{tag}.result.json")
        self.stderr_path = os.path.join(root, WORK_DIR, f"{tag}.stderr")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", root, "--spec", spec_path, "--result", self.result,
               "--tmp", os.path.join(root, WORK_DIR, f"{tag}.out")]
        for key, val in opts.items():
            flag = "--" + key.replace("_", "-")
            cmd += [flag] if val is True else [flag, str(val)]
        if os.path.exists(self.result):
            os.remove(self.result)
        self.cmd = cmd

    def run(self, deadline: float) -> float:
        """Start, wait for "ready" and for the exit; return set-up seconds."""
        with open(self.stderr_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                    stderr=err, env=_env(self.root),
                                    cwd=self.root, text=True)
            try:
                line = proc.stdout.readline()
                setup = time.perf_counter() - t0
                proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                _fail("workload process timed out")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            with open(self.stderr_path) as fh:
                tail = fh.read()[-2000:]
            _fail(f"workload process failed (exit {proc.returncode}):\n{tail}")
        return setup

    def load(self) -> dict:
        with open(self.result) as fh:
            return json.load(fh)


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return 100 * (n - 10) // n, ordered[n - 11], n


def _summary(res: dict) -> dict:
    ops = res["ops"]
    lat = [o["latency_s"] for o in ops]
    lat_kref = [o["latency_kref"] for o in ops]
    units = sum(o["units"] for o in ops)
    busy = sum(lat)
    return {"attempted": len(ops), "failed": sum(not o["ok"] for o in ops),
            "units": units, "busy_s": busy, "busy_kref": sum(lat_kref),
            "units_per_s": units / busy, "op_p50_s": statistics.median(lat),
            "units_per_kref": units / sum(lat_kref),
            "op_p50_kref": statistics.median(lat_kref), "tail": _tail(lat),
            "tail_kref": _tail(lat_kref)}


def _print_ops(res: dict) -> None:
    by_class = {}
    for o in res["ops"]:
        by_class.setdefault(o["class"], []).append(o)
    for cls, ops in sorted(by_class.items()):
        lat = [o["latency_s"] for o in ops]
        kref = statistics.median(o["latency_kref"] for o in ops)
        print(f"  class {cls}: {len(lat)} ops, median "
              f"{statistics.median(lat):.4f} s = {kref:.5f} kref, max "
              f"{max(lat):.4f} s")
    for o in res["ops"]:
        if not o["ok"]:
            print(f"  FAILED {o['class']}: {o['why']}")


def _layer_metrics(traced: dict, untraced: dict, names) -> dict:
    """Every per-layer value by name; a layer the run never entered reads 0."""
    layers = traced["layers"]
    flat = dict(layers["counts"])
    for kind in ("calls", "total_s", "self_s"):
        for base, value in layers[kind].items():
            flat[f"{base}.{kind}"] = value
    flat["extremal.find_c_eps.no_range_warnings"] = traced["no_range_warnings"]
    for key, value in layers.get("calibration", {}).items():
        flat[f"hardy.calibration.{key}"] = value
    located = flat.get("hardy.zeros_located", 0)
    flat["hardy.siegelz_per_zero"] = \
        flat.get("hardy.siegelz.calls", 0) / located if located else 0
    flat["trace.overhead_frac"] = 1 - _summary(traced)["units_per_kref"] \
        / _summary(untraced)["units_per_kref"]
    return {name: flat.get(name, 0) for name in names}


def _per_layer_units() -> dict:
    """Name -> unit of every per-layer metric BENCHMARK.json declares."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main() -> None:
    ap = argparse.ArgumentParser(description="hardyz benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    deadline = start + WORKER_TIMEOUT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hardyz", "__init__.py")):
        _fail("run from the root of a hardyz checkout (src/hardyz not found)")
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    layer_units = _per_layer_units()

    machine = _machine()
    # the traced run repeats half the work twice: once plain, once traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = workloads.rounds_for(args.workload, seconds)
    spec = workloads.build(args.workload, args.seed, rounds)
    tag = f"{args.workload}-{args.seed}"
    spec_path = os.path.join(root, WORK_DIR, f"{tag}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    print(f"workload {args.workload} seed {args.seed}: {len(spec['ops'])} ops "
          f"in {rounds} round(s) at {spec['prec']} bits, unit "
          f"'{spec['unit']}', closed loop with one caller")

    if args.trace:
        plain = Worker(root, spec_path, tag + "-plain")
        plain.run(deadline)
        untraced = plain.load()
        spans = os.path.join(root, WORK_DIR, f"{tag}.spans.tsv")
        traced_w = Worker(root, spec_path, tag + "-traced", trace=1,
                          spans=spans, calibrate=int(args.workload == "zeros"))
        traced_w.run(deadline)
        traced = traced_w.load()
        summary = _summary(traced)
        same = [a["digest"] for a in untraced["ops"]] \
            == [b["digest"] for b in traced["ops"]]
        metrics = _layer_metrics(traced, untraced, layer_units)
        # a traced output that differs from the plain one is a failure
        failed = summary["failed"] + _summary(untraced)["failed"] \
            + int(not same)
        print(f"traced outputs byte-identical to untraced: {same}")
        print(f"spans written: {traced['layers']['spans']} to "
              f"{WORK_DIR}/{tag}.spans.tsv")
        cal = traced["layers"].get("calibration")
        if cal:
            print(f"calibration find_zeros(0, 100] at 128 bits: {cal['zeros']}"
                  f" zeros, {cal['siegelz_calls']} siegelz calls")
            failed += int(cal["zeros"] != 29)
        print("unmeasured layers: divided_diff and precision do no measurable "
              "work on these workloads")
        _print_ops(traced)
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in layer_units.items()}
        attempted = 2 * summary["attempted"]
    else:
        # set-up samples before and after the timed run, so that the median
        # spans the run's stretch of host speed rather than one moment
        def setup_samples(first):
            return [Worker(root, spec_path, f"{tag}-setup{i}",
                           setup_only=True).run(deadline)
                    for i in range(first, first + SETUP_REPEATS)]

        setups = setup_samples(0)
        main_w = Worker(root, spec_path, tag)
        setups.append(main_w.run(deadline))
        res = main_w.load()
        setups += setup_samples(SETUP_REPEATS)
        summary = _summary(res)
        failed = summary["failed"]
        attempted = summary["attempted"]
        print(f"ops attempted {attempted}, failed {failed}, ops_failed_frac "
              f"{failed / attempted:.4f}")
        print(f"units {summary['units']} {spec['unit']} in "
              f"{summary['busy_s']:.3f} s busy; worker cpu "
              f"{res['cpu_s']:.3f} s")
        print(f"units_per_s {summary['units_per_s']:.6g} 1/s, op_p50_s "
              f"{summary['op_p50_s']:.6g} s (wall clock, not host-adjusted)")
        ref = res["reference_s"]
        print(f"reference loop: {len(ref)} samples, median "
              f"{1000 * statistics.median(ref):.3f} ms, range "
              f"{1000 * min(ref):.3f}-{1000 * max(ref):.3f} ms")
        tail = summary["tail"]
        if tail:
            print(f"op_tail_s p{tail[0]} = {tail[1]:.4f} s, op_tail_kref "
                  f"p{tail[0]} = {summary['tail_kref'][1]:.5f} kref, over "
                  f"{tail[2]} ops (10 samples beyond)")
        else:
            print(f"op_tail_s not reported: {attempted} ops is too few for a "
                  "percentile with ten samples beyond it; median only")
        if args.workload == "certificate":
            print(f"'no admissible range' warnings counted: "
                  f"{res['no_range_warnings']}")
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
        _print_ops(res)
        result_metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "units_per_kref": {"value": summary["units_per_kref"],
                              "unit": "1/kref"},
            "op_p50_kref": {"value": summary["op_p50_kref"], "unit": "kref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    end = _machine()
    machine["loadavg_end"] = end["loadavg"]
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))


if __name__ == "__main__":
    main()
