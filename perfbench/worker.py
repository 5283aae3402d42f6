"""One workload process: materialize inputs, run the closed loop, check.

Started by run.py in a fresh interpreter with every HARDYZ_* variable
cleared and PYTHONPATH pointing at the checkout's src/.  It prints "ready"
once hardyz is imported and the inputs are built (the end of set-up), then
runs the operations one after another, each starting when the previous one
returns, while HostSampler times a fixed reference loop twenty times a
second.  Oracle checks run after the timed loop.  The result goes to the
JSON file named by --result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import time
import warnings

from mpmath import mp
from mpmath.libmp import from_int, mpf_add, mpf_sqrt, round_nearest

import hardyz
from hardyz import cli, extremal, hardy, identity, kernel, probes
from hardyz.precision import working_precision

NO_RANGE_WARNING = "no admissible range"

# one kref is the time the host takes for 1000 passes of the reference loop,
# about 1.2 s on the reference machine in its fast state
REF_STEPS = 250
REF_INTERVAL_S = 0.05
REF_WINDOW_S = 0.1


# ---------------------------------------------------------------------------
# host speed, sampled during the timed loop


def reference_loop() -> float:
    """Seconds taken by a fixed loop of mpmath's low-level arithmetic.

    The loop touches neither hardyz nor any mpmath context state, so it can
    run in a signal handler in the middle of an operation.
    """
    t0 = time.perf_counter()
    x = from_int(1)
    for i in range(REF_STEPS):
        x = mpf_sqrt(mpf_add(x, from_int(i), 200, round_nearest), 200,
                     round_nearest)
    return time.perf_counter() - t0


class HostSampler:
    """Times the reference loop every REF_INTERVAL_S seconds of wall time.

    The host's speed flips between states some 1.7 times apart, from one
    tenth of a second to the next and for minutes at a time.  The samples
    around an operation measure how much reference work the host would have
    done in its time, which reads the same whatever state the host is in.
    """

    def __init__(self) -> None:
        self.samples = []  # (start, seconds)

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append((start, reference_loop()))

    def __enter__(self) -> "HostSampler":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def time_within(self, t0: float, t1: float) -> float:
        """Seconds the sampler itself took between t0 and t1."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def kref(self, t0: float, t1: float, seconds: float) -> float:
        """`seconds` spent within [t0, t1], in kref.

        It is `seconds` times the mean host speed (reference loops per
        second) over the samples within REF_WINDOW_S of the interval,
        divided by 1000.
        """
        near = [d for s, d in self.samples
                if t0 - REF_WINDOW_S <= s <= t1 + REF_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sd: abs(sd[0] - t0))[1]]
        return seconds * statistics.fmean(1 / d for d in near) / 1000


# ---------------------------------------------------------------------------
# input materialization (part of set-up)


def _node_config(spec, prec):
    with working_precision(prec):
        a = mp.mpf(spec["a"])
        nodes = [-a * mp.mpf(v) for v in reversed(spec["neg"])] + [mp.mpf(0)] \
            + [a * mp.mpf(v) for v in spec["pos"]]
        return kernel.NodeConfig(n=spec["n"], a=a, nodes=nodes, strict=True)


def _materialize(spec, tmp):
    """Turn the plain-number spec into the arguments each operation takes."""
    prec = spec["prec"]
    flags = ["--precision-bits", str(prec), "--seed", "0", "--jobs", "1",
             "--format", "json", "--out", tmp]
    ops = []
    for op in spec["ops"]:
        item = dict(op)
        if spec["workload"] == "identity":
            cfg = _node_config(op["config"], prec)
            item["cfg"] = cfg
            if op["class"].startswith("cardinal"):
                item["probe"] = probes.cardinal_probe(cfg, prec=prec)
            else:
                with working_precision(prec):
                    w = [mp.mpf(v) for v in op["mu"]]
                    item["mu_mp"] = w + [-mp.fsum(w)]
                if "coeffs" in op:
                    item["probe"] = probes.polynomial_probe(op["coeffs"],
                                                            prec=prec)
                elif "width" in op:
                    item["probe"] = probes.gaussian_cosine_probe(
                        op["b"], op["width"], prec=prec)
                else:
                    item["probe"] = probes.cosine_probe(op["b"], prec=prec)
        elif spec["workload"] == "zeros":
            item["argv"] = flags + ["zeros", op["lo"], op["hi"]]
        elif spec["workload"] == "certificate":
            item["argv"] = flags + ["extremal"] + op["args"]
        else:
            item["argv"] = flags + ["explore"] + op["args"]
        ops.append(item)
    return ops


# ---------------------------------------------------------------------------
# operations


def _canon(values, digits=70) -> str:
    return "\n".join(mp.nstr(v, digits) for v in values)


def _run_identity(item, prec):
    if item["class"].startswith("cardinal"):
        res = identity.reconstruct_f0(item["cfg"], item["probe"], item["m"],
                                      prec=prec)
        text = _canon([res.value, res.integral_term, *res.boundary_terms])
        return 0, text, {"value": res.value}
    rep = identity.verify_key_identity(item["cfg"], item["mu_mp"],
                                       item["probe"], item["m"], prec=prec)
    text = _canon([rep.lhs, rep.integral_term, rep.residual,
                   rep.quadrature_error_estimate, *rep.boundary_terms])
    return 0, text, {"report": rep}


def _run_cli(item, tmp):
    if os.path.exists(tmp):
        os.remove(tmp)
    code = cli.main(list(item["argv"]))
    text = ""
    if os.path.exists(tmp):
        with open(tmp) as fh:
            text = fh.read()
    return code, text, {}


# ---------------------------------------------------------------------------
# oracle checks (outside the timed region)


def _check_identity(item, out, prec):
    with mp.workprec(prec + 32):
        if item["class"].startswith("cardinal"):
            err = abs(out["value"] - 1)
            return err < mp.mpf(2) ** -120, f"|f(0)-1|={mp.nstr(err, 5)}"
        rep = out["report"]
        # lhs = sum mu_k f(x_k), with f evaluated here from the spec rather
        # than through the probe
        total = mp.mpf(0)
        for mk, x in zip(item["mu_mp"], item["cfg"].nodes):
            x = mp.mpf(x)
            if "coeffs" in item:
                fx = mp.mpf(0)
                for c in reversed(item["coeffs"]):
                    fx = fx * x + mp.mpf(c)
            elif "width" in item:
                fx = mp.exp(-x ** 2 / (2 * mp.mpf(item["width"]) ** 2)) \
                    * mp.cos(mp.mpf(item["b"]) * x)
            else:
                fx = mp.cos(mp.mpf(item["b"]) * x)
            total += mk * fx
        rhs = mp.fsum(rep.boundary_terms) - rep.integral_term
        mag = max([abs(b) for b in rep.boundary_terms]
                  + [abs(total), abs(rep.integral_term), mp.mpf(1)])
        gap = abs(total - rhs)
        ok = gap <= mp.mpf(2) ** -(prec - 40) * mag
        return ok, f"|lhs-rhs|/mag={mp.nstr(gap / mag, 5)}"


def _check_zeros(item, code, text, rng, sample):
    if code != 0:
        return False, f"exit {code}"
    payload = json.loads(text)
    with mp.workdps(30):
        n_lo = int(mp.nzeros(float(item["lo"])))
        expected = int(mp.nzeros(float(item["hi"]))) - n_lo
        if payload["count"] != expected:
            return False, f"count {payload['count']} != nzeros {expected}"
        if sample:
            k = rng.randrange(len(payload["zeros"]))
            ref = mp.zetazero(n_lo + k + 1).imag
            got = mp.mpf(payload["zeros"][k]["t"])
            if abs(got - ref) > mp.mpf("1e-12"):
                return False, f"gamma {got} != zetazero {ref}"
    return True, f"count={expected}"


def _check_certificate(item, code, text):
    if code not in (0, 1):
        return False, f"exit {code}"
    payload = json.loads(text)
    if item.get("paper") and not (code == 0 and payload["total_below_one"]
                                  and payload["admissible"]):
        return False, "paper tuple (12, 0.95, 0.65, 30) did not certify"
    n, c, eps, _m = item["args"]
    prec = int(payload["precision_bits"])
    params = extremal.ExtremalParams(n=int(n), c=mp.mpf(c), eps=mp.mpf(eps),
                                     prec=prec)
    cfg = extremal.extremal_config(params, prec=prec)
    with mp.workprec(prec):
        tol = mp.mpf(2) ** -(prec - 24)
        p_direct = extremal.sine_product(cfg, prec=prec)
        p_log = extremal.sine_product(cfg, prec=prec, log_domain=True)
        d_route = extremal.divided_bound(cfg, params, prec=prec)
        d_direct = extremal.divided_bound_direct(cfg, params.c, prec=prec)
        if abs(p_direct - p_log) > tol * abs(p_direct):
            return False, "sine_product routes disagree"
        if abs(d_route - d_direct) > mp.mpf(2) ** -(prec // 2) * abs(d_route):
            return False, "divided_bound routes disagree"
        reported = mp.mpf(payload["sine_product"])
        if abs(reported - p_direct) > tol * abs(p_direct):
            return False, "reported sine_product differs from its route"
    return True, f"exit {code}"


def _check_explore(item, code, text, rng):
    if code != 0:
        return False, f"exit {code}"
    payload = json.loads(text)
    row = payload["rows"][rng.randrange(len(payload["rows"]))]
    with mp.workprec(2 * int(payload["precision_bits"])):
        t = mp.mpf(row["t_at_max"])
        ref = abs(mp.diff(mp.siegelz, t, row["k"]))
        got = mp.mpf(row["max_abs_deriv"])
        rel = abs(got - ref) / ref
        return rel < mp.mpf("1e-12"), f"k={row['k']} rel={mp.nstr(rel, 3)}"


# ---------------------------------------------------------------------------


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--result")
    ap.add_argument("--tmp")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    ap.add_argument("--calibrate", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(hardyz.__file__).startswith(src + os.sep):
        raise SystemExit(f"hardyz imported from {hardyz.__file__}, not {src}")
    with open(args.spec) as fh:
        spec = json.load(fh)
    ops = _materialize(spec, args.tmp or os.devnull)
    print("ready", flush=True)
    if args.setup_only:
        return

    workload, prec = spec["workload"], spec["prec"]
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        for item in ops:
            if "probe" in item:
                probe = item["probe"]
                probe.deriv = tracer.wrap("probes.deriv", probe.deriv)

    results = []
    no_range = 0
    with HostSampler() as host:
        for i, item in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    if workload == "identity":
                        code, text, out = _run_identity(item, prec)
                    else:
                        code, text, out = _run_cli(item, args.tmp)
                    error = None
                except Exception as exc:  # an operation that raises fails
                    code, text, out, error = None, "", {}, repr(exc)
                t1 = time.perf_counter()
            no_range += sum(NO_RANGE_WARNING in str(w.message) for w in caught)
            results.append({"t0": t0, "t1": t1, "code": code, "text": text,
                            "out": out, "error": error})
    for res in results:
        t0, t1 = res.pop("t0"), res.pop("t1")
        res["latency_s"] = t1 - t0 - host.time_within(t0, t1)
        res["latency_kref"] = host.kref(t0, t1, res["latency_s"])

    # the workload's own high-water mark, before the checks add theirs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = {}
    if tracer is not None:
        tracer.restore()
        tracer.op = -1
        layers = {"calls": tracer.calls, "total_s": tracer.total_s,
                  "self_s": tracer.self_s, "counts": tracer.counts,
                  "spans": tracer.write_spans(args.spans)}
        if args.calibrate:
            layers["calibration"] = _calibrate(tracing)

    rng = random.Random(f"perfbench-check:{workload}:{spec['seed']}")
    records = []
    for i, (item, res) in enumerate(zip(ops, results)):
        units = 0
        try:
            if res["error"] is not None:
                ok, why = False, res["error"]
            elif workload == "identity":
                ok, why = _check_identity(item, res["out"], prec)
                units = 1
            elif workload == "zeros":
                ok, why = _check_zeros(item, res["code"], res["text"], rng,
                                       sample=i % 4 == 0)
                units = json.loads(res["text"])["count"] if ok else 0
            elif workload == "certificate":
                ok, why = _check_certificate(item, res["code"], res["text"])
                units = 1
            else:
                ok, why = _check_explore(item, res["code"], res["text"], rng)
                units = 1
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            # output the check cannot read counts as a failed operation
            ok, why = False, f"unreadable output: {exc!r}"
        records.append({
            "class": item["class"], "latency_s": res["latency_s"],
            "latency_kref": res["latency_kref"],
            "units": units, "ok": bool(ok), "why": why, "code": res["code"],
            "digest": hashlib.sha256(res["text"].encode()).hexdigest()})

    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(args.result, "w") as fh:
        json.dump({"ops": records, "peak_rss_mb": peak_rss_mb,
                   "reference_s": [d for _, d in host.samples],
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "no_range_warnings": no_range, "layers": layers}, fh)


def _calibrate(tracing):
    """find_zeros on (0, 100] at 128 bits, counted by a tracer of its own."""
    tracer = tracing.Tracer()
    tracer.patch(mp, "siegelz", "hardy.siegelz", caller="hardyz.hardy")
    try:
        zl = hardy.find_zeros(0, 100, prec=128)
    finally:
        tracer.restore()
    return {"zeros": len(zl), "siegelz_calls": tracer.calls["hardy.siegelz"]}


if __name__ == "__main__":
    main()
