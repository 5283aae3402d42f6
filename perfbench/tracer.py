"""Out-of-program tracing: wrap the public functions of each hardyz layer.

The tracer replaces module attributes with timing wrappers.  A name bound by
``from .x import f`` is a separate attribute of the importing module, so it
is patched there as well; mpmath entry points are patched as attributes of
``mp`` and traced when hardyz.hardy calls them.  Every wrapped call records
a span (name, start, end, parent span, operation id) in memory.  Self time
is a span's duration minus the time of its wrapped children.  Spans are
written out only when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        # open spans: [span index, time spent in wrapped children]
        self._stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.op = -1
        self._patches: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return nid

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_op = self.span_parent, self.span_op

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(self.op)
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = _clock()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                s_end[idx] = t1
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str,
              replacement: Callable = None, caller: str = None) -> None:
        """Wrap owner.attr (or replacement, built around it) as span name.

        With caller, only calls made from that module are traced; mpmath
        calls its own entry points internally (siegelz calls zeta, clsin
        calls zeta), and those stay part of the caller's self time.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        traced = self.wrap(name, replacement or original)
        if caller is not None:
            getframe = sys._getframe

            def dispatch(*args, **kwargs):
                if getframe(1).f_globals.get("__name__") == caller:
                    return traced(*args, **kwargs)
                return original(*args, **kwargs)

            setattr(owner, attr, dispatch)
        else:
            setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> int:
        """Tab-separated spans, times relative to the first span."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - base:.7f}\t"
                         f"{self.span_end[i] - base:.7f}\t"
                         f"{self.span_parent[i]}\t{self.span_op[i]}\n")
        return len(self.span_name)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are read from."""
    from mpmath import mp
    from hardyz import cli, extremal, hardy, identity, kernel, polynomials, \
        sequences

    p = tracer.patch
    for owner in (polynomials, kernel):
        p(owner, "bernoulli_poly", "polynomials.bernoulli_poly")
    for owner in (kernel, identity):
        p(owner, "psi", "kernel.psi")
        p(owner, "psi_star_boundary", "kernel.psi_star_boundary")
    for owner in (kernel, identity, extremal):
        p(owner, "coefficients", "kernel.coefficients")
    for owner in (kernel, extremal):
        p(owner, "boundary_sum_bound", "kernel.boundary_sum_bound")
    for owner in (sequences, kernel, extremal):
        p(owner, "tail_weight_constant", "sequences.tail_weight_constant")

    integrate = identity._integrate

    def counted_integrate(f, points, prec):
        def integrand(x):
            tracer.count("identity.quad.integrand_evals")
            return f(x)
        return integrate(integrand, points, prec)

    p(identity, "_integrate", "identity.quad", counted_integrate)
    p(identity, "verify_key_identity", "identity.verify_key_identity")
    p(identity, "reconstruct_f0", "identity.reconstruct_f0")

    for attr in ("find_c_eps", "g_and_h", "sine_product", "divided_bound"):
        p(extremal, attr, f"extremal.{attr}")

    find_zeros = hardy.find_zeros

    def counted_find_zeros(*args, **kwargs):
        zl = find_zeros(*args, **kwargs)
        tracer.count("hardy.find_zeros.rescans", zl.rescans)
        tracer.count("hardy.zeros_located", len(zl))
        return zl

    p(hardy, "find_zeros", "hardy.find_zeros", counted_find_zeros)
    for attr in ("theta_prime", "z_eval", "z_derivatives_batch"):
        p(hardy, attr, f"hardy.{attr}")
    for attr in ("siegelz", "zeta", "loggamma"):
        p(mp, attr, f"hardy.{attr}", caller="hardyz.hardy")
    p(cli, "main", "cli.main")
