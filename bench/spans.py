"""Span recorder for the traced run, and the self-time arithmetic.

The recorder times calls into the program from outside: it replaces each
public function of the layer modules (and `MultiPoly.__mul__`, also reached
as `__rmul__`) with a wrapper that records a span, and rebinds every name an
`octica` module imported with `from .x import y`, so calls between modules
are seen too.  A span is a row of parallel arrays: name id, start, end,
parent span (-1 for a root), request id and status.  Spans stay in memory
until `write` saves them.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

OK, RAISED, UNCERTIFIED = 0, 1, 2

# Public helpers whose work is smaller than the cost of a span.  They run
# inside sort keys and inner loops; wrapping them would time the recorder.
TOO_SMALL = {
    "octica.poly.grevlex_key", "octica.poly.monomial_basis",
    "octica.linsys.normalize_point", "octica.linsys.evaluate_at",
    "octica.linsys.line_coeffs", "octica.linsys.transport_point",
    "octica.linalg.mat_mul_vec", "octica.singclass.is_rational_square",
}

# Functions whose return value says whether the work was useful.
OUTCOME = {
    "octica.pointsearch.common_rational_zeros": lambda r: r[1],
    "octica.curveprofile.curve_profile": lambda r: r.mult3_certified,
}


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.status = array("b")
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, span_name: str, fn, outcome=None):
        nid = self.name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        name, start, end, parent, req, status = (
            self.name, self.start, self.end, self.parent, self.req, self.status)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            req.append(self.request)
            status.append(OK)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                status[i] = RAISED
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if outcome is not None and not outcome(result):
                status[i] = UNCERTIFIED
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules) -> None:
        """Wrap the public functions of `modules` and rebind every copy of
        them held by a loaded `octica` module."""
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                qual = f"{mod.__name__}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qual in TOO_SMALL):
                    continue
                wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, OUTCOME.get(qual))
        for name, mod in list(sys.modules.items()):
            if name != "octica" and not name.startswith("octica."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        from octica.poly import MultiPoly
        # `3 * f` reaches __rmul__, which is the same function as __mul__
        mul = self._wrap("poly.mul", MultiPoly.__mul__)
        self._patch(MultiPoly, "__mul__", mul)
        self._patch(MultiPoly, "__rmul__", mul)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self):
        """(name, start, end, parent, request, status) per recorded span."""
        return list(zip((self.names[i] for i in self.name), self.start, self.end,
                        self.parent, self.req, self.status))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\trequest\tstatus\n")
            for i, row in enumerate(self.spans()):
                fh.write(f"{i}\t" + "\t".join(map(str, row)) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one parent are merged as intervals, so overlapping children
    are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s, e, p in zip(starts, ends, parents):
        if p >= 0:
            children.setdefault(p, []).append((s, e))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def aggregate(recorder: SpanRecorder) -> dict[str, dict]:
    """Per span name: calls, raised, uncertified, self_s."""
    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    out: dict[str, dict] = {}
    for nid, st, sf in zip(recorder.name, recorder.status, selfs):
        agg = out.setdefault(recorder.names[nid],
                             {"calls": 0, "raised": 0, "uncertified": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += sf
        if st == RAISED:
            agg["raised"] += 1
        elif st == UNCERTIFIED:
            agg["uncertified"] += 1
    return out
