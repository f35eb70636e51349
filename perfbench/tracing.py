"""Per-layer tracing from outside the program.  While a Tracer is installed,
chosen frobkit functions and methods are replaced, in every frobkit module
that holds them, by wrappers that count calls and time them; nothing inside
src/ is changed.  Spans (name, start, end, parent) are kept in memory and
written out when the run ends.

A wrapper is one of three kinds:
  count  counts calls only (hot helpers where a timer would swamp the call);
  time   also times the call, keeping self time = duration minus the time of
         timed calls made inside it;
  span   also records a span, for the first traced round only.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, key, kind, extra): calls to the same key are
# tallied together; extra(args, result), when given, returns a quantity of
# work that is summed per key (levels, chain steps, terms).
TARGETS = [
    ("field", "FieldElement.__add__", "field.add", "time", None),
    ("field", "FieldElement.__sub__", "field.sub", "time", None),
    ("field", "FieldElement.__neg__", "field.neg", "time", None),
    ("field", "FieldElement.__mul__", "field.mul", "time", None),
    ("field", "FieldElement.__truediv__", "field.div", "time", None),
    ("field", "FieldElement.inverse", "field.inverse", "time", None),
    ("field", "FieldElement.__pow__", "field.pow", "time", None),
    ("field", "frobenius", "field.frobenius", "time", None),
    ("field", "frobenius_root", "field.frobenius_root", "time", None),
    ("polyring", "RingContext.monomial_key", "polyring.monomial_key",
     "count", None),
    ("polyring", "Polynomial.leading", "polyring.leading", "count", None),
    ("polyring", "Polynomial.__mul__", "polyring.poly_mul", "count", None),
    ("polyring", "Polynomial.__rmul__", "polyring.poly_mul", "count", None),
    ("polyring", "module_buchberger", "polyring.gb", "span", None),
    ("polyring", "normal_form", "polyring.normal_form", "time", None),
    ("gamma", "gamma_iterate", "gamma.iterate", "span",
     lambda args, out: args[1]),
    ("gamma", "gen_stable_dimension", "gamma.gen_dim", "span", None),
    ("gamma", "gamma_is_nilpotent", "gamma.nilpotent", "span", None),
    ("gamma", "twist_to_cartier", "gamma.twist", "span", None),
    ("cartier", "stable_image", "cartier.stable_image", "span",
     lambda args, out: len(out.chain) - 1),
    ("cartier", "kappa_lift", "cartier.kappa", "count", None),
    ("koszul", "cartier_pullback", "koszul.pullback", "span", None),
    ("koszul", "gamma_pullback", "koszul.pullback", "span", None),
    ("koszul", "transition_factor", "koszul.transition", "span", None),
    ("koszul", "check_pullback_twist_commutes", "koszul.check", "span", None),
    ("frobenius", "pth_root_decompose", "frobenius.decompose", "span",
     lambda args, out: len(args[0].terms)),
    ("frobenius", "cartier_volume", "frobenius.volume", "span", None),
    ("linalg", "rref", "linalg.rref", "time", None),
    ("linalg", "nullspace", "linalg.nullspace", "time", None),
    ("linalg", "nullspace_mod_p", "linalg.nullspace_mod_p", "time", None),
    ("solutions", "solutions_at_point", "solutions.solve", "time", None),
    ("solutions", "enumerate_points", "solutions.enumerate", "span", None),
    ("session", "Session.__init__", "session.build", "span", None),
    ("session", "Session.run_command", "session.command", "span", None),
]


def _metrics(calls, total, self_time, extra) -> dict:
    """The per-layer metrics of one traced round from its raw tallies."""
    def t(*keys):
        return sum(total[k] for k in keys)

    field_keys = [k for k in self_time if k.startswith("field.")]
    return {
        "field.mul_calls": (calls["field.mul"], "count"),
        "field.inverse_calls": (calls["field.inverse"], "count"),
        "field.pow_calls": (calls["field.pow"], "count"),
        "field.self_s": (sum(self_time[k] for k in field_keys), "s"),
        "polyring.gb_calls": (calls["polyring.gb"], "count"),
        "polyring.gb_s": (t("polyring.gb"), "s"),
        "polyring.normal_form_calls": (calls["polyring.normal_form"],
                                       "count"),
        "polyring.normal_form_s": (t("polyring.normal_form"), "s"),
        "polyring.monomial_key_calls": (calls["polyring.monomial_key"],
                                        "count"),
        "polyring.leading_calls": (calls["polyring.leading"], "count"),
        "polyring.poly_mul_calls": (calls["polyring.poly_mul"], "count"),
        "gamma.iterate_calls": (calls["gamma.iterate"], "count"),
        "gamma.iterate_levels": (extra["gamma.iterate"], "count"),
        "gamma.iterate_s": (t("gamma.iterate"), "s"),
        "gamma.gen_dim_s": (t("gamma.gen_dim"), "s"),
        "gamma.nilpotent_s": (t("gamma.nilpotent"), "s"),
        "gamma.twist_s": (t("gamma.twist"), "s"),
        "cartier.stable_image_s": (t("cartier.stable_image"), "s"),
        "cartier.chain_levels": (extra["cartier.stable_image"], "count"),
        "cartier.kappa_apply_calls": (calls["cartier.kappa"], "count"),
        "koszul.pullback_s": (t("koszul.pullback"), "s"),
        "koszul.transition_s": (t("koszul.transition"), "s"),
        "koszul.check_s": (t("koszul.check"), "s"),
        "frobenius.decompose_s": (t("frobenius.decompose"), "s"),
        "frobenius.decompose_terms": (extra["frobenius.decompose"], "count"),
        "frobenius.volume_s": (t("frobenius.volume"), "s"),
        "frobenius.root_calls": (calls["field.frobenius_root"], "count"),
        "linalg.nullspace_s": (t("linalg.nullspace", "linalg.nullspace_mod_p"),
                               "s"),
        "linalg.rref_calls": (calls["linalg.rref"]
                              + calls["linalg.nullspace_mod_p"], "count"),
        "solutions.points": (calls["solutions.solve"], "count"),
        "solutions.solve_s": (t("solutions.solve"), "s"),
        "solutions.enumerate_s": (t("solutions.enumerate"), "s"),
        "session.build_s": (t("session.build"), "s"),
        "session.commands": (calls["session.command"], "count"),
    }


class Tracer:
    """Installs the wrappers for one traced round at a time and keeps the
    tallies of every traced round."""

    def __init__(self):
        self.rounds: list[dict] = []
        self.spans: list[dict] = []
        self._patches: list[tuple] = []

    def _reset(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(int)
        self.stack: list[list] = []  # [span id, child time] per timed call
        self.record = not self.rounds

    def _wrap(self, fn, key: str, kind: str, extra):
        calls, perf = self.calls, time.perf_counter
        if kind == "count":
            def counted(*args, **kw):
                calls[key] += 1
                return fn(*args, **kw)
            return counted
        stack, total, self_time = self.stack, self.total, self.self_time
        tally, spans, record = self.extra, self.spans, self.record

        def timed(*args, **kw):
            calls[key] += 1
            parent = stack[-1][0] if stack else None
            frame = [parent, 0.0]  # id of the nearest recorded span
            if record and kind == "span":
                frame[0] = len(spans)
                spans.append(None)  # reserve the id; filled in below
            stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kw)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                total[key] += duration
                self_time[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record and kind == "span":
                    spans[frame[0]] = {"id": frame[0], "name": key,
                                       "start": start, "end": end,
                                       "parent": parent}
            if extra is not None:
                tally[key] += extra(args, out)
            return out
        return timed

    def install(self) -> None:
        self._reset()
        for modname, *_ in TARGETS:
            importlib.import_module("frobkit." + modname)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "frobkit" or name.startswith("frobkit.")]
        for modname, path, key, kind, extra in TARGETS:
            owner = importlib.import_module("frobkit." + modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, key, kind, extra))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, key, kind, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.rounds.append(_metrics(self.calls, self.total, self.self_time,
                                    self.extra))

    def write(self, path: str, summary: dict) -> None:
        """Spans of the first traced round, each with the id of the nearest
        enclosing span as its parent, and the metrics of every traced
        round."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "rounds": self.rounds,
                       "spans": spans}, fh)
