"""Session files: a JSON description of a field, a ring, an ideal, named
objects (Cartier modules, gamma-sheaves, immersions, points) and a list of
commands.  Commands run in order; a command may store its result under a name
for later commands.  Output is one JSON record per command.  ``SCHEMA``
declares every key a session may hold, and ``_bind`` checks each body
against it before any object is built or any handler runs."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .cartier import (CartierModule, cartier_structure_violations,
                      is_crystal_supported_on, is_nilpotent)
from .field import FieldSpec
from .gamma import (GammaSheaf, gamma_is_nilpotent, gamma_structure_violations,
                    gen_stable_dimension, twist_to_cartier, twist_to_gamma)
from .koszul import (ClosedImmersion, cartier_pullback,
                     check_pullback_twist_commutes, dualizing_module,
                     gamma_pullback, transition_factor)
from .polyring import (BudgetExceededError, GuardExceededError, Limits,
                       ParseError, QuotientContext, RingContext, buchberger,
                       format_polynomial, format_vector, parse_polynomial,
                       parse_vector, use_limits)
from .solutions import (FiberMap, RationalPoint, artin_schreier_kernel,
                        enumerate_points, ideal_values, resolve_point_field,
                        solutions_at_point)


class SessionError(ValueError):
    """Schema violation or unresolvable reference in a session file."""


@dataclass(frozen=True)
class Kind:
    """What a session value may be: ``test`` accepts it, and ``message``
    (formatted with the key and the value) says why it was refused."""

    test: Callable[[Any], bool]
    message: str


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(test, noun: str) -> Kind:
    """A list of items that pass ``test``; a bare string or a float is
    refused, not split into characters or truncated."""
    return Kind(lambda v: isinstance(v, list) and all(test(x) for x in v),
                f"{{key}} must be a list of {noun}, not {{value!r}}")


POSITIVE = Kind(lambda v: _is_int(v) and v >= 1, "argument {key!r} must be "
                "a positive integer, not {value!r}")
NATURAL = Kind(lambda v: _is_int(v) and v >= 0, "argument {key!r} must be "
               "a non-negative integer, not {value!r}")
FLAG = Kind(lambda v: isinstance(v, bool), "argument {key!r} must be true or "
            "false, not {value!r}")
NAME = Kind(lambda v: isinstance(v, str), "argument {key!r} must be a "
            "string, not {value!r}")
MAPPING = Kind(lambda v: isinstance(v, dict), "{key} must be a JSON object, "
               "not {value!r}")
TABLE = Kind(lambda v: isinstance(v, dict) and all(
    isinstance(k, str) and isinstance(t, str) for k, t in v.items()),
    "{key} must be a JSON object of strings, not {value!r}")
TEXTS = _list_of(NAME.test, "strings")
TEXT_ROWS = _list_of(TEXTS.test, "lists of strings")
INTS = _list_of(_is_int, "integers")
INT_ROWS = _list_of(INTS.test, "lists of integers")
COMMANDS = _list_of(lambda c: isinstance(c, dict) and NAME.test(c.get("op")),
                    'JSON objects with a string "op"')
REQUIRED = object()

# Every key a session may hold: key -> (kind, default or REQUIRED).  A kind
# that is a tuple of classes names an object of one of them.  The entries are
# the top level, "field", "ring", the four object kinds and the ops; every
# command also holds its "op".  Keys are checked in the order given here.
SCHEMA: dict[str, dict[str, tuple]] = {
    "session": {"field": (MAPPING, REQUIRED), "ring": (MAPPING, REQUIRED),
                "ideal": (TEXTS, ()), "objects": (MAPPING, {}),
                "commands": (COMMANDS, ())},
    "field": {"p": (POSITIVE, REQUIRED), "e": (POSITIVE, 1),
              "modulus": (INTS, ())},
    "ring": {"vars": (TEXTS, REQUIRED), "order": (NAME, "grevlex")},
    "module": {"rank": (POSITIVE, REQUIRED), "relations": (TEXTS, ()),
               "kappa": (TABLE, {})},
    "gamma": {"rank": (POSITIVE, REQUIRED), "relations": (TEXTS, ()),
              "matrix": (TEXT_ROWS, REQUIRED)},
    "immersion": {"sequence": (TEXTS, REQUIRED)},
    "point": {"m": (POSITIVE, REQUIRED), "coords": (INT_ROWS, REQUIRED)},
    "gb": {"polys": (TEXTS, None)},
    "validate": {"target": ((CartierModule, GammaSheaf), REQUIRED)},
    "nilpotent": {"target": ((CartierModule, GammaSheaf), REQUIRED),
                  "bound": (POSITIVE, 16)},
    "crystal-zero": {"target": ((CartierModule,), REQUIRED)},
    "supported-on": {"target": ((CartierModule,), REQUIRED),
                     "ideal": (TEXTS, ())},
    "twist-to-cartier": {"target": ((GammaSheaf,), REQUIRED),
                         "sequence": (TEXTS, ()), "store": (NAME, None)},
    "twist-to-gamma": {"target": ((CartierModule,), REQUIRED),
                       "store": (NAME, None)},
    "pullback": {"target": ((CartierModule, GammaSheaf), REQUIRED),
                 "immersion": ((ClosedImmersion,), REQUIRED),
                 "store": (NAME, None)},
    "dualizing": {"immersion": ((ClosedImmersion,), REQUIRED),
                  "store": (NAME, None)},
    "transition": {"f": (TEXTS, REQUIRED), "g": (TEXTS, REQUIRED)},
    "check-2-14": {"target": ((GammaSheaf,), REQUIRED),
                   "immersion": ((ClosedImmersion,), REQUIRED)},
    "gen-dim": {"target": ((GammaSheaf,), REQUIRED)},
    "solutions": {"target": ((GammaSheaf,), REQUIRED),
                  "point": ((RationalPoint,), None), "m": (POSITIVE, 1)},
    "as-kernel": {"q": (POSITIVE, REQUIRED)},
    "verify-suite": {"quick": (FLAG, False), "seed": (NATURAL, 0)},
}


def _bind(schema: dict, body, what: str,
          objects: Optional[dict] = None) -> dict:
    """The keyword arguments ``body`` holds under ``schema``: every key
    checked against its kind, every absent key given its default and every
    object name resolved in ``objects``.  An undeclared key, an absent
    required key or a value of the wrong kind raises SessionError."""
    if not isinstance(body, dict):
        raise SessionError(f"{what} must be a JSON object, not {body!r}")
    for key in body:
        if key not in schema:
            raise SessionError(f"undeclared key {key!r} in {what}")
    args = {}
    for key, (kind, default) in schema.items():
        if key not in body and default is not REQUIRED:
            args[key] = default
            continue
        value = body.get(key)
        check = NAME if isinstance(kind, tuple) else kind
        if not check.test(value):
            raise SessionError(check.message.format(key=key, value=value))
        if isinstance(kind, tuple):
            if value not in objects:
                raise SessionError(f"unknown object {value!r}")
            if not isinstance(objects[value], kind):
                raise SessionError(f"object {value!r} has the wrong kind for "
                                   f"{what}")
            value = objects[value]
        args[key] = value
    return args


def _parse_kappa_key(key: str, rank: int, nvars: int, p: int) -> tuple:
    try:
        jpart, _, apart = key.partition(",")
        j = int(jpart)
        a = tuple(int(t) for t in apart.split())
    except ValueError as exc:
        raise SessionError(f"bad kappa key {key!r}") from exc
    if not 0 <= j < rank:
        raise SessionError(f"kappa key {key!r}: position out of range")
    if len(a) != nvars or any(not 0 <= e < p for e in a):
        raise SessionError(f"kappa key {key!r}: exponents must lie in "
                           f"[0,{p})^{nvars}")
    return j, a


def _format_kappa_key(j: int, a: tuple) -> str:
    return f"{j},{' '.join(str(e) for e in a)}"


def serialize_module(m: CartierModule) -> dict:
    return {
        "rank": m.rank,
        "relations": [format_vector(g) for g in m.relations.generators],
        "kappa": {_format_kappa_key(j, a): format_vector(v)
                  for (j, a), v in sorted(m.kappa_table.items())},
    }


def serialize_gamma(n: GammaSheaf) -> dict:
    return {
        "rank": n.rank,
        "relations": [format_vector(g) for g in n.relations.generators],
        "matrix": [[format_polynomial(e) for e in row] for row in n.matrix],
    }


class Session:
    """A parsed session: context plus a mutable object namespace.  Every
    failure to load one raises SessionError."""

    def __init__(self, data: dict):
        top = _bind(SCHEMA["session"], data, "session")
        try:
            self.field = FieldSpec(**_bind(SCHEMA["field"], top["field"],
                                           "field"))
            self.ring = RingContext(self.field, **_bind(SCHEMA["ring"],
                                                        top["ring"], "ring"))
        except ValueError as exc:
            raise SessionError(f"bad field/ring specification: {exc}") from exc
        try:
            self.ideal_gens = self._polys(top["ideal"])
        except ParseError as exc:
            raise SessionError(f"ideal: {exc}") from exc
        self.objects: dict[str, Any] = {}
        try:
            self.ctx = QuotientContext.from_generators(self.ring,
                                                       self.ideal_gens)
            for name, spec in top["objects"].items():
                self.objects[name] = self._build_object(name, spec)
        except BudgetExceededError as exc:
            raise SessionError(f"limit spent while loading: {exc}") from exc
        self.commands = top["commands"]

    def _polys(self, texts: list) -> list:
        return [parse_polynomial(self.ring, t) for t in texts]

    # -- object construction -------------------------------------------------
    def _build_object(self, name: str, spec: dict):
        if not isinstance(spec, dict) or len(spec) != 1:
            raise SessionError(f"object {name!r} must have exactly one kind")
        (kind, body), = spec.items()
        build = _BUILDERS.get(kind)
        if build is None:
            raise SessionError(f"object {name!r}: unknown kind {kind!r}")
        try:
            return build(self, **_bind(SCHEMA[kind], body, kind))
        except (ValueError, GuardExceededError) as exc:
            raise SessionError(f"object {name!r}: {exc}") from exc

    def _build_module(self, rank: int, relations: list,
                      kappa: dict) -> CartierModule:
        rels = [parse_vector(self.ring, rank, t) for t in relations]
        table = {}
        for key, text in kappa.items():
            j, a = _parse_kappa_key(key, rank, self.ring.nvars, self.field.p)
            table[(j, a)] = parse_vector(self.ring, rank, text)
        m = CartierModule.create(self.ctx, rank, rels, table)
        if cartier_structure_violations(m):
            raise SessionError("kappa table is inconsistent with the "
                               "relations")
        return m

    def _build_gamma(self, rank: int, relations: list,
                     matrix: list) -> GammaSheaf:
        rels = [parse_vector(self.ring, rank, t) for t in relations]
        n = GammaSheaf.create(self.ctx, rank, [self._polys(row)
                                               for row in matrix], rels)
        if gamma_structure_violations(n):
            raise SessionError("gamma matrix is inconsistent with the "
                               "relations")
        return n

    def _build_point(self, m: int, coords: list) -> RationalPoint:
        spec = resolve_point_field(self.field, m)
        if len(coords) != self.ring.nvars:
            raise SessionError("point coordinate count mismatch")
        coords = tuple(spec.element(c) for c in coords)
        if any(ideal_values(self.ctx, spec)(coords)):
            raise SessionError("the point does not lie on V(I)")
        return RationalPoint(m, spec, coords)

    def _build_immersion(self, sequence: list) -> ClosedImmersion:
        return ClosedImmersion.create(self.ring, self._polys(sequence))

    # -- command execution ----------------------------------------------------
    def run_command(self, cmd: dict) -> dict:
        """Run one command: its arguments bound under the op's schema, its
        handler called with them.  A handler that returns a module or a
        gamma-sheaf stores it under the command's "store" name, if any."""
        op = cmd["op"]
        handler = _HANDLERS.get(op)
        if handler is None:
            raise SessionError(f"unknown op {op!r}")
        args = _bind(SCHEMA[op], {k: v for k, v in cmd.items() if k != "op"},
                     op, self.objects)
        store = args.pop("store", None)
        out = handler(self, **args)
        if isinstance(out, dict):
            return out
        if store is not None:
            self.objects[store] = out
        return ({"module": serialize_module(out)}
                if isinstance(out, CartierModule)
                else {"gamma": serialize_gamma(out)})


_BUILDERS = {
    "module": Session._build_module,
    "gamma": Session._build_gamma,
    "immersion": Session._build_immersion,
    "point": Session._build_point,
}


# -- handlers -----------------------------------------------------------------

def _h_gb(s: Session, polys) -> dict:
    gb = buchberger(s.ideal_gens if polys is None else s._polys(polys), s.ring)
    return {"basis": [format_polynomial(g) for g in gb.polys]}


def _h_validate(s: Session, target) -> dict:
    if isinstance(target, CartierModule):
        bad = cartier_structure_violations(target)
        return {"valid": not bad,
                "violations": [{"relation": g, "residue": list(a)}
                               for g, a in bad]}
    bad = gamma_structure_violations(target)
    return {"valid": not bad, "violations": [{"relation": g} for g in bad]}


def _h_nilpotent(s: Session, target, bound: int) -> dict:
    if isinstance(target, CartierModule):
        return is_nilpotent(target).to_json()
    return gamma_is_nilpotent(target, bound).to_json()


def _h_pullback(s: Session, target, immersion: ClosedImmersion):
    if isinstance(target, CartierModule):
        return cartier_pullback(target, immersion)
    return gamma_pullback(target, immersion)


def _h_transition(s: Session, f: list, g: list) -> dict:
    tr = transition_factor(s._build_immersion(f), s._polys(g))
    return {"det": format_polynomial(tr.det),
            "matrix": [[format_polynomial(e) for e in row]
                       for row in tr.matrix]}


def _h_check_2_14(s: Session, target: GammaSheaf,
                  immersion: ClosedImmersion) -> dict:
    cert = check_pullback_twist_commutes(target, immersion)
    return {"equal": cert.equal,
            "discrepancies": [{"position": j, "residue": list(a),
                               "first": format_vector(va),
                               "second": format_vector(vb)}
                              for j, a, va, vb in cert.discrepancies]}


def _h_solutions(s: Session, target: GammaSheaf,
                 point: Optional[RationalPoint], m: int) -> dict:
    if point is None:
        pts = enumerate_points(s.ctx, m)
        spec = resolve_point_field(s.field, m)
    else:
        pts, spec = [point], point.spec
    fibers = FiberMap(target, spec)  # for this command's points only
    rows = []
    for pt in pts:
        space = solutions_at_point(target, pt, fibers)
        rows.append({"point": pt.to_json()["coords"], "m": pt.m,
                     "dim": space.dimension,
                     "basis": space.to_json()["basis"]})
    return {"solutions": rows}


def _h_verify_suite(s: Session, quick: bool, seed: int) -> dict:
    from .verify import run_verify
    results = run_verify(seed=seed, quick=quick)
    return {"checks": results,
            "passed": sum(1 for r in results if r["ok"]),
            "failed": sum(1 for r in results if not r["ok"])}


_HANDLERS = {
    "gb": _h_gb,
    "validate": _h_validate,
    "nilpotent": _h_nilpotent,
    # a coherent Cartier module is zero as a crystal exactly when it is
    # nilpotent
    "crystal-zero": lambda s, target: is_nilpotent(target).to_json(),
    "supported-on": lambda s, target, ideal: {
        "supported": is_crystal_supported_on(target, s._polys(ideal))},
    # an empty sequence presents the ambient ring
    "twist-to-cartier": lambda s, target, sequence: twist_to_cartier(
        target, s._build_immersion(sequence) if sequence else None),
    "twist-to-gamma": lambda s, target: twist_to_gamma(target),
    "pullback": _h_pullback,
    "dualizing": lambda s, immersion: dualizing_module(immersion),
    "transition": _h_transition,
    "check-2-14": _h_check_2_14,
    "gen-dim": lambda s, target: {"dim": gen_stable_dimension(target)},
    "solutions": _h_solutions,
    "as-kernel": lambda s, q: {"q": q, "dim": artin_schreier_kernel(q)},
    "verify-suite": _h_verify_suite,
}


def run_session(data: dict, limits: Optional[Limits] = None) -> list[dict]:
    """Execute a parsed session under ``limits`` (the defaults when None);
    returns one report record per command.  The records are deterministic
    for a fixed session (timings are not part of them)."""
    with use_limits(limits or Limits()):
        session = Session(data)
        reports = []
        for i, cmd in enumerate(session.commands):
            record: dict = {"index": i, "op": cmd["op"]}
            try:
                record["result"] = session.run_command(cmd)
                record["status"] = "ok"
            except Exception as exc:  # structured errors, never a bare crash
                record["status"] = "error"
                record["error"] = str(exc) or type(exc).__name__
            reports.append(record)
    return reports


def load_session_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SessionError(f"invalid JSON at line {exc.lineno} column "
                               f"{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise SessionError(f"session file is not UTF-8 text: "
                               f"{exc}") from exc
    if not isinstance(data, dict):
        raise SessionError("session file must hold a JSON object")
    return data
