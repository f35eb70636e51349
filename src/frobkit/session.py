"""Session files: a JSON description of a field, a ring, an ideal, named
objects (Cartier modules, gamma-sheaves, immersions, points) and a list of
commands.  Commands run in order; a command may store its result under a name
for later commands.  Output is one JSON record per command."""
from __future__ import annotations

import json
from typing import Any, Optional

from .cartier import (CartierModule, cartier_structure_violations,
                      is_crystal_supported_on, is_nilpotent)
from .field import FieldSpec
from .gamma import (GammaSheaf, gamma_is_nilpotent, gamma_structure_violations,
                    gen_stable_dimension, twist_to_cartier, twist_to_gamma)
from .koszul import (ClosedImmersion, cartier_pullback,
                     check_pullback_twist_commutes, dualizing_module,
                     gamma_pullback, transition_factor)
from .polyring import (BudgetExceededError, Limits, ParseError,
                       QuotientContext, RingContext, buchberger,
                       format_polynomial, format_vector, parse_polynomial,
                       parse_vector, use_limits)
from .solutions import (GuardExceededError, RationalPoint,
                        artin_schreier_kernel, enumerate_points,
                        resolve_point_field, solutions_at_point)


class SessionError(ValueError):
    """Schema violation or unresolvable reference in a session file."""


class CommandError(RuntimeError):
    """A command failed during execution."""


def _texts(value, what: str) -> list:
    """A list of strings from the session file; a bare string is refused,
    not split into characters."""
    if not isinstance(value, list) or not all(isinstance(t, str)
                                              for t in value):
        raise SessionError(f"{what} must be a list of strings, not {value!r}")
    return value


def _int_lists(value, what: str) -> list:
    """A list of lists of integers from the session file, such as a point's
    coordinates; a string or a float is refused, not read digit by digit."""
    if not isinstance(value, list) or not all(
            isinstance(row, list) and all(isinstance(c, int)
                                          and not isinstance(c, bool)
                                          for c in row)
            for row in value):
        raise SessionError(f"{what} must be a list of lists of integers, "
                           f"not {value!r}")
    return value


def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SessionError(f"{what} must be a JSON object, not {value!r}")
    return value


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
        try:
            self.field = FieldSpec.from_json(data["field"])
            ring_spec = data["ring"]
            self.ring = RingContext(self.field,
                                    tuple(_texts(ring_spec["vars"], "vars")),
                                    ring_spec.get("order", "grevlex"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionError(f"bad field/ring specification: {exc}") from exc
        try:
            self.ideal_gens = [parse_polynomial(self.ring, t)
                               for t in _texts(data.get("ideal", []), "ideal")]
        except ParseError as exc:
            raise SessionError(f"ideal: {exc}") from exc
        objects = _mapping(data.get("objects", {}), "objects")
        self.objects: dict[str, Any] = {}
        try:
            self.ctx = QuotientContext.from_generators(self.ring,
                                                       self.ideal_gens)
            for name, spec in objects.items():
                self.objects[name] = self._build_object(name, spec)
        except BudgetExceededError as exc:
            raise SessionError(f"limit spent while loading: {exc}") from exc
        commands = data.get("commands", [])
        if not isinstance(commands, list):
            raise SessionError(f"commands must be a list, not {commands!r}")
        self.commands = list(commands)
        for cmd in self.commands:
            if not isinstance(cmd, dict) or "op" not in cmd:
                raise SessionError("each command needs an \"op\" field")

    # -- object construction -------------------------------------------------
    def _build_object(self, name: str, spec: dict):
        if not isinstance(spec, dict) or len(spec) != 1:
            raise SessionError(f"object {name!r} must have exactly one kind")
        kind, body = next(iter(spec.items()))
        _mapping(body, f"object {name!r}: {kind}")
        try:
            if kind == "module":
                return self._build_module(body)
            if kind == "gamma":
                return self._build_gamma(body)
            if kind == "immersion":
                seq = [parse_polynomial(self.ring, t)
                       for t in _texts(body["sequence"], "sequence")]
                return ClosedImmersion.create(self.ring, seq)
            if kind == "point":
                m = _int_arg(body, "m")
                spec_f = resolve_point_field(self.field, m)
                coords = tuple(spec_f.element(c) for c in
                               _int_lists(body["coords"], "coords"))
                if len(coords) != self.ring.nvars:
                    raise SessionError("point coordinate count mismatch")
                return RationalPoint(m, spec_f, coords)
        except (ValueError, KeyError, TypeError,
                GuardExceededError) as exc:
            raise SessionError(f"object {name!r}: {exc}") from exc
        raise SessionError(f"object {name!r}: unknown kind {kind!r}")

    def _build_module(self, body: dict) -> CartierModule:
        rank = _int_arg(body, "rank")
        rels = [parse_vector(self.ring, rank, t)
                for t in _texts(body.get("relations", []), "relations")]
        table = {}
        for key, text in _mapping(body.get("kappa", {}), "kappa").items():
            j, a = _parse_kappa_key(key, rank, self.ring.nvars, self.field.p)
            table[(j, a)] = parse_vector(self.ring, rank, text)
        m = CartierModule.create(self.ctx, rank, rels, table)
        if cartier_structure_violations(m):
            raise SessionError("kappa table is inconsistent with the "
                               "relations")
        return m

    def _build_gamma(self, body: dict) -> GammaSheaf:
        rank = _int_arg(body, "rank")
        rels = [parse_vector(self.ring, rank, t)
                for t in _texts(body.get("relations", []), "relations")]
        matrix = [[parse_polynomial(self.ring, e)
                   for e in _texts(row, "matrix row")]
                  for row in body["matrix"]]
        n = GammaSheaf.create(self.ctx, rank, matrix, rels)
        if gamma_structure_violations(n):
            raise SessionError("gamma matrix is inconsistent with the "
                               "relations")
        return n

    # -- command execution ----------------------------------------------------
    def _get(self, cmd: dict, key: str, kinds: tuple):
        name = cmd.get(key)
        if name is None:
            raise CommandError(f"missing argument {key!r}")
        obj = self.objects.get(name)
        if obj is None:
            raise CommandError(f"unknown object {name!r}")
        if not isinstance(obj, kinds):
            raise CommandError(f"object {name!r} has the wrong kind for "
                               f"{cmd['op']}")
        return obj

    def _store(self, cmd: dict, obj) -> None:
        name = cmd.get("store")
        if name:
            self.objects[name] = obj

    def run_command(self, cmd: dict) -> dict:
        op = cmd["op"]
        handler = _HANDLERS.get(op)
        if handler is None:
            raise CommandError(f"unknown op {op!r}")
        return handler(self, cmd)


# -- handlers -----------------------------------------------------------------

def _h_gb(s: Session, cmd: dict) -> dict:
    texts = cmd.get("polys")
    polys = (s.ideal_gens if texts is None
             else [parse_polynomial(s.ring, t)
                   for t in _texts(texts, "polys")])
    gb = buchberger(polys, s.ring)
    return {"basis": [format_polynomial(g) for g in gb.polys]}


def _h_validate(s: Session, cmd: dict) -> dict:
    obj = s._get(cmd, "target", (CartierModule, GammaSheaf))
    if isinstance(obj, CartierModule):
        bad = cartier_structure_violations(obj)
        return {"valid": not bad,
                "violations": [{"relation": g, "residue": list(a)}
                               for g, a in bad]}
    bad = gamma_structure_violations(obj)
    return {"valid": not bad, "violations": [{"relation": g} for g in bad]}


def _int_arg(cmd: dict, key: str, default=None, least: int = 1) -> int:
    value = cmd.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise SessionError(f"argument {key!r} must be a {kind} integer, "
                           f"not {value!r}")
    return value


def _h_nilpotent(s: Session, cmd: dict) -> dict:
    obj = s._get(cmd, "target", (CartierModule, GammaSheaf))
    if isinstance(obj, CartierModule):
        v = is_nilpotent(obj)
    else:
        v = gamma_is_nilpotent(obj, _int_arg(cmd, "bound", 16))
    return v.to_json()


def _h_crystal_zero(s: Session, cmd: dict) -> dict:
    # a coherent Cartier module is zero as a crystal exactly when it is
    # nilpotent
    m = s._get(cmd, "target", (CartierModule,))
    return is_nilpotent(m).to_json()


def _h_supported_on(s: Session, cmd: dict) -> dict:
    m = s._get(cmd, "target", (CartierModule,))
    gens = [parse_polynomial(s.ring, t)
            for t in _texts(cmd.get("ideal", []), "ideal")]
    ok = is_crystal_supported_on(m, gens)
    return {"supported": ok}


def _h_twist_to_cartier(s: Session, cmd: dict) -> dict:
    n = s._get(cmd, "target", (GammaSheaf,))
    seq = [parse_polynomial(s.ring, t)
           for t in _texts(cmd.get("sequence", []), "sequence")]
    m = twist_to_cartier(n, seq)
    s._store(cmd, m)
    return {"module": serialize_module(m)}


def _h_twist_to_gamma(s: Session, cmd: dict) -> dict:
    m = s._get(cmd, "target", (CartierModule,))
    n = twist_to_gamma(m)
    s._store(cmd, n)
    return {"gamma": serialize_gamma(n)}


def _h_pullback(s: Session, cmd: dict) -> dict:
    obj = s._get(cmd, "target", (CartierModule, GammaSheaf))
    im = s._get(cmd, "immersion", (ClosedImmersion,))
    if isinstance(obj, CartierModule):
        out = cartier_pullback(obj, im)
        s._store(cmd, out)
        return {"module": serialize_module(out)}
    out = gamma_pullback(obj, im)
    s._store(cmd, out)
    return {"gamma": serialize_gamma(out)}


def _h_dualizing(s: Session, cmd: dict) -> dict:
    im = s._get(cmd, "immersion", (ClosedImmersion,))
    m = dualizing_module(im)
    s._store(cmd, m)
    return {"module": serialize_module(m)}


def _h_transition(s: Session, cmd: dict) -> dict:
    f = [parse_polynomial(s.ring, t) for t in _texts(cmd["f"], "f")]
    g = [parse_polynomial(s.ring, t) for t in _texts(cmd["g"], "g")]
    tr = transition_factor(f, g, s.ring)
    return {"det": format_polynomial(tr.det),
            "matrix": [[format_polynomial(e) for e in row]
                       for row in tr.matrix]}


def _h_check_2_14(s: Session, cmd: dict) -> dict:
    n = s._get(cmd, "target", (GammaSheaf,))
    im = s._get(cmd, "immersion", (ClosedImmersion,))
    cert = check_pullback_twist_commutes(n, im)
    return {"equal": cert.equal,
            "discrepancies": [{"position": j, "residue": list(a),
                               "first": format_vector(va),
                               "second": format_vector(vb)}
                              for j, a, va, vb in cert.discrepancies]}


def _h_gen_dim(s: Session, cmd: dict) -> dict:
    n = s._get(cmd, "target", (GammaSheaf,))
    return {"dim": gen_stable_dimension(n)}


def _h_solutions(s: Session, cmd: dict) -> dict:
    n = s._get(cmd, "target", (GammaSheaf,))
    if "point" in cmd:
        pts = [s._get(cmd, "point", (RationalPoint,))]
    else:
        pts = enumerate_points(s.ctx, _int_arg(cmd, "m", 1))
    rows = []
    for pt in pts:
        space = solutions_at_point(n, pt)
        rows.append({"point": pt.to_json()["coords"], "m": pt.m,
                     "dim": space.dimension,
                     "basis": space.to_json()["basis"]})
    return {"solutions": rows}


def _h_as_kernel(s: Session, cmd: dict) -> dict:
    q = _int_arg(cmd, "q")
    return {"q": q, "dim": artin_schreier_kernel(q)}


def _h_verify_suite(s: Session, cmd: dict) -> dict:
    from .verify import run_verify
    quick = cmd.get("quick", False)
    if not isinstance(quick, bool):
        raise SessionError(f"argument 'quick' must be true or false, "
                           f"not {quick!r}")
    results = run_verify(seed=_int_arg(cmd, "seed", 0, least=0), quick=quick)
    return {"checks": results,
            "passed": sum(1 for r in results if r["ok"]),
            "failed": sum(1 for r in results if not r["ok"])}


_HANDLERS = {
    "gb": _h_gb,
    "validate": _h_validate,
    "nilpotent": _h_nilpotent,
    "crystal-zero": _h_crystal_zero,
    "supported-on": _h_supported_on,
    "twist-to-cartier": _h_twist_to_cartier,
    "twist-to-gamma": _h_twist_to_gamma,
    "pullback": _h_pullback,
    "dualizing": _h_dualizing,
    "transition": _h_transition,
    "check-2-14": _h_check_2_14,
    "gen-dim": _h_gen_dim,
    "solutions": _h_solutions,
    "as-kernel": _h_as_kernel,
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
                record["error"] = str(exc)
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
