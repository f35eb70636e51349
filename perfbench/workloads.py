"""The four workloads.  Each builds its inputs from the seed when it is
constructed (the set-up) and then offers a list of operations.  An operation
is one timed call into frobkit plus an untimed check of what it returned;
a round runs every operation once, and every round of a run is the same.

Why the inputs are drawn as they are:

* The cost of gen-dim and of the Groebner bases behind it depends on the
  exact support of a unit root: over 10 seeds with freshly drawn supports a
  single root's time had IQR/median 0.2-0.7 (GF(2), rank 2: 0.85-10.2 s).
  So the unit roots and the Katsura ideals have fixed shapes, and the seed
  only rescales variables, basis vectors and generators by nonzero
  constants.  Such a rescaling maps every polynomial to one with the same
  support, so the program does the same steps on different coefficients.
  Over GF(2) the only nonzero constant is 1, so the GF(2) unit root is the
  same for every seed.
* Nilpotent roots, roots over the ambient ring and the roots of the
  rational-points workload are cheap or cost the same whatever their
  support, so their supports and coefficients are drawn from the seed.
"""
from __future__ import annotations

import json
import random
from itertools import product
from operator import attrgetter

import checks

XY = ["x", "y"]


def load(data: dict) -> dict:
    """A session as `frobkit run` gets it: JSON text, parsed."""
    return json.loads(json.dumps(data))


def _random_poly(rng: random.Random, p: int, monos: list, count: int) -> dict:
    return {m: rng.randrange(1, p) for m in rng.sample(monos, count)}


def _text_matrix(matrix: list[list[dict]]) -> list[list[str]]:
    return [[checks.format_poly(e, XY) for e in row] for row in matrix]


def _check_records(records: list[dict], expect: list) -> tuple[int, int]:
    """(failed, wrong) for one session: a record fails when its status is
    error or its check rejects it; wrong counts only the latter."""
    failed = wrong = 0
    for rec, ok in zip(records, expect):
        if rec["status"] != "ok":
            failed += 1
        elif not ok(rec["result"]):
            failed += 1
            wrong += 1
    return failed, wrong


class SessionWorkload:
    """Workloads made of session files run with run_session, one operation
    per command record.  The first round's records are checked in full;
    later rounds must reproduce them exactly (the records are
    deterministic)."""

    def __init__(self):
        self.sessions: list[tuple[str, dict, list]] = []  # name, data, checks

    def add(self, name: str, data: dict, expect: list) -> None:
        assert len(expect) == len(data["commands"])
        self.sessions.append((name, load(data), expect))

    def operations(self) -> list:
        from frobkit import session
        ops = []
        for name, data, expect in self.sessions:
            first: list = []  # the first round's records and verdict

            def check(records, first_round, expect=expect, first=first):
                if first_round:
                    first[:] = [records, _check_records(records, expect)]
                if records != first[0]:
                    return len(expect), len(expect), len(expect)
                return (len(expect),) + first[1]

            ops.append((name, lambda data=data: session.run_session(data),
                        check))
        return ops


# ---------------------------------------------------------------------------
# unit-roots

U2_GF2 = [[{(0, 0): 1, (0, 1): 1}, {(2, 0): 1}],
          [{(0, 2): 1}, {(0, 0): 1, (0, 2): 1}]]
U3_GF3 = [[{(0, 0): 1, (0, 2): 1}, {(1, 0): 2}, {(2, 0): 1}],
          [{(2, 0): 1}, {(0, 0): 1, (1, 1): 2}, {(2, 0): 1}],
          [{(0, 2): 2}, {(2, 0): 2}, {(0, 0): 1, (1, 1): 1}]]
POSITIVE = [(a, b) for a in range(3) for b in range(3) if 1 <= a + b <= 2]
LOW = [(a, b) for a in range(3) for b in range(3) if a + b <= 2]


def rescale(matrix: list[list[dict]], p: int, rng: random.Random):
    """D^-1 A(ax, by) D for random nonzero a, b and diagonal D: an
    isomorphic root whose entries keep their supports."""
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    d = [rng.randrange(1, p) for _ in matrix]
    return [[{(i, j): c * pow(a, i, p) * pow(b, j, p)
              * pow(d[r], p - 2, p) * d[s] % p
              for (i, j), c in matrix[r][s].items()}
             for s in range(len(matrix))] for r in range(len(matrix))]


def nilpotent_root(rng: random.Random, p: int, rank: int):
    return [[_random_poly(rng, p, POSITIVE, rng.randrange(1, 3))
             for _ in range(rank)] for _ in range(rank)]


class UnitRoots(SessionWorkload):
    """Roots over GF(2)[x,y]/(x^4,y^4) and GF(3)[x,y]/(x^3,y^3): gen-dim,
    gamma nilpotence, the twist to a Cartier module along the sequence and
    its nilpotence.  Roots over GF(p)[x,y] add check-2-14, pullback and
    transition."""

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        for p, k, unit, nil in ((2, 4, U2_GF2, 3), (3, 3, U3_GF3, 2)):
            roots = {"U": (rescale(unit, p, rng), True),
                     "N": (nilpotent_root(rng, p, nil), False)}
            self._quotient_session(p, k, roots)
        for p in (2, 3):
            self._ambient_session(p, rng)

    def _quotient_session(self, p: int, k: int, roots: dict) -> None:
        seq = [f"x^{k}", f"y^{k}"]
        objects, commands, expect = {}, [], []
        for name, (matrix, unit) in roots.items():
            rank = len(matrix)
            objects[name] = {"gamma": {"rank": rank,
                                       "matrix": _text_matrix(matrix)}}
            verdict = "not_nilpotent" if unit else "nilpotent"
            dim = rank * k * k if unit else 0
            commands += [{"op": "gen-dim", "target": name},
                         {"op": "nilpotent", "target": name},
                         {"op": "twist-to-cartier", "target": name,
                          "sequence": seq, "store": name + "c"},
                         {"op": "nilpotent", "target": name + "c"}]
            expect += [lambda r, dim=dim: r["dim"] == dim,
                       lambda r, v=verdict: r["verdict"] == v,
                       lambda r, rank=rank: r["module"]["rank"] == rank,
                       lambda r, v=verdict: r["verdict"] == v]
        self.add(f"quotient-gf{p}", {"field": {"p": p}, "ring": {"vars": XY},
                                     "ideal": seq, "objects": objects,
                                     "commands": commands}, expect)

    def _ambient_session(self, p: int, rng: random.Random) -> None:
        matrix = [[_random_poly(rng, p, LOW, rng.randrange(1, 3))
                   for _ in range(2)] for _ in range(2)]
        a, b = rng.randrange(2, 4), rng.randrange(2, 4)
        f = [{(a, 0): 1}, {(0, b): 1}]
        c1, c2 = rng.randrange(1, p), rng.randrange(1, p)
        h = _random_poly(rng, p, LOW, 2)
        g1 = {(a, 0): c1}
        for (i, j), c in h.items():
            g1[(i, j + b)] = c
        g = [g1, {(0, b): c2}]
        pulled = [[{m: c for m, c in e.items() if m[0] < a and m[1] < b}
                   for e in row] for row in matrix]
        data = {"field": {"p": p}, "ring": {"vars": XY}, "ideal": [],
                "objects": {
                    "A": {"gamma": {"rank": 2,
                                    "matrix": _text_matrix(matrix)}},
                    "im": {"immersion": {
                        "sequence": [checks.format_poly(x, XY) for x in f]}}},
                "commands": [
                    {"op": "check-2-14", "target": "A", "immersion": "im"},
                    {"op": "pullback", "target": "A", "immersion": "im"},
                    {"op": "transition",
                     "f": [checks.format_poly(x, XY) for x in f],
                     "g": [checks.format_poly(x, XY) for x in g]}]}
        expect = [
            lambda r: r["equal"] is True and not r["discrepancies"],
            lambda r: [[checks.parse_poly(e, XY, p) for e in row]
                       for row in r["gamma"]["matrix"]] == pulled,
            lambda r: r["det"] == str(c1 * c2 % p)]
        self.add(f"ambient-gf{p}", data, expect)


# ---------------------------------------------------------------------------
# ideal-groebner

KATSURA_P = 32003


def katsura(n: int) -> list[dict]:
    """Katsura-n in x0..xn: sum_l u_l u_(m-l) = u_m for m < n and
    sum_l u_l = 1, with u_l = x_|l| (zero beyond n)."""
    nv = n + 1

    def mono(*idx):
        e = [0] * nv
        for i in idx:
            e[i] += 1
        return tuple(e)

    polys = []
    for m in range(n):
        f: dict = {}
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                key = mono(abs(l), abs(m - l))
                f[key] = f.get(key, 0) + 1
        f[mono(m)] = f.get(mono(m), 0) - 1
        polys.append({k: c % KATSURA_P for k, c in f.items() if c % KATSURA_P})
    f = {}
    for l in range(-n, n + 1):
        f[mono(abs(l))] = f.get(mono(abs(l)), 0) + 1
    f[mono()] = KATSURA_P - 1
    polys.append(f)
    return polys


class IdealGroebner(SessionWorkload):
    """gb on Katsura-4 and Katsura-5 over GF(32003) in grevlex, with the
    variables and the generators rescaled by seeded nonzero constants."""

    def __init__(self, seed: int, sizes=(4, 5)):
        super().__init__()
        rng = random.Random(seed)
        p = KATSURA_P
        for n in sizes:
            names = [f"x{i}" for i in range(n + 1)]
            scale = [rng.randrange(1, p) for _ in names]
            polys = []
            for f in katsura(n):
                s = rng.randrange(1, p)
                g = {}
                for m, c in f.items():
                    for v, e in zip(scale, m):
                        c = c * pow(v, e, p)
                    g[m] = c * s % p
                polys.append(g)
            data = {"field": {"p": p},
                    "ring": {"vars": names, "order": "grevlex"},
                    "ideal": [],
                    "commands": [{"op": "gb", "polys": [
                        checks.format_poly(f, names) for f in polys]}]}
            expect = [lambda r, polys=polys, names=names, n=n:
                      checks.check_groebner(r["basis"], polys, names, p,
                                            2 ** n)]
            self.add(f"katsura-{n}", data, expect)


# ---------------------------------------------------------------------------
# rational-points

CUBIC = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
SAMPLE_POINTS = 16


class RationalPoints(SessionWorkload):
    """solutions over every point of the plane over GF(2^5) (rank 2) and
    GF(3^3) (rank 3), for a seeded root and for the identity root."""

    def __init__(self, seed: int, cases=((2, 5, 2), (3, 3, 3))):
        super().__init__()
        rng = random.Random(seed)
        for p, m, rank in cases:
            field = checks.GF(p, checks.first_irreducible(p, m))
            q2 = p ** (2 * m)
            roots = {
                "A": [[_random_poly(rng, p, CUBIC, 3) for _ in range(rank)]
                      for _ in range(rank)],
                "I": [[{(0, 0): 1} if i == j else {} for j in range(rank)]
                      for i in range(rank)]}
            objects, commands, expect = {}, [], []
            for name, matrix in roots.items():
                objects[name] = {"gamma": {"rank": rank,
                                           "matrix": _text_matrix(matrix)}}
                commands.append({"op": "solutions", "target": name, "m": m})
                sample = rng.sample(range(q2), SAMPLE_POINTS)
                expect.append(
                    lambda r, matrix=matrix, field=field, sample=sample,
                    identity=(name == "I"): checks.check_solutions(
                        r["solutions"], field, matrix, identity, sample))
            self.add(f"points-gf{p}^{m}", {
                "field": {"p": p}, "ring": {"vars": XY}, "ideal": [],
                "objects": objects, "commands": commands}, expect)


# ---------------------------------------------------------------------------
# pushforward

GF9 = (2, 2, 1)  # t^2 + 2t + 2, irreducible over GF(3)
SAMPLE_PER_PART = 16


class Pushforward:
    """pth_root_decompose and cartier_volume on the full exponent grid below
    5^3 over GF(5) in three variables, and below 3^5 over GF(9) in two, with
    seeded nonzero coefficients.  The first round checks every term of a
    decomposition; later rounds check the sizes and a seeded sample of
    terms."""

    def __init__(self, seed: int, grids=((5, (), 3, 3), (3, GF9, 2, 5))):
        """``grids`` lists (p, modulus, variables, k): every exponent below
        p^k in each variable, over GF(p) or over GF(p)[t]/(modulus)."""
        from frobkit.field import FieldSpec
        from frobkit.polyring import Polynomial, RingContext
        self.rng = random.Random(seed)
        self.inputs = []
        for p, modulus, nvars, k in grids:
            spec = FieldSpec(p, max(1, len(modulus) - 1), modulus)
            side = p ** k
            nonzero = [x for x in spec.elements() if x]
            terms = dict(zip(product(range(side), repeat=nvars),
                             self.rng.choices(nonzero, k=side ** nvars)))
            ring = RingContext(spec, ("x", "y", "z")[:nvars])
            f = Polynomial(ring, terms, _clean=False)
            self.inputs.append((f, checks.GF(p, modulus or (0, 1)), k))

    def operations(self) -> list:
        from frobkit import frobenius
        coeffs = attrgetter("coeffs")
        ops = []
        for i, (f, field, k) in enumerate(self.inputs):
            p, n = field.p, f.ctx.nvars
            top: list = []  # the (p-1,...,p-1) part of this round

            def check_decompose(dec, first_round, f=f, field=field, p=p,
                                n=n, top=top):
                parts = {a: g.terms for a, g in dec.parts.items()}
                top[:] = [parts.get((p - 1,) * n)]
                sample = None
                if not first_round:
                    sample = [(a, b) for a, part in parts.items()
                              for b in self.rng.sample(
                                  list(part), min(len(part),
                                                  SAMPLE_PER_PART))]
                ok = (len(parts) == p ** n
                      and checks.check_decomposition(f.terms, parts, field,
                                                     coeffs, sample))
                return 1, int(not ok), int(not ok)

            def check_volume(vol, first_round, p=p, n=n, k=k, top=top):
                part = top.pop() if top else None
                ok = (part is not None
                      and len(vol.terms) == p ** ((k - 1) * n)
                      and {m: coeffs(c) for m, c in vol.terms.items()}
                      == {m: coeffs(c) for m, c in part.items()})
                return 1, int(not ok), int(not ok)

            ops.append((f"decompose-{i}",
                        lambda f=f: frobenius.pth_root_decompose(f),
                        check_decompose))
            ops.append((f"volume-{i}", lambda f=f: frobenius.cartier_volume(f),
                        check_volume))
        return ops


WORKLOADS = {
    "unit-roots": UnitRoots,
    "ideal-groebner": IdealGroebner,
    "rational-points": RationalPoints,
    "pushforward": Pushforward,
}
