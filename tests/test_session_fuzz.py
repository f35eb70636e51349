"""A fuzzer for session files.  Fields, rings, objects and commands are drawn
from ``session.SCHEMA``, with wrong types, missing keys and undeclared keys
mixed in, and run under tight limits.  Every session must load or fail with
a SessionError, and every command must return a result the CLI can print or
fail with an error of its input and a message: never a traceback out of
``frobkit run``, an error record that is empty or a hang."""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit import session
from frobkit.cartier import CartierModule
from frobkit.gamma import GammaSheaf
from frobkit.koszul import ClosedImmersion
from frobkit.polyring import Limits, use_limits
from frobkit.session import REQUIRED, SCHEMA, Session, SessionError
from frobkit.solutions import RationalPoint

LIMITS = Limits(spair=200, chain=8, guard=2000)
OBJECT_KINDS = ("module", "gamma", "immersion", "point")
OPS = tuple(session._HANDLERS)
# an object name: the module, gamma-sheaf, immersion and point that every
# drawn session holds (unless a fault removes one), or a name no object has
NAMES = ("M", "G", "I", "P", "X")
NAME_OF = {CartierModule: "M", GammaSheaf: "G", ClosedImmersion: "I",
           RationalPoint: "P"}
# polynomials in x, a rank-2 vector and two texts that do not parse
TEXTS = ("0", "1", "x", "x + 1", "x^2", "2*x^3 + x", "[x, 1]", "x+", "z")
KAPPA_KEYS = ("0,0", "0,1", "1,0", "0,0 1", "0,1 0", "x", "2,0")
UNDECLARED = ("bnd", "comands", "rnak", "sotre")
FIELDS = ({"p": 2}, {"p": 3}, {"p": 5}, {"p": 2, "e": 2, "modulus": [1, 1, 1]},
          {"p": 3, "e": 2, "modulus": [1, 0, 1]}, {"p": 2305843009213693951})

texts = st.lists(st.sampled_from(TEXTS), max_size=3)
wrong = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(-2, 3),
    st.text("xy01,[] ", max_size=4), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(KAPPA_KEYS), st.integers(0, 1),
                    max_size=1))
VALID = {
    session.POSITIVE: st.integers(1, 3),
    session.NATURAL: st.integers(0, 3),
    session.FLAG: st.booleans(),
    session.NAME: st.sampled_from(NAMES),
    session.TEXTS: texts,
    session.TEXT_ROWS: st.lists(texts, max_size=3),
    session.INTS: st.lists(st.integers(0, 4), max_size=4),
    session.INT_ROWS: st.lists(st.lists(st.integers(0, 4), max_size=2),
                               max_size=2),
    session.TABLE: st.dictionaries(st.sampled_from(KAPPA_KEYS),
                                   st.sampled_from(TEXTS), max_size=2),
}


@st.composite
def faulty(draw, entry: str, body: dict) -> dict:
    """``body`` with one fault: a key of ``SCHEMA[entry]`` dropped or given
    a value of a wrong kind, or an undeclared key added."""
    body = dict(body)
    fault = draw(st.sampled_from(("omit", "wrong", "undeclared")))
    if fault == "omit" and body:
        del body[draw(st.sampled_from(sorted(body)))]
    elif fault == "wrong":
        body[draw(st.sampled_from(sorted(SCHEMA[entry])))] = draw(wrong)
    else:
        body[draw(st.sampled_from(UNDECLARED))] = 1
    return body


@st.composite
def bodies(draw, entry: str) -> dict:
    """A body for ``SCHEMA[entry]``: every required key and about half the
    optional ones, each of its kind.  An object name is mostly one of an
    object of a kind the key takes."""
    body = {}
    for key, (kind, default) in SCHEMA[entry].items():
        if default is REQUIRED or draw(st.booleans()):
            body[key] = draw(
                st.sampled_from([NAME_OF[c] for c in kind] * 4 + list(NAMES))
                if isinstance(kind, tuple) else VALID[kind])
    return body


@st.composite
def commands(draw) -> dict:
    op = draw(st.sampled_from(OPS + ("no-such-op",)))
    entry = op if op in SCHEMA else "gb"
    body = draw(bodies(entry))
    if draw(st.sampled_from((False, False, False, True))):
        body = draw(faulty(entry, body))
    if op == "verify-suite" and body.get("quick", False) is False:
        # the full battery takes a third of a second and has its own test
        body["quick"] = True
    return {"op": op, **body}


LOAD_FAULTS = ("session", "field", "ring", "object", "drawn object",
               "unknown kind")


@st.composite
def sessions(draw) -> dict:
    """A session with at most one fault in what is loaded, so that about
    half of them load, and with 1-4 commands, a quarter of them faulty."""
    field = draw(st.sampled_from(FIELDS))
    e = field.get("e", 1)
    ring = {"vars": draw(st.sampled_from([["x"], ["x", "y"], ["y", "x"]])),
            "order": draw(st.sampled_from(["grevlex", "lex"]))}
    objects = {
        "M": {"module": {"rank": 1, "kappa": {}}},
        "G": {"gamma": {"rank": 1,
                        "matrix": [[draw(st.sampled_from(TEXTS[:6]))]]}},
        "I": {"immersion": {"sequence": ["x"]}},
        "P": {"point": {"m": e, "coords": [[0] * e] * len(ring["vars"])}}}
    fault = draw(st.sampled_from((None,) * len(LOAD_FAULTS) + LOAD_FAULTS))
    if fault == "field":
        field = draw(faulty("field", field))
    elif fault == "ring":
        ring = draw(faulty("ring", ring))
    elif fault in ("object", "drawn object", "unknown kind"):
        name = draw(st.sampled_from(sorted(objects)))
        (kind, body), = objects[name].items()
        objects[name] = ({kind: draw(faulty(kind, body))} if fault == "object"
                         else {kind: draw(bodies(kind))}
                         if fault == "drawn object" else {"gb": {}})
    data = {"field": field, "ring": ring,
            "ideal": draw(st.lists(st.sampled_from(TEXTS[:6]), max_size=2)),
            "objects": objects,
            "commands": draw(st.lists(commands(), min_size=1, max_size=4))}
    return draw(faulty("session", data)) if fault == "session" else data


def test_schema_covers_every_object_kind_and_op():
    assert set(SCHEMA) == ({"session", "field", "ring"} | set(OBJECT_KINDS)
                           | set(OPS))
    assert set(OBJECT_KINDS) == set(session._BUILDERS)


# errors of Python's own machinery rather than of the input: a command that
# raises one has reached code that does not check what it was given, even
# though run_session turns it into an error record
MACHINERY = (AttributeError, IndexError, KeyError, TypeError)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(sessions())
def test_every_session_ends_in_a_structured_outcome(data):
    """What run_session does, one command at a time: every load failure is a
    SessionError, and every command returns a JSON-ready result or raises
    an error of the input's own with a message."""
    with use_limits(LIMITS):
        try:
            s = Session(data)
        except SessionError as exc:
            assert str(exc)
            return
        for cmd in s.commands:
            try:
                json.dumps(s.run_command(cmd), sort_keys=True)
            except MACHINERY:
                raise
            except Exception as exc:
                assert str(exc)
