"""Declared shapes of JSON input, and the one walker that checks a value
against its shape and builds from it.

A shape states a value's JSON type and, for an object, each field's shape
and default, REQUIRED when it has none. `load(shape, value, label)`
returns what the value builds and a line per fault: `<where> <field>
<value!r> is not <kind>`, `<where> <field> is missing`, or for a list
element `<where>[i] is not <kind>: <value!r>`. `<where>` labels the
enclosing object, as `thresholds[0]`, `PoP 'pop-1' zones[0]` or `NS-IL
'level-2' entry 'p-b'`; the faults of one list or map entry's own fields
share its line. A faulty object builds as None, and what holds it builds
around it, so that later checks can read the rest. `build` builds a
valid value and stops at its first fault; only then does `report` walk
the value again, labelling every fault.
"""

import math
import sys
from operator import itemgetter

REQUIRED = object()
_ABSENT = object()


class Refused(ValueError):
    """Raised by an object's build when its fields, each of its shape, do
    not make one; the message completes the line `<where>: `."""


class Fault(Exception):
    """The first fault `build` meets."""


def finite(value) -> bool:
    """Whether `value` is an int or a finite float, never a bool."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _at(up: str, place: str) -> str:
    return "%s %s" % (up, place) if up else place


class Scalar:
    """A value that `test` accepts, as every value of type `exact` does;
    `kind` completes `... is not <kind>`."""

    fixed = None

    def __init__(self, kind: str, test, exact=None):
        self.kind, self.test, self.exact = kind, test, exact

    def build(self, value):
        if not self.test(value):
            raise Fault
        return value


STR = Scalar("a string", lambda v: type(v) is str, str)
INT = Scalar("an int", lambda v: type(v) is int, int)
BOOL = Scalar("a bool", lambda v: type(v) is bool, bool)
NUMBER = Scalar("a finite number", finite, int)
ANY = Scalar("", lambda v: v is not _ABSENT)  # any value given
# a list whose elements are left to their reader, kept as given
LIST = Scalar("a list", lambda v: type(v) is list, list)


def one_of(values: tuple, kind: str) -> Scalar:
    return Scalar(kind, lambda v: v in values)


def at_least(low, kind: str, test=finite) -> Scalar:
    return Scalar(kind, lambda v: test(v) and v >= low)


def _report(shape, value, up, place, lines, own=None):
    """What `value` builds, or `shape` when the value is not of its type,
    with a line per fault inside it in `lines`. `up` labels the enclosing
    object, `place` names the value in it, and `own` collects the faults
    of a list or map entry's own fields."""
    if type(shape) is Scalar:
        return value if shape.test(value) else shape
    if type(shape) is Obj:
        return shape.report(value, up, place, lines, own)
    return shape.report(value, up, place, lines)


def _entry(shape, value, up, place, lines, wrong: str, also=()):
    """`_report` of a list or map entry, whose own faults and then `also`
    share a line; `wrong % {"at", "kind", "value"}` is the line of an
    entry that is not of `shape`, which builds as None."""
    own, start = [], len(lines)
    built = _report(shape, value, up, place, lines, own)
    if built is shape:
        lines.append(wrong % {"at": _at(up, place), "kind": shape.kind,
                              "value": value})
        return None
    own += also
    if own:
        lines.insert(start, "%s %s" % (shape.label(up, place, value),
                                       ", ".join(own)))
    return built


class List:
    """A JSON list of `item`, a scalar or an object, built as a tuple. No
    two object elements share a str `unique` field."""

    kind, exact, fixed = "a list", None, None

    def __init__(self, item, unique: str = ""):
        self.item, self.unique = item, unique

    def build(self, value):
        item = self.item
        if type(value) is not list:
            raise Fault
        if type(item) is Scalar:
            for element in value:
                if type(element) is not item.exact and not item.test(element):
                    raise Fault
            return tuple(value)
        built = tuple(map(item.build, value))
        if self.unique and len(value) > len(
                set(map(itemgetter(self.unique), value))):
            raise Fault
        return built

    def report(self, value, up, place, lines):
        if type(value) is not list:
            return self
        built, first = [], {}  # unique field value -> its first index
        for i, element in enumerate(value):
            key = element.get(self.unique) \
                if self.unique and type(element) is dict else None
            also = []
            if type(key) is str:
                if key in first:
                    also.append("%s %r repeats %s[%d]"
                                % (self.unique, key, place, first[key]))
                first.setdefault(key, i)
            built.append(_entry(self.item, element, up, "%s[%d]" % (place, i),
                                lines, "%(at)s is not %(kind)s: %(value)r",
                                also))
        return tuple(built)


class Map:
    """A JSON object from keys, any of `keys` when given (`key_kind` names
    them), to `value`s, scalars or objects, built as a dict, or as
    `build(dict)` when given, which may refuse it. An entry is labelled
    `<map> <key!r>`, `entry` replacing the map's name, and the fault of a
    scalar entry is that label and `says`."""

    kind, exact, fixed = "an object", None, None

    def __init__(self, value, keys=None, key_kind: str = "",
                 entry: str = "", says: str = "%(value)r is not %(kind)s",
                 build=None):
        self.value, self.key_kind, self.entry, self.says, self.make = \
            value, key_kind, entry, says, build
        self.keys = None if keys is None else set(keys)

    def build(self, value):
        shape = self.value
        if type(value) is not dict or self.keys is not None and not (
                value.keys() <= self.keys):
            raise Fault
        if type(shape) is Scalar:
            for entry in value.values():
                if type(entry) is not shape.exact and not shape.test(entry):
                    raise Fault
            built = dict(value)
        else:
            built = {key: shape.build(entry) for key, entry in value.items()}
        if self.make is None:
            return built
        try:
            return self.make(built)
        except Refused:
            raise Fault

    def report(self, value, up, place, lines):
        if type(value) is not dict:
            return self
        built, start = {}, len(lines)
        for key, entry in value.items():
            if self.keys is not None and key not in self.keys:
                lines.append("%s key %r is not %s"
                             % (_at(up, place), key, self.key_kind))
            else:
                built[key] = _entry(self.value, entry, up, "%s %r" % (
                    self.entry or place, key), lines, "%(at)s " + self.says)
        if self.make is None:
            return built
        if len(lines) == start:  # each entry is sound
            try:
                return self.make(built)
            except Refused as exc:
                lines.append("%s: %s" % (_at(up, place), exc))
        return None


class Obj:
    """A JSON object of `fields`, each `(name, shape)` when required or
    `(name, shape, default)`, the default a JSON value, None or REQUIRED.
    It builds as `build(*values)`, in field order, or else as a dict.

    Its label is its place in the enclosing label, or with a `noun`,
    `<noun> <id!r>` when its `id` is a str and else its place, or the
    noun alone when `bare`. A `label` replaces the enclosing one, "" keeps
    it. Every key of a `closed` object, whose text names them, is one of
    its fields."""

    kind, exact = "an object", None

    def __init__(self, *fields, build=None, noun: str = "", bare=False,
                 label: str = None, closed: str = ""):
        self.fields = []
        for name, shape, *default in fields:
            default = default[0] if default else REQUIRED
            if type(default) in (list, dict):
                default = shape.build(default)
            self.fields.append((name, shape, default))
        self.names = tuple(f[0] for f in self.fields)
        self.make, self.noun, self.bare, self.fixed, self.closed = \
            build, noun, bare, label, closed
        self.build = self._compile()

    def _compile(self):
        """`build`, written out field by field: a valid object costs a
        lookup and a type test per field, and its one constructor call."""
        scope = {"Fault": Fault, "Refused": Refused, "_ABSENT": _ABSENT,
                 "make": self.make, "names": set(self.names)}
        code = ["def build(doc):", "    if type(doc) is not dict:",
                "        raise Fault", "    get = doc.get"]
        for i, (name, shape, default) in enumerate(self.fields):
            v, s, e, d = "v%d" % i, "s%d" % i, "e%d" % i, "d%d" % i
            scope.update({s: shape, e: shape.exact, d: default})
            code.append("    %s = get(%r, _ABSENT)" % (v, name))
            branch = "if"
            if default is not REQUIRED:
                # a dict is built anew for each object that defaults it
                code += ["    if %s is _ABSENT:" % v, "        %s = %s" % (
                    v, s + ".build({})" if type(default) is dict else d)]
                branch = "elif"
            code += ["    %s %s:" % (branch, "type(%s) is not %s" % (v, e)
                                     if shape.exact else "True"),
                     "        %s = %s.build(%s)" % (v, s, v)]
        if self.closed:
            code += ["    if not doc.keys() <= names:", "        raise Fault"]
        values = ", ".join("v%d" % i for i in range(len(self.fields)))
        if self.make is None:
            code.append("    return {%s}" % ", ".join(
                "%r: v%d" % (name, i) for i, name in enumerate(self.names)))
        elif isinstance(self.make, type) and issubclass(self.make, tuple):
            # a NamedTuple, made as its own arithmetic makes CapacityVector
            code.append("    return tuple.__new__(make, (%s,))" % values)
        else:
            code += ["    try:", "        return make(%s)" % values,
                     "    except Refused:", "        raise Fault"]
        exec("\n".join(code), scope)
        return scope["build"]

    def label(self, up, place, doc) -> str:
        if place is None:  # the top of a walk: its caller labels it
            return up
        if self.fixed is not None:
            return self.fixed or up
        if self.noun and type(doc.get("id")) is str:
            return _at(up, "%s %r" % (self.noun, doc["id"]))
        return _at(up, self.noun if self.noun and self.bare else place)

    def report(self, doc, up, place, lines, own=None):
        if type(doc) is not dict:
            return self
        label = self.label(up, place, doc)
        mine, start = [] if own is None else own, len(lines)
        faulty, values = False, []
        for name, shape, default in self.fields:
            value = doc.get(name, _ABSENT)
            if value is _ABSENT and type(default) is not dict:
                if default is REQUIRED:
                    mine.append("%s is missing" % name)
                    faulty = True
                values.append(None if default is REQUIRED else default)
                continue
            built = _report(shape, {} if value is _ABSENT else value, label,
                            name, lines)
            if built is shape:
                if shape.fixed:  # a section, which has its own label
                    lines.append("%s %r is not %s"
                                 % (shape.fixed, value, shape.kind))
                elif shape.kind == "a list":  # whose value may be long
                    mine.append("%s is not a list" % name)
                else:
                    mine.append("%s %r is not %s" % (name, value, shape.kind))
                built, faulty = None, True
            elif built is None and type(shape) in (Obj, Map):  # faulty
                faulty = True
            values.append(built)
        for key in doc if self.closed else ():
            if key not in self.names:
                mine.append("key %r is not %s" % (key, self.closed))
                faulty = True
        if own is None:
            lines[start:start] = ["%s %s" % (label, fault) for fault in mine]
        if self.make is None and (place is None or not faulty):
            # the top of a walk builds its dict even when faulty
            return dict(zip(self.names, values))
        try:
            return None if faulty else self.make(*values)
        except Refused as exc:
            lines.append("%s: %s" % (label, exc))
            return None


def shaped(noun: str = "", bare: bool = False, label: str = None):
    """A class decorator that gives the class its shape, `cls.shape`: an
    object of the class's fields, which builds the class. Each field's
    annotation is its shape, and its default its default."""
    def decorate(cls):
        scope = vars(sys.modules[cls.__module__])
        defaults = getattr(cls, "_field_defaults", vars(cls))
        # NamedTuple keeps each annotation's text as a ForwardRef
        cls.shape = Obj(*((name, eval(getattr(text, "__forward_arg__", text),
                                      scope), defaults.get(name, REQUIRED))
                          for name, text in cls.__annotations__.items()),
                        build=cls, noun=noun, bare=bare, label=label)
        return cls
    return decorate


def load(shape, value, label: str) -> tuple:
    """`(built, faults)` of `value`, labelled `label`. A faulty object
    builds as None, except a dict at the top, whose faulty fields are."""
    try:
        return shape.build(value), []
    except Fault:
        lines = []
    built = _report(shape, value, label, None, lines)
    if built is shape:
        return None, ["%s %r is not %s" % (label, value, shape.kind)]
    return built, lines
