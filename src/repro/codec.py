"""One JSON codec for every frozen-dataclass configuration and result.

Encoding walks dataclass fields: nested dataclasses become objects,
tuples and lists become arrays, and a member of a polymorphic
:class:`Family` carries its ``kind`` tag. Floats pass
through untouched, so Python's ``json`` writes the shortest decimal that
round-trips bit-for-bit.

Decoding checks every field of an untrusted payload against the field's
resolved type hint. Hints are resolved and compiled into decoders once
per class, never per payload. The rules:

* an ``int`` is widened to ``float`` for a ``float`` field;
* a ``bool`` is never accepted where a number is expected;
* NaN and infinities are rejected;
* tuples travel as arrays;
* unknown fields and missing required fields are rejected;
* a polymorphic family decodes through its ``kind`` → class registry.

Every failure raises :class:`SpecValidationError` carrying the
JSON-pointer-style path of the offending value. The constructed
dataclass's own ``__post_init__`` validation errors are mapped onto the
path of the object being built.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from functools import partial
from typing import Any, Callable, NamedTuple

from .errors import ConfigError, ReproError, SchedulingError, WorkloadError

__all__ = [
    "Codec",
    "Family",
    "SpecValidationError",
    "build",
    "expect_dict",
    "expect_float",
    "expect_str",
    "fail",
    "plain",
    "reject_unknown",
]

Decoder = Callable[[Any, str], Any]


class SpecValidationError(ReproError):
    """An untrusted payload failed schema validation.

    Attributes
    ----------
    path:
        JSON-pointer-style location of the offending value, e.g.
        ``spec.targets[0].pattern.kind``.
    message:
        What was wrong and what would have been accepted.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def to_dict(self) -> dict[str, str]:
        """The 400-response body fragment."""
        return {"type": "validation", "path": self.path, "message": self.message}

    def __reduce__(self):
        return (type(self), (self.path, self.message))


def fail(path: str, message: str) -> typing.NoReturn:
    raise SpecValidationError(path, message)


# --------------------------------------------------------------------------- scalars


def _type_check(kind: type, noun: str) -> Decoder:
    def check(value: Any, path: str) -> Any:
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            fail(path, f"expected {noun}, got {type(value).__name__}")
        return value

    return check


expect_dict = _type_check(dict, "an object")
expect_list = _type_check(list, "an array")
expect_str = _type_check(str, "a string")


def expect_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(path, f"expected a number, got {type(value).__name__}")
    try:
        result = float(value)
    except OverflowError:
        fail(path, "expected a finite number, got an integer too large for a float")
    if not math.isfinite(result):
        fail(path, f"expected a finite number, got {value!r}")
    return result


_SCALARS: dict[Any, Decoder] = {
    float: expect_float,
    int: _type_check(int, "an integer"),
    bool: _type_check(bool, "a boolean"),
    str: expect_str,
}


def reject_unknown(payload: dict, known: typing.Collection[str], path: str) -> None:
    unknown = sorted(set(payload).difference(known))
    if unknown:
        fail(
            path,
            f"unknown field(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(sorted(known))}",
        )


def build(factory: Callable[..., Any], kwargs: dict, path: str) -> Any:
    """Construct a validated object, mapping its eager validation errors
    onto the payload location."""
    try:
        return factory(**kwargs)
    except (ConfigError, WorkloadError, SchedulingError) as exc:
        fail(path, str(exc))
    except TypeError as exc:
        # Wrong value type reaching a dataclass comparison ("'<' not
        # supported between str and int") or a stray keyword: still the
        # submitter's fault, still a 400.
        fail(path, f"invalid value: {exc}")


# --------------------------------------------------------------------------- the codec


class Family(NamedTuple):
    """A polymorphic family: the wire ``kind`` tag selects the class.

    Members encode with their tag, except the ``untagged`` kind: it
    travels bare and is assumed when a payload carries no tag.
    """

    label: str
    kinds: dict[str, type]
    untagged: str | None = None


class Codec:
    """Encodes and decodes dataclasses by walking their fields.

    Parameters
    ----------
    families:
        Family base class → :class:`Family`; a hint naming the base
        decodes through its ``kind`` registry.
    decoders:
        Hand-written decoders for hints with no plain dataclass shape,
        consulted before the field walk.
    encoders:
        Hand-written encoders for non-dataclass values, matched by
        ``isinstance``.
    names:
        Classes that string annotations name but import only for type
        checking.
    """

    def __init__(
        self,
        families: dict[type, Family] | None = None,
        decoders: dict[Any, Decoder] | None = None,
        encoders: dict[type, Callable[[Any], Any]] | None = None,
        names: typing.Iterable[type] = (),
    ) -> None:
        self._families = dict(families or {})
        self._tags = {
            cls: kind
            for family in self._families.values()
            for kind, cls in family.kinds.items()
            if kind != family.untagged
        }
        self._hooks = dict(decoders or {})
        self._encoders = dict(encoders or {})
        self._names = {cls.__name__: cls for cls in names}
        # Compiled once per hint or class, then reused by every payload.
        self._decoders: dict[Any, Decoder] = {}
        self._plans: dict[type, tuple[dict[str, Decoder], frozenset[str]]] = {}
        self._encode_plans: dict[type, tuple[str | None, tuple[str, ...]]] = {}

    # -- encoding ------------------------------------------------------------

    def to_json(self, value: Any) -> Any:
        """Encode a value as plain JSON data (dicts, lists and scalars)."""
        if value is None or isinstance(value, (str, int, float)):
            return value
        if isinstance(value, (tuple, list)):
            return [self.to_json(v) for v in value]
        if isinstance(value, dict):
            return {k: self.to_json(v) for k, v in value.items()}
        cls = type(value)
        if dataclasses.is_dataclass(cls):
            tag, names = self._encode_plan(cls)
            out = {} if tag is None else {"kind": tag}
            for name in names:
                out[name] = self.to_json(getattr(value, name))
            return out
        for base, encode in self._encoders.items():
            if isinstance(value, base):
                return encode(value)
        raise ConfigError(f"cannot serialize {cls.__name__}: it has no wire format")

    def _encode_plan(self, cls: type) -> tuple[str | None, tuple[str, ...]]:
        plan = self._encode_plans.get(cls)
        if plan is None:
            tag = self._tags.get(cls)
            for base, family in self._families.items():
                untagged = family.kinds.get(family.untagged)
                if tag is None and issubclass(cls, base) and untagged is not cls:
                    raise ConfigError(
                        f"cannot serialize {family.label} {cls.__name__}; "
                        f"only the registered {family.label} kinds have a wire format"
                    )
            names = tuple(f.name for f in dataclasses.fields(cls) if f.init)
            plan = self._encode_plans[cls] = (tag, names)
        return plan

    # -- decoding ------------------------------------------------------------

    def from_json(self, hint: Any, payload: Any, path: str) -> Any:
        """Decode ``payload`` as a value of type ``hint``."""
        return self.decoder(hint)(payload, path)

    def decoder(self, hint: Any) -> Decoder:
        """The decoder compiled for a resolved type hint (cached)."""
        decode = self._decoders.get(hint)
        if decode is None:
            decode = self._decoders[hint] = self._compile(hint)
        return decode

    def _compile(self, hint: Any) -> Decoder:
        if hint in self._hooks:
            return self._hooks[hint]
        if hint in _SCALARS:
            return _SCALARS[hint]
        if hint in self._families:
            return partial(self._decode_member, hint)
        if isinstance(hint, type) and dataclasses.is_dataclass(hint):
            return partial(self._decode_dataclass, hint)
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
            inner = self.decoder(args[0] if args[1] is type(None) else args[1])
            return lambda value, path: None if value is None else inner(value, path)
        if origin is list or (origin is tuple and args[-1] is Ellipsis):
            item = self.decoder(args[0])
            return lambda value, path: origin(
                item(v, f"{path}[{i}]") for i, v in enumerate(expect_list(value, path))
            )
        if origin is tuple:
            return partial(_decode_fixed_tuple, [self.decoder(a) for a in args])
        if origin is dict:
            key, item = self.decoder(args[0]), self.decoder(args[1])
            return lambda value, path: {
                key(k, path): item(v, f"{path}[{k!r}]")
                for k, v in expect_dict(value, path).items()
            }
        raise ConfigError(f"no JSON codec for type {hint!r}")

    def _plan(self, cls: type) -> tuple[dict[str, Decoder], frozenset[str]]:
        """Each constructor field's decoder, and the required fields;
        resolved once per class."""
        plan = self._plans.get(cls)
        if plan is None:
            hints = typing.get_type_hints(cls, localns=self._names)
            fields = [f for f in dataclasses.fields(cls) if f.init]
            plan = self._plans[cls] = (
                {f.name: self.decoder(hints[f.name]) for f in fields},
                frozenset(
                    f.name for f in fields
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING
                ),
            )
        return plan

    def decode_fields(
        self,
        cls: type,
        payload: Any,
        path: str,
        allowed: tuple[str, ...] = (),
        given: dict | None = None,
    ) -> dict[str, Any]:
        """Decode a payload into ``cls`` constructor keyword arguments.

        Fields absent from the payload keep their dataclass defaults.
        ``allowed`` names extra keys the caller handles itself; ``given``
        supplies already-decoded fields, which the payload may not repeat.
        """
        expect_dict(payload, path)
        decoders, required = self._plan(cls)
        kwargs = dict(given) if given else {}
        for key, value in payload.items():
            decode = decoders.get(key)
            if decode is None or key in kwargs:
                if key in allowed:
                    continue
                reject_unknown(payload, [*(decoders.keys() - kwargs.keys()), *allowed], path)
            kwargs[key] = decode(value, f"{path}.{key}")
        if not required.issubset(kwargs):
            missing = next(name for name in decoders if name in required and name not in kwargs)
            fail(path, f"missing required field {missing!r}")
        return kwargs

    def _decode_dataclass(self, cls: type, payload: Any, path: str) -> Any:
        return build(cls, self.decode_fields(cls, payload, path), path)

    def family_member(self, base: type, payload: Any, path: str) -> type:
        """The family class a payload's ``kind`` tag selects."""
        label, kinds, untagged = self._families[base]
        expect_dict(payload, path)
        if "kind" not in payload and untagged is None:
            fail(path, "missing required field 'kind'")
        kind = expect_str(payload.get("kind", untagged), f"{path}.kind")
        if kind not in kinds:
            fail(
                f"{path}.kind",
                f"unknown {label} kind {kind!r}; expected one of {', '.join(sorted(kinds))}",
            )
        return kinds[kind]

    def _decode_member(self, base: type, payload: Any, path: str) -> Any:
        cls = self.family_member(base, payload, path)
        return build(cls, self.decode_fields(cls, payload, path, allowed=("kind",)), path)


def _decode_fixed_tuple(items: list[Decoder], value: Any, path: str) -> tuple:
    expect_list(value, path)
    if len(value) != len(items):
        fail(path, f"expected an array of {len(items)} items, got {len(value)}")
    return tuple(d(v, f"{path}[{i}]") for i, (d, v) in enumerate(zip(items, value)))


#: The codec for dataclasses that need no registered vocabulary (configs).
plain = Codec()
