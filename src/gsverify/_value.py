"""Immutable value classes without generated code.

``@frozen`` makes a class whose annotated fields (after those of a frozen
base) are its value.  Instances are built by position or keyword, with the
class-level values as defaults (a ``DefaultFactory(f)`` default calls ``f``
once per instance); the class's ``__post_init__`` runs last and may normalise a
field with ``object.__setattr__``.  They compare equal only to instances of
the same class with equal fields, hash by their fields, refuse assignment
and deletion, and print as ``Name(field=value, ...)``.  Each instance keeps
its fields in its ``__dict__``, so ``functools.cached_property`` works.

Nothing is compiled: ``__repr__``, ``__setattr__`` and ``__delattr__`` are
module functions every class shares, and ``__init__``, ``__eq__`` and
``__hash__`` are closures over a class's field names and one
``operator.attrgetter`` of its fields (the field's value itself for a
one-field class).  One-field classes take their positional argument without
packing it into a tuple, the constructor path of ``Preference`` and
``Profile``.
"""

from operator import attrgetter

_set = object.__setattr__
_MISSING = object()


class DefaultFactory:
    """A field default made afresh for each instance by calling ``factory``."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


def frozen(cls):
    """Make ``cls`` an immutable value class over its annotated fields."""
    names = getattr(cls, "_fields", ())
    defaults = dict(getattr(cls, "_field_defaults", {}))
    for name in cls.__annotations__:
        if name not in names:
            names += (name,)
        if name in cls.__dict__:
            defaults[name] = cls.__dict__[name]
            if isinstance(defaults[name], DefaultFactory):
                delattr(cls, name)
    cls._fields = names
    cls._field_defaults = defaults
    bind = _binder(cls.__qualname__, names, defaults)
    post = getattr(cls, "__post_init__", None)
    key = attrgetter(*names)

    if len(names) == 1:
        (field,) = names

        def __init__(self, value=_MISSING, /, **kwargs):
            if kwargs or value is _MISSING:
                (value,) = bind(() if value is _MISSING else (value,), kwargs)
            _set(self, field, value)
            if post is not None:
                post(self)

    else:

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                args = bind(args, kwargs)
            for name, value in zip(names, args):
                _set(self, name, value)
            if post is not None:
                post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = _repr
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


def _binder(qualname: str, names: tuple, defaults: dict):
    """The field values of one call, in field order; the slow path of
    ``__init__`` for keywords, defaults and wrong arities."""

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > len(names):
            raise TypeError(
                f"{qualname}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        values = list(args)
        for name in names[: len(args)]:
            if name in kwargs:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                default = defaults[name]
                if isinstance(default, DefaultFactory):
                    default = default.factory()
                values.append(default)
            else:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
        if kwargs:
            raise TypeError(
                f"{qualname}() got an unexpected keyword argument {next(iter(kwargs))!r}"
            )
        return values

    return bind


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse_set(self, name, value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
