"""Frozen value records, built from closures.

``record`` makes a class whose annotations name its fields a frozen value
class, with the methods ``dataclasses.dataclass(frozen=True)`` would give it
but no source compiled at import:

- ``__init__`` takes the fields in order, by position or by keyword; a class
  attribute is its field's default. ``__post_init__``, if defined, runs last.
- ``==`` compares two records of one class field by field, and ``repr``
  reads ``Name(field=value, ...)``. ``hash`` is the hash of the field tuple,
  computed on first use and kept in a ``_hash`` slot.
- Assigning or deleting any attribute raises :class:`FrozenError`.
- Copies and pickles rebuild a record from its fields.
- ``__match_args__`` lists the fields in order.

``record`` takes no options: every record class is rebuilt with one slot
per field, plus ``_hash``, and no ``__dict__``. Because the class is
rebuilt, a record's methods must not call zero-argument ``super()``: its
``__class__`` cell names the class as written, not the record.
"""

from operator import attrgetter


class FrozenError(AttributeError):
    """An attribute of a record was assigned or deleted."""


def _getter(names):
    """The function from a record to the tuple of its fields ``names``."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    body = {k: v for k, v in cls.__dict__.items() if k not in (*names, "__dict__", "__weakref__")}
    cls = type(cls)(cls.__name__, cls.__bases__, {**body, "__slots__": (*names, "_hash")})
    fields = _getter(names)
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            values.append(kwargs.pop(name) if name in kwargs else defaults[name])
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(fields(self))
            set_field(self, "_hash", h)
            return h

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete {type(self).__name__}.{name}")

    def __reduce__(self):
        return type(self), fields(self)

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__, __reduce__):
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
