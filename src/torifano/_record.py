"""Frozen records: the one base of the package's immutable value classes.

A subclass lists its fields as class annotations, in order, and a field's
default as the class attribute of that name; ``hidden`` in the class
statement names fields left out of equality, hashing and repr.  The fields
are read once per class and every method is shared, so a record class
generates no code and this module imports nothing, where the standard
frozen dataclass decorator loads ``inspect``, ``ast`` and ``dis`` and execs
new methods for each class, most of a cold command's start-up.  Cached
properties write the instance ``__dict__`` directly, so they work here too.
A record class is not subclassed: its annotations are all its fields.
"""


class Record:
    def __init_subclass__(cls, hidden=()):
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._compared = tuple(name for name in cls._fields if name not in hidden)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = self.__dict__
        values.update(self._defaults)
        values.update(zip(fields, args))
        if kwargs:
            if not kwargs.keys() <= self._field_set or not kwargs.keys().isdisjoint(fields[:len(args)]):
                raise TypeError(f"{type(self).__name__} got an unknown or repeated field in {sorted(kwargs)}")
            values.update(kwargs)
        if len(values) < len(fields) or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self.__post_init__()

    def __post_init__(self):
        """Checks or normalizes the fields; builds and ``replace`` call it."""

    def replace(self, **changes):
        """A copy with ``changes``, checked again by ``__post_init__``; cached properties are not copied."""
        if not changes.keys() <= self._field_set:
            raise TypeError(f"{type(self).__name__} has no field {sorted(changes.keys() - self._field_set)}")
        new = object.__new__(type(self))
        state = self.__dict__
        values = new.__dict__
        for name in self._fields:
            values[name] = state[name]
        values.update(changes)
        new.__post_init__()
        return new

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        state = self.__dict__
        return tuple([state[name] for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        state = self.__dict__
        return f"{type(self).__qualname__}({', '.join(f'{name}={state[name]!r}' for name in self._compared)})"
