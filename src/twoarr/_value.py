"""Immutable value classes without the cost of `dataclasses` at import.

A subclass lists its fields as its own class annotations, in order (none is
inherited); a field whose annotation carries a value has it as default.
Instances behave like those of a frozen dataclass: positional and keyword
construction, `==` only between instances of the same class, a hash of the
tuple of fields, `Name(field=...)` as repr, and `AttributeError` on
assignment or deletion. Instances keep a `__dict__`, so
`functools.cached_property` can store caches beside the fields; those caches
take no part in `==`, hash or repr.
"""


class Value:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__}: missing field {name!r}")
                values[name] = self._defaults[name]
        self.__dict__.update(values)

    def _astuple(self) -> tuple:
        d = self.__dict__
        return tuple(d[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        d = self.__dict__
        body = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
