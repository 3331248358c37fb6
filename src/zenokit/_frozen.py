"""Frozen, the base of zenokit's immutable value records.

It gives them what @dataclass(frozen=True) gave, without importing
dataclasses, which loads inspect, ast, dis and tokenize and was most of
the cost of importing the CLI.
"""


class Frozen:
    """An immutable record whose fields are the names its class annotates,
    its bases' first, as _fields lists them; a class attribute is the
    default of the field of its name.

    A record is built by position or by keyword, then __post_init__ runs
    (it may normalise a field with object.__setattr__). Records are equal
    when they are of one class with equal fields, hash as their field
    tuple and print as Name(field=value!r, ...).
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(name for name in own if name not in cls._fields)
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() got {len(args)} positional arguments "
                            f"for the fields {', '.join(names)}")
        state = vars(self)
        state.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in state:
                raise TypeError(f"{cls.__name__}() got two values for {name!r}")
            state[name] = value
        if len(state) < len(names):
            for name in names:
                if name not in state:
                    if not hasattr(cls, name):
                        raise TypeError(f"{cls.__name__}() is missing {name!r}")
                    state[name] = getattr(cls, name)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
