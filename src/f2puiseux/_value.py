"""The base of the package's value types.

Each value type is a class with __slots__ whose __match_args__ names
its constructor's arguments, in order.  Its constructor sets the slots
through object.__setattr__; after that, assignment and deletion raise
AttributeError, and copy and pickle rebuild the value from those
arguments through the constructor.
"""


class Value:
    """Immutable slotted value, rebuilt from its __match_args__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"
