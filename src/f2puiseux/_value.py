"""The base of the package's value types.

Each value type is a class with __slots__ whose __match_args__ names
its constructor's arguments, in order; every value type has at least
two.  Its constructor sets the slots through object.__setattr__; after
that, assignment and deletion raise AttributeError, and copy and pickle
rebuild the value from those arguments through the constructor.  The
base also gives each value type its equality and hash: two values are
equal when they have the same class and equal arguments, and the hash
is that of the argument tuple.  The algebra types, whose equality is
truncation-relative, override __eq__ and set __hash__ to None.
"""

from operator import attrgetter


class Value:
    """Immutable slotted value, rebuilt and compared by its
    __match_args__."""

    __slots__ = ()

    def __init_subclass__(cls):
        # with two names or more, the getter returns the argument tuple
        cls._args = attrgetter(*cls.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:  # a shared value, as in the field scan's rows
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args(self) == self._args(other)

    def __hash__(self):
        return hash(self._args(self))

    def __reduce__(self):
        return type(self), self._args(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__match_args__, self._args(self)))
        return f"{type(self).__qualname__}({fields})"
