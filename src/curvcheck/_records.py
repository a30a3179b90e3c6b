"""Base classes of the package's immutable objects, whose methods are written
once here instead of generated for each class at import, as a dataclass's
are.  A subclass lists its fields in ``__slots__``, in the order of its
constructor's arguments, and its ``__init__`` stores them once, through
:meth:`Frozen._set` or, where it runs most often, by unpacking
``_setters``: the slot setter of each field in order, faster than
``object.__setattr__``."""

from operator import attrgetter


class Frozen:
    """An object that raises :class:`AttributeError` when an attribute is
    assigned or deleted after ``__init__``.  Copying and pickling call the
    class on the fields, so whatever else ``__init__`` sets is derived
    again.  Compared and hashed by identity."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *fields):
        for set_field, value in zip(self._setters, fields):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Value(Frozen):
    """A :class:`Frozen` object equal to another of its class with equal
    fields, hashed over its fields, shown as ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the fields as one value to compare and hash, read in C
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
