"""Base classes of the package's record classes, built without code generation.

``dataclasses`` compiles each class's generated methods with ``exec`` when
its module is imported, which costs every CLI process about a millisecond
a class.  Here a record class declares its fields as class annotations, in
constructor order, and writes its own ``__init__``; the bases derive the
rest from that field list once per class (``operator.attrgetter``):

- ``Record``: a repr naming the fields, equality field by field between
  instances of one class (and so no hash, as a mutable dataclass), and
  ``replace`` (``ScalarField``, whose constructor does not take its
  fields, refuses it);
- ``FrozenRecord``: also refuses assignment and deletion with
  ``AttributeError`` and hashes the field tuple, as a frozen dataclass
  does.  Its constructors write their fields with ``set_field``.

Instances keep a ``__dict__``, which ``functools.cached_property``,
``copy.copy`` and ``Configuration._on_tables`` write to directly.
"""

from operator import attrgetter

# a frozen record's constructor writes its fields past its own __setattr__
set_field = object.__setattr__


class Record:
    """A mutable record: see the module docstring."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__annotations__  # the class's own: empty on a subclass that adds none
        if names:
            cls._fields = tuple(names)
            get = attrgetter(*names)
            # the field tuple, for one field as for several
            cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, built by the constructor,
        so its checks run on the new values."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))


class FrozenRecord(Record):
    """An immutable, hashable record: see the module docstring."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values(self))
