"""Frozen records: the base class of the package's immutable value types.

A subclass lists its fields as annotated class attributes, in order; a class
attribute of the same name is the field's default.  Record gives it the
methods of a frozen data class, written once here rather than generated and
compiled for each class when its module is imported:

- ``__init__`` binds positional and keyword arguments, raises TypeError on a
  missing, unknown, repeated or surplus one, then calls ``__post_init__``;
- assigning or deleting an attribute raises AttributeError (a
  ``__post_init__`` that normalizes a field writes it with
  ``object.__setattr__``);
- ``==`` and ``hash`` see the type and the field values only, so a value
  cached in the instance dict (a ``functools.cached_property``) does not;
- ``repr`` lists the fields, and ``replace(**changes)`` builds a new record,
  checked again by ``__post_init__``.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__annotations__)  # the field names, in order
        cls._names = frozenset(fields)
        cls._defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
        cls._values = attrgetter(*fields)  # the field values, for == and hash

    def __init__(self, *args, **kwargs):
        # C-level set tests and dict updates, no Python loop over the fields.
        # kwargs is a fresh dict on every call; it takes the positional
        # arguments and then goes into the instance dict in one update,
        # which leaves a plain dict that attribute reads are specialized for.
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        if kwargs:
            if not kwargs.keys() <= self._names:
                unknown = sorted(kwargs.keys() - self._names)
                raise TypeError(f"{type(self).__name__}() got unexpected arguments {unknown}")
            if not kwargs.keys().isdisjoint(fields[: len(args)]):
                repeated = sorted(kwargs.keys() & fields[: len(args)])
                raise TypeError(f"{type(self).__name__}() got multiple values for {repeated}")
        values = kwargs
        values.update(zip(fields, args))
        if len(values) < len(fields):
            values = {**self._defaults, **values}
            if len(values) < len(fields):
                missing = [name for name in fields if name not in values]
                raise TypeError(f"{type(self).__name__}() missing arguments {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(_self):
        """Checks the bound fields; a record without checks keeps this no-op."""

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash((type(self), self._values(self)))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, validated as a new record."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})
