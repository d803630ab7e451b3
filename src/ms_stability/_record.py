"""Records: classes of named fields with value equality, read-only when frozen.

A record lists its fields as class annotations, in order, each with an
optional class-attribute default, as a dataclass does.  Record reads them
once when the class is made; every method is ordinary code shared by all
records, so defining a record compiles nothing at import, where
dataclasses builds each class's methods from source text.
"""

import inspect

import numpy as np

_POSITIONAL_OR_KEYWORD = inspect.Parameter.POSITIONAL_OR_KEYWORD
_EMPTY = inspect.Parameter.empty


class Record:
    """Base of the package's records.

        class Grid(Record, frozen=True):
            nx: int
            ny: int = 16

    gives Grid(nx, ny=16) by position or keyword, a call to __post_init__
    after the fields are set, field-wise == between records of one class
    (an array field compares by shape and values), and the repr
    Grid(nx=.., ny=..).  A frozen record hashes its fields and raises
    AttributeError on assigning or deleting an attribute (its
    __post_init__ sets a normalised field with object.__setattr__); any
    other record is unhashable.  inspect.signature lists the fields.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = cls.__annotations__
        cls._fields = cls._fields + tuple(name for name in annotations
                                          if name not in cls._fields)
        cls._defaults = dict(cls._defaults)
        cls._defaults.update((name, cls.__dict__[name]) for name in annotations
                             if name in cls.__dict__)
        cls.__signature__ = inspect.Signature([
            inspect.Parameter(name, _POSITIONAL_OR_KEYWORD,
                              default=cls._defaults.get(name, _EMPTY),
                              annotation=annotations.get(name, _EMPTY))
            for name in cls._fields], return_annotation=None)
        if frozen:
            cls.__setattr__ = _refuse_setattr
            cls.__delattr__ = _refuse_delattr
            cls.__hash__ = _field_hash

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args, kwargs):
        """One value per field from the arguments, defaults filled in."""
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError("%s() takes %d positional arguments but %d were "
                            "given" % (type(self).__qualname__, len(fields),
                                       len(args)))
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError("%s() missing required argument: %r"
                                % (type(self).__qualname__, name))
        if kwargs:
            raise TypeError("%s() got an unexpected or repeated argument: %r"
                            % (type(self).__qualname__, next(iter(kwargs))))
        return values

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same(mine, theirs)
                   for mine, theirs in zip(self._values(), other._values()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def as_dict(self):
        """The fields as a dict, in field order (nested records stay records)."""
        return {name: getattr(self, name) for name in self._fields}

    def replace(self, **changes):
        """A new record of this class with the given fields changed; the
        constructor, __post_init__ included, runs again."""
        return type(self)(**{**self.as_dict(), **changes})


def _same(x, y):
    """Field equality: an array field compares by shape and values."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    return x is y or x == y


def _refuse_setattr(self, name, value):
    raise AttributeError("cannot assign to field %r" % name)


def _refuse_delattr(self, name):
    raise AttributeError("cannot delete field %r" % name)


def _field_hash(self):
    return hash(self._values())
