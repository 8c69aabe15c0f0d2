"""Base class of the library's immutable value classes."""


class Record:
    """An immutable value with equality, hashing and repr over its fields.

    A subclass annotates its fields in the order of its ``__init__``
    parameters; ``__init__`` validates its arguments and stores them with
    `set_fields`, so ``vars(self)`` lists the fields in that order.
    Instances keep a ``__dict__``, so pickling and copying need no code of
    their own.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"


_store = object.__setattr__


def set_fields(record, *values) -> None:
    """Store ``values`` as ``record``'s fields, past `Record.__setattr__`:
    the first under the class's first annotation, and so on.  ValueError
    is raised unless there is one value per annotation.

    Each field goes through ``object.__setattr__``, which keeps CPython's
    inline attribute values.  ``vars(record).update`` would move them into
    a dict, and every later read of a field (a polynomial's coefficients on
    each evaluation) would slow down: reading three fields took 196 ns
    against 127 ns (timeit, CPython 3.11.7).
    """
    for name, value in zip(record.__class__.__annotations__, values, strict=True):
        _store(record, name, value)
