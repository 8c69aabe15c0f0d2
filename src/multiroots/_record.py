"""Base class of the library's immutable value classes."""


class Record:
    """An immutable value with equality, hashing and repr over its fields.

    A subclass's ``__init__`` validates its arguments and stores each field
    with `set_field`, in the order of its parameters, so ``vars(self)``
    lists the fields in that order.  Instances keep a ``__dict__``, so
    pickling and copying need no code of their own.
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


#: Stores one field from a record's ``__init__``, past `Record.__setattr__`.
set_field = object.__setattr__
