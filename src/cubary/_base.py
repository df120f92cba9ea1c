"""What every layer and the CLI parser share: the immutable value bases,
the default face budget and the verify suite names.

This module imports nothing, so the parser and ``gen`` load neither
``fractions`` nor the layers they do not call.
"""

# a subdivide_n step may build at most this many faces by default
DEFAULT_FACE_BUDGET = 10**7

# verify's suites, in the order "--suite all" runs them
SUITES = ("fvec", "hsc", "hc", "euler", "symmetry", "realroot", "identity", "iterate")


class _Frozen:
    """Base of every cubary value: assignment and deletion raise
    AttributeError. Subclasses set their fields in ``__init__`` through
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable")


class _Record(_Frozen):
    """Immutable value over the fields named in ``__match_args__``.

    Gives what a frozen dataclass would, without importing dataclasses
    (and with it inspect and ast) on every start: field-wise equality
    within one class and a matching hash, and a ``Name(field=value)``
    repr.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"
