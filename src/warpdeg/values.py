"""The base of the immutable value types: fields, construction, equality."""


class _Value:
    """Base of the immutable value types, and their one constructor.

    ``_fields`` is the parent's fields, then the class's own ``__slots__``,
    one name as a string or any iterable of names, less ``__dict__`` and
    ``__weakref__``: a subclass with ``__slots__ = ()`` keeps its parent's.
    A private (name-mangled) slot such as ``__note`` is a TypeError.
    The constructor binds positional, then keyword arguments to them as a
    call binds parameters, and a field given neither way takes the class's
    default from ``_defaults``.  It sets the slots through ``_setters``, the
    ``__set__`` of each field's descriptor, cached when the class is made.
    Values of one class are equal, and hash alike, when their fields are;
    a value never equals a tuple, and assigning or deleting a field raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        slots = cls.__dict__.get("__slots__", ())
        names = (slots,) if isinstance(slots, str) else slots
        own = tuple(n for n in names if n not in ("__dict__", "__weakref__"))
        for name in own:
            if name.startswith("__") and not name.endswith("__"):
                raise TypeError(f"{cls.__name__}: private slot {name!r} cannot "
                                "be a field (Python stores it name-mangled)")
        cls._fields += own
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_slot, value in zip(setters, args):
            set_slot(self, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call that is not one value per field."""
        fields, call = self._fields, f"{type(self).__name__}()"
        if len(args) > len(fields):
            raise TypeError(f"{call} got {len(args)} values for fields {fields}")
        given = dict(zip(fields, args))
        for name in kwargs:
            if name in given:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
            if name not in fields:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        given = self._defaults | given | kwargs
        try:
            return [given[name] for name in fields]
        except KeyError as missing:
            raise TypeError(f"{call} missing argument {missing}") from None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()
