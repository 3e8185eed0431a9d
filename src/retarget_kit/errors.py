"""Exception hierarchy shared across the package, and its number and array rules.

Two broad families: ValidationError for bad inputs (malformed files,
mismatched shapes, unresolvable names) and NumericError for failures that
arise during computation. The CLI maps these to exit codes 2 and 3.
A subclass exists only where package code catches it by type or reads an
attribute it carries; the one such class is ParseError, which `io` catches
to keep a file location. Any other failure raises its family's class with a
message that says what went wrong, worded where its frame, joint or file
location is known; no code adds to an error after it is raised.

`check_number` decides, for every module, what a valid number argument
is: a numbers.Real (a numbers.Integral where an integer is wanted) that
is not a bool and lies within the bounds of its rule. `check_array` is
its counterpart for arrays: anything np.asarray takes as floats, of the
shape asked for. Neither rule admits NaN, infinity or an integer past
the float range. `check_labels` is the rule for keypoint and marker
names: a list or tuple of strings.
"""

import math
from numbers import Integral, Real

import numpy as np

# rule -> (type, bounds test on a finite value, what the error message says it must be)
_NUMBER_RULES = {
    "finite": (Real, lambda x: True, "finite"),
    ">= 0": (Real, lambda x: x >= 0, "a finite number >= 0"),
    "> 0": (Real, lambda x: x > 0, "positive"),
    "[0, 1]": (Real, lambda x: 0 <= x <= 1, "a number in [0, 1]"),
    "int >= 1": (Integral, lambda x: x >= 1, "an integer >= 1"),
}
# The built-in types of each kind, taken without the slower abstract base class check.
_BUILTIN = {Real: (float, int), Integral: (int,)}


class RetargetKitError(Exception):
    pass


class ValidationError(RetargetKitError):
    pass


class NumericError(RetargetKitError):
    pass


class ParseError(ValidationError):
    """A malformed input file: its path, the JSON location in it and the reason."""

    def __init__(self, path, location, reason):
        self.path = str(path)
        self.location = location
        self.reason = reason
        super().__init__(f"{path}: {location}: {reason}")


def check_number(name, value, rule):
    """`value`, unchanged, if it obeys `rule`, a key of _NUMBER_RULES; else a
    ValidationError that names it."""
    kind, within, must_be = _NUMBER_RULES[rule]
    try:  # math.isfinite raises OverflowError on an integer past the float range
        valid = (
            type(value) in _BUILTIN[kind] or isinstance(value, kind) and not isinstance(value, bool)
        ) and math.isfinite(value)
    except OverflowError:
        valid = False
    if not (valid and within(value)):
        raise ValidationError(f"{name} must be {must_be}, got {value!r:.40}")
    return value


def check_array(name, value, shape=None):
    """np.asarray(value, dtype=float) if it converts, matches `shape` (None
    matches any length) and holds no NaN or infinity; else a ValidationError
    that names it."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{name} is not a numeric array: {e}") from None
    if shape is not None and (
        arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape))
    ):
        raise ValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or infinity")
    return arr


def check_labels(name, value):
    """`value` as a tuple if it is a list or tuple of strings; else a
    ValidationError that names it."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value)):
        raise ValidationError(f"{name} must be a list or tuple of strings, got {value!r:.40}")
    return tuple(value)

