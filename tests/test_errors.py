"""The error classes carry the CLI's exit-code classification: a refused
input is an `InputError`, and exactly the `ValueError`s are."""

from __future__ import annotations

import inspect

import design_forge
from design_forge import errors

CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.DesignForgeError) and cls is not errors.DesignForgeError
]


def test_input_errors_are_exactly_the_value_errors():
    assert len(CLASSES) >= 10
    for cls in CLASSES:
        assert issubclass(cls, errors.InputError) == issubclass(cls, ValueError), cls


def test_faults_and_limits_are_not_input_errors():
    for cls in (errors.BudgetExceededError, errors.ConsistencyError, errors.StateError):
        assert not issubclass(cls, errors.InputError)


def test_input_error_stays_out_of_the_public_names():
    assert "InputError" not in design_forge.__all__
    assert len(design_forge.__all__) == 32
