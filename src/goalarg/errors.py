"""Exception types shared across the package."""

from __future__ import annotations


class GoalArgError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GoalArgError):
    """A caller-supplied value is invalid (unknown id, unfiltered goal graph, ...)."""


class QueryDirectionError(InputError):
    """A WHY query was asked about a non-pursued goal, or vice versa.

    Carries the query that would succeed so front ends can redirect the user.
    """

    def __init__(self, message: str, suggested_query: str):
        super().__init__(message)
        self.suggested_query = suggested_query


class ScenarioError(GoalArgError):
    """A scenario document is malformed; `location` points at the offender."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class ValidationError(GoalArgError):
    """A framework failed invariant validation; carries all issues found."""

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(str(i) for i in self.issues)
        super().__init__(f"validation failed: {lines}")
