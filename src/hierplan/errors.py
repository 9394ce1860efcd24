"""Exception hierarchy for hierplan."""


class HierplanError(Exception):
    """Base class for all hierplan errors."""


class InapplicableAction(HierplanError):
    """An action has no transition from the given state."""


class NotInInitiationSet(HierplanError):
    """Option invoked from a state outside its initiation set."""


class StepBoundExceeded(HierplanError):
    """Option execution did not terminate within the step bound.

    Signals a non-terminating option policy, which is a configuration
    error rather than a recoverable runtime condition.
    """


class UndefinedPolicy(HierplanError):
    """An option policy has no entry for a state reached during execution."""


class UnknownName(HierplanError, KeyError):
    """Input names a variable, depot or other entity that does not exist.

    Also a ``KeyError``, so callers that catch the lookup failure keep
    working.
    """

    __str__ = Exception.__str__  # KeyError would quote the message


class MalformedInput(HierplanError):
    """A domain, option set or query is not well-formed: invalid JSON, a
    missing key, a short or repeated transition, a reward table that does
    not match the transitions, a state outside the space or an empty
    set."""


class LevelMismatch(HierplanError):
    """Set operation between grounding sets of different levels."""


class LevelOutOfRange(HierplanError):
    """Level index outside the hierarchy's range."""


class EmptyOptionSet(HierplanError):
    """A hierarchy level cannot be built from zero options."""


class NoSubgoalStructure(HierplanError):
    """Plan-graph construction requires every option part to be a subgoal."""


class NoFactoredStructure(HierplanError):
    """Factored construction requires a factored lower space and closure
    seed states."""


class PartitionExplosion(HierplanError):
    """Option partitioning produced more parts than
    ``abstraction.DEFAULT_PART_LIMIT``."""


class InvalidSeed(HierplanError):
    """Closure seed state is not a valid state of the lower level."""


class NoMatch(HierplanError):
    """Candidate construction failed: no state set at this level brackets
    the query."""


class InconsistentRecord(HierplanError):
    """Instrumentation record does not describe a completed planner run."""


class RefinementFault(HierplanError):
    """Plan refinement left the plan's state cover.

    Indicates a broken hierarchy invariant (unsound image or
    applicability), not a recoverable condition.
    """
