"""Exception hierarchy for the ``repro`` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Validation failures carry enough context to point at
the offending job or constraint.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidInstanceError(ReproError, ValueError):
    """An instance violates the model (non-integer data, ``d < r + p``, ...)."""


class NotLaminarError(InvalidInstanceError):
    """A nested-only routine received an instance with crossing windows.

    Attributes
    ----------
    witness:
        A pair of windows ``((r1, d1), (r2, d2))`` that properly cross,
        or ``None`` when not recorded.
    """

    def __init__(self, message: str, witness: tuple | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class InfeasibleInstanceError(ReproError):
    """No schedule exists, even with every slot active."""


class ZeroOptimumError(ReproError):
    """A ratio against a zero-cost optimum is undefined.

    Raised by :func:`repro.online.policies.safe_ratio` (and everything
    built on it — competitive ratios, the policy leaderboard) when the
    offline optimum is 0 while the candidate schedule has positive cost.
    The ``0 / 0`` case is *not* an error: it is defined as ratio 1.0.
    """


class SolverError(ReproError):
    """An LP or flow solver failed to produce a usable solution.

    Besides the message, instances may carry structured diagnostics so
    callers can react without parsing strings:

    Attributes
    ----------
    kind:
        Failure class — ``"infeasible"`` / ``"unbounded"`` are verdicts
        about the *model*; ``"backend"``, ``"numerical"`` and
        ``"timeout"`` are failures of the *solve*.
    model:
        Name of the failed model (``LinearProgram.name``) when known.
    backend:
        Name of the solver that raised (``"highs"``, or ``"simplex"``
        for the test oracle), when known.
    num_vars / num_constraints:
        Size of the failed model, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "backend",
        model: str | None = None,
        backend: str | None = None,
        num_vars: int | None = None,
        num_constraints: int | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.model = model
        self.backend = backend
        self.num_vars = num_vars
        self.num_constraints = num_constraints


class IntegralityError(SolverError):
    """A value that must be integral (within ``EPS``) was not.

    Raised by the rounding step when a node off the topmost set ``I``
    carries a fractional value — the Lemma 3.1 invariant guarantees
    integrality there, so a violation means float drift (or an upstream
    bug) reached the combinatorial phase and must not be absorbed
    silently.  Also raised by the Section 4.2 classification when a
    type-C node's rounded subtree sum is neither 1 nor 2.

    Attributes
    ----------
    node:
        Index of the offending tree node, when known.
    value:
        The non-integral (or off-spec) value observed.
    """

    def __init__(
        self,
        message: str,
        *,
        node: int | None = None,
        value: float | None = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("kind", "numerical")
        super().__init__(message, **kwargs)
        self.node = node
        self.value = value


class CorpusError(ReproError):
    """A persistent instance corpus is unreadable, corrupted, or misused.

    Raised (instead of bare ``json``/``KeyError`` crashes) when a corpus
    directory is missing its manifest, an entry line is truncated or not
    valid JSON, an entry's content hash does not match its payload, or a
    campaign is pointed at a corpus built under a different key scheme.

    Attributes
    ----------
    path:
        The corpus directory (or file inside it) that failed, when known.
    offset:
        Zero-based ordinal of the offending entry line, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        offset: int | None = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.offset = offset


class BatteryTaskError(ReproError):
    """A ``run_battery`` worker task failed on a specific instance.

    The message embeds the task name and the instance name/index so a
    crash in a 10k-instance sweep points at the offending input; the
    original exception is chained as ``__cause__`` (in-process) and the
    same context survives pickling across the process pool boundary
    because it lives in ``args[0]``.
    """

    def __init__(
        self,
        message: str,
        *,
        task: str | None = None,
        instance: str | None = None,
        index: int | None = None,
    ) -> None:
        super().__init__(message)
        self.task = task
        self.instance = instance
        self.index = index
