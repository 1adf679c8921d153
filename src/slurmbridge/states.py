"""Job lifecycle states and the transition relation shared by client and simulator."""

from enum import Enum


class JobState(Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    TIMEOUT = "TIMEOUT"

    @property
    def terminal(self):
        return self in TERMINAL_STATES


TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED, JobState.TIMEOUT}
)

# Valid transitions; terminal states have no successors.
TRANSITIONS = {
    JobState.PENDING: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED, JobState.TIMEOUT}
    ),
    JobState.COMPLETED: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.TIMEOUT: frozenset(),
}

# Every sacct(1) "JOB STATE CODES" token mapped onto the state machine: a job
# that still holds or may regain resources is RUNNING, a requeued one PENDING.
_TOKEN_MAP = {
    "PENDING": JobState.PENDING,
    "REQUEUED": JobState.PENDING,
    "RUNNING": JobState.RUNNING,
    "COMPLETING": JobState.RUNNING,
    "CONFIGURING": JobState.RUNNING,
    "RESIZING": JobState.RUNNING,
    "SUSPENDED": JobState.RUNNING,
    "COMPLETED": JobState.COMPLETED,
    "FAILED": JobState.FAILED,
    "BOOT_FAIL": JobState.FAILED,
    "NODE_FAIL": JobState.FAILED,
    "OUT_OF_MEMORY": JobState.FAILED,
    "PREEMPTED": JobState.FAILED,
    "CANCELLED": JobState.CANCELLED,
    "REVOKED": JobState.CANCELLED,
    "TIMEOUT": JobState.TIMEOUT,
    "DEADLINE": JobState.TIMEOUT,
}


def is_valid_transition(old, new):
    return new == old or new in TRANSITIONS[old]


def is_reachable(old, new):
    """True when new can follow old via zero or more valid transitions.

    Polling samples the state machine sparsely, so observed pairs must
    satisfy reachability rather than single-step validity.
    """
    if new == old:
        return True
    frontier = set(TRANSITIONS[old])
    seen = set(frontier)
    while frontier:
        if new in frontier:
            return True
        frontier = {s for state in frontier for s in TRANSITIONS[state]} - seen
        seen |= frontier
    return False


def parse_state_token(token):
    """Map an accounting state token to a JobState.

    Returns None for unmapped tokens; "CANCELLED by <uid>" variants count
    as CANCELLED.
    """
    token = token.strip()
    if token.startswith("CANCELLED"):
        return JobState.CANCELLED
    return _TOKEN_MAP.get(token)


def aggregate_array_states(task_states):
    """Collapse array task states into the parent job's state.

    Any FAILED task fails the parent; the parent completes only when every
    task completed.
    """
    states = list(task_states)
    if not states:
        return JobState.PENDING
    if JobState.FAILED in states:
        return JobState.FAILED
    if JobState.TIMEOUT in states:
        return JobState.TIMEOUT
    if any(not s.terminal for s in states):
        if JobState.RUNNING in states or any(s.terminal for s in states):
            return JobState.RUNNING
        return JobState.PENDING
    if JobState.CANCELLED in states:
        return JobState.CANCELLED
    return JobState.COMPLETED
