"""Job lifecycle states, and how accounting state tokens and array task
states map onto them."""

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
