"""Known mutants: defects that earlier versions of the client had and that
the fault sweep must catch. Each is brought back by a monkeypatch that
puts, in place of one function of slurmbridge, a copy of its source with
one piece of text changed; a mutant whose text its function no longer
holds raises at once rather than patching nothing."""

import inspect
import textwrap

from slurmbridge import orchestrator as orch
from slurmbridge import slurm

# name -> (module or class, function name, text of the function, the
# mutant's text in its place)
MUTANTS = {
    # The poll's guard removed: each round's launch reads accounting,
    # brings the results back and removes the run data, whatever squeue
    # would have listed queued.
    "unguarded-poll": (orch._Run, "end", "self.paths, not guard, guard)",
                       "self.paths, not guard, ())"),
    # The third accounting failure in a row raises out of the run where it
    # should give up and end it.
    "poll-raises": (orch, "_poll", "give_up = AccountingUnavailable(str(exc))", "raise"),
    # A teardown whose answer was lost is not made again: each close of a
    # run makes one launch.
    "one-teardown": (orch._Run, "close", "for _ in range(3):", "for _ in range(1):"),
    # The launch that ends a run cancels no job of its name, as the
    # retrieval launch once skipped scancel when every batch read completed.
    "uncancelled-ending": (orch._Run, "end", "self.paths, not guard, guard)",
                           "self.paths, False, guard)"),
    # An accounting line that names no job id is read with int(), which
    # raises ValueError out of the run.
    "int-of-unreadable-line": (
        slurm, "job_states",
        'jobs[None] = (None, UnparseableJobId(f"unreadable accounting line: {unreadable!r}"))',
        'jobs[None] = (None, int(unreadable.split("|")[0]))'),
    # A live job that accounting never lists is polled until it does, or
    # for ever.
    "unlisted-polled-for-ever": (orch._Run, "settle", "state is None and not gone and lost is None",
                                 "state is None and lost is None"),
    # A lost submission answer fails every batch, though its jobs may be
    # queued.
    "lost-submission-fails-all": (
        orch, "_submit", "run.live.update(dict.fromkeys(keys, TransferFailed(str(exc))))",
        "[_fail(batch, TransferFailed(str(exc))) for batch in queued]"),
}


def mutate(monkeypatch, name):
    """Patch in the named mutant through monkeypatch."""
    owner, function, text, mutant = MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(getattr(owner, function)))
    if source.count(text) != 1:
        raise LookupError(f"{name}: {function} no longer holds {text!r} once")
    module = inspect.getmodule(owner)
    # A copy of the module's globals, so that defining the mutant adds no
    # name to the module itself.
    namespace = dict(vars(module))
    exec(compile(source.replace(text, mutant), module.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, function, namespace[function])
