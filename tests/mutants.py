"""Known mutants: defects that earlier versions of the client had and that
the fault sweep must catch. Each is brought back by a monkeypatch that
puts, in place of one function of slurmbridge, a copy of its source with
one piece of text changed; a mutant whose text its function no longer
holds raises at once rather than patching nothing."""

import inspect
import textwrap

from slurmbridge import orchestrator as orch

# name -> (module or class, function name, text of the function, the
# mutant's text in its place)
MUTANTS = {
    # The poll's guard removed: each round's launch reads accounting,
    # brings the results back and removes the run data, whatever squeue
    # would have listed queued.
    "unguarded-poll": (orch._Run, "end", "None if guard else self.job_name, guard)",
                       "None if guard else self.job_name, ())"),
    # The third accounting failure in a row raises out of the run where it
    # should give up and end it.
    "poll-raises": (orch, "_poll", "give_up = AccountingUnavailable(str(exc))", "raise"),
    # The run's finally makes no second teardown when the first one's
    # answer was lost: only the first close of a run makes a launch.
    "one-teardown": (orch._Run, "close", "if self.torn_down:\n        return\n",
                     "if self.torn_down or vars(self).get('closed'):\n        return\n"
                     "    self.closed = True\n"),
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
