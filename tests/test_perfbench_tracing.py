import importlib.util
from pathlib import Path

# every traced module is imported before the tracer installs, as
# perfbench/run.py does, so each alias is bound before its target is wrapped
import mdnuq.policy
import mdnuq.synthetic  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_perfbench_tracer_installs_and_restores():
    # entering resolves every name in TARGETS and checks that each alias is
    # the function it wraps, so deleting or rebinding a traced name fails here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer():
        assert hasattr(mdnuq.policy.run_episode, "__wrapped__")
    assert not hasattr(mdnuq.policy.run_episode, "__wrapped__")
