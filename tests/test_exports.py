"""The package's public names."""

import lifelong_bandits


def test_star_import_binds_every_name_in_all():
    names = lifelong_bandits.__all__
    assert len(set(names)) == len(names), "__all__ lists a name twice"
    missing = [name for name in names if not hasattr(lifelong_bandits, name)]
    assert not missing, f"__all__ names what the package lacks: {missing}"
    namespace = {}
    exec("from lifelong_bandits import *", namespace)
    for name in names:
        assert namespace[name] is getattr(lifelong_bandits, name)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_tracer_only_names_stay_out_of_all():
    # no runner calls them; their modules keep them for perfbench's tracer
    for name in ("GpUcb", "client_fit", "design_from_tasks", "recovery_trial"):
        assert name not in lifelong_bandits.__all__
