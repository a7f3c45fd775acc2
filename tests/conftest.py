import pytest

from assemblyforge import allocation, model, projects, schedule, staging, transport


@pytest.fixture(scope="session")
def params():
    return model.PlanParams(buffer_radius=0.25)


@pytest.fixture(scope="session")
def tractor_spec():
    return projects.tractor_project()


@pytest.fixture(scope="session")
def toy_spec():
    return projects.toy_project()


@pytest.fixture(scope="session")
def synthetic_spec():
    return projects.synthetic_project()


class Pipeline:
    """Cached plan -> partial schedule -> greedy chain for (project, robots)."""

    def __init__(self, params):
        self.params = params
        self._cache = {}

    def __call__(self, spec, name: str, robots: int):
        key = (name, robots)
        if key not in self._cache:
            fleet = projects.default_fleet(robots)
            configs = transport.configure_all_transport_units(spec, fleet)
            plan = staging.build_staging_plan(spec, configs, self.params)
            graph = schedule.build_partial_schedule(spec, plan, configs, fleet,
                                                    self.params)
            greedy = allocation.greedy_pccf(graph, fleet)
            self._cache[key] = {
                "fleet": fleet, "configs": configs, "plan": plan,
                "graph": graph, "greedy": greedy,
            }
        return self._cache[key]


@pytest.fixture(scope="session")
def pipeline(params):
    return Pipeline(params)
