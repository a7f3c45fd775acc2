import math

import numpy as np
import pytest

from assemblyforge import staging
from assemblyforge.staging import RadialLayoutProblem, solve_radial_layout

from . import oracles


class TestRadialLayoutProblem:
    def test_validation(self):
        with pytest.raises(staging.StagingError):
            RadialLayoutProblem(np.array([0.0, 1.0]), np.array([0.1]), 1.0)
        with pytest.raises(staging.StagingError):
            RadialLayoutProblem(np.array([0.0]), np.array([-0.1]), 1.0)
        with pytest.raises(staging.StagingError):
            RadialLayoutProblem(np.array([1.0, 0.0]), np.array([0.1, 0.1]), 1.0)
        with pytest.raises(staging.StagingError):
            RadialLayoutProblem(np.array([0.0]), np.array([0.1]), -1.0)

    def test_half_width_formula(self):
        p = RadialLayoutProblem(np.array([0.0]), np.array([0.2]), 1.0)
        assert p.half_widths[0] == pytest.approx(math.asin(0.2 / 1.2))


class TestSolveRadialLayout:
    def test_single_body_keeps_desired_angle(self):
        p = RadialLayoutProblem(np.array([1.3]), np.array([0.5]), 1.0)
        res = solve_radial_layout(p)
        assert res.feasible
        assert res.angles[0] == pytest.approx(1.3)
        assert res.objective == 0.0

    def test_non_conflicting_bodies_unmoved(self):
        p = RadialLayoutProblem(np.array([0.0, math.pi]),
                                np.array([0.2, 0.2]), 1.0)
        res = solve_radial_layout(p)
        assert np.allclose(res.angles, [0.0, math.pi])
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_coincident_pair_splits_symmetrically(self):
        # both want angle 1.0; optimum backs each off by one half width
        delta = math.asin(0.2 / 1.2)
        p = RadialLayoutProblem(np.array([1.0, 1.0]), np.array([0.2, 0.2]), 1.0)
        res = solve_radial_layout(p)
        assert np.allclose(res.angles, [1.0 - delta, 1.0 + delta], atol=1e-12)
        assert res.objective == pytest.approx(2 * delta**2, abs=1e-12)

    def test_infeasible_when_ring_overfull(self):
        p = RadialLayoutProblem(np.array([0.0, 1.0, 2.0]),
                                np.array([10.0, 10.0, 10.0]), 1.0)
        res = solve_radial_layout(p)
        assert not res.feasible
        assert res.angles is None and res.objective == math.inf

    def test_constraints_hold_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            theta = np.sort(rng.uniform(0, 2 * math.pi, n))
            rho = rng.uniform(0.05, 0.4, n)
            p = RadialLayoutProblem(theta, rho, hub_radius=1.5)
            res = solve_radial_layout(p)
            if not res.feasible:
                continue
            d = p.half_widths
            th = res.angles
            for i in range(n - 1):
                assert th[i + 1] - th[i] >= d[i] + d[i + 1] - 1e-9
            assert (th[0] + 2 * math.pi) - th[-1] >= d[-1] + d[0] - 1e-9


    def test_band_search_equals_the_200_pass_reference(self):
        # The band search stops at its fixed point; the angles and cost are
        # bit for bit those of 200 passes, on problems whose band binds
        rng = np.random.default_rng(12)
        binds = 0
        for _ in range(400):
            n = int(rng.integers(2, 14))
            theta = np.sort(rng.uniform(0, 2 * math.pi, n))
            p = RadialLayoutProblem(theta, rng.uniform(0.05, 0.6, n),
                                    hub_radius=float(rng.uniform(0.5, 2.0)))
            if not p.is_feasible():
                continue
            d = p.half_widths
            sep = d + np.roll(d, -1)
            u0 = staging._pava(theta - np.concatenate([[0.0], np.cumsum(sep[:-1])]))
            if u0[-1] - u0[0] <= 2 * math.pi - float(sep.sum()) + 1e-15:
                continue  # the band does not bind: no search
            binds += 1
            got = solve_radial_layout(p)
            want = oracles.solve_radial_layout_reference(p)
            assert got.angles.tobytes() == want.angles.tobytes()
            assert got.objective == want.objective
        assert binds >= 50

class TestLayoutPhase:
    def test_single_ring(self):
        desired = [("a", 0.0, 0.3), ("b", math.pi, 0.3)]
        zones, radius = staging.layout_phase(desired, 1.0, 0.0, 1)
        assert {z.tier for z in zones.values()} == {1}
        for z in zones.values():
            assert np.linalg.norm(z.position) == pytest.approx(1.0 + z.radius)
        assert radius >= 1.6

    def test_tiers_when_ring_overflows(self):
        desired = [(f"c{i}", i * 0.6, 0.5) for i in range(10)]
        zones, radius = staging.layout_phase(desired, 0.5, 0.0, 1)
        assert len(zones) == 10
        assert max(z.tier for z in zones.values()) >= 2
        # outer-tier zones sit on a larger ring
        by_tier = {}
        for z in zones.values():
            by_tier.setdefault(z.tier, []).append(np.linalg.norm(z.position))
        assert min(by_tier[2]) > max(by_tier[1])
        assert radius >= max(np.linalg.norm(z.position) + z.radius for z in zones.values())


class TestBuildStagingPlan:
    @pytest.mark.parametrize("name,robots", [("tractor", 5), ("synthetic", 8)])
    def test_staging_circles_pairwise_disjoint(self, pipeline, tractor_spec,
                                               synthetic_spec, name, robots):
        spec = {"tractor": tractor_spec, "synthetic": synthetic_spec}[name]
        plan = pipeline(spec, name, robots)["plan"]
        staged = sorted(plan.assemblies.items())
        for i in range(len(staged)):
            for j in range(i + 1, len(staged)):
                a, b = staged[i][1], staged[j][1]
                dist = np.linalg.norm(a.center - b.center)
                assert dist >= a.staging_radius + b.staging_radius - 1e-9, (
                    staged[i][0], staged[j][0])

    def test_every_component_has_a_dropoff(self, pipeline, tractor_spec):
        plan = pipeline(tractor_spec, "tractor", 5)["plan"]
        for aid, asm in tractor_spec.assemblies.items():
            st = plan.assemblies[aid]
            for phase in asm.build_phases:
                for cid in phase.member_ids:
                    assert st.dropoffs[cid].phase == phase.index

    def test_dropoffs_inside_staging_circle(self, pipeline, tractor_spec):
        plan = pipeline(tractor_spec, "tractor", 5)["plan"]
        for st in plan.assemblies.values():
            for z in st.dropoffs.values():
                reach = np.linalg.norm(z.position - st.center) + z.radius
                assert reach <= st.staging_radius + 1e-9

    def test_part_sources_outside_all_staging_circles(self, pipeline,
                                                      tractor_spec):
        data = pipeline(tractor_spec, "tractor", 5)
        plan, configs = data["plan"], data["configs"]
        for pid, origin in plan.part_sources.items():
            cfg = configs[pid]
            center = origin + cfg.bounding_circle.center[:2]
            rho = cfg.bounding_circle.radius
            for st in plan.assemblies.values():
                dist = np.linalg.norm(center - st.center)
                assert dist >= st.staging_radius + rho - 1e-9

    def test_json_round_trip(self, pipeline, tractor_spec):
        plan = pipeline(tractor_spec, "tractor", 5)["plan"]
        doc = staging.staging_plan_to_jsonable(plan)
        back = staging.staging_plan_from_jsonable(doc)
        assert staging.staging_plan_to_jsonable(back) == doc

    def test_svg_export(self, pipeline, tractor_spec):
        plan = pipeline(tractor_spec, "tractor", 5)["plan"]
        svg = staging.staging_plan_to_svg(plan)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") >= len(plan.assemblies)
