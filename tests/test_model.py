import math

import numpy as np
import pytest

from assemblyforge import model, projects
from assemblyforge.model import (
    Assembly, BuildPhase, PartGeometry, PlanParams, ProjectError, ProjectSpec,
    RobotFleet, Transform,
)


def _box_part():
    return PartGeometry(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]]))


def _simple_spec(**overrides):
    assemblies = {
        "root": Assembly(
            id="root",
            components=(("p", Transform.identity()),),
            build_phases=(BuildPhase(1, ("p",)),),
        )
    }
    base = {"assemblies": assemblies, "root": "root", "parts_catalog": {"p": _box_part()}}
    base.update(overrides)
    return ProjectSpec(**base)


class TestTransform:
    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        a = Transform(q, rng.normal(size=3))
        b = Transform.translate(1.0, -2.0, 0.5)
        p = rng.normal(size=(5, 3))
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)))

    def test_identity_and_rigidity(self):
        assert Transform.identity().is_rigid()
        assert not Transform(2 * np.eye(3), np.zeros(3)).is_rigid()
        reflect = np.diag([1.0, 1.0, -1.0])
        assert not Transform(reflect, np.zeros(3)).is_rigid()

    def test_json_round_trip(self):
        tf = Transform.translate(0.1, 0.2, 0.3)
        back = Transform.from_jsonable(tf.to_jsonable())
        assert np.allclose(back.rotation, tf.rotation)
        assert np.allclose(back.translation, tf.translation)


class TestValidateProject:
    def test_valid_project_has_no_violations(self):
        assert model.validate_project(_simple_spec()) == []

    def test_bundled_projects_valid(self):
        for spec in (projects.toy_project(), projects.tractor_project(),
                     projects.synthetic_project()):
            assert model.validate_project(spec) == []

    def test_missing_root(self):
        spec = _simple_spec(root="nope")
        rules = {v.rule for v in model.validate_project(spec)}
        assert rules == {"root-exists"}

    def test_undefined_child_and_duplicate(self):
        asm = Assembly("root",
                       (("ghost", Transform.identity()),
                        ("ghost", Transform.identity())),
                       (BuildPhase(1, ("ghost",)),))
        spec = ProjectSpec({"root": asm}, "root", {})
        rules = [v.rule for v in model.validate_project(spec)]
        assert "child-exists" in rules
        assert "unique-child" in rules

    def test_non_rigid_transform(self):
        asm = Assembly("root", (("p", Transform(3 * np.eye(3), np.zeros(3))),),
                       (BuildPhase(1, ("p",)),))
        spec = ProjectSpec({"root": asm}, "root", {"p": _box_part()})
        assert "rigid-transform" in {v.rule for v in model.validate_project(spec)}

    def test_phase_partition_violations(self):
        asm = Assembly("root",
                       (("p", Transform.identity()), ("q", Transform.identity())),
                       (BuildPhase(1, ("p", "p")),))
        spec = ProjectSpec({"root": asm}, "root",
                           {"p": _box_part(), "q": _box_part()})
        rules = [v.rule for v in model.validate_project(spec)]
        assert rules.count("phase-partition") >= 2  # q missing, p repeated

    def test_empty_and_noncontiguous_phases(self):
        asm = Assembly("root", (("p", Transform.identity()),),
                       (BuildPhase(2, ("p",)), BuildPhase(3, ())))
        spec = ProjectSpec({"root": asm}, "root", {"p": _box_part()})
        rules = {v.rule for v in model.validate_project(spec)}
        assert "phase-order" in rules
        assert "phase-nonempty" in rules

    def test_multi_parent_and_unreachable(self):
        shared = Assembly("shared", (("p", Transform.identity()),),
                          (BuildPhase(1, ("p",)),))
        a = Assembly("a", (("shared", Transform.identity()),),
                     (BuildPhase(1, ("shared",)),))
        root = Assembly("root", (("a", Transform.identity()),
                                 ("shared", Transform.identity())),
                        (BuildPhase(1, ("a", "shared")),))
        orphan = Assembly("orphan", (("p", Transform.identity()),),
                          (BuildPhase(1, ("p",)),))
        spec = ProjectSpec({"root": root, "a": a, "shared": shared,
                            "orphan": orphan},
                           "root", {"p": _box_part()})
        rules = {v.rule for v in model.validate_project(spec)}
        assert "single-parent" in rules
        assert "reachable" in rules

    def test_bad_part_geometry(self):
        spec = _simple_spec(parts_catalog={
            "p": PartGeometry(np.array([[math.inf, 0, 0]]), units_per_meter=-1.0)
        })
        rules = {v.rule for v in model.validate_project(spec)}
        assert {"geometry-finite", "geometry-scale"} <= rules


class TestFlatten:
    def test_order_and_world_transforms(self):
        inner = Assembly("inner", (("p", Transform.translate(0, 0, 1)),),
                         (BuildPhase(1, ("p",)),))
        root = Assembly("root",
                        (("q", Transform.identity()),
                         ("inner", Transform.translate(5, 0, 0))),
                        (BuildPhase(1, ("inner",)), BuildPhase(2, ("q",))))
        spec = ProjectSpec({"root": root, "inner": inner}, "root",
                           {"p": _box_part(), "q": _box_part()})
        flat = model.flatten_components(spec)
        assert [(f.component_id, f.parent_id, f.phase_index) for f in flat] == [
            ("inner", "root", 1), ("p", "inner", 1), ("q", "root", 2)]
        assert np.allclose(flat[1].world_transform.translation, [5, 0, 1])

    def test_raises_on_invalid(self):
        with pytest.raises(ProjectError):
            model.flatten_components(_simple_spec(root="nope"))


class TestRobotFleet:
    def test_spacing_enforced(self):
        with pytest.raises(ProjectError, match="closer than 2r"):
            RobotFleet(2, 0.25, 1.0, 0.1, 0.5,
                       np.array([[0, 0], [0.4, 0]]))

    def test_velocity_and_count_validation(self):
        with pytest.raises(ProjectError):
            RobotFleet(1, 0.25, 1.0, 2.0, 0.5, np.array([[0, 0]]))
        with pytest.raises(ProjectError):
            RobotFleet(2, 0.25, 1.0, 0.1, 0.5, np.array([[0, 0]]))
        with pytest.raises(ProjectError, match="at least 1"):
            RobotFleet(0, 0.25, 1.0, 0.1, 0.5, np.zeros((0, 2)))

    @pytest.mark.parametrize("args", [
        (math.inf, 1.0, 0.1, 0.5), (0.25, math.inf, 0.1, 0.5), (0.25, 1.0, math.nan, 0.5),
        (0.25, 1.0, 0.1, math.nan)], ids=["radius", "v_max", "v_min", "v_factor"])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ProjectError, match="must be finite"):
            RobotFleet(1, *args, np.array([[0.0, 0.0]]))

    def test_non_finite_position_rejected(self):
        with pytest.raises(ProjectError, match="must be finite"):
            RobotFleet(2, 0.25, 1.0, 0.1, 0.5, np.array([[0.0, 0.0], [math.nan, 1.0]]))

    def test_default_fleet_valid(self):
        for n in (1, 5, 15):
            fleet = projects.default_fleet(n)
            assert fleet.count == n
            pos = fleet.initial_positions
            for i in range(n):
                for j in range(i + 1, n):
                    assert np.linalg.norm(pos[i] - pos[j]) >= 2 * fleet.radius - 1e-9


class TestPlanParams:
    def test_validation(self):
        with pytest.raises(ProjectError):
            PlanParams(dt_sim=0.0)
        with pytest.raises(ProjectError):
            PlanParams(duration_form=-1.0)
        with pytest.raises(ProjectError):
            PlanParams(buffer_radius=-0.1)

    @pytest.mark.parametrize("field", ["buffer_radius", "dt_sim", "planning_radius",
                                       "rvo_horizon", "stuck_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ProjectError, match=f"{field} must be finite"):
            PlanParams(**{field: value})


class TestProjectJson:
    def test_round_trip(self, tmp_path):
        spec = projects.tractor_project()
        fleet = projects.default_fleet(5)
        params = projects.default_params(buffer_radius=0.25)
        path = tmp_path / "project.json"
        model.save_project(path, spec, fleet, params)
        spec2, fleet2, params2 = model.load_project(path)
        assert model.project_to_jsonable(spec2) == model.project_to_jsonable(spec)
        assert params2 == params
        assert fleet2.count == fleet.count
        assert np.allclose(fleet2.initial_positions, fleet.initial_positions)

    def test_optional_sections(self):
        spec = _simple_spec()
        doc = model.project_to_jsonable(spec)
        assert "fleet" not in doc and "params" not in doc
        spec2, fleet2, params2 = model.project_from_jsonable(doc)
        assert fleet2 is None and params2 is None
        assert model.validate_project(spec2) == []


class TestSampleGrid:
    def test_deterministic_and_spaced(self):
        a = model.sample_grid_positions(8, spacing=1.0, seed=7)
        b = model.sample_grid_positions(8, spacing=1.0, seed=7)
        assert np.array_equal(a, b)
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(a[i] - a[j]) >= 1.0 - 1e-9
