import json
import math
import sys

import numpy as np
import pytest

from assemblyforge import model, projects
from assemblyforge.model import (
    Assembly, BuildPhase, PartGeometry, PlanParams, ProjectError, ProjectSpec,
    RobotFleet, Transform,
)

from . import oracles


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
        b = Transform(np.eye(3), [1.0, -2.0, 0.5])
        p = rng.normal(size=(5, 3))
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)))

    def test_identity_and_rigidity(self):
        assert Transform.identity().is_rigid()
        assert not Transform(2 * np.eye(3), np.zeros(3)).is_rigid()
        reflect = np.diag([1.0, 1.0, -1.0])
        assert not Transform(reflect, np.zeros(3)).is_rigid()
        for entry in (math.inf, math.nan, 1e300):  # without an overflow warning
            rotation = np.eye(3)
            rotation[0, 0] = entry
            assert not Transform(rotation, np.zeros(3)).is_rigid()

    def test_json_round_trip(self):
        tf = Transform(np.eye(3), [0.1, 0.2, 0.3])
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

    def test_part_named_like_an_assembly(self):
        spec = _simple_spec(parts_catalog={"p": _box_part(), "root": _box_part()})
        assert [str(v) for v in model.validate_project(spec)] == [
            "[part-or-assembly] root: names both a part and an assembly"]

    def test_bad_part_geometry(self):
        spec = _simple_spec(parts_catalog={
            "p": PartGeometry(np.array([[math.inf, 0, 0]]), units_per_meter=-1.0)
        })
        rules = {v.rule for v in model.validate_project(spec)}
        assert {"geometry-finite", "geometry-scale"} <= rules

    @pytest.mark.parametrize("x,units_per_meter,flagged", [
        (1e300, 80.0, True),
        (math.nextafter(model.MAX_COORDINATE_M, math.inf), 1.0, True),
        (-math.nextafter(model.MAX_COORDINATE_M, math.inf), 1.0, True),
        (1.0, 1e-101, True),  # the bound is in meters
        (model.MAX_COORDINATE_M, 1.0, False),
        (1e150, 1e50, False),
    ], ids=["1e300-units", "past-bound", "past-negative-bound", "small-scale", "at-bound",
            "large-scale"])
    def test_vertex_bound(self, x, units_per_meter, flagged):
        spec = _simple_spec(parts_catalog={
            "p": PartGeometry(np.array([[x, 0, 0], [0, 1, 0], [0, 0, 1.0]]), units_per_meter)
        })
        got = [str(v) for v in model.validate_project(spec)]
        assert got == (["[geometry-finite] p: part has a vertex beyond 1e+100 m"] if flagged
                       else [])

    @pytest.mark.parametrize("outer,inner,flagged", [
        (1e300, 0.0, ["p@outer"]),
        (math.nextafter(model.MAX_COORDINATE_M, math.inf), 0.0, ["p@outer"]),
        (-math.nextafter(model.MAX_COORDINATE_M, math.inf), 0.0, ["p@outer"]),
        (math.nan, 0.0, ["p@outer"]),
        (0.6e100, 0.6e100, ["p"]),  # each within the bound, composed beyond it
        (model.MAX_COORDINATE_M, 0.0, []),
        (1e300, -1e300, ["p@outer"]),  # flagged once, at the top of its subtree
    ], ids=["1e300", "past-bound", "past-negative-bound", "nan", "composed", "at-bound",
            "back-in"])
    def test_translation_bound(self, outer, inner, flagged):
        sub = Assembly("sub", (("p", Transform(np.eye(3), [inner, 0, 0])),),
                       (BuildPhase(1, ("p",)),))
        root = Assembly("root", (("sub", Transform(np.eye(3), [outer, 0, 0])),),
                        (BuildPhase(1, ("sub",)),))
        spec = _simple_spec(assemblies={"root": root, "sub": sub})
        got = [str(v) for v in model.validate_project(spec)]
        placed = {"p@outer": "[transform-bounded] sub: placed beyond 1e+100 m by root",
                  "p": "[transform-bounded] p: placed beyond 1e+100 m by sub"}
        assert got == [placed[f] for f in flagged]


class TestRobotFleet:
    def test_spacing_enforced(self):
        with pytest.raises(ProjectError, match="closer than 2r"):
            RobotFleet(2, 0.25, 1.0, 0.1, 0.5,
                       np.array([[0, 0], [0.4, 0]]))

    @pytest.mark.parametrize("n,spacing", [(6, 0.2), (40, 0.499999998), (200, 0.3),
                                           (1200, 0.45)])
    def test_spacing_names_the_first_close_pair(self, n, spacing):
        # several pairs collide; the message names the first in row-major
        # order, as the pair loop found it
        rng = np.random.default_rng(n)
        pos = model.sample_grid_positions(n, spacing=1.0, seed=n)
        for _ in range(5):
            i, j = rng.choice(n, 2, replace=False)
            pos[j] = pos[i] + [spacing, 0.0]
        want = oracles.close_starts_reference(pos, 0.25)
        assert want is not None
        with pytest.raises(ProjectError) as err:
            RobotFleet(n, 0.25, 1.0, 0.1, 0.5, pos)
        assert str(err.value) == "initial positions %d and %d closer than 2r" % want

    def test_spacing_slack(self):
        RobotFleet(2, 0.25, 1.0, 0.1, 0.5, [[0.0, 0.0], [0.5 - 5e-10, 0.0]])
        with pytest.raises(ProjectError, match="initial positions 0 and 1 closer than 2r"):
            RobotFleet(2, 0.25, 1.0, 0.1, 0.5, [[0.0, 0.0], [0.5 - 2e-9, 0.0]])

    @pytest.mark.parametrize("radius,flagged", [
        (1e300, True), (math.nextafter(model.MAX_COORDINATE_M, math.inf), True),
        (model.MAX_COORDINATE_M, False)], ids=["1e300", "past-bound", "at-bound"])
    def test_radius_bound(self, radius, flagged):
        if flagged:
            with pytest.raises(ProjectError, match=r"^robot radius must be at most 1e\+100 m$"):
                RobotFleet(1, radius, 1.0, 0.1, 0.5, [[0.0, 0.0]])
        else:
            RobotFleet(1, radius, 1.0, 0.1, 0.5, [[0.0, 0.0]])

    @pytest.mark.parametrize("x,flagged", [
        (1e300, True), (math.nextafter(model.MAX_COORDINATE_M, math.inf), True),
        (-math.nextafter(model.MAX_COORDINATE_M, math.inf), True),
        (model.MAX_COORDINATE_M, False), (-model.MAX_COORDINATE_M, False)],
        ids=["1e300", "past-bound", "past-negative-bound", "at-bound", "at-negative-bound"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_start_bound(self, x, flagged, axis):
        pos = np.zeros((2, 2))
        pos[1, axis] = x
        if flagged:
            with pytest.raises(ProjectError, match="initial position coordinates must be at "
                                                   r"most 1e\+100 m$"):
                RobotFleet(2, 0.25, 1.0, 0.1, 0.5, pos)
        else:
            RobotFleet(2, 0.25, 1.0, 0.1, 0.5, pos)

    def test_speed_bound(self):
        with pytest.raises(ProjectError, match=r"^v_max must be at most 1e\+30 m/s$"):
            RobotFleet(1, 0.25, math.nextafter(model.MAX_SIM_SCALE, math.inf), 0.1, 0.5,
                       [[0.0, 0.0]])
        RobotFleet(1, 0.25, model.MAX_SIM_SCALE, 0.1, 0.5, [[0.0, 0.0]])

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
        with pytest.raises(ProjectError, match="rvo_horizon must be positive"):
            PlanParams(rvo_horizon=0.0)
        with pytest.raises(ProjectError, match="boundary_tol must be non-negative"):
            PlanParams(boundary_tol=-0.1)
        with pytest.raises(ProjectError, match="buffer_radius must be at most 1e"):
            PlanParams(buffer_radius=math.nextafter(model.MAX_COORDINATE_M, math.inf))
        PlanParams(buffer_radius=model.MAX_COORDINATE_M)
        PlanParams(boundary_tol=0.0)  # the boundary mode fires on the circle only
        with pytest.raises(ProjectError, match=r"^dt_sim must be at most 1e\+30 s$"):
            PlanParams(dt_sim=math.nextafter(model.MAX_SIM_SCALE, math.inf))
        PlanParams(dt_sim=model.MAX_SIM_SCALE)

    @pytest.mark.parametrize("field", ["dt_sim", "rvo_horizon"])
    def test_time_lower_bound(self, field):
        least = 1 / model.MAX_SIM_SCALE
        with pytest.raises(ProjectError, match=f"^{field} must be at least 1e-30 s$"):
            PlanParams(**{field: math.nextafter(least, 0.0)})
        PlanParams(**{field: least})

    @pytest.mark.parametrize("seed", [-1, 0.5, 1e300, True, None])
    def test_seed_is_a_whole_number(self, seed):
        with pytest.raises(ProjectError) as err:
            PlanParams(seed=seed)
        assert str(err.value) == f"seed must be a whole number >= 0, got {seed!r}"
        assert PlanParams(seed=10**400).seed == 10**400  # numpy's generators take any

    @pytest.mark.parametrize("field", ["buffer_radius", "dt_sim", "planning_radius",
                                       "rvo_horizon", "stuck_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ProjectError, match=f"{field} must be finite"):
            PlanParams(**{field: value})


class TestProjectJson:
    def test_round_trip(self):
        spec = projects.tractor_project()
        fleet = projects.default_fleet(5)
        params = PlanParams(buffer_radius=0.25)
        text = json.dumps(model.project_to_jsonable(spec, fleet, params))
        spec2, fleet2, params2 = model.project_from_jsonable(json.loads(text))
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


class TestJsonNumbers:
    def test_int_beyond_the_float_range_is_no_float(self):
        # json.loads returns an integer literal of any length as an int
        top = int(sys.float_info.max)
        assert model.is_a(top, float) and model.is_finite(-top)
        for huge in (top + 1, -top - 1, 10**400):
            assert not model.is_a(huge, float) and not model.is_finite(huge)
            assert model.is_a(huge, int)
        assert not model.is_a(True, float) and not model.is_finite(math.nan)

    def test_float_array_names_a_huge_int(self):
        assert model.float_array([[1, 2.5]], "pose").tolist() == [[1.0, 2.5]]
        with pytest.raises(TypeError, match="pose holds an int beyond the float range"):
            model.float_array([[0.0, 10**400]], "pose")


class TestSampleGrid:
    def test_deterministic_and_spaced(self):
        a = model.sample_grid_positions(8, spacing=1.0, seed=7)
        b = model.sample_grid_positions(8, spacing=1.0, seed=7)
        assert np.array_equal(a, b)
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(a[i] - a[j]) >= 1.0 - 1e-9
