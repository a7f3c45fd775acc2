import math

import numpy as np
import pytest

from assemblyforge import geometry, projects, transport

from . import oracles

R = 0.25  # default robot radius


def _square_points(side: float):
    h = side / 2
    return np.array([[sx * h, sy * h, 0.0] for sx in (-1, 1) for sy in (-1, 1)])


class TestFootprintStats:
    def test_unit_square(self):
        stats = transport.footprint_stats(_square_points(1.0), R)
        assert stats.perimeter == pytest.approx(4.0)
        assert stats.short_edges == 0
        assert stats.disk_lower_bound == int(4.0 // (math.pi * R))  # 5
        assert stats.l == pytest.approx(1.0)
        assert stats.w == pytest.approx(1.0)

    def test_short_edges_counted(self):
        # 1 x 0.3 rectangle: the two 0.3 edges are shorter than 2r = 0.5
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 0.3, 0], [0, 0.3, 0.0]])
        stats = transport.footprint_stats(pts, R)
        assert stats.short_edges == 2


class TestTeamSize:
    def test_square_of_side_4r(self):
        stats = transport.footprint_stats(_square_points(4 * R), R)
        assert transport.team_size(stats, R) == 4

    def test_skinny_perimeter_6r(self):
        # width < 2r and perimeter ~6r: one robot suffices
        l = (6 * R - 2 * 0.01) / 2
        pts = np.array([[0, 0, 0], [l, 0, 0], [l, 0.01, 0], [0, 0.01, 0.0]])
        stats = transport.footprint_stats(pts, R)
        assert stats.w < 2 * R
        assert transport.team_size(stats, R) == 1

    def test_tiny_perimeter_below_pi_r(self):
        stats = transport.footprint_stats(_square_points(0.15), R)
        assert stats.perimeter < math.pi * R
        assert transport.team_size(stats, R) == 1


def _score_points(pts):
    """`transport.carry_score` of the point set `pts` as a whole."""
    return transport.carry_score(transport.carry_tables(pts), range(len(pts)))


class TestCarryScore:
    def test_two_point_hand_value(self):
        # consecutive distances [2, 2]: 2 + (0.5/2)*4 + (0.1/4)*2 = 3.05
        score = _score_points([[0, 0], [2, 0]])
        assert score == pytest.approx(3.05)

    def test_rejects_single_point(self):
        with pytest.raises(transport.TransportConfigError):
            _score_points([[0, 0]])

    @pytest.mark.parametrize("grid", [False, True], ids=["uniform", "integer-grid"])
    def test_batch_equals_scalar_loop_bitwise(self, grid):
        # integer grids make many pair distances equal, so min and argmax tie;
        # each batch scores k index sets, in any order, of one table of m
        # points, as the coordinate scorer scores the sets' points
        rng = np.random.default_rng(5)
        for _ in range(300):
            m, k = int(rng.integers(2, 14)), int(rng.integers(1, 30))
            if grid:
                pool = rng.integers(-3, 4, (m, 2)) * 0.25
            else:
                pool = rng.uniform(-3, 3, (m, 2))
            n = int(rng.integers(2, m + 1))
            batch = np.array([rng.choice(m, n, replace=False) for _ in range(k)])
            tables = transport.carry_tables(pool)
            scores = transport.carry_score(tables, batch)
            assert scores.shape == (k,)
            for idx, score in zip(batch, scores):
                expected = oracles.scalar_carry_score(pool[idx])
                assert score == expected
                assert transport.carry_score(tables, idx) == expected
            assert _score_points(pool) == oracles.scalar_carry_score(pool)


class TestSelectCarryPositions:
    def _hexagon(self):
        ang = np.arange(6) * math.pi / 3
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def test_full_team_uses_every_vertex(self):
        verts = self._hexagon()
        out = transport.select_carry_positions(verts, 6)
        assert np.allclose(out, verts)

    def test_alternating_triple_on_hexagon(self):
        verts = self._hexagon()
        out = transport.select_carry_positions(verts, 3)
        dists = sorted(
            np.linalg.norm(out[i] - out[j])
            for i in range(3) for j in range(i + 1, 3)
        )
        assert np.allclose(dists, math.sqrt(3))  # every-other-vertex triangle

    def test_outputs_are_hull_vertices(self):
        rng = np.random.default_rng(2)
        verts = geometry.convex_hull_2d(rng.uniform(-1, 1, (20, 2))).vertices
        out = transport.select_carry_positions(verts, 3, seed=1)
        for p in out:
            assert any(np.allclose(p, v) for v in verts)

    def test_neighbors_equal_scalar_loop(self):
        rng = np.random.default_rng(6)
        for m in range(2, 14):
            for n in range(1, m + 1):
                idxs = tuple(sorted(rng.choice(m, n, replace=False).tolist()))
                got = [tuple(c) for c in transport._neighbors(idxs, m).tolist()]
                assert got == oracles.scalar_neighbors(idxs, m)

    def test_neighbors_equal_unique_rows_bitwise(self):
        # the same rows, order, shape and dtype as deduplicating with
        # np.unique(axis=0); n > 8 runs the coordinate-wise moves
        rng = np.random.default_rng(26)
        for _ in range(600):
            m = int(rng.integers(1, 24))
            n = int(rng.integers(1, min(m, 11) + 1))
            idxs = tuple(sorted(rng.choice(m, n, replace=False).tolist()))
            got, want = transport._neighbors(idxs, m), oracles.unique_neighbors(idxs, m)
            assert got.dtype == want.dtype and got.shape == want.shape, (idxs, m)
            assert np.array_equal(got, want), (idxs, m)

    def test_hill_climb_equals_scalar_loop_bitwise(self):
        # n = 9 runs the coordinate-wise branch; the scalar oracle scans 3^n
        # shifts per sweep, so n = 7 and 8 come up less often; regular
        # polygons tie everywhere
        rng = np.random.default_rng(7)
        team_sizes = (2, 3, 4, 5, 6, 7, 8, 9) + (2, 3, 4, 5, 6, 9) * 2
        hulls = 0
        for i in range(260):
            n = team_sizes[i % len(team_sizes)]
            m = n + int(rng.integers(1, 4))
            if i % 6 == 0:
                ang = np.arange(m) * 2 * math.pi / m
            else:
                ang = np.sort(rng.uniform(0, 2 * math.pi, m))
            radius = rng.uniform(0.5, 2.0, m) if i % 3 == 1 else 1.0
            hull = geometry.convex_hull_2d(
                np.stack([np.cos(ang), np.sin(ang)], axis=1) * np.c_[radius]).vertices
            if len(hull) <= n:
                continue
            hulls += 1
            got = transport.select_carry_positions(hull, n, seed=i)
            expected = oracles.scalar_select_carry_positions(hull, n, seed=i)
            assert np.array_equal(got, expected)
        assert hulls >= 200

    def test_payload_hulls_equal_scalar_loop_bitwise(self):
        # every distinct multi-robot payload hull of the tractor (15 robots)
        # and of the 400-part synthetic project (32 robots), at the seed
        # `plan` uses
        cases = {}
        for spec, fleet in ((projects.tractor_project(), projects.default_fleet(15)),
                            (projects.synthetic_project(0, 16, 25), projects.default_fleet(32))):
            for asm in spec.assemblies.values():
                for cid, _ in asm.components:
                    stats = transport.footprint_stats(transport.payload_points(spec, cid),
                                                      fleet.radius)
                    n = transport.team_size(stats, fleet.radius)
                    hull = stats.hull.vertices
                    if n > 1:
                        cases[(hull.tobytes(), n)] = (hull, n)
        assert len(cases) == 21
        for hull, n in cases.values():
            got = transport.select_carry_positions(hull, n, seed=0)
            assert np.array_equal(got, oracles.scalar_select_carry_positions(hull, n, seed=0))

    def test_invalid_counts(self):
        verts = self._hexagon()
        with pytest.raises(transport.TransportConfigError):
            transport.select_carry_positions(verts, 7)
        with pytest.raises(transport.TransportConfigError):
            transport.select_carry_positions(verts, 1)


class TestSpeedLimit:
    def test_linear_then_clamped(self):
        fleet = projects.default_fleet(3)
        assert transport.speed_limit(0.0, fleet) == fleet.v_max
        mid = transport.speed_limit(1.2, fleet)
        assert mid == pytest.approx(fleet.v_max - 1.2 * fleet.v_factor)
        assert transport.speed_limit(1e6, fleet) == fleet.v_min
        with pytest.raises(transport.TransportConfigError):
            transport.speed_limit(-1.0, fleet)


@pytest.fixture(scope="module")
def tractor_configs():
    spec = projects.tractor_project()
    return spec, transport.configure_all_transport_units(
        spec, projects.default_fleet(5))


class TestConfigureTransportUnit:
    def test_tractor_team_sizes(self, tractor_configs):
        _, configs = tractor_configs
        sizes = {}
        for cid, cfg in configs.items():
            sizes.setdefault(cid.rsplit("@", 1)[0], set()).add(cfg.n)
        assert sizes == {
            "3001.dat": {3}, "3003.dat": {2}, "3004.dat": {1}, "3641.dat": {1},
            "axle_front.ldr": {2}, "axle_rear.ldr": {2}, "cab.ldr": {3},
            "chassis.ldr": {4}, "engine.ldr": {3},
            "wheel_left.ldr": {1}, "wheel_right.ldr": {1},
        }

    def test_multi_robot_carry_positions_on_hull(self, tractor_configs):
        spec, configs = tractor_configs
        cfg = configs["chassis.ldr@1"]
        pts = transport.payload_points(spec, "chassis.ldr@1")
        hull = transport.footprint_stats(pts, R).hull.vertices
        assert cfg.n == 4
        for p in cfg.carry_positions:
            assert any(np.allclose(p, v) for v in hull)

    def test_single_robot_carries_at_sphere_center(self, tractor_configs):
        spec, configs = tractor_configs
        cfg = configs["3004.dat@1"]
        pts = transport.payload_points(spec, "3004.dat@1")
        sphere = geometry.min_enclosing_sphere(pts)
        assert cfg.n == 1
        assert np.allclose(cfg.carry_positions[0], sphere.center[:2])

    def test_bounding_shapes_contain_payload_and_robots(self, tractor_configs):
        spec, configs = tractor_configs
        cfg = configs["cab.ldr@1"]
        pts = transport.payload_points(spec, "cab.ldr@1")
        lift = transport.ROBOT_HEIGHT_FACTOR * R
        carried = pts.copy()
        carried[:, 2] += lift - pts[:, 2].min()
        for p in carried:
            assert oracles.cylinder_contains(cfg.bounding_cylinder, p, tol=1e-6)
            assert oracles.prism_contains(cfg.bounding_prism, p, tol=1e-6)
            assert oracles.circle_contains(cfg.bounding_circle, p[:2], tol=1e-6)
        for c in cfg.carry_positions:
            assert oracles.circle_contains(cfg.bounding_circle, c, tol=R)

    def test_speed_limits_within_bounds(self, tractor_configs):
        _, configs = tractor_configs
        fleet = projects.default_fleet(5)
        for cfg in configs.values():
            assert fleet.v_min <= cfg.speed_limit <= fleet.v_max

    @pytest.mark.parametrize("make_spec", [projects.tractor_project,
                                           lambda: projects.synthetic_project(0)],
                             ids=["tractor", "synthetic"])
    def test_shared_configs_equal_per_component(self, make_spec, monkeypatch):
        spec = make_spec()
        fleet = projects.default_fleet(5)
        computed = []
        configure = transport.configure_transport_unit
        monkeypatch.setattr(transport, "configure_transport_unit",
                            lambda *a, **kw: computed.append(a[1]) or configure(*a, **kw))
        configs = transport.configure_all_transport_units(spec, fleet, seed=3)
        monkeypatch.undo()
        assert len(computed) < len(configs)  # equal payloads were computed once
        for cid, cfg in configs.items():
            alone = transport.configure_transport_unit(spec, cid, fleet, seed=3)
            assert transport.transport_config_to_jsonable(cfg) == \
                transport.transport_config_to_jsonable(alone)

    def test_json_round_trip(self, tractor_configs):
        _, configs = tractor_configs
        cfg = configs["3001.dat@1"]
        back = transport.transport_config_from_jsonable(
            transport.transport_config_to_jsonable(cfg))
        assert back.n == cfg.n
        assert np.allclose(back.carry_positions, cfg.carry_positions)
        assert back.speed_limit == cfg.speed_limit
        assert np.allclose(back.bounding_prism.offsets, cfg.bounding_prism.offsets)
