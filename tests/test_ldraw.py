import numpy as np
import pytest

from assemblyforge import ldraw, model


TABLE = ldraw.load_dimension_table("""
# name  w  d  h (LDU)
3001.dat 80 40 24
3003.dat 40 40 24
""")


SMALL_MPD = """\
0 FILE top.ldr
0 Some comment line
1 16 0 -24 0 1 0 0 0 1 0 0 0 1 3001.dat
0 STEP
1 16 80 0 0 1 0 0 0 1 0 0 0 1 sub.ldr
0 NOFILE
0 FILE sub.ldr
1 16 0 0 0 1 0 0 0 1 0 0 0 1 3003.dat
1 16 40 0 0 1 0 0 0 1 0 0 0 1 3003.dat
"""


class TestDimensionTable:
    def test_parses_and_lowercases(self):
        assert TABLE.get("3001.DAT") == (80, 40, 24)
        assert TABLE.get("missing.dat") is None

    def test_duplicate_warns_last_wins(self):
        t = ldraw.load_dimension_table("a.dat 1 1 1\na.dat 2 2 2\n")
        assert t.get("a.dat") == (2, 2, 2)
        assert any("duplicate" in w for w in t.warnings)

    def test_field_count_error_reports_line(self):
        with pytest.raises(ldraw.LdrawParseError, match="line 2"):
            ldraw.load_dimension_table("a.dat 1 1 1\nb.dat 1 1\n")

    def test_non_numeric_and_non_positive(self):
        with pytest.raises(ldraw.LdrawParseError, match="non-numeric"):
            ldraw.load_dimension_table("a.dat 1 x 1\n")
        with pytest.raises(ldraw.LdrawParseError, match="positive"):
            ldraw.load_dimension_table("a.dat 1 0 1\n")


class TestParseMpd:
    def test_structure_and_phases(self):
        result = ldraw.parse_mpd(SMALL_MPD, TABLE)
        proj = result.project
        assert proj.root == "top.ldr"
        assert set(proj.assemblies) == {"top.ldr", "sub.ldr@1"}
        top = proj.assemblies["top.ldr"]
        assert [p.index for p in top.build_phases] == [1, 2]
        assert top.build_phases[0].member_ids == ("3001.dat@1",)
        assert top.build_phases[1].member_ids == ("sub.ldr@1",)
        assert len(proj.assemblies["sub.ldr@1"].components) == 2
        assert result.report.warnings == []

    def test_axis_and_unit_conversion(self):
        # LDraw y = -24 (up by 24 LDU) becomes world z = +24/80 m
        result = ldraw.parse_mpd(SMALL_MPD, TABLE)
        tf = result.project.assemblies["top.ldr"].transform_of("3001.dat@1")
        assert np.allclose(tf.translation, [0, 0, 24 / 80])
        assert np.allclose(tf.rotation, np.eye(3))
        # x translation passes through unchanged
        tf2 = result.project.assemblies["top.ldr"].transform_of("sub.ldr@1")
        assert np.allclose(tf2.translation, [1.0, 0, 0])

    def test_rotation_conjugation_stays_rigid(self):
        # 90-degree rotation about LDraw's vertical axis
        text = "1 16 0 0 0 0 0 1 0 1 0 -1 0 0 3001.dat\n"
        result = ldraw.parse_mpd(text, TABLE)
        tf = result.project.assemblies["main.ldr"].transform_of("3001.dat@1")
        assert tf.is_rigid()
        # vertical axis maps to world +z and stays fixed
        assert np.allclose(tf.rotation @ np.array([0, 0, 1.0]), [0, 0, 1.0])

    def test_unknown_part_falls_back_to_generic_brick(self):
        result = ldraw.parse_mpd("1 16 0 0 0 1 0 0 0 1 0 0 0 1 weird.dat\n", TABLE)
        assert any("generic" in w for w in result.report.warnings)
        geom = result.project.parts_catalog["weird.dat@1"]
        spans = geom.vertices.max(axis=0) - geom.vertices.min(axis=0)
        assert tuple(spans) == ldraw.GENERIC_BRICK_LDU

    def test_geometry_lines_skipped(self):
        text = SMALL_MPD + "3 16 0 0 0 1 0 0 0 1 0\n4 16 0 0 0 1 0 0 0 1 0 0 0 1\n"
        result, plain = ldraw.parse_mpd(text, TABLE), ldraw.parse_mpd(SMALL_MPD, TABLE)
        assert result.report == plain.report
        assert model.project_to_jsonable(result.project) == model.project_to_jsonable(
            plain.project)

    def test_malformed_type1_errors(self):
        with pytest.raises(ldraw.LdrawParseError, match="14 numeric fields"):
            ldraw.parse_mpd("1 16 0 0 0 1\n", TABLE)
        with pytest.raises(ldraw.LdrawParseError, match="malformed numeric"):
            ldraw.parse_mpd("1 16 x 0 0 1 0 0 0 1 0 0 0 1 3001.dat\n", TABLE)

    def test_unknown_line_type_errors(self):
        with pytest.raises(ldraw.LdrawParseError, match="unknown line type"):
            ldraw.parse_mpd("9 nonsense\n", TABLE)

    def test_empty_input_errors(self):
        with pytest.raises(ldraw.LdrawParseError, match="no model content"):
            ldraw.parse_mpd("0 just a comment\n", TABLE)

    def test_repeated_subfile_gets_distinct_instances(self):
        text = ("0 FILE top.ldr\n"
                "1 16 0 0 0 1 0 0 0 1 0 0 0 1 sub.ldr\n"
                "1 16 80 0 0 1 0 0 0 1 0 0 0 1 sub.ldr\n"
                "0 FILE sub.ldr\n"
                "1 16 0 0 0 1 0 0 0 1 0 0 0 1 3001.dat\n")
        proj = ldraw.parse_mpd(text, TABLE).project
        assert {"sub.ldr@1", "sub.ldr@2"} <= set(proj.assemblies)
        assert {"3001.dat@1", "3001.dat@2"} <= set(proj.parts_catalog)
