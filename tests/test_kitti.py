"""Byte-exact label / calibration / odometry parsing and difficulty binning."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import scalar_label_file
from camperturb import (
    CamPerturbError,
    DifficultyBin,
    ExtrinsicPerturbation,
    MalformedLine,
    MissingKey,
    NonFiniteValue,
    NotARotation,
    ObjectLabel,
    difficulty_of,
    parse_calib_file,
    parse_label_file,
    parse_odometry_poses,
    perturbation_matrix,
    write_label_file,
)
from camperturb import kitti
from camperturb.kitti import _bins_of, _table_of

GOLDEN_LINE = (
    b"Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 "
    b"1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
)

GOLDEN_CALIB = b"P2: 700 0 600 0 0 700 180 0 0 0 1 0\n"


def make_label(**overrides) -> ObjectLabel:
    fields = dict(
        class_name="Car",
        truncated=0.0,
        occluded=0,
        alpha=-1.58,
        bbox_left=587.01,
        bbox_top=173.33,
        bbox_right=614.12,
        bbox_bottom=200.12,
        height=1.65,
        width=1.67,
        length=3.64,
        x=-0.65,
        y=1.71,
        z=46.70,
        rotation_y=-1.59,
        score=None,
    )
    fields.update(overrides)
    return ObjectLabel(**fields)


class TestParseLabelFile:
    def test_golden_line(self):
        labels = parse_label_file(GOLDEN_LINE)
        assert len(labels) == 1
        lab = labels[0]
        assert lab.class_name == "Car"
        assert lab.truncated == 0.0
        assert lab.occluded == 0
        assert lab.alpha == -1.58
        assert (lab.bbox_left, lab.bbox_top, lab.bbox_right, lab.bbox_bottom) == (
            587.01,
            173.33,
            614.12,
            200.12,
        )
        assert (lab.height, lab.width, lab.length) == (1.65, 1.67, 3.64)
        assert (lab.x, lab.y, lab.z) == (-0.65, 1.71, 46.70)
        assert lab.rotation_y == -1.59
        assert lab.score is None

    def test_sixteen_field_line_carries_score(self):
        labels = parse_label_file(GOLDEN_LINE + b" 0.87")
        assert labels[0].score == 0.87

    def test_empty_input(self):
        assert parse_label_file(b"") == []

    def test_blank_lines_skipped(self):
        labels = parse_label_file(GOLDEN_LINE + b"\n\n" + GOLDEN_LINE + b"\n")
        assert len(labels) == 2

    def test_fourteen_fields_rejected(self):
        truncated_line = b" ".join(GOLDEN_LINE.split()[:14])
        with pytest.raises(MalformedLine) as exc:
            parse_label_file(truncated_line)
        assert "line 1" in str(exc.value)
        assert "14" in str(exc.value)

    def test_error_reports_line_number(self):
        data = GOLDEN_LINE + b"\n" + b"Car one 0 0 0 0 1 1 1 1 1 0 0 0 0"
        with pytest.raises(MalformedLine) as exc:
            parse_label_file(data)
        assert "line 2" in str(exc.value)

    def test_non_integer_occlusion_rejected(self):
        bad = GOLDEN_LINE.replace(b" 0 ", b" 0.5 ", 1)
        with pytest.raises(MalformedLine):
            parse_label_file(bad)

    def test_nan_field_rejected(self):
        bad = GOLDEN_LINE.replace(b"46.70", b"nan")
        with pytest.raises(NonFiniteValue):
            parse_label_file(bad)

    def test_dontcare_sentinels_accepted(self):
        line = b"DontCare -1 -1 -10 100.0 120.0 180.0 160.0 -1 -1 -1 -1000 -1000 -1000 -10"
        labels = parse_label_file(line)
        assert labels[0].class_name == "DontCare"
        assert labels[0].height == -1.0

    def test_never_crashes_on_arbitrary_bytes(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 120), dtype=np.uint8))
            try:
                parse_label_file(blob)
            except CamPerturbError:
                pass


def parse_outcome(parse, data: bytes):
    """What ``parse(data)`` gives: the labels, or the error's type, text and line."""
    try:
        return parse(data)
    except CamPerturbError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


GOOD = GOLDEN_LINE.decode()
DONTCARE = "DontCare -1 -1 -10 100.0 120.0 180.0 160.0 -1 -1 -1 -1000 -1000 -1000 -10"


def with_field(line: str, index: int, token: str) -> str:
    tokens = line.split()
    tokens[index] = token
    return " ".join(tokens)


#: Single-line mutations: (field index in the line, token).  Index 0 is the class.
FIELD_MUTATIONS = [
    (1, "abc"), (5, "1.2.3"), (14, "--1"), (3, "nan"), (9, "inf"), (13, "-inf"), (7, "NaN"),
    (2, "1.5"), (2, "-0"), (2, "1e0"), (2, "4"), (2, "-1"), (2, "3"), (2, "inf"),
    (1, "-0.01"), (1, "1.01"), (1, "1"), (3, "3.15"), (3, "-3.15"), (3, "3.141592653589793"),
    (14, "3.2"), (14, "-3.1416"), (8, "0"), (9, "-1"), (10, "0.0"), (11, "-0.0"), (9, "5e-324"),
    (6, "587.01"), (6, "500"), (7, "173.33"), (7, "100"), (12, "1e308"), (12, "1e309"),
    (4, "1_000"), (4, "0x10"), (4, "١٢"),
]


class TestLabelParserMatchesScalarOracle:
    """The columnar parser against the field-at-a-time oracle: the same
    labels, or the same error type, message and line number."""

    def check(self, data: bytes):
        expected = parse_outcome(scalar_label_file, data)
        assert parse_outcome(parse_label_file, data) == expected
        return expected

    @pytest.mark.parametrize("index, token", FIELD_MUTATIONS)
    @pytest.mark.parametrize("base", [GOOD, GOOD + " 0.5", DONTCARE, DONTCARE + " 0.5"])
    def test_one_mutated_field(self, base, index, token):
        self.check(f"{GOOD}\n{with_field(base, index, token)}\n{base}\n".encode())

    @pytest.mark.parametrize("score", ["0.5", "nan", "inf", "x", "1e999", "-3"])
    def test_score_field(self, score):
        self.check(f"{GOOD} {score}\n".encode())

    @pytest.mark.parametrize("count", [1, 2, 14, 17, 30])
    def test_wrong_field_count(self, count):
        line = " ".join((GOOD.split() * 3)[:count])
        assert self.check(f"{GOOD}\n{line}\n".encode())[2] == 2

    def test_fifteen_and_sixteen_fields_mix(self):
        labels = self.check(f"{GOOD} 0.25\n{GOOD}\n{DONTCARE} 0.5\n{DONTCARE}\n".encode())
        assert [label.score for label in labels] == [0.25, None, 0.5, None]

    def test_dontcare_is_exempt_from_range_rules_only(self):
        exempt = "DontCare 5 7 9 100 120 180 160 0 -2 -1 -1000 -1000 -1000 -10"
        assert self.check(exempt.encode())[0].occluded == 7
        for bad in ("DontCare 5 7.5 9 100 120 180 160 0 -2 -1 -1000 -1000 -1000 -10",
                    "DontCare 5 7 9 180 120 100 160 0 -2 -1 -1000 -1000 -1000 -10",
                    "DontCare 5 7 9 100 120 180 160 0 -2 nan -1000 -1000 -1000 -10"):
            assert self.check(bad.encode())[2] == 1

    @pytest.mark.parametrize("data", [
        b"", b"\n\n", b"   \n\t\n", f"\n{GOOD}\n \n{GOOD}".encode(),
        f"{GOOD}\r\n{GOOD} 0.5\r\n".encode(), f"{GOOD}\r{GOOD}\x0b{GOOD}\x1c".encode(),
        f"{GOOD}\r\n\r\n{with_field(GOOD, 3, 'nan')}\r\n".encode(),
    ])
    def test_blank_lines_and_line_endings(self, data):
        self.check(data)

    @pytest.mark.parametrize("data", [
        b"\xff",
        GOLDEN_LINE + b"\n\xc3(\n",
        f"Car 0 0\n{GOOD}\n".encode() + b"\xfe\n",
    ])
    def test_invalid_utf8_comes_first(self, data):
        assert "not valid UTF-8" in self.check(data)[1]

    @pytest.mark.parametrize("first, second", [
        ((3, "nan"), (1, "abc")), ((1, "abc"), (3, "nan")), ((2, "1.5"), (6, "1")),
        ((6, "1"), (2, "1.5")), ((8, "-1"), "Car 0 0"), ("Car 0 0", (8, "-1")),
        ((14, "4"), (4, "x")), ((4, "x"), (14, "4")),
    ])
    def test_two_bad_lines_the_first_wins(self, first, second):
        first, second = (bad if isinstance(bad, str) else with_field(GOOD, *bad)
                         for bad in (first, second))
        assert self.check(f"{GOOD}\n{first}\n{GOOD}\n{second}\n".encode())[2] == 2

    def test_two_bad_fields_of_one_line_the_first_wins(self):
        for tokens in (("nan", "abc"), ("abc", "nan"), ("inf", "-inf")):
            line = with_field(with_field(GOOD, 4, tokens[0]), 9, tokens[1])
            self.check(line.encode())

    def test_random_mutations(self):
        rng = np.random.default_rng(12)
        pool = [token for _, token in FIELD_MUTATIONS] + ["0", "1", "-1", "2.5", "1e-9"]
        for _ in range(400):
            lines = []
            for _ in range(int(rng.integers(0, 6))):
                line = [GOOD, GOOD + " 0.75", DONTCARE, "", "  "][int(rng.integers(0, 5))]
                if line.strip() and rng.random() < 0.4:
                    index = int(rng.integers(1, len(line.split())))
                    line = with_field(line, index, pool[int(rng.integers(0, len(pool)))])
                lines.append(line)
            self.check("\n".join(lines).encode())

    def test_oracle_does_not_read_the_rule_table(self, monkeypatch):
        """Loosening one bound of the package's rule table moves the parser (and
        ``ObjectLabel``) but not the oracle, so the oracle pins the bound."""
        rules = tuple(
            (columns, (0.0, 1.5) if columns == ("truncated",) else bounds, *rest)
            for columns, bounds, *rest in kitti._LABEL_RULES
        )
        monkeypatch.setattr(kitti, "_LABEL_RULES", rules)
        monkeypatch.setattr(kitti, "_ROW_BOUNDS", kitti._row_bounds(rules))
        data = f"{GOOD}\n{with_field(GOOD, 1, '1.01')}\n".encode()
        assert [label.truncated for label in parse_label_file(data)] == [0.0, 1.01]
        assert make_label(truncated=1.01).truncated == 1.01
        assert parse_outcome(scalar_label_file, data) == (
            MalformedLine, "line 2: truncated must lie in [0, 1], got 1.01", 2
        )


class TestWriteLabelFile:
    def test_empty_list(self):
        assert write_label_file([]) == b""

    def test_round_trip_within_format_quantum(self):
        labels = parse_label_file(GOLDEN_LINE)
        out = write_label_file(labels)
        again = parse_label_file(out)
        assert len(again) == 1
        a, b = labels[0], again[0]
        for field in (
            "truncated",
            "alpha",
            "bbox_left",
            "bbox_top",
            "bbox_right",
            "bbox_bottom",
            "height",
            "width",
            "length",
            "x",
            "y",
            "z",
            "rotation_y",
        ):
            assert abs(getattr(a, field) - getattr(b, field)) <= 1e-2 + 1e-12
        assert a.occluded == b.occluded
        assert a.class_name == b.class_name

    def test_two_decimal_golden_line_is_byte_stable(self):
        labels = parse_label_file(GOLDEN_LINE)
        assert write_label_file(labels) == GOLDEN_LINE + b"\n"

    def test_score_emits_sixteen_fields(self):
        lab = dataclasses.replace(make_label(), score=0.25)
        out = write_label_file([lab])
        assert len(out.split()) == 16

    @pytest.mark.parametrize(
        "score, text",
        [(0.25, "0.25"), (0.5, "0.50"), (0.0, "0.00"), (1.0, "1.00"), (0.1234, "0.1234"),
         (0.125, "0.125"), (1 / 3, "0.3333333333333333"), (1e-05, "1e-05")],
    )
    def test_score_is_written_exactly(self, score, text):
        lab = dataclasses.replace(make_label(), score=score)
        out = write_label_file([lab])
        assert out.split()[-1].decode() == text
        assert parse_label_file(out)[0].score == score

    def test_numpy_score_is_written_as_a_plain_number(self):
        lab = dataclasses.replace(make_label(), score=np.float64(0.1234))
        assert write_label_file([lab]).split()[-1] == b"0.1234"

    def test_write_parse_write_is_stable(self):
        lab = make_label(alpha=0.123456, x=-3.14159)
        once = write_label_file([lab])
        twice = write_label_file(parse_label_file(once))
        assert once == twice

    @pytest.mark.parametrize("occluded, shown", [(1.5, "1.5"), (math.nan, "nan")])
    def test_dontcare_with_non_integer_occluded_is_refused(self, occluded, shown):
        # the constructor accepts it for DontCare; the writer cannot write it faithfully
        region = make_label(class_name="DontCare", occluded=occluded)
        with pytest.raises(ValueError, match=f"'occluded' must be an integer, got {shown}"):
            write_label_file([make_label(), region])

    def test_dontcare_with_integer_occluded_is_written(self):
        region = make_label(class_name="DontCare", occluded=-1)
        parsed = parse_label_file(DONTCARE.replace(" -1 -10 ", " 2 -10 ", 1))[0]
        assert write_label_file([region]).split()[:3] == [b"DontCare", b"0.00", b"-1"]
        assert write_label_file([parsed]) == (
            b"DontCare -1.00 2 -10.00 100.00 120.00 180.00 160.00 -1.00 -1.00 -1.00 "
            b"-1000.00 -1000.00 -1000.00 -10.00\n"
        )

    def test_random_labels_round_trip(self):
        rng = np.random.default_rng(53)
        for _ in range(200)         :
            lab = make_label(
                truncated=round(float(rng.uniform(0, 1)), 4),
                occluded=int(rng.integers(0, 4)),
                alpha=float(rng.uniform(-math.pi, math.pi)),
                bbox_left=float(rng.uniform(0, 500)),
                bbox_top=float(rng.uniform(0, 150)),
                bbox_right=float(rng.uniform(600, 1200)),
                bbox_bottom=float(rng.uniform(200, 370)),
                height=float(rng.uniform(0.5, 4)),
                width=float(rng.uniform(0.5, 4)),
                length=float(rng.uniform(0.5, 10)),
                x=float(rng.uniform(-40, 40)),
                y=float(rng.uniform(-3, 3)),
                z=float(rng.uniform(1, 90)),
                rotation_y=float(rng.uniform(-math.pi, math.pi)),
            )
            back = parse_label_file(write_label_file([lab]))[0]
            for field in ("alpha", "x", "y", "z", "rotation_y", "height"):
                assert abs(getattr(lab, field) - getattr(back, field)) <= 5e-3 + 1e-12


class TestObjectLabelValidation:
    def test_rejects_inverted_bbox(self):
        with pytest.raises(ValueError):
            make_label(bbox_left=700.0, bbox_right=600.0)

    def test_parser_wraps_field_validation_into_malformed_line(self):
        bad = GOLDEN_LINE.replace(b"587.01", b"9999.0")
        with pytest.raises(MalformedLine):
            parse_label_file(bad)

    def test_rejects_nonpositive_dims_for_real_classes(self):
        with pytest.raises(ValueError):
            make_label(height=0.0)

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            make_label(alpha=4.0)

    @pytest.mark.parametrize("overrides, message", [
        (dict(score=math.nan), "label field must be finite, got nan"),
        (dict(x=-math.inf), "label field must be finite, got -inf"),
        (dict(class_name="", z=math.nan), "label field must be finite, got nan"),
        (dict(class_name=""), "invalid class name ''"),
        (dict(class_name="Big Car"), "invalid class name 'Big Car'"),
        (dict(bbox_left=700.0, bbox_right=600.0),
         "bbox_right must exceed bbox_left (600.0 <= 700.0)"),
        (dict(bbox_top=200.12, bbox_bottom=200.12),
         "bbox_bottom must exceed bbox_top (200.12 <= 200.12)"),
        (dict(width=-1.0, bbox_right=1.0), "bbox_right must exceed bbox_left (1.0 <= 587.01)"),
        (dict(height=0.0), "dimensions must be positive, got h=0.0, w=1.67, l=3.64"),
        (dict(truncated=1.5, length=0.0), "dimensions must be positive, got h=1.65, w=1.67, l=0.0"),
        (dict(truncated=1.5), "truncated must lie in [0, 1], got 1.5"),
        (dict(truncated=-0.01, occluded=7), "truncated must lie in [0, 1], got -0.01"),
        (dict(occluded=1.5), "occluded must be one of 0..3, got 1.5"),
        (dict(occluded=4.0), "occluded must be one of 0..3, got 4.0"),
        (dict(occluded=math.nan), "occluded must be one of 0..3, got nan"),
        (dict(occluded=-1, alpha=4.0), "occluded must be one of 0..3, got -1"),
        (dict(alpha=4.0, rotation_y=4.0), "alpha must lie in [-pi, pi], got 4.0"),
        (dict(rotation_y=-3.15), "rotation_y must lie in [-pi, pi], got -3.15"),
        (dict(class_name="DontCare", bbox_left=700.0, bbox_right=600.0),
         "bbox_right must exceed bbox_left (600.0 <= 700.0)"),
        (dict(class_name="DontCare", y=math.inf), "label field must be finite, got inf"),
    ])
    def test_each_rule_has_its_message(self, overrides, message):
        with pytest.raises(ValueError) as exc:
            make_label(**overrides)
        assert type(exc.value) is ValueError and str(exc.value) == message

    @pytest.mark.parametrize("overrides", [
        dict(score=None), dict(score=0.5), dict(occluded=1.0), dict(occluded=3),
        dict(class_name="DontCare", occluded=1.5), dict(class_name="DontCare", height=0.0),
        dict(class_name="DontCare", occluded=math.nan, truncated=-1.0, alpha=-10.0),
    ])
    def test_accepted(self, overrides):
        assert make_label(**overrides).class_name == overrides.get("class_name", "Car")

    def test_bbox_height(self):
        lab = make_label(bbox_top=100.0, bbox_bottom=145.0)
        assert lab.bbox_height == 45.0


class TestParseCalibFile:
    def test_golden_projection(self):
        calib = parse_calib_file(GOLDEN_CALIB)
        k = calib.intrinsics()
        assert (k.fx, k.fy, k.cx, k.cy) == (700.0, 700.0, 600.0, 180.0)
        assert calib.projections["P2"].shape == (3, 4)

    def test_missing_p2(self):
        with pytest.raises(MissingKey):
            parse_calib_file(b"P0: 1 0 0 0 0 1 0 0 0 0 1 0\n").intrinsics()

    def test_missing_named_projection(self):
        with pytest.raises(MissingKey, match="^required calibration key 'P3' is missing$"):
            parse_calib_file(GOLDEN_CALIB).intrinsics("P3")

    def test_eleven_numbers_rejected(self):
        with pytest.raises(MalformedLine):
            parse_calib_file(b"P2: 700 0 600 0 0 700 180 0 0 0 1\n")

    def test_unknown_keys_ignored(self):
        calib = parse_calib_file(GOLDEN_CALIB + b"Tr_imu_to_velo: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        assert calib.intrinsics().fx == 700.0

    def test_rectification_and_velo_parsed(self):
        text = (
            GOLDEN_CALIB
            + b"R0_rect: 1 0 0 0 1 0 0 0 1\n"
            + b"Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0\n"
        )
        calib = parse_calib_file(text)
        assert calib.rectification.shape == (3, 3)
        assert calib.velo_to_cam.shape == (3, 4)

    @pytest.mark.parametrize("rows, error, text", [
        (["P2: 700 0 600 0 0 nan 180 0 0 0 x 0"], NonFiniteValue,
         "line 2: non-finite value in field 'P2'"),
        (["P2: 700 0 600 0 0 x 180 0 0 0 nan 0"], MalformedLine,
         "line 2: field 'P2': cannot parse 'x' as a number"),
        (["P0: 1 0 0 0 0 1 0 0 0 0 1 inf", "P2: 700 0 600 0 0 x 180 0 0 0 1 0"], NonFiniteValue,
         "line 2: non-finite value in field 'P0'"),
        (["R0_rect: 1 0 0 0 1 0 0 0 1e999", "P2: 1 2"], NonFiniteValue,
         "line 2: non-finite value in field 'R0_rect'"),
        (["Tr_velo_to_cam: 1 2", "P2: 700 0 600 0 0 nan 180 0 0 0 1 0"], MalformedLine,
         "line 2: key 'Tr_velo_to_cam': expected 12 values, got 2"),
    ])
    def test_first_bad_value_in_file_order_decides(self, rows, error, text):
        data = ("Q9: not a key we read\n" + "\n".join(rows) + "\n").encode()
        with pytest.raises(error) as caught:
            parse_calib_file(data)
        assert str(caught.value) == text

    def test_never_crashes_on_arbitrary_bytes(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 120), dtype=np.uint8))
            try:
                parse_calib_file(blob)
            except CamPerturbError:
                pass


def _finite_tokens(rng, n: int) -> list[str]:
    """Finite number tokens of many spellings: 17 significant digits, shortest repr of
    random bit patterns (subnormals among them), signed zeros, exponent forms."""
    bits = rng.integers(0, 2**64, size=4 * n, dtype=np.uint64).view(np.float64)
    finite = bits[np.isfinite(bits)].tolist()
    subnormal = (rng.integers(1, 2**52, size=n, dtype=np.uint64).view(np.float64)
                 * rng.choice([-1.0, 1.0], size=n)).tolist()
    spelled = [
        *(f"{x:.16e}" for x in finite[:n]),
        *(f"{x:.17g}" for x in rng.normal(0.0, 1e3, size=n)),
        *map(repr, finite[n:2 * n]),
        *map(repr, subnormal),
        "-0.0", "0", "-0e5", "+0.", "1E+3", "2.5e-7", ".5e2", "5.e1", "-7E-0", "+12",
        "1.7976931348623157e308", "2.2250738585072014e-308", "4.9e-324", "-5e-324",
    ]
    return [spelled[i] for i in rng.permutation(len(spelled))]


def test_calibration_values_are_float_of_their_tokens_bit_for_bit():
    rng = np.random.default_rng(2024)
    tokens = _finite_tokens(rng, 40)
    rows = [("P0", 12), ("P1", 12), ("P3", 12), ("R0_rect", 9), ("Tr_velo_to_cam", 12)]
    while tokens:
        lines, expected = ["P2: 700 0 600 0 0 700 180 0 0 0 1 0"], {}
        for key, count in rows:
            chunk, tokens = tokens[:count], tokens[count:]
            if len(chunk) == count:
                lines.append(f"{key}: {' '.join(chunk)}")
                expected[key] = np.array([float(token) for token in chunk])
        calib = parse_calib_file("\n".join(lines).encode())
        parsed = {**calib.projections, "R0_rect": calib.rectification,
                  "Tr_velo_to_cam": calib.velo_to_cam}
        for key, values in expected.items():
            assert parsed[key].reshape(-1).view(np.uint64).tolist() == (
                values.view(np.uint64).tolist()
            ), key


class TestParseOdometryPoses:
    def test_identity_pose(self):
        poses = parse_odometry_poses(b"1 0 0 0 0 1 0 0 0 0 1 0\n")
        assert len(poses) == 1
        assert poses[0].frame_index == 0
        assert np.array_equal(poses[0].rotation, np.eye(3))
        assert np.array_equal(poses[0].translation, np.zeros(3))

    def test_frame_indices_follow_line_order(self):
        text = b"1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 5 0 1 0 0 0 0 1 2\n"
        poses = parse_odometry_poses(text)
        assert [p.frame_index for p in poses] == [0, 1]
        assert poses[1].translation[0] == 5.0
        assert poses[1].translation[2] == 2.0

    def test_scaled_rotation_rejected(self):
        with pytest.raises(NotARotation):
            parse_odometry_poses(b"1.5 0 0 0 0 1.5 0 0 0 0 1.5 0\n")

    def test_eleven_values_rejected(self):
        with pytest.raises(MalformedLine):
            parse_odometry_poses(b"1 0 0 0 0 1 0 0 0 0 1\n")

    def test_error_carries_line_number(self):
        text = b"1 0 0 0 0 1 0 0 0 0 1 0\n1.5 0 0 0 0 1.5 0 0 0 0 1.5 0\n"
        with pytest.raises(NotARotation) as exc:
            parse_odometry_poses(text)
        assert "2" in str(exc.value)


IDENTITY_POSE = "1 0 0 0 0 1 0 0 0 0 1 0"
SCALED_POSE = "1.001 0 0 0 0 1 0 0 0 0 1 0"
REFLECTED_POSE = "1 0 0 0 0 -1 0 0 0 0 1 0"
NOT_ORTHOGONAL = "matrix is not orthogonal within 1e-06 (residual 2.001e-03)"
NOT_PROPER = "matrix is orthogonal but not proper (det <= 0)"


def trajectory_lines(n: int, seed: int = 0) -> list[str]:
    """``n`` pose lines with random proper rotations, written with repr."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        rot = perturbation_matrix(ExtrinsicPerturbation(*rng.uniform(-1.0, 1.0, 2)))
        t = rng.normal(size=3)
        values = [*rot[0], t[0], *rot[1], t[1], *rot[2], t[2]]
        lines.append(" ".join(repr(float(v)) for v in values))
    return lines


def pose_text(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


class TestParseLongPoseFiles:
    def test_values_and_indices_survive_the_round_trip(self):
        lines = trajectory_lines(1000)
        poses = parse_odometry_poses(pose_text(lines))
        assert [p.frame_index for p in poses] == list(range(1000))
        for line, pose in zip(lines, poses):
            values = [float(tok) for tok in line.split()]
            assert pose.rotation.tolist() == [values[0:3], values[4:7], values[8:11]]
            assert pose.translation.tolist() == values[3::4]

    @pytest.mark.parametrize(
        "line_no, bad_line, reason",
        [(777, SCALED_POSE, NOT_ORTHOGONAL), (901, REFLECTED_POSE, NOT_PROPER)],
    )
    def test_bad_rotation_block_names_its_line(self, line_no, bad_line, reason):
        lines = trajectory_lines(1000)
        lines[line_no - 1] = bad_line
        with pytest.raises(NotARotation) as exc:
            parse_odometry_poses(pose_text(lines))
        assert exc.value.line_no == line_no
        assert str(exc.value) == (
            f"line {line_no}: pose rotation block is not a rotation ({reason})"
        )

    def test_first_bad_line_is_reported(self):
        lines = trajectory_lines(1000)
        lines[900] = SCALED_POSE
        lines[776] = REFLECTED_POSE
        with pytest.raises(NotARotation) as exc:
            parse_odometry_poses(pose_text(lines))
        assert exc.value.line_no == 777
        assert NOT_PROPER in str(exc.value)

    def test_bad_rotation_before_a_malformed_line_comes_first(self):
        lines = [IDENTITY_POSE] * 4 + [SCALED_POSE] + [IDENTITY_POSE] * 4 + ["1 0 0"]
        with pytest.raises(NotARotation) as exc:
            parse_odometry_poses(pose_text(lines))
        assert exc.value.line_no == 5

    def test_bad_value_before_a_bad_rotation_comes_first(self):
        for bad_value, error in (("x", MalformedLine), ("nan", NonFiniteValue)):
            lines = [IDENTITY_POSE] * 2 + [f"1 0 0 {bad_value} 0 1 0 0 0 0 1 0"]
            lines += [IDENTITY_POSE, SCALED_POSE]
            with pytest.raises(error) as exc:
                parse_odometry_poses(pose_text(lines))
            assert exc.value.line_no == 3
            assert "pose[3]" in str(exc.value)

    @pytest.mark.parametrize("separator", ["\r", "\x0b", "\x1c", "\u2028"])
    def test_other_line_breaks_split_lines_as_splitlines_does(self, separator):
        """More lines than newlines: each break ends a line, numbered in order."""
        lines = trajectory_lines(3000)
        data = (separator.join(lines[:2000]) + "\n" + "\n".join(lines[2000:])).encode()
        poses = parse_odometry_poses(data)
        assert len(poses) == 3000
        assert poses[-1].translation.tolist() == [float(t) for t in lines[-1].split()[3::4]]
        with pytest.raises(NotARotation) as exc:
            parse_odometry_poses(data + f"{separator}{SCALED_POSE}".encode())
        assert exc.value.line_no == 3001

    def test_invalid_utf8_after_a_bad_line_comes_first(self):
        lines = [IDENTITY_POSE, "1 0 0"] + trajectory_lines(2000)
        with pytest.raises(MalformedLine) as exc:
            parse_odometry_poses(pose_text(lines) + b"\xff\n")
        assert exc.value.line_no == 2003
        assert "not valid UTF-8" in str(exc.value)

    def test_finite_values_with_an_overflowing_sum_are_kept(self):
        pose = "1 0 0 1.5e308 0 1 0 1.5e308 0 0 1 1.5e308"
        assert parse_odometry_poses(pose.encode())[0].translation.tolist() == [1.5e308] * 3

    def test_blank_lines_keep_line_numbers(self):
        lines = [IDENTITY_POSE, "", "   ", REFLECTED_POSE]
        with pytest.raises(NotARotation) as exc:
            parse_odometry_poses(pose_text(lines))
        assert exc.value.line_no == 4


class TestDifficultyOf:
    #: (2D box height, occlusion, truncation) points around every bin's cutoffs.
    GRID = [
        (h, o, t)
        for h in (20.0, 25.0, 30.0, 40.0, 45.0)
        for o in (0, 1, 2, 3)
        for t in (0.0, 0.15, 0.30, 0.50, 0.80)
    ]

    def _with_height(self, px_height, occluded=0, truncated=0.0):
        return make_label(
            bbox_top=100.0,
            bbox_bottom=100.0 + px_height,
            occluded=occluded,
            truncated=truncated,
        )

    def test_easy(self):
        assert difficulty_of(self._with_height(45, 0, 0.10)) is DifficultyBin.EASY

    def test_moderate(self):
        assert difficulty_of(self._with_height(30, 1, 0.20)) is DifficultyBin.MODERATE

    def test_hard(self):
        assert difficulty_of(self._with_height(28, 2, 0.45)) is DifficultyBin.HARD

    def test_short_box_ignored(self):
        assert difficulty_of(self._with_height(20, 0, 0.0)) is DifficultyBin.IGNORED

    def test_dontcare_ignored(self):
        line = b"DontCare -1 -1 -10 100.0 120.0 180.0 170.0 -1 -1 -1 -1000 -1000 -1000 -10"
        lab = parse_label_file(line)[0]
        assert difficulty_of(lab) is DifficultyBin.IGNORED

    def test_boundary_heights(self):
        assert difficulty_of(self._with_height(40, 0, 0.15)) is DifficultyBin.EASY
        assert difficulty_of(self._with_height(39.99, 0, 0.0)) is DifficultyBin.MODERATE
        assert difficulty_of(self._with_height(25, 1, 0.30)) is DifficultyBin.MODERATE
        assert difficulty_of(self._with_height(25, 2, 0.50)) is DifficultyBin.HARD
        assert difficulty_of(self._with_height(24.99, 0, 0.0)) is DifficultyBin.IGNORED

    def test_monotone_in_every_coordinate(self):
        grid = {point: difficulty_of(self._with_height(*point)) for point in self.GRID}
        heights, occlusions, truncations = (sorted(set(axis)) for axis in zip(*self.GRID))
        # bins are ordered Easy < Moderate < Hard < Ignored; improving one
        # coordinate must never move toward Ignored
        for (h, o, t), bin_ in grid.items():
            for h2 in heights:
                if h2 > h:
                    assert grid[(h2, o, t)] <= bin_
            for o2 in occlusions:
                if o2 < o:
                    assert grid[(h, o2, t)] <= bin_
            for t2 in truncations:
                if t2 < t:
                    assert grid[(h, o, t2)] <= bin_

    def test_table_rows_bin_as_single_labels(self):
        """One table of every grid point, a DontCare row after each, bins
        row by row as ``difficulty_of`` bins each label alone."""
        dontcare = parse_label_file(
            b"DontCare -1 -1 -10 100.0 120.0 180.0 170.0 -1 -1 -1 -1000 -1000 -1000 -10"
        )[0]
        labels = []
        for point in self.GRID:
            labels += [self._with_height(*point), dontcare]
        bins = _bins_of(_table_of(labels)).tolist()
        assert bins == [difficulty_of(label) for label in labels]
        assert set(bins[::2]) == set(DifficultyBin)
        assert set(bins[1::2]) == {DifficultyBin.IGNORED}
