"""Catalog presets, config parsing, batch runner, CSV/SVG output, CLI."""
import io
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ptdimer
from ptdimer import (
    ConfigError,
    IntegrationFailure,
    catalog_config,
    compare_trajectories,
    evolve_moments,
    evolve_nonhermitian,
    fock_product_state,
    parse_config,
    pump_coupling,
    run_scenario,
    scenario_ids,
    write_csv,
    write_svg,
    FockSpace,
)
from ptdimer.cli import main
from ptdimer.observables import ObservableTrajectory
from ptdimer.digits import BLOCK_ROWS
from ptdimer.scenarios import _FLOAT_KEYS, _MARGIN_B, _MARGIN_L, _MARGIN_R, \
    _MARGIN_T, _SVG_H, _SVG_W, _VECTOR_MIN_ROWS, NUMERICAL_FAILURES, \
    ComparisonReport, _format_rows, run_engine, write_comparison
from conftest import GAMMA_A, GAMMA_B, OMEGA_A, OMEGA_B, make_params

CSV_HEADER = "t_seconds,omega_b_t,n_a_raw,n_b_raw,n_a,n_b,re_g1,im_g1,norm_or_trace"


class TestCatalog:
    def test_thirty_three_sorted_ids(self):
        ids = scenario_ids()
        assert len(ids) == 33
        assert ids == sorted(ids)
        expected = [f"fig{n}{c}" for n in range(1, 6) for c in "abcdef"]
        expected += ["fig6a", "fig6b", "fig6c"]
        assert ids == sorted(expected)

    def test_regime_letters(self):
        phases = {"a": "pt-symmetric", "b": "exceptional-point", "c": "broken",
                  "d": "pt-symmetric", "e": "exceptional-point", "f": "broken"}
        for fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            for letter, phase in phases.items():
                cfg = catalog_config(f"{fig}{letter}")
                assert cfg.system_params().regime().phase.value == phase
        for letter, phase in zip("abc", phases.values()):
            cfg = catalog_config(f"fig6{letter}")
            assert cfg.system_params().regime().phase.value == phase

    def test_critical_preset_hits_degeneracy_exactly(self):
        cfg = catalog_config("fig1b")
        assert cfg.coupling() == 0.25 * (GAMMA_A - GAMMA_B)

    def test_initial_states(self):
        assert catalog_config("fig1a").state == ("fock", 1, 0)
        assert catalog_config("fig1d").state == ("noon", 1)
        assert catalog_config("fig2a").state == ("fock", 5, 0)
        assert catalog_config("fig2d").state == ("fock", 3, 2)
        assert catalog_config("fig4a").state == ("noon", 2)
        assert catalog_config("fig4d").state == ("noon", 5)
        for fig in ("fig2", "fig4"):
            twin = "fig3" if fig == "fig2" else "fig5"
            for letter in "abcdef":
                assert catalog_config(f"{fig}{letter}").state == \
                    catalog_config(f"{twin}{letter}").state

    def test_room_temperature_presets_are_moment_only(self):
        for letter in "abc":
            cfg = catalog_config(f"fig6{letter}")
            assert cfg.engines == ("gaussian",)
            assert cfg.temperature == 293.0
            assert cfg.state == ("thermal", 293.0)

    def test_room_temperature_horizon_tracks_slowest_rate(self):
        # five time constants of the slowest decaying pair mode
        cfg = catalog_config("fig6a")
        assert cfg.sample_times()[-1] == pytest.approx(
            5.0 / (0.5 * (GAMMA_A + GAMMA_B)), rel=1e-12)

    def test_default_engines_are_the_fock_pair(self):
        assert catalog_config("fig1a").engines == ("lindblad", "nonhermitian")

    def test_unknown_id(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            catalog_config("fig9z")

    def test_mode_dims(self):
        assert catalog_config("fig1a").mode_dims() == (3, 3)
        assert catalog_config("fig2a").mode_dims() == (7, 7)
        assert catalog_config("fig4d").mode_dims() == (7, 7)
        assert replace(catalog_config("fig1a"), truncation=4).mode_dims() == (4, 4)
        # thermal: mode b's ~0.15 quanta set both modes, and a warmer bath
        # sets a vacuum start
        cold = parse_config("state = thermal 6e-5\ntemperature = 6e-5\n"
                            "engines = gaussian")
        assert cold.mode_dims() == (8, 8)
        assert replace(cold, state=("thermal", 0.0)).mode_dims() == (8, 8)
        assert replace(cold, temperature=0.0).mode_dims() == (8, 8)
        assert replace(cold, state=("thermal", 0.0),
                       temperature=0.0).mode_dims() == (2, 2)


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("samples = many", "malformed integer"),
        ("g = 1..5", "malformed number"),
        ("svg = maybe", "malformed boolean"),
        ("speed = 3", "unknown key"),
        ("[turbo]\n", "unknown section"),
        ("g = 1\ng = 2", "duplicate key"),
        ("just a line", "expected key = value"),
        ("engines = lindblad, warp", "unknown engine"),
        ("engines = ,", "engine list is empty"),
        ("engines = lindblad, lindblad", "duplicate engine"),
        ("state = bell 2", "unknown state kind"),
        ("state = fock 1", "fock state needs"),
        ("state = noon", "noon state needs"),
        ("state = thermal", "thermal state needs"),
    ])
    def test_rejects_with_line_number(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment) as err:
            parse_config(text)
        assert "line" in str(err.value)

    def test_line_numbers_count_comments_and_blanks(self):
        text = "# leading comment\n\n[params]\nbogus = 1\n"
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(text)


class TestNonFinite:
    """nan and +-inf are config errors, in files and on the command line."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(_FLOAT_KEYS) + ["state"])
    def test_file_key_rejected_with_line_number(self, key, value):
        if key == "state":
            value = f"thermal {value}"
        with pytest.raises(ConfigError, match="line 2: non-finite number"):
            parse_config(f"# header\n{key} = {value}\n")

    def test_file_key_exits_two(self, tmp_path, capsys):
        conf = tmp_path / "nan.cfg"
        conf.write_text("g = nan\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
        assert "config error: line 1: non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "fig1a", "--rtol", "nan"],
        ["run", "--scenario", "fig1a", "--atol", "inf"],
        ["run", "--scenario", "fig1a", "--rtol=-inf"],
        ["classify", "--g", "nan", "--gamma-a", "1", "--gamma-b", "0"],
        ["classify", "--g", "1", "--gamma-a", "inf", "--gamma-b", "0"],
        ["classify", "--g", "1", "--gamma-a", "1", "--gamma-b=-inf"],
        ["classify", "--g", "1", "--gamma-a", "1", "--gamma-b", "0",
         "--omega-b", "nan"],
        ["classify", "--g", "1", "--gamma-a", "1", "--gamma-b", "0",
         "--tol", "inf"],
    ])
    def test_flag_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        if argv[0] == "run":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err and "finite" in captured.err
        assert captured.out == "" and not out.exists()


class TestConfigSemantics:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.scenario == "custom"
        assert cfg.engines == ("lindblad", "nonhermitian")
        assert cfg.state == ("fock", 1, 0)
        assert cfg.coupling() == pytest.approx(1.33e-2 * OMEGA_B)

    def test_scenario_preset_loaded(self):
        assert parse_config("", scenario="fig4d") == catalog_config("fig4d")

    def test_near_critical_ratio_classified(self):
        cfg = parse_config("g_over_omega_b = 5.12e-3")
        assert cfg.system_params().regime().phase.value == "exceptional-point"

    @pytest.mark.parametrize("text,fragment", [
        ("g = 1e5\ng_over_omega_b = 1e-2", "not both"),
        ("g = 1e5\npump_amplitude = 1e9", "not both g and pump_amplitude"),
        ("g0 = 100", "pump needs both g0 and pump_amplitude, got only g0$"),
        ("omega_p = 1e10", "pump needs both .* got only omega_p$"),
        ("state = thermal 293\ntemperature = 293", "gaussian engine"),
        ("temperature = 10", "zero-temperature"),
        ("state = noon 0", ">= 1"),
        ("state = fock 1 -1", "nonnegative"),
        ("samples = 1", "two samples"),
        ("t_end = 0", "t_end"),
        ("rtol = 0", "tolerances"),
        ("truncation = 1", "at least 2"),
        ("gamma_a = 0", "gamma_a > 0"),
        ("id =", "id '' is not a file name"),
        ("id = .", "id '.' is not a file name"),
        ("id = ..", "id '..' is not a file name"),
        ("id = ../x", "is not a file name"),
        ("id = a/b", "is not a file name"),
        ("id = a\\b", "is not a file name"),
    ])
    def test_semantic_violations(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    def test_thermal_lindblad_needs_opt_in(self):
        text = "state = thermal 0\nengines = lindblad, gaussian\n"
        with pytest.raises(ConfigError, match="allow_lindblad_thermal"):
            parse_config(text)
        for off in ("false", "no", "off", "0"):
            with pytest.raises(ConfigError, match="allow_lindblad_thermal"):
                parse_config(text + f"allow_lindblad_thermal = {off}\n")
        cfg = parse_config(text + "allow_lindblad_thermal = true\n")
        assert cfg.engines == ("lindblad", "gaussian")

    def test_sections_are_optional_and_engine_order_canonical(self):
        cfg = parse_config("[params]\ng = 2e5\n[numerics]\n"
                           "engines = nonhermitian, lindblad\n"
                           "truncation = auto\n")
        assert cfg.g == 2e5
        assert cfg.engines == ("lindblad", "nonhermitian")
        assert cfg.truncation is None

    def test_precedence_defaults_catalog_file_cli(self):
        assert parse_config("", scenario="fig1a").samples == 2000
        assert parse_config("samples = 77", scenario="fig1a").samples == 77
        cfg = parse_config("samples = 77", scenario="fig1a",
                           cli_overrides={"samples": 88, "rtol": None})
        assert cfg.samples == 88
        assert cfg.rtol == 1e-9  # None overrides are ignored

    def test_explicit_coupling_replaces_preset_ratio(self):
        cfg = parse_config("g = 1000", scenario="fig1a")
        assert cfg.coupling() == 1000.0
        cfg = parse_config("g = 1000", cli_overrides={"g_over_omega_b": 1e-3})
        assert cfg.coupling() == pytest.approx(1e-3 * OMEGA_B)

    def test_custom_file_id_used_for_naming(self):
        assert parse_config("id = mytest").scenario == "mytest"

    def test_catalog_file_id_loads_preset(self):
        assert parse_config("id = fig4d") == catalog_config("fig4d")

    def test_conflicting_ids_rejected(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config("id = fig1a", scenario="fig2a")
        assert parse_config("id = fig1a", scenario="fig1a") == \
            catalog_config("fig1a")


def _tiny_gaussian_traj(samples=3):
    cfg = replace(catalog_config("fig6a"), samples=samples)
    return run_engine("gaussian", cfg)


class TestCsvOutput:
    def test_rows_and_roundtrip(self, tmp_path):
        traj = _tiny_gaussian_traj()
        path = tmp_path / "out.csv"
        write_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        prev_t = -1.0
        for i, line in enumerate(lines[1:]):
            cells = [float(c) for c in line.split(",")]
            assert len(cells) == 9
            assert cells[0] > prev_t
            prev_t = cells[0]
            assert cells[0] == traj.times[i]  # 17 digits round-trip bit-exactly
            assert cells[1] == traj.omega_b * traj.times[i]
            assert cells[2] == traj.n_a_raw[i]
            assert cells[3] == traj.n_b_raw[i]
            assert cells[6] == traj.g1[i].real
            assert cells[8] == traj.weight[i]

    def test_moment_engine_reports_unit_weight(self, tmp_path):
        traj = _tiny_gaussian_traj()
        path = tmp_path / "out.csv"
        write_csv(traj, path)
        for line in path.read_text().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] == "1"


class TestComparison:
    def _pair(self, samples=120):
        cfg = replace(catalog_config("fig1a"), samples=samples)
        params = cfg.system_params()
        return [run_engine(e, cfg) for e in cfg.engines], params

    def test_lindblad_is_reference(self):
        trajs, params = self._pair()
        report = compare_trajectories(trajs, params, "fig1a")
        assert report.reference == "lindblad"
        assert set(report.deviations) == {"nonhermitian"}
        assert report.max_deviation["nonhermitian"] < 1e-6
        assert report.l2_deviation["nonhermitian"] <= \
            report.max_deviation["nonhermitian"]
        assert report.regime.phase.value == "pt-symmetric"

    def test_first_engine_is_fallback_reference(self):
        p = make_params()
        space = FockSpace(3, 3)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 50)
        nonh = evolve_nonhermitian(fock_product_state(1, 0, space), p, times)
        gaus = evolve_moments(np.diag([1.0, 0.0]).astype(complex), p, times)
        report = compare_trajectories([nonh, gaus], p, "custom")
        assert report.reference == "nonhermitian"
        assert set(report.deviations) == {"gaussian"}

    def test_needs_two_trajectories(self):
        trajs, params = self._pair(samples=10)
        with pytest.raises(ValueError, match="at least two"):
            compare_trajectories(trajs[:1], params, "fig1a")

    def test_grid_mismatch_rejected(self):
        cfg = replace(catalog_config("fig1a"), samples=10)
        params = cfg.system_params()
        a = run_engine("lindblad", cfg)
        b = run_engine("nonhermitian", replace(cfg, samples=11))
        with pytest.raises(ValueError, match="time grids"):
            compare_trajectories([a, b], params, "fig1a")

    def test_comparison_file_metadata(self, tmp_path):
        trajs, params = self._pair(samples=40)
        report = compare_trajectories(trajs, params, "fig1a")
        path = tmp_path / "cmp.csv"
        write_comparison(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# scenario: fig1a"
        assert lines[1] == "# reference: lindblad"
        assert lines[2] == "# regime: pt-symmetric"
        assert any(l.startswith("# max_deviation[nonhermitian]:") for l in lines)
        header_at = next(i for i, l in enumerate(lines)
                         if not l.startswith("#"))
        assert lines[header_at].split(",")[:2] == ["t_seconds", "omega_b_t"]
        assert len(lines) - header_at - 1 == 40


class TestSvgOutput:
    def _polylines(self, path):
        root = ET.parse(path).getroot()
        return [el for el in root.iter()
                if el.tag.endswith("polyline")]

    def test_single_engine_two_solid_curves(self, tmp_path):
        traj = _tiny_gaussian_traj(samples=50)
        path = tmp_path / "plot.svg"
        write_svg([traj], path)
        polys = self._polylines(path)
        assert len(polys) == 2
        assert all("stroke-dasharray" not in p.attrib for p in polys)
        assert all(len(p.attrib["points"].split()) == 50 for p in polys)

    def test_engine_pair_dashes_the_postselected_run(self, tmp_path):
        cfg = replace(catalog_config("fig1a"), samples=30)
        trajs = [run_engine(e, cfg) for e in cfg.engines]
        path = tmp_path / "plot.svg"
        write_svg(trajs, path)
        polys = self._polylines(path)
        assert len(polys) == 4
        dashed = [p for p in polys if "stroke-dasharray" in p.attrib]
        assert len(dashed) == 2

    def test_mixed_engines_plot_renormalized_occupations(self, tmp_path):
        # a gaussian run among Fock runs is plotted renormalized, as they
        # are, so its curves lie on the Lindblad ones
        cfg = parse_config("state = fock 3 2\nsamples = 30\n"
                           "engines = lindblad, nonhermitian, gaussian\n")
        trajs = [run_engine(e, cfg) for e in cfg.engines]
        path = tmp_path / "plot.svg"
        write_svg(trajs, path)
        points = [p.attrib["points"] for p in self._polylines(path)]
        assert len(points) == 6
        assert points[4:] == points[:2]

    def test_no_finite_point_keeps_a_finite_scale(self, tmp_path):
        # from the vacuum no renormalized occupation is ever defined
        cfg = parse_config("state = fock 0 0\nsamples = 20\n")
        trajs = [run_engine(e, cfg) for e in cfg.engines]
        assert not np.isfinite(trajs[0].n_a).any()
        path = tmp_path / "plot.svg"
        write_svg(trajs, path)
        assert "nan" not in path.read_text()
        assert [p.attrib["points"] for p in self._polylines(path)] == [""] * 4

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg([], tmp_path / "plot.svg")


# every value class the writers must reproduce: non-finite, signed zero,
# subnormal, large, and values that need all 17 digits
_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-310, 1e16,
                      1e300, 0.1, 1.0 / 3.0])


def _special_traj(times, columns):
    """A Fock-engine trajectory whose six plotted and written columns are
    given verbatim (the renormalized ones overwritten after construction)."""
    n_a_raw, n_b_raw, n_a, n_b, g1_re, g1_im = columns
    g1 = np.zeros(len(times), dtype=complex)
    g1.real, g1.imag = g1_re, g1_im
    with np.errstate(all="ignore"):
        traj = ObservableTrajectory("lindblad", OMEGA_B, times, n_a_raw,
                                    n_b_raw, g1, _SPECIALS[::-1].copy())
    traj.n_a, traj.n_b, traj.g1 = n_a, n_b, g1
    return traj


class TestWriterFormat:
    """Each written value is exactly the parent's per-value formatting."""

    def _rolled(self, count):
        return [np.roll(_SPECIALS, k + 1) for k in range(count)]

    def test_csv_cells_are_17_significant_digits(self, tmp_path):
        traj = _special_traj(_SPECIALS.copy(), self._rolled(6))
        path = tmp_path / "out.csv"
        write_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(_SPECIALS)
        with np.errstate(all="ignore"):
            for i, line in enumerate(lines[1:]):
                row = [traj.times[i], traj.omega_b * traj.times[i],
                       traj.n_a_raw[i], traj.n_b_raw[i], traj.n_a[i],
                       traj.n_b[i], traj.g1[i].real, traj.g1[i].imag,
                       traj.weight[i]]
                assert line.split(",") == [f"{v:.17g}" for v in row]

    def test_comparison_cells_are_17_significant_digits(self, tmp_path):
        cols = self._rolled(6)
        deviations = {eng: dict(zip(("n_a", "n_b", "g1"), cols[k:k + 3]))
                      for eng, k in (("nonhermitian", 0), ("gaussian", 3))}
        report = ComparisonReport(
            "special", "lindblad", _SPECIALS.copy(), OMEGA_B,
            make_params().regime(), deviations,
            {"gaussian": 5e-324, "nonhermitian": np.nan},
            {"gaussian": 1e300, "nonhermitian": -0.0})
        path = tmp_path / "cmp.csv"
        write_comparison(report, path)
        lines = path.read_text().splitlines()
        assert "# max_deviation[gaussian]: 4.9406564584124654e-324" in lines
        assert "# max_deviation[nonhermitian]: nan" in lines
        assert "# l2_deviation[nonhermitian]: -0" in lines
        at = lines.index("t_seconds,omega_b_t,d_n_a_gaussian,d_n_b_gaussian,"
                         "d_g1_gaussian,d_n_a_nonhermitian,d_n_b_nonhermitian,"
                         "d_g1_nonhermitian")
        assert len(lines) == at + 1 + len(_SPECIALS)
        with np.errstate(all="ignore"):
            for i, line in enumerate(lines[at + 1:]):
                row = [report.times[i], OMEGA_B * report.times[i]]
                for eng in ("gaussian", "nonhermitian"):
                    row += [deviations[eng][k][i] for k in ("n_a", "n_b", "g1")]
                assert line.split(",") == [f"{v:.17g}" for v in row]

    @pytest.mark.parametrize("with_inf", [False, True])
    def test_svg_drops_exactly_the_non_finite_points(self, tmp_path, with_inf):
        # with +-inf in the data the vertical scale itself is not finite
        cols = self._rolled(6)
        if not with_inf:
            cols = [np.where(np.isinf(c), np.nan, c) for c in cols]
        times = np.linspace(0.0, 1e-5, len(_SPECIALS))
        traj = _special_traj(times, cols)
        path = tmp_path / "plot.svg"
        with np.errstate(all="ignore"):
            write_svg([traj], path)
            x = times * OMEGA_B
            x_lo, x_hi = float(x.min()), float(x.max())
            finite = [y[np.isfinite(y)] for y in (traj.n_a, traj.n_b)]
            y_lo = min(float(y.min()) for y in finite)
            y_hi = max(float(y.max()) for y in finite)
            pad = 0.05 * (y_hi - y_lo)
            y_lo, y_hi = y_lo - pad, y_hi + pad
            plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
            plot_h = _SVG_H - _MARGIN_T - _MARGIN_B
            expected = [" ".join(
                f"{_MARGIN_L + (xi - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
                f"{_MARGIN_T + (y_hi - yi) / (y_hi - y_lo) * plot_h:.2f}"
                for xi, yi in zip(x, y) if np.isfinite(yi))
                for y in (traj.n_a, traj.n_b)]
        root = ET.parse(path).getroot()
        got = [el.attrib["points"] for el in root.iter()
               if el.tag.endswith("polyline")]
        assert got == expected
        for points, y in zip(got, (traj.n_a, traj.n_b)):
            assert len(points.split()) == np.isfinite(y).sum() < len(y)
        assert "nan" not in path.read_text()

    def test_svg_of_single_samples_has_a_finite_time_axis(self, tmp_path):
        # a non-Hermitian run whose norm underflows at its second sample
        # keeps one: the time axis is widened as the occupation axis is
        traj = ObservableTrajectory("nonhermitian", OMEGA_B, np.array([0.0]),
                                    np.array([1.0]), np.array([0.0]),
                                    np.zeros(1, dtype=complex), np.ones(1))
        path = tmp_path / "plot.svg"
        write_svg([traj], path)
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        root = ET.parse(path).getroot()
        got = [el.attrib["points"] for el in root.iter()
               if el.tag.endswith("polyline")]
        assert [p.split(",")[0] for p in got] == [f"{_MARGIN_L:.2f}"] * 2

    @staticmethod
    def _assert_rows_are_per_value_text(table):
        got = b"".join(_format_rows(list(table.T))).decode().split("\n")
        # CPython's own %.17g, one % call for the whole table
        rows, cols = table.shape
        want = ("\n".join([",".join(["%.17g"] * cols)] * rows)
                % tuple(table.ravel().tolist())).split("\n")
        assert got[-1] == "" and len(got) == len(want) + 1
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        assert not bad, bad[:5]

    def test_random_bit_patterns(self):
        # subnormals, nan payloads and -nan included; most lie outside the
        # digit arithmetic's range, so the values spread over that range
        # follow
        rng = np.random.default_rng(1616)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        with np.errstate(invalid="ignore"):  # a nan compares false
            assert np.sum(np.isnan(x) & np.signbit(x)) > 0
            assert np.sum((x != 0) & (np.abs(x) < np.finfo(float).tiny)) > 0
        self._assert_rows_are_per_value_text(x.reshape(-1, 8))
        spread = rng.random(100_000) * 10.0 ** rng.integers(-31, 31, 100_000)
        spread[::2] *= -1.0
        self._assert_rows_are_per_value_text(spread.reshape(-1, 8))

    def test_edges_of_the_digit_arithmetic(self):
        powers = 10.0 ** np.arange(-30, 30)
        x = np.concatenate([
            [0.0, np.inf, 1e-30, 1e30, 2.0**-25, 3 * 2.0**-25],
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            np.nextafter([1e-30, 1e30], 0.0), np.nextafter([1e-30, 1e30], 1.0),
            # fixed notation from exponent -4 to 16, exponent notation past it
            [1e-4, 1.5e-4, 9.9999999999999999e-5, 1.5e-5, 1e16, 1.5e16,
             12345678901234567.0, 99999999999999990.0, 1e17, 1.5e17]])
        x = np.concatenate([x, -x])
        self._assert_rows_are_per_value_text(x[:, None])
        self._assert_rows_are_per_value_text(np.resize(x, (len(x) // 4, 4)))

    def test_per_value_slots_then_arithmetic_across_a_block_boundary(self):
        # a table's sign, leading zero and separators are written once: the
        # slots that the first block leaves to per-value `%` must format
        # negative fixed and exponent notation in the second block
        rng = np.random.default_rng(28)
        table = rng.normal(size=(BLOCK_ROWS + 2, 4))
        table[:2] = [[np.nan, -np.inf, 5e-324, 2.0**-25],
                     [99999999999999990.0, 2.0**-25, np.nan, -np.inf]]
        table[BLOCK_ROWS:] = [[-1.5e-4, -2.5e20, -0.125, -3e-7],
                              [-12345.678, -9.75e-29, -7.0, -1.25e17]]
        self._assert_rows_are_per_value_text(table)

    @pytest.mark.parametrize("rows, cols", [
        (1, 9), (1, 1), (_VECTOR_MIN_ROWS - 1, 9), (_VECTOR_MIN_ROWS, 9),
        (_VECTOR_MIN_ROWS, 1), (BLOCK_ROWS + 1, 5)])
    def test_table_shapes(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(
            -8, 8, size=(rows, cols))
        table[::3, 0] = 0.0
        self._assert_rows_are_per_value_text(table)

    def test_writing_a_2000_by_9_table_allocates_little(self, tmp_path):
        # the table is formatted in row blocks and written as it goes
        times = np.linspace(0.0, 1e-5, 2000)
        decay = np.exp(-GAMMA_A * times)
        traj = ObservableTrajectory(
            "lindblad", OMEGA_B, times, decay * np.cos(1e6 * times) ** 2,
            decay * np.sin(1e6 * times) ** 2, 0.5j * decay * np.sin(2e6 * times),
            np.ones(2000))
        path = tmp_path / "out.csv"
        write_csv(traj, path)
        tracemalloc.start()
        try:
            write_csv(traj, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
        assert len(path.read_text().splitlines()) == 2001


class TestRunEngineMemory:
    def test_first_exponential_precedes_the_sample_rows(self):
        # a 50-sample fock 3 2 Lindblad run peaked at 1.703 MB when the
        # sample rows were allocated before the first Pade build, at
        # 1.628 MB with the build first, at 1.485 MB with the probes written
        # straight into the generator and at 0.749 MB in real coordinates
        cfg = parse_config("state = fock 3 2\nsamples = 50")
        run_engine("lindblad", cfg)
        tracemalloc.start()
        try:
            run_engine("lindblad", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.764e6


class TestValidation:
    """Input from outside the program is checked where it enters."""

    @pytest.mark.parametrize("build, match", [
        (lambda: parse_config("state =\n"), "empty state descriptor"),
        (lambda: parse_config("state = thermal -1\n"),
         "temperature must be nonnegative"),
        (lambda: run_engine("bogus", catalog_config("fig1a")),
         "unknown engine"),
    ], ids=["empty-state", "negative-thermal", "engine"])
    def test_invalid_input_raises(self, build, match):
        with pytest.raises(ConfigError, match=match):
            build()


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", ["csv", "comparison", "svg"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch,
                                              writer):
        cfg = replace(catalog_config("fig1a"), samples=10)
        params = cfg.system_params()
        trajs = [run_engine(e, cfg) for e in cfg.engines]
        write = {"csv": lambda p: write_csv(trajs[0], p),
                 "comparison": lambda p: write_comparison(
                     compare_trajectories(trajs, params, "fig1a"), p),
                 "svg": lambda p: write_svg(trajs, p)}[writer]
        path = tmp_path / "out"
        path.write_text("previous\n")

        class FailHalfway(io.FileIO):
            """A file that takes half of the first write, then fails."""

            def write(self, data):
                super().write(bytes(data)[:len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(Path, "open",
                            lambda self, *args, **kwargs: FailHalfway(self, "w"))
        with pytest.raises(OSError, match="disk full"):
            write(path)
        monkeypatch.undo()
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        write(path)
        assert path.read_text() != "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestRunScenario:
    def test_writes_per_engine_and_comparison(self, tmp_path):
        cfg = replace(catalog_config("fig1a"), samples=120,
                      directory=str(tmp_path), svg=True)
        written = run_scenario(cfg)
        names = [p.name for p in written]
        assert names == ["fig1a_lindblad.csv", "fig1a_nonhermitian.csv",
                         "fig1a_comparison.csv", "fig1a.svg"]
        for p in written:
            assert p.exists() and p.stat().st_size > 0

    def test_truncated_trajectory_compared_over_common_prefix(self, tmp_path):
        # the post-selected norm underflows near sample 1840 of 2000
        cfg = parse_config("state = fock 1 0\nt_end = 1500",
                           cli_overrides={"directory": str(tmp_path)})
        run_scenario(cfg)
        kept = len((tmp_path / "custom_nonhermitian.csv").read_text()
                   .splitlines()) - 1
        assert 0 < kept < cfg.samples
        lines = (tmp_path / "custom_comparison.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert any("nonhermitian: norm underflow" in l for l in header)
        assert len(lines) - len(header) - 1 == kept
        assert not (tmp_path / "custom.partial").exists()

    @pytest.fixture(scope="class")
    def cold_header(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cold")
        cfg = parse_config(
            "state = thermal 6e-5\ntemperature = 6e-5\n"
            "engines = lindblad, gaussian\nallow_lindblad_thermal = true\n"
            "samples = 200", cli_overrides={"directory": str(out)})
        run_scenario(cfg)
        lines = (out / "custom_comparison.csv").read_text().splitlines()
        return [l for l in lines if l.startswith("#")]

    def test_cold_thermal_lindblad_matches_gaussian(self, cold_header):
        dev = next(float(l.split(": ")[1]) for l in cold_header
                   if l.startswith("# max_deviation[gaussian]"))
        assert dev < 1e-5

    def test_cold_thermal_lindblad_auto_truncation_does_not_leak(
            self, cold_header):
        # the automatic truncation leaves the initial top level below the
        # leakage check's 1e-6
        assert "# warnings: none" in cold_header
        assert not any("leakage" in l for l in cold_header)

    def test_failure_leaves_partial_marker(self, tmp_path, monkeypatch):
        # an allocation the run cannot make, such as numpy's for the dense
        # thermal start of a hot config, is a numerical failure too
        for name, error, text in (
                ("diverged", IntegrationFailure("diverged", 1e-6), "diverged"),
                ("memory", MemoryError("Unable to allocate 14.9 PiB"),
                 "Unable to allocate 14.9 PiB")):
            def explode(engine, cfg):
                raise error

            monkeypatch.setattr("ptdimer.scenarios.run_engine", explode)
            cfg = replace(catalog_config("fig1a"),
                          directory=str(tmp_path / name))
            with pytest.raises(type(error)):
                run_scenario(cfg)
            marker = tmp_path / name / "fig1a.partial"
            assert marker.exists()
            assert "lindblad" in marker.read_text()
            assert text in marker.read_text()

    def test_successful_rerun_removes_a_stale_marker(self, tmp_path):
        marker = tmp_path / "fig1a.partial"
        marker.write_text("engine lindblad failed: diverged\n")
        cfg = replace(catalog_config("fig1a"), samples=60,
                      directory=str(tmp_path))
        run_scenario(cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig1a_comparison.csv", "fig1a_lindblad.csv",
            "fig1a_nonhermitian.csv"]


    def test_non_finite_generator_exits_3_without_nan_rows(self, tmp_path,
                                                           monkeypatch):
        from ptdimer import lindblad

        def broken(*args, **kwargs):
            entries, y0, rhs = liouville_block(*args, **kwargs)
            return entries, y0, lambda t, y: rhs(t, y) * np.nan
        liouville_block = lindblad.liouville_block
        monkeypatch.setattr(lindblad, "liouville_block", broken)
        conf = tmp_path / "short.conf"
        conf.write_text("samples = 60\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", "fig1a", "--config", str(conf),
                     "--out", str(out)]) == 3
        assert "lindblad" in (out / "fig1a.partial").read_text()
        assert not list(out.glob("*.csv"))


def _package_env():
    """The environment for a subprocess that imports this ptdimer."""
    src = str(Path(ptdimer.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 33
        assert lines[0].startswith("fig1a")
        assert all("regime=" in l and "engines=" in l for l in lines)

    def test_run_with_config_and_out(self, tmp_path, capsys):
        conf = tmp_path / "light.conf"
        conf.write_text("samples = 60\n")
        out = tmp_path / "results"
        rc = main(["run", "--scenario", "fig1a", "--config", str(conf),
                   "--out", str(out), "--svg"])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert [p.rsplit("/", 1)[-1] for p in printed] == \
            ["fig1a_lindblad.csv", "fig1a_nonhermitian.csv",
             "fig1a_comparison.csv", "fig1a.svg"]
        for p in printed:
            assert (tmp_path / "results" / p.rsplit("/", 1)[-1]).exists()

    def test_run_engine_subset_flag(self, tmp_path, capsys):
        conf = tmp_path / "light.conf"
        conf.write_text("samples = 40\n")
        rc = main(["run", "--scenario", "fig1a", "--config", str(conf),
                   "--out", str(tmp_path), "--engines", "nonhermitian"])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert [p.rsplit("/", 1)[-1] for p in printed] == \
            ["fig1a_nonhermitian.csv"]

    def test_single_engine_prints_its_warnings(self, tmp_path, capsys):
        # no comparison CSV holds a lone engine's warnings, so they go to
        # stderr; the rows hold the NaNs they name
        conf = tmp_path / "vacuum.conf"
        conf.write_text("state = thermal 0\nengines = gaussian\nsamples = 5\n")
        out = tmp_path / "one"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: gaussian: renormalized observables undefined "
            "(<N> <= 0) at 5 samples, first at t=0.000000e+00"]
        rows = (out / "custom_gaussian.csv").read_text().splitlines()[1:]
        assert rows[0] == "0,0,0,0,nan,nan,nan,nan,1"
        # two engines write their warnings to the comparison CSV only
        conf.write_text("state = fock 0 0\nsamples = 5\n")
        out = tmp_path / "two"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "# warning: lindblad: renormalized observables undefined" \
            in (out / "custom_comparison.csv").read_text()

    def test_explicit_truncation_matches_auto(self, tmp_path):
        conf = tmp_path / "light.conf"
        conf.write_text("samples = 60\n")
        for value in ("6", "auto"):
            assert main(["run", "--scenario", "fig1a", "--config", str(conf),
                         "--out", str(tmp_path / value),
                         "--truncation", value]) == 0
        for name in ("fig1a_lindblad.csv", "fig1a_nonhermitian.csv",
                     "fig1a_comparison.csv"):
            assert (tmp_path / "6" / name).read_bytes() == \
                (tmp_path / "auto" / name).read_bytes()

    @pytest.mark.parametrize("value", ["1", "2.5", "many"])
    def test_bad_truncation_is_config_error(self, tmp_path, capsys, value):
        assert main(["run", "--scenario", "fig1a", "--out", str(tmp_path),
                     "--truncation", value]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value,fragment", [
        ("--engines", "foo", "unknown engine 'foo'"),
        ("--engines", "lindblad,lindblad", "duplicate engine"),
        ("--engines", ",", "engine list is empty"),
        ("--truncation", "2.5", "malformed integer '2.5'"),
        ("--truncation", "many", "malformed integer 'many'"),
    ], ids=["unknown-engine", "duplicate-engine", "no-engine",
            "fractional-truncation", "word-truncation"])
    def test_flag_error_names_its_flag(self, tmp_path, capsys, flag, value,
                                       fragment):
        assert main(["run", "--scenario", "fig1a", "--out", str(tmp_path),
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag}: ") and fragment in err
        assert "line" not in err
        assert not list(tmp_path.iterdir())

    def test_flags_override_config_file(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr("ptdimer.cli.run_scenario",
                            lambda cfg: seen.append(cfg) or [])
        conf = tmp_path / "tuned.conf"
        conf.write_text("rtol = 1e-8\ntruncation = 6\n")
        assert main(["run", "--scenario", "fig1a", "--config", str(conf),
                     "--rtol", "1e-10", "--atol", "1e-13"]) == 0
        assert (seen[0].rtol, seen[0].atol, seen[0].truncation) == \
            (1e-10, 1e-13, 6)
        assert main(["run", "--scenario", "fig1a", "--config", str(conf),
                     "--truncation", "auto"]) == 0
        assert (seen[1].rtol, seen[1].truncation) == (1e-8, None)

    def test_run_without_inputs_is_config_error(self, capsys):
        assert main(["run"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_scenario_is_config_error(self, capsys):
        assert main(["run", "--scenario", "fig9q"]) == 2

    def test_argparse_usage_error_maps_to_two(self, capsys):
        assert main(["classify"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # one error of each type in NUMERICAL_FAILURES; LinAlgError is also
        # a ValueError, and must not read as a config error
        errors = [IntegrationFailure("diverged", 0.0),
                  FloatingPointError("overflow"),
                  np.linalg.LinAlgError("Singular matrix"),
                  MemoryError("Unable to allocate 14.9 PiB")]
        assert tuple(type(e) for e in errors) == NUMERICAL_FAILURES
        for error in errors:
            def explode(cfg):
                raise error

            monkeypatch.setattr("ptdimer.cli.run_scenario", explode)
            rc = main(["run", "--scenario", "fig1a", "--out", str(tmp_path)])
            assert rc == 3, type(error).__name__
            assert "numerical failure" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "fig1a",
                   "--config", str(tmp_path / "absent.conf")])
        assert rc == 4
        assert "i/o failure" in capsys.readouterr().err

    def test_out_path_collision_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = main(["run", "--scenario", "fig1a", "--out", str(blocker)])
        assert rc == 4

    def test_import_and_config_leave_the_digit_tables_unbuilt(self):
        # `ptdimer.digits` builds its tables at import, so importing the
        # package and resolving a config must not import it
        script = ("import sys\n"
                  "import ptdimer\n"
                  "ptdimer.catalog_config('fig6a')\n"
                  "sys.exit('ptdimer.digits' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=_package_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr

    def test_run_needs_numpy_only(self, tmp_path):
        # a subprocess in which every scipy import fails
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ptdimer.cli import main\n"
            "fock, thermal, out = sys.argv[1:]\n"
            "sys.exit(main(['run', '--config', fock, '--out', out]) or "
            "main(['run', '--scenario', 'fig6b', '--config', thermal, "
            "'--out', out]))\n")
        fock = tmp_path / "fock.conf"
        fock.write_text("state = fock 1 0\nengines = lindblad, nonhermitian\n"
                        "samples = 60\nt_end = 2\n")
        thermal = tmp_path / "thermal.conf"
        thermal.write_text("samples = 60\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(fock), str(thermal),
             str(tmp_path / "out")], env=_package_env(), capture_output=True,
            text=True)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["custom_comparison.csv", "custom_lindblad.csv",
             "custom_nonhermitian.csv", "fig6b_gaussian.csv"]

    def test_classify_output(self, capsys):
        rc = main(["classify", "--g", "2.1147e5", "--gamma-a", "3.26e5",
                   "--gamma-b", "3.00e2"])
        assert rc == 0
        out = capsys.readouterr().out
        fields = dict(line.split(" = ", 1) for line in out.splitlines())
        assert float(fields["Gamma"].split()[0]) == pytest.approx(81425.0)
        assert fields["phase"] == "pt-symmetric"
        lam = fields["eigenvalue_plus"].split()
        assert float(lam[0]) == pytest.approx(1.95165e5, rel=1e-4)
        assert float(lam[1].rstrip("i")) == pytest.approx(0.0, abs=1e-6)
        ep_parts = fields["ep_coupling"].split()
        assert float(ep_parts[0]) == pytest.approx(81425.0)
        assert float(ep_parts[3]) == pytest.approx(5.12e-3, rel=1e-2)

    def test_classify_rejects_negative_rates(self, capsys):
        rc = main(["classify", "--g", "-1", "--gamma-a", "1", "--gamma-b", "0"])
        assert rc == 2

    @pytest.mark.parametrize("omega_b", ["0", "-1"])
    def test_classify_rejects_nonpositive_omega_b(self, omega_b, capsys):
        # the EP ratio divides by omega_b
        rc = main(["classify", "--g", "1", "--gamma-a", "1", "--gamma-b", "0",
                   "--omega-b", omega_b])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: --omega-b must be positive\n"

    def test_pump_config_replaces_the_preset_ratio(self, tmp_path):
        conf = tmp_path / "pump.conf"
        conf.write_text("g0 = 100\npump_amplitude = 6.4e10\nsamples = 20\n")
        assert main(["run", "--scenario", "fig1a", "--config", str(conf),
                     "--out", str(tmp_path)]) == 0
        g = pump_coupling(OMEGA_A, OMEGA_B, GAMMA_A, GAMMA_B, 100.0, 6.4e10)
        assert abs(g / (1.33e-2 * OMEGA_B) - 1.0) > 1e-3  # not the preset
        header = (tmp_path / "fig1a_comparison.csv").read_text().splitlines()
        assert f"# gap: {g - 0.25 * (GAMMA_A - GAMMA_B):.17g}" in header

    def test_pump_without_steady_state_exits_2_before_any_output(
            self, tmp_path, capsys):
        conf = tmp_path / "pump.conf"
        conf.write_text("g0 = 100\npump_amplitude = 1e13\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: no coupling from the pump keys "
                              "g0, pump_amplitude, omega_p: ")
        assert "did not converge" in err
        assert not out.exists()
