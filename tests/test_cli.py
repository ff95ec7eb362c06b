"""Configuration parsing and command-line interface tests."""

import contextlib
import csv
import ctypes
import errno
import io
import json
import os
import resource
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rfvlc import ConfigError, ScenarioConfig, simulate_trials, validate
from rfvlc import cli, engine
from rfvlc.cli import build_parser, main
from rfvlc.config import (_SPECIAL_KEYS, DEFAULT_SEED, DEFAULT_TRIALS,
                          config_digest, parse_config)
from rfvlc.metrics import MODES
from rfvlc.scenario import FLOAT_KEYS, WEATHER_KINDS, config_floats

_DEFAULTS = config_floats(ScenarioConfig())

# Mostly `key = value` lines with known keys, and some junk lines.  Values
# are numbers, special values, names the special keys take, or junk.
_WORD = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                              blacklist_characters="#="), max_size=8)
_VALUE = st.one_of(
    st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "0x10", "0",
                     "1e-320", "1e-8", "1e200", "-5000", "clear", "fog",
                     "drizzle", "rayleigh", "nakagami"]),
    _WORD)
_KEY = st.sampled_from(sorted(FLOAT_KEYS) + list(_SPECIAL_KEYS))
_LINE = st.tuples(_KEY, _VALUE).map(" = ".join)
_DOCUMENT = st.lists(st.one_of(_LINE, _LINE, _LINE, _WORD),
                     max_size=6).map("\n".join)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        config, spec = parse_config("")
        assert config == ScenarioConfig()
        assert config_digest(config, spec) == config_digest(ScenarioConfig(), spec)
        assert config.lambda_density == 0.01
        assert spec.weathers == ("clear", "rain", "fog", "dry_snow")
        assert spec.master_seed == DEFAULT_SEED
        assert spec.n_trials == DEFAULT_TRIALS
        assert spec.check() == []

    def test_assignments_and_comments(self):
        text = """
        # scenario overrides
        lambda_density = 0.02   # denser road
        payload_h = 1024
        weather = fog
        rf.tx_power = 0.1
        trials = 5000
        seed = 0xdeadbeef
        """
        config, spec = parse_config(text)
        assert config.lambda_density == 0.02
        assert config.payload_h == 1024.0
        assert spec.weathers == ("fog",)
        assert config.rf.tx_power == 0.1
        assert spec.n_trials == 5000
        assert spec.master_seed == 0xDEADBEEF

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*lambda_densty"):
            parse_config("payload_h = 50\nlambda_densty = 0.02\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("payload_h = 50\npayload_h = 60\n")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="payload_h"):
            parse_config("payload_h = far\n")

    def test_domain_violation_names_field(self):
        with pytest.raises(ConfigError, match="beta_ov"):
            parse_config("beta_ov = 1.5\n")

    def test_bad_weather_name(self):
        with pytest.raises(ConfigError):
            parse_config("weather = drizzle\n")

    def test_weather_key_sets_the_swept_weathers(self):
        _, spec = parse_config("weather = rain, dry_snow\n")
        assert spec.weathers == ("rain", "dry_snow")

    @pytest.mark.parametrize("value, message", [
        ("fog, fog", "must not repeat"), (",", "must be nonempty"),
        ("clear, drizzle", "sweep.weathers: unknown weather 'drizzle'")],
        ids=["repeated", "empty", "unknown"])
    def test_bad_weather_list(self, value, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(f"weather = {value}\n")

    def test_non_finite_values_rejected(self):
        for key in ("payload_h", "rf.tx_power", "vlc.pd_area",
                    "geometry.tx_height", "geometry.rsu_tilt_deg"):
            with pytest.raises(ConfigError, match="finite"):
                parse_config(f"{key} = nan\n")

    def test_bad_geometry_is_config_error(self):
        with pytest.raises(ConfigError, match="lane_half_length"):
            parse_config("geometry.lane_half_length = -1\n")

    def test_geometry_problems_do_not_hide_the_others(self):
        with pytest.raises(ConfigError) as info:
            parse_config("geometry.lane_half_length = -1\nbeta_ov = 2\n")
        assert "geometry.lane_half_length: must be > 0" in str(info.value)
        assert "beta_ov: must be in (0, 1]" in str(info.value)

    def test_negative_rsu_height_names_its_key(self):
        with pytest.raises(ConfigError, match=r"geometry\.rsu_height: must be >= 0"):
            parse_config("geometry.rsu_height = -1\n")

    def test_unknown_weather_is_reported_with_the_other_problems(self):
        with pytest.raises(ConfigError) as info:
            parse_config("weather = hail\nbeta_ov = 2\n")
        assert "sweep.weathers: unknown weather 'hail'" in str(info.value)
        assert "beta_ov: must be in (0, 1]" in str(info.value)

    def test_schema_has_31_float_keys_and_4_special_keys(self):
        # prefix + field name over ScenarioConfig and its three sections
        assert len(FLOAT_KEYS) == 31
        assert len(_SPECIAL_KEYS) == 4
        assert {section for section, _ in FLOAT_KEYS.values()} == \
            {"", "geometry", "vlc", "rf"}
        assert all(key.endswith(name) for key, (_, name) in FLOAT_KEYS.items())
        assert set(FLOAT_KEYS) | set(_SPECIAL_KEYS) == {
            "lambda_density", "rho_access", "rho_a", "beta_ov", "distance_r",
            "payload_h", "sinr_threshold_vlc_db", "sinr_threshold_rf_db",
            "geometry.lane_half_length", "geometry.lane_x_offset",
            "geometry.lane_y_offset", "geometry.rsu_height",
            "geometry.rsu_tilt_deg", "geometry.tx_height",
            "vlc.optical_tx_power", "vlc.semi_angle_half_power", "vlc.pd_area",
            "vlc.fov", "vlc.optical_filter_gain",
            "vlc.concentrator_refractive_index",
            "vlc.responsivity", "vlc.bandwidth", "vlc.noise_psd",
            "rf.tx_power", "rf.reference_loss_db", "rf.reference_distance",
            "rf.path_loss_exponent", "rf.bandwidth", "rf.noise_psd",
            "rf.noise_figure_db", "rf.nakagami_m", "rf.fading",
            "weather", "trials", "seed"}

    @pytest.mark.parametrize("key", sorted(FLOAT_KEYS.keys() - {"distance_r"}))
    def test_each_float_key_sets_its_field(self, key):
        value = _DEFAULTS[key] * 1.01 if _DEFAULTS[key] else 0.5
        config, _ = parse_config(f"{key} = {value!r}\n")
        assert config_floats(config) == {**_DEFAULTS, key: value}

    def test_distance_r_key_is_rejected(self):
        # every sweep replaces distance_r with its --distances: the key
        # would change nothing
        with pytest.raises(ConfigError, match=r"^line 2: distance_r is set per "
                                              r"sweep point by --distances$"):
            parse_config("rho_a = 0.5\ndistance_r = 77\n")

    def test_seed_range_ends(self):
        for seed in (0, 2**64 - 1):
            assert parse_config(f"seed = {seed}\n")[1].master_seed == seed

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_DOCUMENT)
    def test_any_document_validates_or_is_config_error(self, text):
        # and a document that validates runs: a small kernel pass at its
        # distance gives finite SINRs
        try:
            config, spec = parse_config(text)
        except ConfigError:
            return
        assert validate(config) == []
        sinr_vlc, sinr_rf = simulate_trials(config, (config.distance_r,), spec.weathers[:1],
                                            np.random.default_rng(1), 64)
        assert np.isfinite(sinr_vlc).all() and np.isfinite(sinr_rf).all()

    def test_geometry_keys(self):
        config, _ = parse_config(
            "geometry.rsu_height = 6\ngeometry.rsu_tilt_deg = 30\n")
        rsu = config.geometry.rsu_pose
        assert rsu.z == 6.0
        assert rsu.axis[2] == pytest.approx(-0.5, rel=1e-12)  # sin 30 deg down


def _run(argv):
    return main(argv)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


FAST = ["--trials", "200", "--seed", "7"]


class TestCliPrpSweep:
    def test_csv_shape_and_header(self, tmp_path):
        out = str(tmp_path / "out")
        rc = _run(["prp-sweep", "--out", out, "--distances", "50,100",
                   "--weather", "clear,fog", "--modes", "pure_vlc,la"] + FAST)
        assert rc == 0
        lines = _read(os.path.join(out, "prp_sweep.csv")).splitlines()
        assert lines[0] == "distance_m,weather,mode,prp,stderr,ci95_low,ci95_high,n_trials"
        assert len(lines) == 1 + 2 * 2 * 2
        first = lines[1].split(",")
        assert first[:3] == ["50", "clear", "pure_vlc"]
        assert 0.0 <= float(first[3]) <= 1.0
        assert first[7] == "200"

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch, forced_split):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        # two chunk indices, so that a second process has a share
        args = ["prp-sweep", "--distances", "50,150", "--weather", "clear",
                "--trials", "5000", "--seed", "7"]
        assert _run(args + ["--out", a]) == 0
        assert _run(args + ["--out", b, "--workers", "2"]) == 0
        assert forced_split == [[1]]   # the second run split
        assert _read(os.path.join(a, "prp_sweep.csv")) == \
            _read(os.path.join(b, "prp_sweep.csv"))

    def test_manifest_contents(self, tmp_path):
        out = str(tmp_path / "out")
        assert _run(["prp-sweep", "--out", out, "--distances", "50",
                     "--weather", "clear"] + FAST) == 0
        manifest = json.loads(_read(os.path.join(out, "run.manifest")))
        assert manifest["subcommand"] == "prp-sweep"
        assert manifest["master_seed"] == 7
        assert manifest["n_trials"] == 200
        assert len(manifest["config_sha256"]) == 64
        assert manifest["rng_scheme"] == "splitmix64-shared-chunk/pcg64"
        assert manifest["chunk_size"] == 4096
        assert manifest["tool_version"] == "0.5.2"
        assert manifest["python_version"] == sys.version
        assert manifest["numpy_version"] == np.__version__
        # how the sweep ran: its processes, wall time, rate and page faults
        assert manifest["workers"] == 1
        assert manifest["sweep_seconds"] > 0
        assert manifest["trials_per_s"] == 200 / manifest["sweep_seconds"]
        assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] >= 0

    def test_manifest_records_the_workers_used(self, tmp_path, monkeypatch, forced_split):
        # one per chunk index (every distance shares it) and per usable CPU,
        # whatever --workers asks for
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        for distances, trials, workers in (("50", 200, 1), ("50,100,150", 200, 1),
                                           ("50,100,150", 5000, 2)):
            out = str(tmp_path / f"{distances}_{trials}")
            started = len(forced_split)
            assert _run(["prp-sweep", "--out", out, "--distances", distances,
                         "--weather", "clear", "--workers", "8", "--trials", str(trials),
                         "--seed", "7"]) == 0
            manifest = json.loads(_read(os.path.join(out, "run.manifest")))
            assert manifest["workers"] == workers == 1 + len(forced_split) - started
            assert manifest["trials_per_s"] == (
                len(distances.split(",")) * trials / manifest["sweep_seconds"])

    def test_second_sweep_reuses_the_heap(self, tmp_path):
        # chunk temporaries stay in the heap between chunks and runs, so an
        # identical rerun faults almost no page in
        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("glibc mallopt is not available")
        argv = ["rate-sweep", "--out", str(tmp_path)]
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000

    def test_gnuplot_files(self, tmp_path):
        out = str(tmp_path / "out")
        assert _run(["prp-sweep", "--out", out, "--distances", "50,100",
                     "--weather", "clear", "--modes", "la", "--gnuplot"] + FAST) == 0
        dat = _read(os.path.join(out, "prp_clear_la.dat")).splitlines()
        assert len(dat) == 2
        assert len(dat[0].split()) == 3


    def test_weather_key_sets_the_rows_and_the_flag_overrides_it(self, tmp_path):
        cfg = tmp_path / "fog.cfg"
        cfg.write_text("weather = fog\n")
        for flags, kinds in (([], {"fog"}), (["--weather", "clear"], {"clear"})):
            out = str(tmp_path / "-".join(kinds))
            assert _run(["prp-sweep", "--config", str(cfg), "--out", out,
                         "--distances", "50,100"] + flags + FAST) == 0
            lines = _read(os.path.join(out, "prp_sweep.csv")).splitlines()[1:]
            assert len(lines) == 2 * 3
            assert {line.split(",")[1] for line in lines} == kinds


class TestCliWorkers:
    # (argv, config lines, processes): the sweep's estimated work caps them
    # at one per engine._SPLIT_WORK trial-equivalents
    _SHAPES = {
        # the dor_pool benchmark: 2 x 16384 sparse trials, 4 chunk indices
        "dor_pool": (["dor-sweep", "--trials", "16384"], [], 1),
        "dor_default": (["dor-sweep"], [], 1),   # 2 x 100k trials
        "rate_default": (["rate-sweep"], [], 2),   # 5 x 100k trials
        # the default 25 distances sharing one chunk index
        "prp_grid_25": (["prp-sweep", "--trials", "4096"], [], 1),
        # lambda * rho = 1e-2: a trial weighs ~7.7 sparse ones; at 4096
        # trials the six distances share one chunk index
        "dense_6x4096": (["prp-sweep", "--weather", "clear", "--distances",
                          "10,25,50,100,150,200", "--trials", "4096"],
                         ["rho_access = 1.0"], 1),
        "dense_6x8192": (["prp-sweep", "--weather", "clear", "--distances",
                          "10,25,50,100,150,200", "--trials", "8192"],
                         ["rho_access = 1.0"], 2),
        "dense_4x4096": (["prp-sweep", "--weather", "clear", "--distances",
                          "10,25,50,100", "--trials", "4096"], ["rho_access = 1.0"], 1),
        "dense_2x4096": (["prp-sweep", "--weather", "clear", "--distances", "10,25",
                          "--trials", "4096"], ["rho_access = 1.0"], 1),
        "lambda_zero": (["prp-sweep", "--distances", "50,100,150", "--trials", "200"],
                        ["lambda_density = 0"], 1),
    }

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_sweep_splits_only_where_its_work_pays(
            self, tmp_path, monkeypatch, started_helpers, shape):
        argv, lines, workers = self._SHAPES[shape]
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        conf = tmp_path / "shape.conf"
        conf.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = str(tmp_path / "out")
        assert _run(argv + ["--workers", "2", "--config", str(conf), "--out", out]) == 0
        manifest = json.loads(_read(os.path.join(out, "run.manifest")))
        # the manifest records the processes that really ran
        assert manifest["workers"] == workers == 1 + len(started_helpers)


    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sweep", ["prp-sweep", "rate-sweep", "dor-sweep"])
    def test_a_distance_gives_its_rows_of_a_longer_grid(
            self, tmp_path, monkeypatch, forced_split, sweep, workers):
        # every distance shares each chunk's draws, and a row depends on
        # (config, distance, seed, trials) alone: --distances 40 prints the
        # 40 m rows of --distances 10,40,250, byte for byte
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        tables = []
        for distances in ("40", "10,40,250"):
            out = tmp_path / distances
            assert _run([sweep, "--distances", distances, "--trials", "5000", "--seed", "7",
                         "--workers", str(workers), "--out", str(out)]) == 0
            csv, = out.glob("*_sweep.csv")
            tables.append(_read(str(csv)).splitlines())
        (header, *alone), (longer_header, *longer) = tables
        column = header.split(",").index("distance_m")
        assert longer_header == header and alone
        assert [line for line in longer if line.split(",")[column] == "40"] == alone
        assert len(longer) == 3 * len(alone)
        assert len(forced_split) == 2 * (workers - 1)   # two chunk indices to split


class TestCliRateSweep:
    def test_defaults_to_all_modes(self, tmp_path):
        out = str(tmp_path / "out")
        assert _run(["rate-sweep", "--out", out, "--distances", "50",
                     "--weather", "clear"] + FAST) == 0
        lines = _read(os.path.join(out, "rate_sweep.csv")).splitlines()
        assert lines[0] == "distance_m,weather,mode,rate_mbps,stderr,ci95_low,ci95_high,n_trials"
        assert {l.split(",")[2] for l in lines[1:]} == \
            {"pure_vlc", "pure_rf", "la", "non_la"}

    def test_la_at_least_beta_times_non_la(self, tmp_path):
        out = str(tmp_path / "out")
        assert _run(["rate-sweep", "--out", out, "--distances", "50,150,250",
                     "--weather", "clear"] + FAST) == 0
        rows = {}
        for line in _read(os.path.join(out, "rate_sweep.csv")).splitlines()[1:]:
            f = line.split(",")
            rows[(f[0], f[2])] = float(f[3])
        for d in ("50", "150", "250"):
            assert rows[(d, "la")] >= 0.8 * rows[(d, "non_la")] - 1e-9


class TestCliDorSweep:
    def test_csv_shape(self, tmp_path):
        out = str(tmp_path / "out")
        assert _run(["dor-sweep", "--out", out, "--distances", "50,200",
                     "--t-th-ms", "1,3,10", "--weather", "clear",
                     "--modes", "la,pure_rf"] + FAST) == 0
        lines = _read(os.path.join(out, "dor_sweep.csv")).splitlines()
        assert lines[0] == "t_th_ms,distance_m,weather,mode,dor,stderr,ci95_low,ci95_high,n_trials"
        assert len(lines) == 1 + 3 * 2 * 2

    def test_dor_nonincreasing_per_curve(self, tmp_path):
        out = str(tmp_path / "out")
        assert _run(["dor-sweep", "--out", out, "--distances", "200",
                     "--t-th-ms", "0.5,1,2,4,8", "--weather", "clear",
                     "--modes", "la"] + FAST) == 0
        values = [float(l.split(",")[4]) for l in
                  _read(os.path.join(out, "dor_sweep.csv")).splitlines()[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_dor_exactly_nonincreasing_on_a_fine_grid(self, tmp_path):
        # 51 thresholds 0.01 ms apart, where DOR(la) at 150 m falls from
        # ~0.93 to ~0.85: each step moves it by less than its standard
        # error, so only thresholds scored on shared trials stay monotone
        out = str(tmp_path / "out")
        t_th = ",".join(format(5.0 + 0.01 * i, ".9g") for i in range(51))
        assert _run(["dor-sweep", "--out", out, "--distances", "150",
                     "--t-th-ms", t_th, "--weather", "clear", "--modes", "la",
                     "--trials", "4096", "--seed", "7"]) == 0
        values = [float(l.split(",")[4]) for l in
                  _read(os.path.join(out, "dor_sweep.csv")).splitlines()[1:]]
        assert len(values) == 51 and values[-1] < values[0] < 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_workers_do_not_change_bytes(self, tmp_path, monkeypatch, forced_split):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["dor-sweep", "--distances", "50,200", "--t-th-ms", "2,4,8",
                "--weather", "clear,fog", "--trials", "5000", "--seed", "7"]
        assert _run(args + ["--out", a]) == 0
        assert _run(args + ["--out", b, "--workers", "2"]) == 0
        assert forced_split == [[1]]   # the second run split
        assert _read(os.path.join(a, "dor_sweep.csv")) == \
            _read(os.path.join(b, "dor_sweep.csv"))

    def test_gnuplot_files(self, tmp_path):
        out = str(tmp_path / "out")
        assert _run(["dor-sweep", "--out", out, "--distances", "50,200",
                     "--t-th-ms", "1,3,10", "--weather", "clear", "--modes", "la",
                     "--gnuplot"] + FAST) == 0
        dat = _read(os.path.join(out, "dor_50m_clear_la.dat")).splitlines()
        assert [line.split()[0] for line in dat] == ["0.001", "0.003", "0.01"]
        assert os.path.exists(os.path.join(out, "dor_200m_clear_la.dat"))


class TestCliValidate:
    def test_good_config(self, tmp_path, capsys):
        cfg = tmp_path / "good.cfg"
        cfg.write_text("payload_h = 1024\nweather = rain\n")
        assert _run(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta_ov = 2.0\n")
        assert _run(["validate", "--config", str(cfg)]) == 2
        assert "beta_ov" in capsys.readouterr().err


class TestCliErrors:
    def test_unknown_mode_is_config_error(self, tmp_path, capsys):
        assert _run(["prp-sweep", "--out", str(tmp_path / "o"),
                     "--modes", "warp"] + FAST) == 2
        assert "warp" in capsys.readouterr().err

    def test_bad_distance_list(self, tmp_path, capsys):
        assert _run(["prp-sweep", "--out", str(tmp_path / "o"),
                     "--distances", "50,abc"] + FAST) == 2
        capsys.readouterr()

    def test_nan_distance_fails_validate(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["prp-sweep", "--out", str(out), "--distances", "50,nan"] + FAST) == 2
        captured = capsys.readouterr()
        assert "distance_r: must be finite" in captured.err
        assert "sweep.distances: must be finite" in captured.err
        assert captured.out == "" and not out.exists()

    def test_absurd_trial_count_is_config_error(self, tmp_path, capsys):
        # rejected before the chunk grid is listed
        out = tmp_path / "o"
        assert _run(["prp-sweep", "--out", str(out), "--distances", "50",
                     "--trials", "99999999999999999999"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: sweep.n_trials: must be <=")
        assert captured.out == "" and not out.exists()

    def test_overflowing_distance_is_config_error(self, tmp_path, capsys):
        # the squared distance to the desired vehicle overflows
        assert _run(["rate-sweep", "--out", str(tmp_path / "o"),
                     "--distances", "1e200"] + FAST) == 2
        assert "squared distances" in capsys.readouterr().err

    def test_distance_r_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("distance_r = 77\n")
        out = tmp_path / "o"
        assert _run(["prp-sweep", "--config", str(cfg), "--out", str(out),
                     "--distances", "50"] + FAST) == 2
        assert ("configuration error: line 1: distance_r is set per sweep point "
                "by --distances") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_config_error(self, tmp_path, capsys, seed):
        # derive_seed masks to 64 bits: -1 would alias 2^64 - 1, and 2^64 alias 0
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"seed = {seed}\n")
        for args in (["--config", str(cfg)], [f"--seed={seed}"]):
            out = tmp_path / "o"
            assert _run(["prp-sweep", "--out", str(out), "--distances", "50",
                         "--trials", "200"] + args) == 2
            assert "sweep.master_seed: must be in [0, 2^64)" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["prp-sweep", "validate"])
    def test_file_is_judged_before_the_flags(self, tmp_path, capsys, subcommand):
        # a flag replaces a file value only once the whole file has passed:
        # a bad value stays an error under a good flag
        out = tmp_path / "o"
        sweep = ["--out", str(out), "--distances", "50"] if subcommand != "validate" else []
        for text, flag, error in (
                ("trials = 5", "--trials=200", "sweep.n_trials: must be >= 100"),
                ("weather = foo", "--weather=clear", "sweep.weathers: unknown weather 'foo'")):
            cfg = tmp_path / "f.cfg"
            cfg.write_text(text + "\n")
            assert _run([subcommand, "--config", str(cfg), flag] + sweep) == 2
            assert capsys.readouterr() == ("", f"configuration error: {error}\n")
            assert not out.exists()

    def test_infinite_density_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("lambda_density = inf\n")
        assert _run(["prp-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--distances", "50"] + FAST) == 2
        assert "lambda_density: must be finite" in capsys.readouterr().err

    def test_zero_delay_threshold_is_config_error(self, tmp_path, capsys):
        assert _run(["dor-sweep", "--out", str(tmp_path / "o"),
                     "--t-th-ms", "0,1"] + FAST) == 2
        assert "delay thresholds must be > 0" in capsys.readouterr().err

    def test_empty_delay_thresholds_are_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["dor-sweep", "--out", str(out), "--t-th-ms", ","] + FAST) == 2
        assert "t_th: must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_distance_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["prp-sweep", "--out", str(out), "--distances=-50,10"] + FAST) == 2
        assert "distance_r: must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_workers_is_config_error(self, tmp_path, capsys):
        assert _run(["prp-sweep", "--out", str(tmp_path / "o"), "--distances", "50",
                     "--workers", "0"] + FAST) == 2
        assert "n_workers" in capsys.readouterr().err

    def test_duplicate_dor_distances_are_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["dor-sweep", "--out", str(out), "--distances", "50,50",
                     "--t-th-ms", "1"] + FAST) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_decreasing_dor_distances_are_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["dor-sweep", "--out", str(out), "--distances", "200,50",
                     "--t-th-ms", "1"] + FAST) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_rsu_tilt_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "tilt.cfg"
        cfg.write_text("geometry.rsu_tilt_deg = inf\n")
        assert _run(["validate", "--config", str(cfg)]) == 2
        assert "geometry.rsu_tilt_deg: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--modes="], ["--modes", ""], ["--weather="],
                                      ["--weather", " "]], ids=" ".join)
    @pytest.mark.parametrize("subcommand", ["rate-sweep", "validate"])
    def test_empty_list_flag_is_config_error(self, tmp_path, capsys, subcommand, flag):
        # an empty list is not the flag left out: no default takes its place
        out = tmp_path / "o"
        argv = [subcommand, *flag]
        if subcommand != "validate":
            argv += ["--out", str(out), "--distances", "50"] + FAST
        assert _run(argv) == 2
        captured = capsys.readouterr()
        name = "modes" if "modes" in flag[0] else "weathers"
        assert captured.err == f"configuration error: sweep.{name}: must be nonempty\n"
        assert captured.out == "" and not out.exists()

    def test_empty_mode_list_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["prp-sweep", "--out", str(out), "--distances", "50",
                     "--modes", ","] + FAST) == 2
        assert "sweep.modes: must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_modes_are_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["prp-sweep", "--out", str(out), "--distances", "50",
                     "--modes", "la,la"] + FAST) == 2
        assert "sweep.modes: must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_weathers_are_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["rate-sweep", "--out", str(out), "--distances", "50",
                     "--weather", "clear,clear"] + FAST) == 2
        assert "sweep.weathers: must not repeat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["fog,fog", "fog,drizzle"])
    def test_bad_weather_key_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"weather = {value}\n")
        assert _run(["prp-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--distances", "50"] + FAST) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_lane_overflowing_at_zero_density_is_config_error(self, tmp_path, capsys):
        # 2L overflows: the deployment's uniform(-L, L) would raise OverflowError
        cfg = tmp_path / "long.cfg"
        cfg.write_text("lambda_density = 0\ngeometry.lane_half_length = 1e308\n")
        assert _run(["prp-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--distances", "50"] + FAST) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "lane_half_length" in err

    def test_overflowing_interferer_count_is_config_error(self, tmp_path, capsys):
        # lambda * rho * 4L overflows to inf, past the interferer bound
        cfg = tmp_path / "dense.cfg"
        cfg.write_text("lambda_density = 1e308\ngeometry.lane_half_length = 1e308\n")
        assert _run(["prp-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--distances", "50"] + FAST) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "expected interferers" in err

    @pytest.mark.parametrize("text", [
        "vlc.semi_angle_half_power = 1e-8",      # Lambertian order: ln(cos) = 0
        "vlc.fov = 1e-320",                      # concentrator: sin^2 = 0
        "rf.noise_figure_db = -5000",            # RF noise power underflows
        "vlc.optical_tx_power = 1e200",          # VLC power overflows: nan
        "vlc.responsivity = 1e160",              # VLC power overflows: inf
        "rf.tx_power = 1e300\nrf.reference_loss_db = -100",  # RF overflows: nan
        "rf.reference_loss_db = -5000",          # 10^500 overflows
        "rf.noise_figure_db = 5000",
        "rf.reference_distance = 1e200",         # (d / d0)^-alpha overflows
        "geometry.lane_x_offset = 1e200",        # squared distances overflow
        "distance_r = 1e200",                    # not a file key at all
        "rf.bandwidth = 1e200\nrf.noise_psd = 1e-320",   # rate^2 overflows
        "vlc.bandwidth = 1e200\nvlc.noise_psd = 1e-320",
        "rf.reference_distance = 1e-320",        # (d / d0)^-alpha underflows to 0
        "vlc.pd_area = 1e-300",                  # VLC peak power underflows to 0
    ])
    def test_degenerate_scale_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "scale.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "o"
        assert _run(["rate-sweep", "--config", str(cfg), "--out", str(out),
                     "--distances", "50"] + FAST) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("argv", [["validate"],
                                      ["prp-sweep", "--distances", "50"] + FAST],
                             ids=["validate", "prp-sweep"])
    @pytest.mark.parametrize("text", ["rf.reference_distance = 1e-320", "vlc.pd_area = 1e-300"])
    def test_peak_power_that_underflows_is_config_error(
            self, tmp_path, capsys, monkeypatch, argv, text):
        # the peak received power is 0: the link could never be received
        monkeypatch.chdir(tmp_path)
        (tmp_path / "weak.cfg").write_text(text + "\n")
        assert _run(argv + ["--config", "weak.cfg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "must be a normal float > 0" in err
        assert os.listdir(tmp_path) == ["weak.cfg"]

    @pytest.mark.parametrize("argv", [["validate"],
                                      ["prp-sweep", "--distances", "50"] + FAST],
                             ids=["validate", "prp-sweep"])
    def test_non_utf8_config_is_config_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        assert _run(argv + ["--config", "bad.cfg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bad.cfg: not UTF-8 text: ")
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["bad.cfg"]

    def _fail_manifest_write(self, tmp_path, capsys, monkeypatch, mid_file):
        # run.manifest is written last, after the CSV and the .dat files
        def stand_in(path, *args, **kwargs):
            if os.path.basename(path) != "run.manifest":
                return open(path, *args, **kwargs)
            if not mid_file:
                raise OSError(errno.ENOSPC, "No space left on device")
            return _HalfWriter(open(path, *args, **kwargs))

        monkeypatch.setattr(cli, "open", stand_in, raising=False)
        out = tmp_path / "o"
        assert _run(["prp-sweep", "--out", str(out), "--gnuplot",
                     "--distances", "50,100"] + FAST) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert list(out.iterdir()) == []

    def test_failed_run_leaves_no_partial_csv(self, tmp_path, capsys, monkeypatch):
        # the manifest write fails before its first byte
        self._fail_manifest_write(tmp_path, capsys, monkeypatch, mid_file=False)

    def test_failed_run_leaves_no_half_written_file(self, tmp_path, capsys, monkeypatch):
        # the manifest write fails with half of the file on disk
        self._fail_manifest_write(tmp_path, capsys, monkeypatch, mid_file=True)


# Misuse of the command line: config documents, and the sweep flags, good
# and bad.  Values include the edge values of a float (zeros of both
# signs, subnormals, huge, nan and inf) and default values scaled; every
# sweep runs 100-250 trials at 1-2 distances.
def _mostly(good, bad):
    """good in about seven draws of eight, else bad: a run reads about six
    draws, and most runs should end in a table."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 7 else good)


_EDGE = ["0", "-0.0", "5e-324", "1e-310", "1e300", "-1e300", "nan", "inf", "-inf"]
_SWEEP_KEYS = sorted(set(_DEFAULTS) - {"distance_r"})
_EDGE_LINE = st.tuples(st.sampled_from(_SWEEP_KEYS), st.sampled_from(_EDGE)).map(" = ".join)
_SCALED_LINE = st.tuples(st.sampled_from(_SWEEP_KEYS),
                         st.sampled_from([0.5, 0.9, 1.1, 2.0, 10.0, 0.0, -1.0, 1e3])).map(
    lambda kv: f"{kv[0]} = {_DEFAULTS[kv[0]] * kv[1]!r}")
_MISUSE_DOCUMENT = _mostly(
    st.lists(st.one_of(_SCALED_LINE, _EDGE_LINE), max_size=2,
             unique_by=lambda line: line.split(" = ")[0]).map("\n".join),
    _DOCUMENT)


def _comma_list(good, bad, max_size):
    """A comma list: mostly distinct good items in the order given, else
    any items, good or bad, in any order."""
    return _mostly(
        st.lists(st.sampled_from(good), min_size=1, max_size=max_size, unique=True).map(
            lambda items: ",".join(sorted(items, key=good.index))),
        st.lists(st.sampled_from(good + bad), max_size=max_size).map(",".join))


_MISUSE_FLAGS = st.fixed_dictionaries(
    {"--distances": _comma_list(["5e-324", "10", "50", "150", "250", "1e5"],
                                _EDGE + ["-5", "x"], 2),
     "--trials": _mostly(st.sampled_from(["100", "200", "250"]),
                         st.sampled_from(["99", "0", "-1"]))},
    optional={
        "--t-th-ms": _comma_list(["1e-300", "0.5", "1", "3", "10", "1e300"],
                                 _EDGE + ["x"], 3),
        "--seed": _mostly(st.sampled_from(["7", "0", str(2**64 - 1)]),
                          st.sampled_from(["-1", str(2**64)])),
        "--weather": _comma_list(list(WEATHER_KINDS), ["foo", ""], 2),
        "--modes": _comma_list(list(MODES), ["warp", ""], 3)})


def _misuse_run(subcommand, text, flags):
    """(exit code, stdout, stderr, CSV rows) of one sweep on the config
    document text and the flags, numeric warnings raised; the rows are
    None if the run made no output directory."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg, out = os.path.join(tmp, "c.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [subcommand, "--config", cfg, "--out", out] + [
            f"{flag}={value}" for flag, value in flags.items()
            if flag != "--t-th-ms" or subcommand == "dor-sweep"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        table = None
        if os.path.exists(out):
            stem = cli._SWEEPS[subcommand][2]
            with open(os.path.join(out, f"{stem}_sweep.csv"), encoding="utf-8") as fh:
                table = list(csv.DictReader(fh))
        return rc, stdout.getvalue(), stderr.getvalue(), table


def _check_table(metric, table):
    """A sweep's table is finite, and its PRP and DOR are probabilities with
    the exact orderings of the modes and thresholds."""
    curves = {}
    for row in table:
        numbers = [float(v) for k, v in row.items() if k not in ("weather", "mode")]
        assert all(np.isfinite(numbers)), row
        value, low, high = (float(row[k]) for k in (metric, "ci95_low", "ci95_high"))
        assert float(row["stderr"]) >= 0.0 and low <= value <= high, row
        if metric != "rate_mbps":
            assert 0.0 <= value <= 1.0 and 0.0 <= low and high <= 1.0, row
        key = (row["distance_m"], row["weather"])
        if metric == "dor":
            curves.setdefault(key + (row["mode"],), []).append(
                (float(row["t_th_ms"]), value))
        else:
            curves.setdefault(key, {})[row["mode"]] = value
    for curve in curves.values():
        if metric == "dor":   # nonincreasing in t_th
            dor = [value for _, value in sorted(curve)]
            assert all(b <= a for a, b in zip(dor, dor[1:])), curve
        elif metric == "prp" and "la" in curve:
            assert all(curve["la"] >= curve[m] for m in ("pure_vlc", "pure_rf") if m in curve)
            assert curve.get("non_la", curve["la"]) == curve["la"], curve


class TestCliMisuse:
    @settings(max_examples=250, deadline=None, database=None, derandomize=True)
    @given(_MISUSE_DOCUMENT, _MISUSE_FLAGS)
    # misuse once found by hand: a traceback, a wrong stderr with exit 0, and
    # link powers that underflow; and the extreme distances and thresholds
    # that are accepted
    @example("lambda_density = 1e308", {"--distances": "50", "--trials": "200"})
    @example("rf.bandwidth = 1e200", {"--distances": "50", "--trials": "200"})
    @example("rf.reference_distance = 1e-320", {"--distances": "50", "--trials": "200"})
    @example("vlc.pd_area = 1e-300", {"--distances": "50", "--trials": "200"})
    @example("", {"--distances": "5e-324,1e5", "--trials": "100",
                  "--t-th-ms": "1e-300,1,1e300"})
    def test_every_run_ends_in_a_checked_table_or_exit_2(self, text, flags):
        # an exception, a warning among them, fails the example as it
        # leaves main
        for subcommand, (_, metric, *_) in cli._SWEEPS.items():
            rc, out, err, table = _misuse_run(subcommand, text, flags)
            assert rc in (0, 2) and out == ""
            if rc == 2:
                assert err.startswith("configuration error: ") and table is None
            else:
                assert err == "" and table
                _check_table(metric, table)


class _HalfWriter:
    """A file whose one write stores half of its text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


# 0, -0, the smallest subnormal and normal floats, huge and tiny values,
# and values that round at the 9th digit (up, down, and to even)
_FORMAT_CASES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
                 0.1234567895, 0.12345678949999999, 123456789.5, 999999999.5,
                 1.0000000005, 0.99999999995, 2.5e-9, 1 / 3, 2 / 3, 100.0, 0.3,
                 float("inf"), float("-inf"), float("nan")]


class TestCsvText:
    @pytest.mark.parametrize("x", _FORMAT_CASES)
    def test_percent_format_is_fmt(self, x):
        assert "%.9g" % x == cli._fmt(x)
        assert "%.9g,%.9g" % (x, x) == f"{cli._fmt(x)},{cli._fmt(x)}"

    @pytest.mark.parametrize("metric", ["prp", "dor"])
    def test_lines_join_the_fmt_fields(self, metric):
        # the CSV and gnuplot lines, against each field formatted on its own
        estimates = [engine.MetricEstimate(x, y, 4096, -x, y / 3)
                     for x, y in zip(_FORMAT_CASES, _FORMAT_CASES[::-1])]
        rows = [engine.SweepRow(x, None if metric == "prp" else x * 1e-3, "fog", "la", est)
                for x, est in zip(_FORMAT_CASES[3:], estimates)]
        lines = cli._sweep_csv(tuple(rows), metric).splitlines()[1:]
        assert lines == [
            ",".join(([] if row.t_th is None else [cli._fmt(row.t_th * 1000.0)]) + [
                cli._fmt(row.distance), row.weather, row.mode, cli._fmt(row.estimate.value),
                cli._fmt(row.estimate.stderr), cli._fmt(row.estimate.ci95_low),
                cli._fmt(row.estimate.ci95_high), "4096"])
            for row in rows]
        dat = [line for text in cli._gnuplot_files(tuple(rows), "s").values()
               for line in text.splitlines()]
        assert dat == [" ".join(cli._fmt(x) for x in (
            row.distance if row.t_th is None else row.t_th,
            row.estimate.value, row.estimate.stderr)) for row in rows]


class TestCliParser:
    def test_sweep_defaults(self):
        parser = build_parser()
        three, four = ("pure_vlc", "pure_rf", "la"), ("pure_vlc", "pure_rf", "la", "non_la")
        for name, distances, modes in (
                ("prp-sweep", ",".join(str(d) for d in range(10, 251, 10)), three),
                ("rate-sweep", "50,100,150,200,250", four),
                ("dor-sweep", "50,200", three)):
            args = parser.parse_args([name])
            assert (args.subcommand, args.distances) == (name, distances)
            assert cli.sweep_call(args)[1].modes == modes
            assert (args.out, args.workers, args.gnuplot) == ("out", 1, False)
            assert hasattr(args, "t_th_ms") == (name == "dor-sweep")
        assert len(parser.parse_args(["prp-sweep"]).distances.split(",")) == 25
        assert parser.parse_args(["dor-sweep"]).t_th_ms == \
            "0.5,1,1.5,2,2.5,3,4,5,7.5,10"

    def test_cached_parser_keeps_no_state_between_calls(self):
        parser = build_parser()
        assert build_parser() is parser
        parser.parse_args(["prp-sweep", "--gnuplot", "--workers", "2", "--modes", "la"])
        assert (vars(parser.parse_args(["prp-sweep"]))
                == vars(build_parser.__wrapped__().parse_args(["prp-sweep"])))

    @pytest.mark.parametrize("flag", [["--out", "x"], ["--workers", "0"], ["--gnuplot"]],
                             ids=" ".join)
    def test_validate_rejects_sweep_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            _run(["validate"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
