"""Tests for the command-line interface.

Commands run in-process through run(); one smoke test exercises the
installed console script. CSV floats must survive a repr round trip and
JSON output must carry the same values plus the full parameter echo.
"""

import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from specsense.auc import auc_average, auc_instantaneous
from specsense.cli import DEFAULT_SEED, SCHEMA_VERSION, run
from specsense.detection import DetectorConfig, _unit_target, average_pd, roc_curve, threshold_for_pfa
from specsense.entropy import entropy_report
from specsense.fading import FadingParams
from specsense.montecarlo import SimConfig, simulate_fusion, simulate_sls


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestPdCommand:
    def test_csv_shape_and_round_trip(self, capsys):
        code, out, _ = _run(
            capsys, ["pd", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5", "--pfa", "0.1"]
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["schema_version", "command", "pd", "terms", "last_term"]
        assert len(rows) == 1
        assert rows[0][0] == SCHEMA_VERSION and rows[0][1] == "pd"
        printed = rows[0][2]
        assert repr(float(printed)) == printed
        assert abs(float(printed) - 0.494) < 0.01

    def test_matches_library_value(self, capsys):
        lam = 9.5
        code, out, _ = _run(
            capsys,
            ["pd", "--u", "3", "--m", "1.3", "--ms", "2.7", "--snr-db", "7", "--threshold", str(lam)],
        )
        assert code == 0
        _, rows = _parse_csv(out)
        want = average_pd(DetectorConfig(u=3, threshold=lam), FadingParams.from_db(1.3, 2.7, 7.0))
        assert float(rows[0][2]) == want

    def test_json_document(self, capsys):
        argv = ["pd", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5", "--pfa", "0.1"]
        code, out, _ = _run(capsys, argv + ["--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "pd"
        assert doc["params"]["max_terms"] == 10_000
        code2, out2, _ = _run(capsys, argv)
        _, rows = _parse_csv(out2)
        assert doc["rows"][0]["pd"] == float(rows[0][2])

    def test_non_convergence_exit_code(self, capsys):
        code, _, err = _run(
            capsys,
            [
                "pd", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5",
                "--threshold", "60", "--max-terms", "10",
            ],
        )
        assert code == 1
        assert "non-convergence" in err

    def test_deep_false_alarm_target(self, capsys):
        argv = ["pd", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5", "--pfa", "1e-13"]
        code, out, _ = _run(capsys, argv + ["--format", "json"])
        assert code == 0
        lam = json.loads(out)["params"]["threshold"]
        assert math.isclose(lam, threshold_for_pfa(2, 1e-13), rel_tol=1e-15)
        # the exact upper-gamma tail at u = 2 is (1 + lam/2) e^{-lam/2}
        assert math.isclose((1.0 + lam / 2.0) * math.exp(-lam / 2.0), 1e-13, rel_tol=1e-12)

    def test_threshold_pfa_exclusivity(self, capsys):
        base = ["pd", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5"]
        code_neither, _, _ = _run(capsys, base)
        code_both, _, _ = _run(capsys, base + ["--threshold", "5", "--pfa", "0.1"])
        assert code_neither == 2
        assert code_both == 2


class TestRocCommand:
    def test_matches_library_curve(self, capsys):
        code, out, _ = _run(
            capsys,
            ["roc", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5", "--pf-grid", "0.01:0.9:5"],
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["schema_version", "command", "pf", "pd"]
        grid = np.geomspace(0.01, 0.9, 5)
        curve = roc_curve(FadingParams.from_db(2.0, 3.0, 5.0), DetectorConfig(u=2, threshold=1.0), pf_grid=grid)
        assert len(rows) == 5
        for row, (pf_i, pd_i) in zip(rows, curve.points):
            assert float(row[2]) == pf_i
            assert float(row[3]) == pd_i

    def test_awgn_path(self, capsys):
        code, out, _ = _run(
            capsys, ["roc", "--u", "1", "--snr-db", "3", "--pf-grid", "0.05:0.5:3"]
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert len(rows) == 3
        assert all(float(r[3]) >= float(r[2]) for r in rows)

    def test_simulated_curve_has_ci_column(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "roc", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5",
                "--pf-grid", "0.1:0.5:3", "--simulate", "--trials", "2000", "--seed", "7",
            ],
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["schema_version", "command", "pf", "pd", "ci95"]
        assert len(rows) == 3
        assert all(float(r[4]) > 0.0 for r in rows)

    def test_bad_grid_and_channel_are_usage_errors(self, capsys):
        code1, _, _ = _run(capsys, ["roc", "--u", "2", "--snr-db", "5", "--pf-grid", "oops"])
        code2, _, _ = _run(
            capsys, ["roc", "--u", "2", "--m", "2", "--ms", "0.5", "--snr-db", "5"]
        )
        code3, _, _ = _run(
            capsys,
            ["roc", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5", "--sls", "2", "--fusion", "or"],
        )
        assert (code1, code2, code3) == (2, 2, 2)

    @pytest.mark.parametrize(
        "extra, n_units, rule",
        [(["--sls", "2"], 2, "or"), (["--fusion", "and", "--users", "2"], 2, "and")],
    )
    def test_simulated_rows_are_the_library_simulator(self, capsys, extra, n_units, rule):
        # row k simulates at the unit threshold of its fused target, seed + k
        code, out, _ = _run(
            capsys,
            [
                "roc", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5", "--pf-grid", "0.05:0.5:3",
                "--simulate", "--trials", "1000", "--seed", "11",
            ]
            + extra,
        )
        assert code == 0
        _, rows = _parse_csv(out)
        grid = np.geomspace(0.05, 0.5, 3)
        ch = FadingParams.from_db(2.0, 3.0, 5.0)
        assert len(rows) == 3
        for k, (row, pf_unit) in enumerate(zip(rows, _unit_target(grid, n_units, rule))):
            cfg = DetectorConfig(u=2, threshold=threshold_for_pfa(2, float(pf_unit)))
            sim = SimConfig(trials=1000, seed=11 + k)
            if "--sls" in extra:
                want = simulate_sls(cfg, [ch, ch], sim)
            else:
                want = simulate_fusion(cfg, ch, n_units, rule, sim)
            assert [float(v) for v in row[2:]] == [grid[k], want.estimate, want.ci95_halfwidth]


class TestUsageErrors:
    # each raise of a ValueError in the handlers exits 2 with its message
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["roc", "--snr-db", "5", "--pf-grid", "0.5:0.1:3"],
             "--pf-grid needs 0 < lo < hi < 1 and count >= 2"),
            (["roc"], "--snr-db is required"),
            (["roc", "--snr-db", "5", "--simulate"], "--simulate requires a fading channel"),
            (["pd", "--m", "2", "--snr-db", "5", "--pfa", "0.1"],
             "--m and --ms are required for a fading channel"),
            (["pd", "--m", "2", "--ms", "3", "--pfa", "0.1"], "--snr-db is required"),
            (["pd", "--m", "2", "--ms", "3", "--snr-db", "5", "--threshold=-1"],
             "--threshold must be nonnegative"),
            (["auc", "--m", "2", "--ms", "3", "--snr-db", "5", "--sweep", "m:1:2"],
             "--sweep must look like axis:lo:hi:steps, e.g. m:1:15:10"),
            (["auc", "--m", "2", "--ms", "3", "--snr-db", "5", "--sweep", "q:1:2:3"],
             "--sweep axis must be 'm' or 'ms'"),
            (["auc", "--m", "2", "--ms", "3", "--snr-db", "5", "--sweep", "m:2:1:3"],
             "--sweep needs 0 < lo <= hi and steps >= 1"),
            (["auc", "--ms", "3", "--snr-db", "5"],
             "--m is required (or sweep it with --sweep m:lo:hi:steps)"),
            (["auc", "--m", "2", "--snr-db", "5"],
             "--ms is required (or sweep it with --sweep ms:lo:hi:steps)"),
            (["auc", "--m", "2", "--ms", "3"], "--snr-db is required"),
            (["auc", "--instantaneous"], "--snr-db is required"),
            (["entropy", "--m", "2", "--ms", "3"], "--m, --ms and --snr-db are required without --table"),
            (["roc", "--m", "2", "--ms", "3", "--snr-db", "5", "--sls", "0"], "--sls must be an integer >= 1"),
            (["roc", "--m", "2", "--ms", "3", "--snr-db", "5", "--sls", "-4"], "--sls must be an integer >= 1"),
            (["roc", "--snr-db", "5", "--sls", "0"], "--sls must be an integer >= 1"),
            (["roc", "--snr-db", "5", "--users", "0"], "--users must be an integer >= 1"),
            (["roc", "--m", "2", "--ms", "3", "--snr-db", "5", "--users", "-3"], "--users must be an integer >= 1"),
            (["roc", "--m", "2", "--ms", "3", "--snr-db", "5", "--fusion", "or", "--users", "0"],
             "--users must be an integer >= 1"),
        ],
    )
    def test_exits_two_with_its_message(self, capsys, argv, message):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", f"specsense {argv[0]}: {message}\n")


class TestAucCommand:
    def test_sweep_grid(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "auc", "--u", "2", "--snr-db", "2", "--sweep", "m:1:4:4", "--sweep", "ms:1.5:3:3",
            ],
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["schema_version", "command", "m", "ms", "snr_db", "auc"]
        assert len(rows) == 12
        m0, ms0 = float(rows[0][2]), float(rows[0][3])
        want = auc_average(2, FadingParams.from_db(m0, ms0, 2.0))
        assert float(rows[0][5]) == want

    def test_instantaneous(self, capsys):
        code, out, _ = _run(capsys, ["auc", "--u", "1", "--snr-db", "3", "--instantaneous"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["schema_version", "command", "gamma_db", "auc"]
        assert float(rows[0][3]) == auc_instantaneous(1, 10.0 ** 0.3)


class TestEntropyCommand:
    def test_single_row_matches_report(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "entropy", "--m", "2", "--ms", "3", "--snr-db", "5",
                "--samples", "20000", "--seed", "11",
            ],
        )
        assert code == 0
        header, rows = _parse_csv(out)
        rep = entropy_report(FadingParams.from_db(2.0, 3.0, 5.0), 20000, 11)
        row = dict(zip(header, rows[0]))
        assert float(row["h_p"]) == rep.shannon_bits
        assert float(row["kl_nak"]) == rep.kl_nakagami_bits
        assert float(row["m_hat"]) == rep.fitted.m_hat

    def test_reference_table(self, capsys):
        code, out, _ = _run(
            capsys, ["entropy", "--table", "--samples", "200000", "--seed", str(DEFAULT_SEED)]
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert len(rows) == 8
        # spot anchor: m=2, m_s=3 at 5 dB has about 3.005 bits of entropy
        first = dict(zip(header, rows[0]))
        assert abs(float(first["h_p"]) - 3.005) < 0.005
        assert abs(float(first["m_hat"]) - 1.14) < 0.03


    @pytest.mark.parametrize("samples, seed", [(200_000, DEFAULT_SEED), (2_000, 5)])
    def test_table_rows_equal_the_library(self, capsys, samples, seed):
        # a pair's 5 dB and 15 dB rows share seed + k and so one draw; each
        # row still equals entropy_report for its own channel, bit for bit
        code, out, _ = _run(
            capsys, ["entropy", "--table", "--samples", str(samples), "--seed", str(seed)]
        )
        assert code == 0
        want = []
        for snr_db in (5.0, 15.0):
            for k, (m, ms) in enumerate(((2.0, 3.0), (2.0, 30.0), (20.0, 3.0), (20.0, 30.0))):
                rep = entropy_report(FadingParams.from_db(m, ms, snr_db), samples, seed + k)
                want.append([
                    m, ms, snr_db, rep.shannon_bits, rep.cross_rayleigh_bits,
                    rep.cross_nakagami_bits, rep.kl_rayleigh_bits, rep.kl_nakagami_bits,
                    rep.fitted.m_hat, rep.fitted.mean_snr_n,
                ])
        assert [[float(v) for v in row[2:]] for row in _parse_csv(out)[1]] == want

    def test_table_holds_at_most_three_and_a_half_sample_arrays(self, capsys):
        # the two gamma draws and one sample buffer, whose logs overwrite
        # it; a fourth live array would read about 4.1
        samples = 200_000
        argv = ["entropy", "--table", "--samples", str(samples)]
        assert run(argv) == 0
        tracemalloc.start()
        try:
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 3.5 * 8 * samples

class TestSimulateCommand:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--kind", "pd"],
            ["--kind", "fusion", "--users", "3", "--rule", "or"],
            ["--kind", "sls", "--sls", "2"],
        ],
    )
    def test_detection_kinds(self, capsys, extra):
        code, out, _ = _run(
            capsys,
            [
                "simulate", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5",
                "--pfa", "0.1", "--trials", "2000", "--seed", "3",
            ]
            + extra,
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["schema_version", "command", "kind", "estimate", "ci95", "trials", "analytic"]
        row = dict(zip(header, rows[0]))
        assert abs(float(row["estimate"]) - float(row["analytic"])) < 5.0 * float(row["ci95"])

    def test_auc_kind_needs_no_threshold(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "simulate", "--kind", "auc", "--u", "2", "--m", "2", "--ms", "3",
                "--snr-db", "5", "--trials", "2000", "--seed", "3",
            ],
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert rows[0][2] == "auc"


class TestSelftestCommand:
    def test_single_criterion(self, capsys):
        code, out, _ = _run(capsys, ["selftest", "--only", "2"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["schema_version", "command", "criterion", "name", "status", "detail", "seconds"]
        assert len(rows) == 1
        assert rows[0][4] == "pass"


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["pd", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_console_script_installed(self):
        out = subprocess.run(
            [sys.executable, "-m", "specsense.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "specsense" in out.stdout

    def test_closed_stdout_exits_141_without_a_traceback(self):
        # a reader that stops after a few bytes, as `specsense roc ... | head
        # -c 200` does; the 5000-row ROC overfills the pipe, so the write
        # meets the closed end
        proc = subprocess.Popen(
            [sys.executable, "-m", "specsense.cli", "roc", "--u", "2", "--m", "2", "--ms", "3", "--snr-db", "5",
             "--pf-grid", "1e-4:0.999:5000", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(200)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head.startswith(b'{"schema_version"')
        assert err == b""

    def test_import_loads_no_oracle_modules(self):
        # the CLI must start without scipy.stats and scipy.integrate; the
        # quadrature oracle imports its integrator on first use, and neither
        # it nor the acceptance criteria ever load scipy.stats
        code = (
            "import sys\n"
            "import specsense.cli\n"
            "loaded = [n for n in ('scipy.stats', 'scipy.integrate') if n in sys.modules]\n"
            "assert not loaded, loaded\n"
            "import specsense.acceptance\n"
            "from specsense.detection import DetectorConfig, average_pd, average_pd_quadrature\n"
            "from specsense.fading import FadingParams\n"
            "cfg, p = DetectorConfig(u=2, threshold=9.5), FadingParams.from_db(2.0, 3.0, 5.0)\n"
            "diff = abs(average_pd_quadrature(cfg, p) - average_pd(cfg, p))\n"
            "assert diff <= 1e-8, diff\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_commands_load_no_scipy(self):
        # every command but selftest runs on numpy alone; the oracle still
        # loads scipy on its first call
        chan = "--u 2 --m 2 --ms 3 --snr-db 5 "
        commands = [
            "pd " + chan + "--pfa 0.1",
            "roc " + chan + "--pf-grid 1e-4:0.999:50",
            "roc " + chan + "--fusion or --users 3",
            "auc --u 2 --snr-db 2 --sweep m:1:15:3 --sweep ms:1.5:30:3",
            "entropy --table --samples 2000",
            "simulate " + chan + "--pfa 0.1 --kind fusion --users 3 --rule or --trials 2000",
        ]
        code = (
            "import contextlib, io, sys\n"
            "from specsense.cli import run\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert run(argv.split()) == 0, argv\n"
            "loaded = [n for n in sys.modules if n.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
            "from specsense.detection import DetectorConfig, average_pd, average_pd_quadrature\n"
            "from specsense.fading import FadingParams\n"
            "cfg, p = DetectorConfig(u=2, threshold=9.5), FadingParams.from_db(2.0, 3.0, 5.0)\n"
            "diff = abs(average_pd_quadrature(cfg, p) - average_pd(cfg, p))\n"
            "assert diff <= 1e-8, diff\n"
            "assert 'scipy.special' in sys.modules\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
