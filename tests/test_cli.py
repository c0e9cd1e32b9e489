"""Tests for the command-line interface: config validation, formats, exit codes."""

import gc
import importlib
import io
import json
import sys

import pytest
from click.testing import CliRunner

from besseltau.cli import CSV_HEADER, main
from besseltau.monodromy import MonodromyParams
from besseltau.nekrasov import SeriesTruncation
from besseltau.tau import TauRoute, cross_validate

#: t-independent builds of the three routes, by defining module
BUILDERS = {
    "tau_series_terms": "besseltau.nekrasov",
    "z_dual_terms": "besseltau.nekrasov",
    "mode_matrix_a": "besseltau.kernel",
    "_d_factors": "besseltau.kernel",
}


def count_builds(monkeypatch):
    """Count calls of every builder, wherever a besseltau module binds it."""
    counts = dict.fromkeys(BUILDERS, 0)
    mods = [m for n, m in sys.modules.items() if n.startswith("besseltau")]
    for name, home in BUILDERS.items():
        orig = getattr(importlib.import_module(home), name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in mods:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.fixture
def runner():
    return CliRunner()


def _config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidation:
    def test_half_integer_sigma_exits_2(self, runner, tmp_path):
        cfg = _config(tmp_path, {"sigma": [0.5, 0], "eta": [0, 0]})
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 2
        assert "sigma on half-integer lattice" in result.output

    def test_unknown_field_exits_2(self, runner, tmp_path):
        cfg = _config(tmp_path, {"tgrid": {}})
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 2
        assert "tgrid" in result.output

    def test_malformed_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["tau", "-c", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "grid",
        [
            {"count": 0},
            {"spacing": "cubic"},
            {"start": -0.1, "spacing": "log"},
            # np.geomspace raised at stop 0 and printed nan rows at stop < 0
            {"start": 0.1, "stop": 0, "count": 3, "spacing": "log"},
            {"start": 0.1, "stop": -1, "count": 3, "spacing": "log"},
        ],
    )
    def test_bad_grid_exits_2(self, runner, tmp_path, grid):
        cfg = _config(tmp_path, {"t_grid": grid})
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            # Python's json reads NaN and Infinity
            '{"sigma": [NaN, 0]}',
            '{"sigma": [Infinity, 0]}',
            '{"eta": [0.1, -Infinity]}',
            '{"t_grid": {"start": NaN}}',
            '{"N_modes": 2.7}',
            '{"weight_cutoff": 1.5}',
            '{"charge_cutoff": "two"}',
            '{"t_grid": {"start": 0.01, "stop": 0.05, "count": 2.5}}',
            '{"tolerance": "tight"}',
            '{"tolerance": -1}',
            '{"tolerance": 0}',
            '{"fd_step": 1e-3}',
            # a number or true is not a path: open() would take it as a file descriptor
            '{"output": true}',
            '{"output": 1}',
            '{"output": 2}',
            '{"output": [1]}',
            # only JSON numbers are numbers: float() took booleans and numeric strings
            '{"N_modes": true, "method": "fredholm"}',
            '{"weight_cutoff": "3", "method": "maya"}',
            '{"sigma": ["-0.13", false]}',
            '{"t_grid": {"count": true}}',
            '{"tolerance": true}',
            # an integer beyond float range: float() raised OverflowError
            pytest.param('{"tolerance": 1' + "0" * 400 + "}", id="huge_int"),
            # the shape of the config and of its fields
            "[1, 2]",
            '{"t_grid": 5}',
            '{"t_grid": {"begin": 0.1}}',
            '{"sigma": [0.1]}',
            '{"weight_cutoff": -1}',
            '{"format": "xml"}',
        ],
    )
    def test_bad_value_exits_2(self, runner, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(payload)
        result = runner.invoke(main, ["tau", "-c", str(path)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert result.stdout == "" and len(result.stderr.splitlines()) == 1

    def test_unwritable_output_exits_2(self, runner, tmp_path):
        cfg = _config(tmp_path, {"output": str(tmp_path / "missing" / "out.csv")})
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 2, result.output
        assert "config error: cannot write output" in result.output

    @pytest.mark.parametrize(
        "grid",
        [
            {"start": 0.0, "stop": 0.0, "count": 1},
            {"start": -0.2, "stop": 0.0, "count": 3},
        ],
    )
    def test_check_without_positive_t_exits_2(self, runner, tmp_path, grid):
        result = runner.invoke(main, ["check", "-c", _config(tmp_path, {"t_grid": grid})])
        assert result.exit_code == 2, result.output
        assert "t_grid point > 0" in result.output

    def test_modes_at_zero_time_exits_2(self, runner, tmp_path):
        grid = {"start": 0.0, "stop": 0.0, "count": 1}
        result = runner.invoke(main, ["modes", "-c", _config(tmp_path, {"t_grid": grid})])
        assert result.exit_code == 2, result.output
        assert "config error: modes needs t_grid.start != 0" in result.output

    @pytest.mark.parametrize("sigma", [[-0.13, 0.05], [0.4, 0]], ids=["complex", "re_nu_above_half"])
    def test_convergence_at_zero_time_exits_2(self, runner, tmp_path, sigma):
        # t**exponent has no value at t = 0 for a complex or negative-real exponent
        grid = {"start": 0.0, "stop": 0.0, "count": 1}
        cfg = _config(tmp_path, {"sigma": sigma, "t_grid": grid})
        result = runner.invoke(main, ["convergence", "-c", cfg])
        assert result.exit_code == 2, result.output
        assert "config error: convergence needs t_grid.start != 0" in result.output

    def test_series_without_a_series_method_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["series", "-c", _config(tmp_path, {"method": "fredholm"})])
        assert result.exit_code == 2, result.output
        assert "config error: series has no fredholm method" in result.output

    @pytest.mark.parametrize("command", ["series", "modes", "convergence", "check"])
    def test_json_format_only_for_tau(self, runner, tmp_path, command):
        result = runner.invoke(main, [command, "-c", _config(tmp_path, {"format": "json"})])
        assert result.exit_code == 2, result.output
        assert f"config error: {command} has no JSON output" in result.output

    def test_integral_float_accepted(self, runner, tmp_path):
        cfg = _config(tmp_path, {"method": "fredholm", "N_modes": 6.0})
        assert runner.invoke(main, ["tau", "-c", cfg]).exit_code == 0

    def test_bad_method_exits_2(self, runner, tmp_path):
        cfg = _config(tmp_path, {"method": "pade"})
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 2
        assert "method" in result.output

    def test_numerical_failure_exits_3(self, runner, tmp_path, monkeypatch):
        import besseltau.cli as cli_mod
        from besseltau.errors import QuadratureConvergenceError

        def boom(*args, **kwargs):
            raise QuadratureConvergenceError("synthetic failure")

        monkeypatch.setattr(cli_mod, "TauRoute", boom)
        result = runner.invoke(main, ["tau"])
        assert result.exit_code == 3
        assert "numerical error" in result.output

    @pytest.mark.parametrize("method", ["fredholm", "maya", "nekrasov"])
    def test_overflow_exits_3(self, runner, tmp_path, method):
        cfg = _config(tmp_path, {"method": method, "t_grid": {"start": 1e50, "count": 1}})
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("numerical error: tau overflows")

    @pytest.mark.parametrize(
        "method, charge, weight",
        [("maya", 60, 1), ("nekrasov", 60, 1), ("maya", 300, 1), ("maya", 17000, 0)],
    )
    def test_series_overflow_exits_3(self, runner, tmp_path, method, charge, weight):
        # a coefficient beyond the double range is one error line, never a nan,
        # a warning or a traceback
        payload = {"method": method, "charge_cutoff": charge, "weight_cutoff": weight}
        result = runner.invoke(main, ["series", "-c", _config(tmp_path, payload)])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("numerical error: series coefficients")
        assert result.output.count("\n") == 1, result.output


class TestTauCommand:
    def test_default_run_csv(self, runner):
        result = runner.invoke(main, ["tau"])
        assert result.exit_code == 0
        lines = [
            line for line in result.output.splitlines() if "," in line
        ]
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert len(cells) == 12
        tau_fred = complex(float(cells[2]), float(cells[3]))
        tau_maya = complex(float(cells[4]), float(cells[5]))
        assert abs(tau_fred - tau_maya) / abs(tau_maya) < 1e-8

    def test_single_method_leaves_columns_empty(self, runner, tmp_path):
        cfg = _config(tmp_path, {"method": "nekrasov"})
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 0
        row = result.output.splitlines()[1].split(",")
        assert row[2] == "" and row[4] == "" and row[6] != ""

    def test_deterministic_output(self, runner, tmp_path):
        cfg = _config(
            tmp_path,
            {"t_grid": {"start": 0.01, "stop": 0.05, "count": 3}},
        )
        out1 = runner.invoke(main, ["tau", "-c", cfg]).output
        out2 = runner.invoke(main, ["tau", "-c", cfg]).output
        assert out1 == out2

    def test_json_round_trip(self, runner, tmp_path):
        out_file = tmp_path / "out.json"
        cfg = _config(
            tmp_path,
            {
                "format": "json",
                "output": str(out_file),
                "t_grid": {"start": 0.01, "stop": 0.05, "count": 2, "spacing": "log"},
            },
        )
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == 1
        assert len(payload["records"]) == 2
        assert set(payload["records"][0]) == set(CSV_HEADER.split(","))

    def test_invocations_keep_no_output_alive(self, runner):
        # click.echo without file= caches a wrapper per stream whose value
        # keeps the stream alive, so every in-process invocation's captured
        # output would stay in memory
        cfg = json.dumps({"method": "fredholm", "N_modes": 2})

        def live_buffers():
            gc.collect()
            return sum(isinstance(obj, io.BytesIO) for obj in gc.get_objects())

        runner.invoke(main, ["tau", "-c", "-"], input=cfg)
        before = live_buffers()
        for _ in range(200):
            assert runner.invoke(main, ["tau", "-c", "-"], input=cfg).exit_code == 0
        assert runner.invoke(main, ["tau", "-c", "-"], input='{"N_modes": 0}').exit_code == 2
        assert live_buffers() - before <= 5

    def test_stdin_config(self, runner):
        result = runner.invoke(
            main, ["tau", "-c", "-"], input=json.dumps({"method": "maya"})
        )
        assert result.exit_code == 0


class TestBuildOnce:
    def test_tau_grid_builds_each_route_once(self, runner, tmp_path, monkeypatch):
        cfg = _config(tmp_path, {"t_grid": {"start": 0.01, "stop": 0.2, "count": 5}})
        counts = count_builds(monkeypatch)
        result = runner.invoke(main, ["tau", "-c", cfg])
        assert result.exit_code == 0, result.output
        assert counts == dict.fromkeys(BUILDERS, 1)

    def test_check_builds_maya_route_once(self, runner, monkeypatch):
        counts = count_builds(monkeypatch)
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0, result.output
        assert counts["tau_series_terms"] == 1


class TestOtherSubcommands:
    def test_series_elementary_coefficients(self, runner, tmp_path):
        # nu = 1/4, eta = 0 degenerates to exp(-4 sqrt t): the t^{1/2}
        # coefficient is -4
        cfg = _config(
            tmp_path,
            {"sigma": [-0.25, 0], "eta": [0, 0], "weight_cutoff": 4, "charge_cutoff": 2},
        )
        result = runner.invoke(main, ["series", "-c", cfg])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        by_exponent = {}
        for n, k, e_re, e_im, c_re, c_im in rows:
            by_exponent.setdefault(float(e_re), 0.0)
            by_exponent[float(e_re)] += float(c_re)
        assert by_exponent[0.5] == pytest.approx(-4.0, rel=1e-10)
        assert by_exponent[1.0] == pytest.approx(8.0, rel=1e-10)

    def test_modes_comparison(self, runner, tmp_path):
        cfg = _config(tmp_path, {"N_modes": 3})
        result = runner.invoke(main, ["modes", "-c", cfg])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        data_rows = [r for r in rows if len(r) == 8]
        assert data_rows and max(float(r[7]) for r in data_rows) < 1e-10

    def test_convergence_stabilizes(self, runner, tmp_path):
        cfg = _config(tmp_path, {"N_modes": 10, "weight_cutoff": 5})
        result = runner.invoke(main, ["convergence", "-c", cfg])
        assert result.exit_code == 0
        changes = [
            float(line.split(",")[4])
            for line in result.output.splitlines()[1:]
            if line.startswith("fredholm_N") and line.split(",")[4] != "nan"
        ]
        assert changes[-1] < 1e-10

    def test_convergence_last_row_is_tau(self, runner, tmp_path):
        cfg = _config(tmp_path, {"N_modes": 10, "weight_cutoff": 5})
        result = runner.invoke(main, ["convergence", "-c", cfg])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.splitlines()]
        last = [row for row in rows if row[0] == "maya_W"][-1]
        assert last[1] == "5"
        params = MonodromyParams(-0.13, 0.11)
        expected = TauRoute(params, "maya", trunc=SeriesTruncation(5, 2)).tau(0.05).tau
        assert complex(float(last[2]), float(last[3])) == expected

    def test_check_prints_cross_validate_rows(self, runner):
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0, result.output
        rows = cross_validate(0.05, MonodromyParams(-0.13, 0.11), 12, SeriesTruncation(6, 2), 1e-8)
        printed = [line.split() for line in result.output.splitlines()[:-1]]
        assert [(name, value, tol) for name, value, _, tol, _ in printed] == [
            (name, f"{value:.3e}", f"{tol:.0e}") for name, value, tol in rows
        ]

    def test_check_passes_on_defaults(self, runner):
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0, result.output
        assert "all checks passed" in result.output
        assert "FAIL" not in result.output

    def test_check_failure_exits_3(self, runner, tmp_path):
        # a tolerance the three-route row cannot meet: every row is printed,
        # then one line on stderr and no pass summary
        cfg = _config(tmp_path, {"tolerance": 1e-300})
        result = runner.invoke(main, ["check", "-c", cfg])
        assert result.exit_code == 3, result.output
        assert "FAIL" in result.stdout
        assert "all checks passed" not in result.output
        assert result.stderr == "one or more checks failed\n"
