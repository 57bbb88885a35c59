import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

from test_smile import agreement_bound, reference_implied_vol_from_log
from wingtail import acceptance, cli, heston, mixed, oracles, smile
from wingtail.errors import WingtailError
from wingtail.heston import HestonParams
from wingtail.mixed import WING_LARGE, WING_SMALL, MixedModel
from wingtail.numerics import RngStream

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, "..", "configs")
REFERENCE_KOU = os.path.join(CONFIG_DIR, "reference_kou.json")
PURE_HESTON = os.path.join(CONFIG_DIR, "pure_heston.json")
GOLDEN = os.path.join(HERE, "golden", "constants_reference.json")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_CONFIG = {
    "model": "heston+kou",
    "t": 1.0,
    "heston": {"mu": "risk_neutral", "a": 1.0, "b": 2.0, "c": 0.5, "rho": -0.3, "x0": 1.0, "y0": 0.04},
    "kou": {"lam": 1.0, "eta1": 2.0, "eta2": 1.0, "p": 0.5, "q": 0.5},
    "seed": 12345,
}


# a field that the fuzzed-config test drops
DROP = object()


def refusing_above(allocate, size_of):
    """`allocate`, but raising the MemoryError numpy raises where the system
    refuses the memory for an array of more than 1e9 doubles (8 GB)."""
    def guarded(*args, **kwargs):
        size = size_of(*args, **kwargs)
        if isinstance(size, int) and size > 10**9:
            raise MemoryError(f"Unable to allocate {size * 8 / 2**30:.3g} GiB for an array with shape ({size},)")
        return allocate(*args, **kwargs)
    return guarded


class TestConfigLoading:
    def test_reference_config_loads(self):
        config = cli.load_config(REFERENCE_KOU)
        assert config.kind == "heston+kou"
        assert config.model.heston.mu == pytest.approx(-0.25)
        assert config.seed == 12345

    def test_missing_key_is_structured(self, tmp_path):
        bad = dict(BASE_CONFIG)
        del bad["heston"]
        with pytest.raises(WingtailError, match="missing 'heston'"):
            cli.load_config(write_config(tmp_path, bad))

    def test_component_invariants_rechecked(self, tmp_path):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["kou"]["eta1"] = 0.9
        with pytest.raises(WingtailError, match="eta1"):
            cli.load_config(write_config(tmp_path, bad))

    def test_unknown_model_kind(self, tmp_path):
        bad = dict(BASE_CONFIG, model="bates")
        with pytest.raises(WingtailError, match="model"):
            cli.load_config(write_config(tmp_path, bad))

    def test_overrides(self):
        config = cli.load_config(REFERENCE_KOU, seed_override=7, tol_override=1e-8)
        assert config.seed == 7 and config.tol.rel == 1e-8

    @pytest.mark.parametrize("path", [
        ("t",), ("seed",),
        ("heston", "mu"), ("heston", "a"), ("heston", "b"), ("heston", "c"), ("heston", "rho"),
        ("heston", "x0"), ("heston", "y0"),
        ("kou", "lam"), ("kou", "eta1"), ("kou", "eta2"), ("kou", "p"), ("kou", "q"),
        ("tolerances", "rel"), ("tolerances", "abs"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, pytest.param(10**400, id="int_past_double")])
    def test_non_finite_field_named(self, tmp_path, capsys, path, value):
        payload = json.loads(json.dumps(dict(BASE_CONFIG, tolerances={"rel": 1e-10, "abs": 1e-13})))
        *outer, key = path
        (payload[outer[0]] if outer else payload)[key] = value
        name = ".".join(path if outer else ("config", key))
        with pytest.raises(WingtailError, match=f"{name} must be finite"):
            cli.load_config(write_config(tmp_path, payload))
        assert cli.main(["constants", "--config", write_config(tmp_path, payload)]) == 1
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "delta"])
    def test_non_finite_nig_field_named(self, tmp_path, key):
        payload = json.loads(json.dumps(dict(BASE_CONFIG, model="heston+nig", nig={"alpha": 2.0, "delta": 1.0})))
        payload["nig"][key] = math.nan
        with pytest.raises(WingtailError, match=f"nig.{key} must be finite"):
            cli.load_config(write_config(tmp_path, payload))

    def test_non_numeric_field_named(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["heston"]["a"] = "one"
        with pytest.raises(WingtailError, match="heston.a must be a number"):
            cli.load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("path", [("t",), ("seed",), ("heston", "y0"), ("kou", "lam"), ("tolerances", "rel")])
    def test_boolean_field_named(self, tmp_path, path):
        # JSON true is no number, though float() reads it as 1.0
        payload = json.loads(json.dumps(dict(BASE_CONFIG, tolerances={"rel": 1e-10, "abs": 1e-13})))
        *outer, key = path
        (payload[outer[0]] if outer else payload)[key] = True
        name = ".".join(path if outer else ("config", key))
        with pytest.raises(WingtailError, match=f"config error: {name} must be a number, got True"):
            cli.load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("section", ["heston", "kou", "tolerances"])
    def test_section_that_is_no_object_named(self, tmp_path, section):
        payload = json.loads(json.dumps(dict(BASE_CONFIG, **{section: [1.0]})))
        with pytest.raises(WingtailError, match=f"config error: {section} must be an object, got \\[1.0\\]"):
            cli.load_config(write_config(tmp_path, payload))

    # one field of a shipped config set to a value of another JSON type, or
    # to a non-finite number, or dropped where it has no default
    @seed(27)
    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_fuzzed_shipped_config_exits_one(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(os.listdir(CONFIG_DIR))))
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            payload = json.load(fh)
        paths = [(key,) for key in payload] + [(key, inner) for key, value in payload.items()
                                               if isinstance(value, dict) for inner in value]
        path = data.draw(st.sampled_from(paths))
        value = data.draw(st.sampled_from([True, None, "x", [], {}, math.nan, math.inf, DROP]))
        if value is DROP and path[0] in ("seed", "tolerances"):
            reject()
        *outer, key = path
        target = payload[outer[0]] if outer else payload
        if value is DROP:
            del target[key]
        else:
            target[key] = value
        config = tmp_path_factory.mktemp("fuzz") / "config.json"
        config.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["constants", "--config", str(config)]) == 1
        assert err.getvalue().startswith("error: ")

    def test_broken_tolerance_rejected(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["tolerances"] = {"rel": -1.0}
        code = cli.main(["constants", "--config", write_config(tmp_path, payload)])
        assert code == 1
        assert "rel" in capsys.readouterr().err


class TestParser:
    # the flags each command reads, besides --config
    READS = {
        "constants": {"--out"},
        "density": {"--out", "--tol", "--grid"},
        "smile": {"--out", "--grid"},
        "validate": set(),
        "sample": {"--out", "--seed", "--paths", "--steps"},
    }

    def test_each_subcommand_offers_exactly_the_flags_it_reads(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.READS)
        for name, command in sub.choices.items():
            offered = {flag for action in command._actions for flag in action.option_strings}
            assert offered - {"-h", "--help", "--config"} == self.READS[name], name

    def test_validate_help_says_what_it_reads(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["validate", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "fixed acceptance models, seeds and tolerances" in text

    @pytest.mark.parametrize("argv", [
        ["--config", REFERENCE_KOU], ["--seed", "3"], ["--tol", "1e-8"],
    ])
    def test_validate_takes_no_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["validate", *argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["constants", "--seed", "3"], ["constants", "--tol", "1e-8"], ["density", "--grid", "2:4:2", "--seed", "3"],
        ["smile", "--grid", "60:80:2", "--seed", "3"], ["smile", "--grid", "60:80:2", "--tol", "1e-8"],
        ["sample", "--tol", "1e-8"], ["validate", "--out", "x.txt"],
    ])
    def test_unread_flag_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--config", REFERENCE_KOU])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGridParsing:
    def test_linear(self):
        grid = cli.parse_grid("1:5:5")
        assert np.allclose(grid, [1, 2, 3, 4, 5])

    def test_log(self):
        grid = cli.parse_grid("1:100:3log")
        assert np.allclose(grid, [1.0, 10.0, 100.0])

    def test_parenthesized_log(self):
        assert np.allclose(cli.parse_grid("1:100:3(log)"), [1.0, 10.0, 100.0])

    def test_bad_spec(self):
        with pytest.raises(WingtailError):
            cli.parse_grid("5:1:10")


class TestConstantsCommand:
    def test_exponent_field_identity(self):
        config = cli.load_config(REFERENCE_KOU)
        report = cli.cmd_constants(config)
        assert report["tail_constants"]["A3"] == report["critical_moments"]["s_plus"] + 1.0
        assert report["regimes"]["large_wing"]["dominant"] == "jump"
        assert len(report["coefficients"]) == 20
        assert all(row["a"] > row["a_hat"] for row in report["coefficients"])

    def test_degenerate_config_reported(self, tmp_path):
        config = cli.load_config(REFERENCE_KOU)
        a3 = heston.tail_constants(config.model.heston).A3
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["heston"]["mu"] = 0.0
        payload["kou"]["eta1"] = a3 - 1.0
        degenerate = cli.load_config(write_config(tmp_path, payload))
        report = cli.cmd_constants(degenerate)
        assert report["regimes"]["large_wing"]["dominant"] == "degenerate"
        assert "error" in report["large_wing_asymptote"]

    def test_golden_snapshot(self):
        # byte comparison against the frozen report for the reference config
        config = cli.load_config(REFERENCE_KOU)
        text = json.dumps(cli.cmd_constants(config), indent=2, sort_keys=True) + "\n"
        with open(GOLDEN) as fh:
            assert text == fh.read()


class TestDensityCommand:
    def test_structure_and_trend(self):
        config = cli.load_config(REFERENCE_KOU)
        rows = cli.cmd_density(config, cli.parse_grid("150:40000:4log"))
        assert rows[0] == ["x", "asymptote", "oracle_fourier", "ratio", "error_bound"]
        ratios = [float(r[3]) for r in rows[1:] if r[3] != ""]
        assert len(ratios) >= 3
        assert all(b > a for a, b in zip(ratios, ratios[1:]))  # trending toward 1
        assert all(0.5 < r < 1.2 for r in ratios)

    def test_out_of_reach_oracle_cells_empty(self):
        config = cli.load_config(REFERENCE_KOU)
        rows = cli.cmd_density(config, np.array([math.exp(13.0)]))
        assert rows[1][2] == "" and rows[1][3] == ""
        assert rows[1][1] != ""

    def test_rows_between_one_and_the_spot_keep_their_asymptote(self, tmp_path):
        # the wing records are functions of log x, so the large-wing record
        # gives every row above 1, also the rows below the spot x0 = 2
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["heston"]["x0"] = 2.0
        config = cli.load_config(write_config(tmp_path, payload))
        grid = np.array([0.5, 1.2, 1.5, 1.9, 2.5])
        rows = cli.cmd_density(config, grid)
        for x, row in zip(grid, rows[1:]):
            record = mixed.mixed_asymptote(config.model, WING_LARGE if x > 1.0 else WING_SMALL)
            ell = abs(math.log(x))
            assert row[1] == repr(math.exp(record.log_value_logx(ell))) and row[4] == repr(record.error_bound_logx(ell))


class TestNearDegenerateConfigs:
    # eta1 next to the diffusion's s_plus: the wing stays classified (the
    # exponent gap is far above DEGENERACY_RTOL), but the prefactor moment
    # nears its pole and passes the double range for the closer offsets
    @pytest.mark.parametrize("offset", [1e-2, -1e-2, 1e-3, -1e-3, 1e-4, -1e-4, 1e-6, -1e-6])
    def test_commands_exit_zero_and_name_the_order(self, tmp_path, capsys, offset):
        s_plus = heston.critical_moments(cli.load_config(REFERENCE_KOU).model.heston).s_plus
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["kou"]["eta1"] = s_plus + offset
        config = write_config(tmp_path, payload)
        report_path = str(tmp_path / "report.json")
        assert cli.main(["constants", "--config", config, "--out", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert "error" not in report["small_wing_asymptote"]
        large = report["large_wing_asymptote"]
        # the moment of order s_plus of the jump factor, or of order eta1 of the diffusion
        overflows = abs(offset) < 1e-2
        assert ("error" in large) == overflows
        if overflows:
            order = re.search(r"moment of order (\S+) overflows", large["error"]).group(1)
            assert float(order) in (s_plus, s_plus + offset)
        capsys.readouterr()
        assert cli.main(["density", "--config", config, "--grid", "2:400:5log"]) == 0
        out, err = capsys.readouterr()
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert err == "" and len(rows) == 5
        assert all((row[1] == "") == overflows and row[2] != "" for row in rows)
        assert cli.main(["smile", "--config", config, "--grid", "60:25000:5log"]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if overflows:
            assert all(row.endswith(",,,,") for row in out.splitlines()[1:])
            assert len(err.splitlines()) == 5 and all("moment of order" in line for line in err.splitlines())


class TestSmileCommand:
    def test_columns_and_bounded_residual(self):
        config = cli.load_config(REFERENCE_KOU)
        rows = cli.cmd_smile(config, cli.parse_grid("60:25000:4log"))
        assert rows[0] == ["K", "L", "iv_expansion", "iv_from_asymptotic_price",
                           "residual", "residual_times_L"]
        data = [r for r in rows[1:] if r[2] != ""]
        assert data, "expected populated smile rows"
        assert all(float(r[2]) > 0 for r in data)
        assert all(float(r[5]) < 1.0 for r in data)

    def test_guard_region_left_empty(self):
        config = cli.load_config(REFERENCE_KOU)
        rows = cli.cmd_smile(config, np.array([1.1]))
        assert rows[1][2] == ""

    def test_small_wing_residual_independent_of_spot(self, tmp_path):
        # the small wing prices through the density reflected about the spot,
        # so residual*L at a given L is the same for every x0
        ells = np.array([80.0, 40.0, 20.0, 10.0])
        by_spot = {}
        for x0 in (0.5, 1.0, 2.0):
            payload = json.loads(json.dumps(BASE_CONFIG))
            payload["heston"]["x0"] = x0
            config = cli.load_config(write_config(tmp_path, payload, f"spot_{x0}.json"))
            rows = cli.cmd_smile(config, x0 * np.exp(-ells))
            by_spot[x0] = [float(r[5]) for r in rows[1:]]
        assert all(v < 1.0 for v in by_spot[1.0])
        for x0 in (0.5, 2.0):
            assert by_spot[x0] == pytest.approx(by_spot[1.0], rel=0.0, abs=3e-13)

    @pytest.mark.parametrize("name", ["pure_heston", "reference_kou", "reference_nig"])
    def test_rows_match_the_bracketed_reference(self, monkeypatch, capsys, name):
        # the Newton inversion against the bracketed one it replaced, on every
        # row of both wings out to L = 101, the guard rows included
        config = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
        grid = cli.parse_grid("1e-44:1e44:89log")
        rows = cli.cmd_smile(config, grid)
        err = capsys.readouterr().err
        monkeypatch.setattr(smile, "bs_implied_vol_from_log", reference_implied_vol_from_log)
        reference = cli.cmd_smile(config, grid)
        assert capsys.readouterr().err == err
        model = config.model
        checked = 0
        for row, ref in zip(rows[1:], reference[1:], strict=True):
            assert [cell == "" for cell in row] == [cell == "" for cell in ref]
            assert row[:3] == ref[:3]
            if ref[3] == "":
                continue
            L = float(ref[1])
            wing = WING_LARGE if float(ref[0]) >= model.x0 else WING_SMALL
            log_price = smile.smile_expansion(model, wing).log_call(L)
            bound = agreement_bound(float(ref[3]), log_price, L, model.t)
            assert abs(float(row[3]) - float(ref[3])) <= bound
            assert abs(float(row[4]) - float(ref[4])) <= bound
            assert abs(float(row[5]) - float(ref[5])) <= bound * L
            checked += 1
        assert checked == 86

    @pytest.mark.parametrize("name", ["pure_heston", "reference_kou", "reference_nig"])
    def test_each_wing_record_is_built_once_per_command(self, monkeypatch, name):
        # cmd_constants and cmd_smile each build each wing's record once (4 per
        # model); every build classifies its wing, and so do the two regime
        # fields of the constants report (6)
        config = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
        calls = {"mixed_asymptote": 0, "classify_wing": 0}
        modules = [module for key, module in sys.modules.items() if key.split(".")[0] == "wingtail"]
        for function in calls:
            real = getattr(mixed, function)

            def counted(*args, _real=real, _name=function, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            # every binding of the function, `from mixed import` ones included
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        cli.cmd_constants(config)
        cli.cmd_smile(config, cli.parse_grid("1e-44:1e44:89log"))
        assert calls["mixed_asymptote"] <= 4
        assert calls["classify_wing"] <= 6

    @pytest.mark.parametrize("x0, grid", [(0.01, "1e307:1e308:2"), (1e5, "1e-306:1e-305:2")])
    def test_strikes_past_the_float_range_of_the_moneyness(self, tmp_path, capsys, x0, grid):
        # K/x0 overflows (x0 = 0.01) or x0/K does (x0 = 1e5); the rows are
        # built from L = log K - log x0 and never form either ratio
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["heston"]["x0"] = x0
        config = write_config(tmp_path, payload)
        assert cli.main(["smile", "--config", config, "--grid", grid]) == 0
        out, err = capsys.readouterr()
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert err == ""
        assert len(rows) == 2 and all(cell != "" for row in rows for cell in row)
        assert all(float(row[1]) > 700.0 and float(row[5]) < 1.0 for row in rows)


class TestMainEntry:
    def test_constants_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert cli.main(["constants", "--config", REFERENCE_KOU, "--out", out]) == 0
        with open(out) as fh:
            payload = json.load(fh)
        assert "critical_moments" in payload

    def test_bad_config_exit_one(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["kou"]["eta1"] = 0.5
        code = cli.main(["constants", "--config", write_config(tmp_path, payload)])
        assert code == 1
        assert "eta1" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [
        ("mu", 800.0, "forward x0 e^(mu t) must be a normal double, got mu=800.0"),
        ("mu", -800.0, "forward x0 e^(mu t) must be a normal double, got mu=-800.0"),
        ("y0", 500.0, "A1 must be positive and within the double range, got inf; "
                      "A1t must be positive and within the double range, got 0.0"),
        ("a", 200.0, "A1 must be positive and within the double range, got inf; "
                     "A1t must be positive and within the double range, got inf"),
    ])
    def test_overflowing_heston_constants_exit_one(self, tmp_path, capsys, key, value, named):
        # a forward x0 e^(mu t) past the double range, or a constant of each
        # Heston wing (A1 and A1t) past it: no wing is left to report
        payload = json.loads(json.dumps(BASE_CONFIG))
        del payload["kou"]
        payload["model"], payload["heston"]["mu"], payload["heston"][key] = "heston", 0.0, value
        assert cli.main(["constants", "--config", write_config(tmp_path, payload)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    def test_one_overflowing_heston_wing_is_reported_by_name(self, tmp_path, capsys):
        # mu = 100: the large wing's prefactor B1 = A1 M^(A3 - 1) is past the
        # double range, and the small wing's constants stand; the report keeps
        # the small wing and names the large wing's refusal
        payload = json.loads(json.dumps(BASE_CONFIG))
        del payload["kou"]
        payload["model"], payload["heston"]["mu"] = "heston", 100.0
        out = str(tmp_path / "report.json")
        assert cli.main(["constants", "--config", write_config(tmp_path, payload), "--out", out]) == 0
        assert capsys.readouterr().err == ""
        with open(out) as fh:
            report = json.load(fh)
        named = "B1 must be positive and within the double range, got inf"
        assert report["tail_constants_refused"] == {"large_wing": named}
        assert sorted(report["tail_constants"]) == ["A1t", "A2t", "A3t", "B1t"]
        assert report["large_wing_asymptote"] == {"error": named}
        assert report["small_wing_asymptote"]["r3"] == report["tail_constants"]["A3t"]

    @pytest.mark.parametrize("x0, exit_code, named", [
        (1e-10, 1, "B1 must be positive and within the double range, got inf; "
                   "B1t must be positive and within the double range, got 0.0"),
        (1e-300, 0, ""),
    ])
    def test_forward_past_the_range_of_exp_mu_t_accepted(self, tmp_path, capsys, x0, exit_code, named):
        # e^(mu t) overflows at mu = 720, but the forward x0 e^(mu t) is about
        # e^697 (x0 = 1e-10) or e^29 (x0 = 1e-300), a normal double, so the
        # parameters stand; at x0 = 1e-10 the prefactors B1 = A1 F^(A3 - 1)
        # and B1t of the two wings are still past the double range and
        # refused by name
        params = HestonParams(mu=720.0, a=1.0, b=2.0, c=0.5, rho=-0.3, x0=x0, y0=0.04, t=1.0)
        assert params.forward == pytest.approx(math.exp(720.0 + math.log(x0)), rel=1e-15)
        payload = json.loads(json.dumps(BASE_CONFIG))
        del payload["kou"]
        payload["model"] = "heston"
        payload["heston"].update(mu=720.0, x0=x0)
        assert cli.main(["constants", "--config", write_config(tmp_path, payload)]) == exit_code
        err = capsys.readouterr().err
        assert "forward" not in err and "Traceback" not in err
        assert named in err if named else err == ""

    def test_overflowing_nig_prefactor_reported_by_wing(self, tmp_path, capsys):
        # k(t) = alpha delta t e^(alpha delta t) / pi past the double range: like
        # any wing prefactor that overflows, each wing reports it and the rest stands
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload.update(model="heston+nig", nig={"alpha": 2.0, "delta": 400.0})
        del payload["kou"]
        payload["heston"]["mu"] = 0.0
        out = str(tmp_path / "report.json")
        assert cli.main(["constants", "--config", write_config(tmp_path, payload), "--out", out]) == 0
        assert capsys.readouterr().err == ""
        with open(out) as fh:
            report = json.load(fh)
        for wing in ("large", "small"):
            assert "NIG wing prefactor r1" in report[f"{wing}_wing_asymptote"]["error"]
        assert report["tail_constants"]["A3"] > 0

    def test_sample_summary(self, tmp_path):
        out = str(tmp_path / "sample.json")
        code = cli.main(["sample", "--config", REFERENCE_KOU, "--out", out,
                         "--paths", "20000", "--steps", "60"])
        assert code == 0
        with open(out) as fh:
            payload = json.load(fh)
        assert payload["n_paths"] == 20000
        assert abs(payload["martingale_z"]) < 5.0

    @pytest.mark.parametrize("n", [2, 3, 7, 2**15 + 7, 196_608])
    def test_sample_quantiles_are_numpys(self, n):
        # perfbench's monte-carlo check compares the report's quantiles with
        # np.quantile's by ==, so the partition form must match bit for bit,
        # on ties too
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for sample in (rng.lognormal(0.0, 0.3, n), rng.standard_normal(n), rng.integers(0, 4, n) * 0.5):
                assert list(cli._quantiles(sample)) == list(np.quantile(sample, [0.01, 0.25, 0.5, 0.75, 0.99]))

    def test_sample_report_quantiles(self):
        config = cli.load_config(REFERENCE_KOU)
        report = cli.cmd_sample(config, 4096, 50)
        sample = oracles.simulate_paths(config.model, 4096, 50, RngStream(config.seed))
        assert list(report["quantiles"].values()) == list(np.quantile(sample, [0.01, 0.25, 0.5, 0.75, 0.99]))

    def test_sample_martingale_z_rejects_shifted_drifts(self):
        # the capped-mean z-score: the martingale drift passes at 200k paths,
        # and the drift shifted by -0.01 or +0.01 fails
        base = cli.load_config(REFERENCE_KOU)
        hp = base.model.heston
        z = {}
        for d in (-0.01, 0.0, 0.01):
            model = MixedModel(heston=dataclasses.replace(hp, mu=hp.mu + d), jumps=base.model.jumps)
            z[d] = cli.cmd_sample(dataclasses.replace(base, model=model), 200_000, 200)["martingale_z"]
        assert abs(z[0.0]) <= 3.0
        assert abs(z[-0.01]) > 3.0 and abs(z[0.01]) > 3.0

    @pytest.mark.parametrize("law, mu, paths", [
        ({"model": "heston+nig", "nig": {"alpha": 0.8, "delta": 1.0}}, 0.0, "2000"),
        ({"model": "heston"}, 5.0, "2"),
    ], ids=["no_mean", "all_capped"])
    def test_sample_martingale_z_null(self, tmp_path, law, mu, paths):
        # NIG alpha < 1 has no moment of order 1, so there is no martingale to
        # test; with mu = 5 both draws lie above the cap 2 x0, so the capped
        # mean has no standard error
        payload = json.loads(json.dumps(dict(BASE_CONFIG, **law)))
        payload["heston"]["mu"] = mu
        out = str(tmp_path / "sample.json")
        code = cli.main(["sample", "--config", write_config(tmp_path, payload), "--out", out,
                         "--paths", paths, "--steps", "60"])
        assert code == 0
        with open(out) as fh:
            payload = json.load(fh)
        assert payload["martingale_z"] is None and payload["n_paths"] == int(paths)

    @pytest.mark.parametrize("paths", ["-5", "0", "1"])
    def test_sample_too_few_paths_exit_one(self, paths, capsys):
        assert cli.main(["sample", "--config", REFERENCE_KOU, "--paths", paths, "--steps", "60"]) == 1
        assert "n_paths" in capsys.readouterr().err

    def test_sample_negative_seed_flag_exit_one(self, capsys):
        assert cli.main(["sample", "--config", REFERENCE_KOU, "--seed", "-1", "--paths", "20", "--steps", "60"]) == 1
        assert "error: config error: --seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 1.5, "x"])
    def test_bad_config_seed_exit_one(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, dict(BASE_CONFIG, seed=seed))
        with pytest.raises(WingtailError, match="config.seed"):
            cli.load_config(path)
        assert cli.main(["sample", "--config", path, "--paths", "20", "--steps", "60"]) == 1
        assert "error: config error: config.seed" in capsys.readouterr().err

    def test_unallocatable_grid_exit_one(self, monkeypatch, capsys):
        # the refusal the host's allocator gives at 99999999999 points, without the allocation
        monkeypatch.setattr(np, "linspace", refusing_above(np.linspace, lambda a, b, n: n))
        assert cli.main(["density", "--config", PURE_HESTON, "--grid=1:2:99999999999"]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_unallocatable_sample_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(np, "empty", refusing_above(np.empty, lambda shape, *args, **kwargs: shape))
        assert cli.main(["sample", "--config", REFERENCE_KOU, "--paths", "100000000000", "--steps", "60"]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_validate_exit_codes(self, monkeypatch):
        results_pass = [acceptance.CriterionResult(1, "x", True, 0.0, "ok")]
        monkeypatch.setattr(acceptance, "run_all", lambda: results_pass)
        assert cli.main(["validate"]) == 0
        results_fail = [acceptance.CriterionResult(1, "x", False, 0.0, "no")]
        monkeypatch.setattr(acceptance, "run_all", lambda: results_fail)
        assert cli.main(["validate"]) == 2

    @pytest.mark.parametrize("command", ["density", "smile"])
    @pytest.mark.parametrize("grid", ["0:2:3", "-1:2:3", "0:2:3log", "a:2:3", "1:2:x", "1:inf:3"])
    def test_bad_grid_exit_one(self, command, grid, capsys):
        assert cli.main([command, "--config", PURE_HESTON, f"--grid={grid}"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_smile_row_left_empty_by_an_error_is_reported(self, tmp_path, capsys, sign):
        # at L = 4.5 the asymptotic price of this model is above the spot
        # bound on both wings, so the inversion raises; L = 3.9 is in the guard
        payload = {"model": "heston", "t": 1.0, "seed": 1, "heston": {
            "mu": 0.0, "a": 1.47, "b": 2.68, "c": 0.30, "rho": -0.42, "x0": 1.0, "y0": 0.055}}
        config = write_config(tmp_path, payload)
        ends = sorted(math.exp(sign * L) for L in (3.9, 4.5))
        assert cli.main(["smile", "--config", config, "--grid", f"{ends[0]!r}:{ends[1]!r}:2log"]) == 0
        out, err = capsys.readouterr()
        rows = out.splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",,,,") for row in rows)
        lines = err.splitlines()
        assert len(lines) == 1
        assert f"K={math.exp(sign * 4.5):.6g}, L=4.5 left empty" in lines[0]
        assert "at or above the spot bound" in lines[0]

    def test_density_csv_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cli.main(["density", "--config", REFERENCE_KOU, "--grid", "2:50:4log", "--out", out1])
        cli.main(["density", "--config", REFERENCE_KOU, "--grid", "2:50:4log", "--out", out2])
        assert open(out1).read() == open(out2).read()
