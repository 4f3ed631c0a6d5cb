"""Config validation, experiment dispatch, and the file outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import langevin_kit
import langevin_kit.cli as cli
from langevin_kit.cli import CSV_SCHEMA, ConfigError, main, make_potential, validate_config
from langevin_kit.core import ContractViolation, validate_d1
from langevin_kit.potentials import flat_tail_potential, quartic_well_potential


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate_config(tmp_path, **overrides):
    cfg = {
        "experiment": "simulate",
        "scheme": {"kind": "EulerMaruyama", "kappa": 1.0, "sigma": 1.0, "gamma": 0.1},
        "potential": {"kind": "quadratic", "curvature": 1.0},
        "seed": 42,
        "d": 1,
        "monte_carlo": {"steps": 40, "ensemble": 200, "record_every": 10},
        "output": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def read_rows(out_dir):
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        return header, list(reader)


# ---------------------------------------------------------------------------
# Potentials


def test_make_potential_tags():
    # Each tag builds its own force, told apart by b at |x| = 2 (inside every
    # core), 7.5 (on the flat tail's ramp) and 12 (past it), at the defaults.
    x = np.array([[2.0], [7.5], [12.0]])
    expected = {
        "quadratic": [-2.0, -7.5, -12.0],
        "quartic-well": [-4.0, -112.96875, -444.0],
        "flat-tail-counterexample": [-2.0, -3.75, 0.0],
    }
    for kind, b in expected.items():
        np.testing.assert_allclose(make_potential({"kind": kind}).b(x)[:, 0], b, rtol=1e-15)
    with pytest.raises(ConfigError, match="potential.kind"):
        make_potential({"kind": "cosine"})
    with pytest.raises(ConfigError, match="curvature"):
        make_potential({"kind": "quadratic", "curvature": -1.0})


def test_quartic_well_metadata():
    force = quartic_well_potential(0.25, 1.0, box_radius=10.0)
    assert force.lipschitz == pytest.approx(3.0 * 0.25 * 100.0 + 1.0)
    # U(2) = 0.25 * 0.25 * 16 + 0.5 * 4 = 3 in one dimension
    assert force.potential(np.array([2.0])) == pytest.approx(3.0)
    np.testing.assert_allclose(force.b(np.array([2.0])), [-4.0])
    with pytest.raises(ContractViolation):
        quartic_well_potential(0.0, 1.0)


def test_flat_tail_shape():
    big_r = 5.0
    force = flat_tail_potential(big_r)
    validate_d1(force, np.linspace(-2 * big_r, 2 * big_r, 41).reshape(-1, 1))
    # the radial slope is continuous at both joins and zero on the tail
    for joint in (big_r, 2 * big_r):
        lo = force.grad_potential(np.array([joint - 1e-9]))[0]
        hi = force.grad_potential(np.array([joint + 1e-9]))[0]
        assert abs(lo - hi) < 1e-6
        u_lo = force.potential(np.array([joint - 1e-9]))
        u_hi = force.potential(np.array([joint + 1e-9]))
        assert abs(u_lo - u_hi) < 1e-6
    far = np.array([[3.0 * big_r], [10.0 * big_r]])
    np.testing.assert_array_equal(force.grad_potential(far), 0.0)
    np.testing.assert_allclose(
        force.potential(far), 7.0 * big_r**2 / 6.0, rtol=1e-15
    )


# ---------------------------------------------------------------------------
# Config validation


def test_validate_config_resolves_defaults():
    cfg = validate_config(
        {
            "experiment": "simulate",
            "scheme": {"kind": "EulerMaruyama", "gamma": 0.1},
            "bogus": 1,
        }
    )
    assert cfg["scheme"] == {"kind": "EulerMaruyama", "kappa": 1.0, "sigma": 1.0, "gamma": 0.1}
    assert cfg["potential"] == {"kind": "quadratic", "curvature": 1.0}
    assert cfg["d"] == 1 and cfg["seed"] == 0 and cfg["output"] == "results"
    assert cfg["monte_carlo"] == {
        "steps": 100,
        "ensemble": 1000,
        "record_every": 10,
        "init": [0.0, 0.0],
    }
    assert "bogus" not in cfg


# Each experiment's monte_carlo defaults, written out literally.
_DEFAULTS = {
    "simulate": {"steps": 100, "ensemble": 1000, "record_every": 10, "init": [0.0, 0.0]},
    "covariance-check": {"t0": 0.5},
    "drift-check": {"varpi": 0.1, "samples": 100_000, "radii": [5.0, 10.0, 15.0, 20.0]},
    "tv-decay": {"samples": 200_000, "horizon": 12.0, "init": [5.0, 0.0]},
    "minorization": {"t0": 0.5, "m_radius": 1.0, "pairs": 16, "samples": 1_000_000},
    "poisson": {
        "truncation_k": 150,
        "samples": 200_000,
        "observable": "x",
        "eval_points": [[-2.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    },
    "order-check": {"gamma_pair": [0.2, 0.1], "samples": 1_000_000},
    "stability-check": {"k": 20, "lambda": 1.0, "trials": 10_000},
}


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_minimal_config_resolves_the_monte_carlo_defaults(experiment):
    # gamma 0.01 lies below drift-check's energy ceiling and covariance-check's t0.
    cfg = validate_config(
        {"experiment": experiment, "scheme": {"kind": "EulerMaruyama", "gamma": 0.01}}
    )
    assert cfg["monte_carlo"] == _DEFAULTS[experiment]
    assert list(_DEFAULTS) == list(cli.EXPERIMENTS)


def test_validate_config_errors_name_the_field():
    base = {"experiment": "simulate", "scheme": {"kind": "EulerMaruyama", "gamma": 0.1}}
    with pytest.raises(ConfigError, match="experiment must be one of"):
        validate_config({"experiment": "plot"})
    with pytest.raises(ConfigError, match="scheme.kind"):
        validate_config({"experiment": "simulate", "scheme": {"kind": "RK4", "gamma": 0.1}})
    with pytest.raises(ConfigError, match="scheme.gamma"):
        validate_config(
            {"experiment": "simulate", "scheme": {"kind": "EulerMaruyama", "gamma": -0.1}}
        )
    with pytest.raises(ConfigError, match="scheme needs gamma"):
        validate_config({"experiment": "simulate", "scheme": {"kind": "EulerMaruyama"}})
    with pytest.raises(ConfigError, match="seed"):
        validate_config(dict(base, seed=-1))
    with pytest.raises(ConfigError, match=r"d = 1 only \(the rate partition"):
        validate_config(
            {
                "experiment": "tv-decay",
                "scheme": {"kind": "EulerMaruyama", "gamma": 0.05},
                "d": 2,
            }
        )
    with pytest.raises(ConfigError, match="t0"):
        validate_config(
            {
                "experiment": "covariance-check",
                "scheme": {"kind": "EulerMaruyama", "gamma_grid": [0.6]},
                "monte_carlo": {"t0": 0.5},
            }
        )
    with pytest.raises(ConfigError, match="fine < coarse"):
        validate_config(
            {
                "experiment": "order-check",
                "scheme": {"kind": "EulerMaruyama", "gamma": 0.2},
                "monte_carlo": {"gamma_pair": [0.1, 0.2]},
            }
        )
    with pytest.raises(ConfigError, match="monte_carlo.steps"):
        validate_config(dict(base, monte_carlo={"steps": 0}))


def test_validate_subcommand(tmp_path):
    good = write_config(tmp_path, "good.json", simulate_config(tmp_path))
    assert main(["validate", good]) == 0
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["validate", str(broken)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit):
        main([])


def test_exp_euler_at_a_tiny_stepsize_validates_and_runs(tmp_path):
    # vartheta = -kappa/2 (1 - kappa gamma/3 + ...) must stay within kappa/2.
    cfg = simulate_config(tmp_path, scheme={"kind": "ExpEuler", "gamma": 1e-6})
    path = write_config(tmp_path, "tiny.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 0


@pytest.mark.parametrize("bad", ["abc", float("nan"), float("inf"), None, [1.0], True])
@pytest.mark.parametrize(
    "kind, field",
    [
        ("quadratic", "curvature"),
        ("quartic-well", "quartic"),
        ("quartic-well", "quadratic"),
        ("quartic-well", "box_radius"),
        ("flat-tail-counterexample", "radius"),
    ],
)
def test_bad_potential_coefficient_is_a_config_error(tmp_path, capsys, kind, field, bad):
    cfg = simulate_config(tmp_path, potential={"kind": kind, field: bad})
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert f"potential.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["abc", float("nan"), None, [0.0]])
def test_bad_poisson_eval_point_is_a_config_error(tmp_path, capsys, bad):
    cfg = {
        "experiment": "poisson",
        "scheme": {"kind": "EulerMaruyama", "gamma": 0.1},
        "monte_carlo": {
            "truncation_k": 5, "samples": 100, "eval_points": [[0.0, 0.0], [bad, 1.0]]
        },
        "output": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert "monte_carlo.eval_points[1][0]" in capsys.readouterr().err


_OVERFLOW = "1e400"  # JSON number that parses to inf


@pytest.mark.parametrize(
    "scheme, field",
    [
        ({"kind": "EulerMaruyama", "kappa": _OVERFLOW, "gamma": 0.1}, "scheme.kappa"),
        ({"kind": "EulerMaruyama", "sigma": _OVERFLOW, "gamma": 0.1}, "scheme.sigma"),
        ({"kind": "EulerMaruyama", "gamma": _OVERFLOW}, "scheme.gamma"),
        ({"kind": "EulerMaruyama", "gamma": "1" + "0" * 400}, "scheme.gamma"),
        ({"kind": "EulerMaruyama", "gamma_grid": [0.1, _OVERFLOW]}, "scheme.gamma_grid[1]"),
        (
            {"kind": "SgEulerMaruyama", "gamma": 0.1, "sg_noise_scale": _OVERFLOW},
            "scheme.sg_noise_scale",
        ),
        # finite parameters whose derived coefficients overflow
        ({"kind": "EulerMaruyama", "kappa": 1e308, "gamma": 1e-300}, "scheme at gamma"),
        ({"kind": "SplitCABAC", "kappa": 1e308, "gamma": 1e-300}, "scheme at gamma"),
        ({"kind": "ExpEuler", "kappa": 1e-10, "sigma": 1e150, "gamma": 1e10}, "scheme at gamma"),
    ],
)
def test_bad_scheme_parameter_is_a_config_error(tmp_path, capsys, scheme, field):
    cfg = simulate_config(tmp_path, scheme=scheme)
    # Unquote the placeholders so the file holds bare JSON numbers.
    text = json.dumps(cfg)
    for value in (_OVERFLOW, "1" + "0" * 400):
        text = text.replace(f'"{value}"', value)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["abc", True, _OVERFLOW])
def test_bad_init_is_a_config_error(tmp_path, capsys, bad):
    cfg = simulate_config(tmp_path, monte_carlo={"steps": 5, "init": [bad, 0.0]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg).replace(f'"{_OVERFLOW}"', _OVERFLOW))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    assert "monte_carlo.init[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, scheme, box_radius, message",
    [
        ("simulate", {"kind": "EulerMaruyama", "gamma": 0.1}, 1e200, "potential.box_radius"),
        ("stability-check", {"kind": "ExpEuler", "gamma": 0.1}, 1e200, "potential.box_radius"),
        # finite Lipschitz constants whose A2 constant overflows: with an
        # OverflowError (ExpEuler) or silently to inf (ABCBA)
        ("stability-check", {"kind": "ExpEuler", "gamma": 0.1}, 1e100, "scheme at gamma"),
        (
            "stability-check",
            {"kind": "SplitABCBA", "kappa": 1e-10, "gamma": 1e10},
            1e150,
            "a2_constant must be finite",
        ),
    ],
)
def test_overflowing_box_radius_is_a_config_error(
    tmp_path, capsys, experiment, scheme, box_radius, message
):
    cfg = simulate_config(
        tmp_path,
        experiment=experiment,
        scheme=scheme,
        potential={"kind": "quartic-well", "box_radius": box_radius},
        monte_carlo={"steps": 5, "k": 2, "trials": 10},
    )
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert message in capsys.readouterr().err


def test_tv_decay_runs_the_stochastic_gradient_scheme(tmp_path):
    # The stationary reference steps through the ensemble loop, which draws
    # the estimator's w2 columns. At this budget the fit may fail (exit 1).
    cfg = {
        "experiment": "tv-decay",
        "scheme": {"kind": "SgEulerMaruyama", "gamma": 0.1},
        "monte_carlo": {"samples": 2000, "horizon": 3.0},
        "output": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["run", path]) in (0, 1)


@pytest.mark.parametrize("kind", ["EulerMaruyama", "SgEulerMaruyama"])
def test_order_check_refuses_d_above_1(tmp_path, capsys, kind):
    # The moment targets and the stepped chains are scalar: at d = 2,
    # EulerMaruyama ran at d = 1 under a meta.json that said d = 2, and
    # SgEulerMaruyama passed validate but failed in run.
    cfg = {
        "experiment": "order-check",
        "scheme": {"kind": kind, "gamma": 0.2},
        "d": 2,
        "monte_carlo": {"samples": 100},
        "output": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert capsys.readouterr().err.count("order-check supports d = 1 only") == 2
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("d", [5, 8, 200])
def test_minorization_above_the_histogram_cap_is_a_config_error(tmp_path, capsys, monkeypatch, d):
    # 7^(2d) histogram cells: 2.8e8 at d = 5 (2.3 GB), 3.3e13 at d = 8, and
    # beyond the float range at d = 200. Both commands refuse before the
    # probe runs.
    def never(*args, **kwargs):
        raise AssertionError("the probe ran")

    monkeypatch.setattr(cli, "minorization_probe", never)
    cfg = {
        "experiment": "minorization",
        "scheme": {"kind": "EulerMaruyama", "gamma_grid": [0.05]},
        "d": d,
        "monte_carlo": {"pairs": 1, "samples": 10},
        "output": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert capsys.readouterr().err.count("above the cap of 2^24") == 2


_COVARIANCE = {"kind": "EulerMaruyama", "gamma_grid": [0.05, 0.025]}
_TWO_GAMMAS = {"kind": "EulerMaruyama", "gamma_grid": [0.01, 0.005]}


@pytest.mark.parametrize(
    "experiment, scheme, potential, message",
    [
        # covariance-check numerics that ended in a traceback from run
        ("covariance-check", dict(_COVARIANCE, kappa=1e308), None, "tau = exp(-kappa gamma) = 0"),
        ("covariance-check", dict(_COVARIANCE, kappa=1e200), None, "tau = exp(-kappa gamma) = 0"),
        ("covariance-check", dict(_COVARIANCE, sigma=1e200), None, "OverflowError"),
        ("covariance-check", dict(_COVARIANCE, kappa=1e-300), None, "tau = exp(-kappa gamma) = 1"),
        ("covariance-check", dict(_COVARIANCE, kappa=1e5), None, "tau = exp(-kappa gamma) = 0"),
        # sigma^2 underflows: the sandwich overflows in rho_c or divides by 0
        ("covariance-check", dict(_COVARIANCE, sigma=1e-160), None, "FloatingPointError"),
        ("covariance-check", dict(_COVARIANCE, sigma=1e-200), None, "FloatingPointError"),
        # a gamma grid where the experiment steps with one gamma
        ("drift-check", _TWO_GAMMAS, None, "drift-check needs a single scheme.gamma"),
        ("simulate", _TWO_GAMMAS, None, "simulate needs a single scheme.gamma"),
        ("tv-decay", _TWO_GAMMAS, None, "tv-decay needs a single scheme.gamma"),
        ("poisson", _TWO_GAMMAS, None, "poisson needs a single scheme.gamma"),
        ("stability-check", _TWO_GAMMAS, None, "stability-check needs a single scheme.gamma"),
        # order-check steps monte_carlo.gamma_pair, and takes one scheme gamma
        (
            "order-check",
            {"kind": "EulerMaruyama", "gamma_grid": [7.0, 1e9, 3.0]},
            None,
            "order-check needs a single scheme.gamma",
        ),
        # order-check's moment targets are exact on a quadratic well only
        (
            "order-check",
            {"kind": "EulerMaruyama", "gamma": 0.2},
            {"kind": "quartic-well"},
            "require a quadratic well",
        ),
        (
            "order-check",
            {"kind": "EulerMaruyama", "gamma": 0.2},
            {"kind": "flat-tail-counterexample", "radius": 1.5},
            "require a quadratic well",
        ),
        # a curvature whose force overflows at x = 2 (a RuntimeWarning from
        # validate, then a divergence at step 1 from run)
        (
            "order-check",
            {"kind": "SplitCABAC", "gamma": 0.01},
            {"kind": "quadratic", "curvature": 1e308},
            "the force at x = 1 and 2 must be finite",
        ),
        # a flat-tail radius whose plateau overflows (an OverflowError traceback)
        (
            "drift-check",
            {"kind": "EulerMaruyama", "gamma": 0.01},
            {"kind": "flat-tail-counterexample", "radius": 1e200},
            "potential.radius = 1e+200 overflows",
        ),
    ],
)
def test_validate_refuses_what_run_refuses(
    tmp_path, capsys, experiment, scheme, potential, message
):
    cfg = {
        "experiment": experiment,
        "scheme": scheme,
        "monte_carlo": {"samples": 100},
        "output": str(tmp_path / "out"),
    }
    if potential is not None:
        cfg["potential"] = potential
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert capsys.readouterr().err.count(message) == 2
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("steps, code", [(2**24, 2), (2**24 - 1, 0)])
def test_covariance_step_count_is_capped(tmp_path, capsys, steps, code):
    # floor(t0 / gamma) + 1 steps at t0 = 1; checked by validate only, so
    # nothing of that size is allocated.
    cfg = {
        "experiment": "covariance-check",
        "scheme": {"kind": "EulerMaruyama", "gamma_grid": [0.1, 1.0 / steps]},
        "monte_carlo": {"t0": 1.0},
    }
    assert main(["validate", write_config(tmp_path, "cov.json", cfg)]) == code
    assert ("more than 16777216" in capsys.readouterr().err) == (code == 2)


def test_dimension_is_capped(tmp_path, capsys):
    # 1000 samples keep d = 2^16 inside the drift-check work cap.
    cfg = {
        "experiment": "drift-check",
        "scheme": {"kind": "EulerMaruyama", "gamma": 0.01},
        "monte_carlo": {"samples": 1000},
    }
    assert main(["validate", write_config(tmp_path, "ok.json", dict(cfg, d=2**16))]) == 0
    assert main(["validate", write_config(tmp_path, "big.json", dict(cfg, d=2**16 + 1))]) == 2
    assert "d must be at most 2^16" in capsys.readouterr().err


@pytest.mark.parametrize("samples, code", [(62_914_561, 0), (2**29, 0), (2**29 + 1, 2)])
def test_drift_samples_are_limited_only_by_the_work_cap(tmp_path, capsys, samples, code):
    # A state's memory does not grow with its samples, so at d = 2 only the
    # work cap binds: over the four states of one radius, 2^29 samples are
    # exactly 2^32 units. 62,914,561 samples were refused while every state
    # kept all its log-weights. Checked by validate only; nothing runs.
    cfg = {
        "experiment": "drift-check",
        "scheme": {"kind": "SplitCABAC", "gamma": 0.01},
        "d": 2,
        "monte_carlo": {"samples": samples, "radii": [1.0]},
    }
    assert main(["validate", write_config(tmp_path, "drift.json", cfg)]) == code
    assert ("more than 4294967296" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("samples, code", [(357_913_940, 0), (357_913_941, 2)])
def test_drift_work_counts_whole_pairs(tmp_path, capsys, samples, code):
    # At d = 1 over the twelve states of three radii, 357,913,941 samples
    # are 4,294,967,292 units, just inside 2^32, but they round up to
    # 178,956,971 pairs: 4,294,967,304 weight evaluations, past the cap.
    cfg = {
        "experiment": "drift-check",
        "scheme": {"kind": "SplitCABAC", "gamma": 0.01},
        "monte_carlo": {"samples": samples, "radii": [1.0, 2.0, 3.0]},
    }
    assert main(["validate", write_config(tmp_path, "drift.json", cfg)]) == code
    assert ("is 4294967304 sample coordinates" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("samples, code", [(16_384, 0), (16_385, 2)])
def test_drift_work_is_capped(tmp_path, capsys, samples, code):
    # At d = 2^16 over the four states of one radius, 2^14 samples are exactly
    # 2^32 units of work. Only the estimate is checked: the accepted config is
    # validated, never run, and the refused one stops at validation.
    cfg = {
        "experiment": "drift-check",
        "scheme": {"kind": "SplitCABAC", "gamma": 0.01},
        "d": 2**16,
        "monte_carlo": {"samples": samples, "radii": [1.0]},
    }
    path = write_config(tmp_path, "drift.json", cfg)
    assert main(["validate", path]) == code
    assert ("more than 4294967296" in capsys.readouterr().err) == (code == 2)
    if code == 2:
        assert main(["run", path]) == 2
        assert "more than 4294967296" in capsys.readouterr().err


_POTENTIALS = (
    {"kind": "quadratic", "curvature": 1.0},
    {"kind": "quartic-well", "quartic": 0.25, "quadratic": 1.0, "box_radius": 10.0},
    {"kind": "flat-tail-counterexample", "radius": 5.0},
)


def _field_paths(value, path=()):
    """Every dict entry and list item of a config, as key paths."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, path + (key,))


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return cfg


# Magnitudes spread evenly over the decades, so that underflow and overflow
# thresholds anywhere in the double range are reached.
_JSON_FLOATS = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(1.0, 9.99),
    st.integers(-320, 307),
)
# Bit lengths up to 64 as often as the longer ones, which only JSON can carry.
_JSON_INTS = (st.integers(0, 64) | st.integers(65, 1100)).flatmap(
    lambda bits: st.integers(-(2**bits), 2**bits)
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=12) | _JSON_INTS | _JSON_INTS | _JSON_FLOATS
    | _JSON_FLOATS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_config_returns_or_raises_config_error(experiment, data):
    # One or two fields of the resolved minimal config are replaced by any
    # JSON value. validate only: run would spend each example's budget, and
    # tv-decay's reference alone bins 1e7 states per run.
    gamma = 0.01 if experiment == "drift-check" else 0.1
    # order-check's moment targets need a quadratic core
    potentials = _POTENTIALS[:1] if experiment == "order-check" else _POTENTIALS
    cfg = validate_config(
        {
            "experiment": experiment,
            "scheme": {"kind": "EulerMaruyama", "gamma": gamma},
            "potential": data.draw(st.sampled_from(potentials)),
        }
    )
    del cfg["output"]
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(sorted(_field_paths(cfg), key=repr)))
        cfg = _replaced(cfg, path, data.draw(_JSON_VALUES))
    try:
        resolved = validate_config(cfg)
    except ConfigError:
        return
    assert isinstance(resolved, dict)


def test_order_check_on_the_flat_tail_core_still_runs(tmp_path):
    # Default radius 5: the probe's curvature check sees the quadratic core
    # at x = 1 and 2, so both commands accept the config as before.
    cfg = {
        "experiment": "order-check",
        "scheme": {"kind": "EulerMaruyama", "gamma": 0.2},
        "potential": {"kind": "flat-tail-counterexample"},
        "monte_carlo": {"samples": 1000},
        "output": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, "flat.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["run", path]) in (0, 1)
    assert (tmp_path / "out" / "results.csv").exists()


def drift_config(tmp_path, gamma=0.01, **mc):
    return {
        "experiment": "drift-check",
        "scheme": {"kind": "EulerMaruyama", "kappa": 1.0, "sigma": 1.0, "gamma": gamma},
        "potential": {"kind": "quadratic", "curvature": 1.0},
        "monte_carlo": {"radii": [1.0], "samples": 100, **mc},
        "output": str(tmp_path / "out"),
    }


def test_drift_check_above_the_energy_ceiling_is_a_config_error(tmp_path, capsys):
    # EM at kappa = 1 has the energy ceiling 1/24, below the family's own.
    path = write_config(tmp_path, "bad.json", drift_config(tmp_path, gamma=0.45))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.count("exceeds the energy ceiling 0.0416667") == 2


@pytest.mark.parametrize(
    "varpi, samples",
    [
        pytest.param(1e300, 100, id="1e300"),
        pytest.param(7.33e306, 1000, id="7.33e306"),
        pytest.param(1e308, 100, id="1e308"),
    ],
)
def test_huge_varpi_ends_with_an_exit_status(tmp_path, capsys, varpi, samples):
    # At radius 20 the log-weight varpi * phi is finite at 1e300, where no
    # radius contracts. At 7.33e306 it is finite at every probed state but
    # overflows one step away from x = +-20, which are reported as infinite
    # ratios, not nan. At 1e308 it leaves the float range at a probed state,
    # which both commands refuse before anything runs.
    cfg = drift_config(tmp_path, varpi=varpi, radii=[1.0, 20.0], samples=samples)
    path = write_config(tmp_path, "huge.json", cfg)
    if varpi == 1e308:
        assert main(["validate", path]) == 2
        assert main(["run", path]) == 2
        assert capsys.readouterr().err.count("varpi * phi overflows") == 2
        assert not (tmp_path / "out" / "results.csv").exists()
    else:
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 1
        assert "nan" not in (tmp_path / "out" / "results.csv").read_text()
        _, rows = read_rows(tmp_path / "out")
        overflowed = {
            row[1] for row in rows if row[2] == "log_ratio" and not np.isfinite(float(row[3]))
        }
        assert overflowed == ({"x=20;v=0", "x=-20;v=0"} if varpi == 7.33e306 else set())


def test_drift_check_fails_on_the_flat_tail(tmp_path, capsys):
    # Negative control of the drift claim: beyond twice its radius the flat
    # tail exerts no force, so the weight grows there and no radius
    # contracts. The antithetic pairs resolve the growth at every flat-region
    # state: +3.8e-5 with a standard error of 7.4e-7 at x = 20. Independent
    # samples at the same budget read -4.4e-5 +- 5.7e-5 at x = -15, which
    # could not tell growth from contraction.
    cfg = drift_config(tmp_path, radii=[5.0, 10.0, 15.0, 20.0], samples=10_000)
    cfg["potential"] = {"kind": "flat-tail-counterexample", "radius": 5.0}
    path = write_config(tmp_path, "flat.json", cfg)
    assert main(["run", path]) == 1
    assert "no radius with uniformly contracting tail" in capsys.readouterr().err
    _, rows = read_rows(tmp_path / "out")
    flat = {
        row[1]: (float(row[3]), float(row[4]))
        for row in rows
        if row[2] == "log_ratio" and row[1] in {f"x={a};v=0" for a in (15, -15, 20, -20)}
    }
    assert len(flat) == 4
    for log_ratio, se_log in flat.values():
        assert log_ratio > 3.0 * se_log


def test_a_diverging_drift_step_names_its_state(tmp_path, capsys):
    # The quartic well's force at |x| = 1e9 throws the chain past 1e12 in
    # one step; the failure names the first state in the grid that diverges.
    cfg = drift_config(tmp_path, radii=[5.0, 1e9], samples=2000)
    cfg["scheme"]["kind"] = "SplitCABAC"
    cfg["potential"] = {"kind": "quartic-well"}
    cfg["d"] = 2
    path = write_config(tmp_path, "far.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert (
        "invariant failure: |x| exceeded 1e+12 or became non-finite "
        "from the drift state x = [1000000000.0, 0.0], v = [0.0, 0.0]"
    ) in err


def test_far_radius_on_the_flat_tail_is_a_config_error(tmp_path, capsys):
    # |x|^2 and |x|^3 overflow at radius 1e155, so the flat tail's U is
    # inf - inf; both commands refuse the nan log-weight without a warning.
    cfg = drift_config(tmp_path, radii=[1e155])
    cfg["potential"] = {"kind": "flat-tail-counterexample"}
    path = write_config(tmp_path, "far.json", cfg)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert capsys.readouterr().err.count("varpi * phi overflows") == 2


def test_validate_prints_the_resolved_config(tmp_path, capsys):
    raw = simulate_config(tmp_path)
    path = write_config(tmp_path, "sim.json", raw)
    assert main(["validate", path]) == 0
    assert json.loads(capsys.readouterr().out) == validate_config(raw)


# ---------------------------------------------------------------------------
# End-to-end runs


# One small config per experiment that draws noise, validated and run.
# covariance-check draws none and has its own end-to-end test below.
_WELL = {"kind": "quadratic", "curvature": 1.0}
_SMALL_RUNS = {
    "simulate": {
        "scheme": {"kind": "SplitCABAC", "kappa": 1.0, "sigma": 1.0, "gamma": 0.05},
        "potential": _WELL,
        "seed": 1,
        "d": 1,
        "monte_carlo": {"steps": 20, "ensemble": 50, "record_every": 10},
    },
    "drift-check": {
        "scheme": {"kind": "SplitCABAC", "kappa": 1.0, "sigma": 1.0, "gamma": 0.01},
        "potential": {"kind": "quartic-well"},
        "seed": 1,
        "d": 2,
        "monte_carlo": {"varpi": 0.1, "radii": [10.0], "samples": 2000},
    },
    "order-check": {
        "scheme": {"kind": "EulerMaruyama", "kappa": 1.0, "sigma": 1.0, "gamma": 0.2},
        "potential": _WELL,
        "seed": 5,
        "d": 1,
        "monte_carlo": {"gamma_pair": [0.2, 0.1], "samples": 51200},
    },
    "poisson": {
        "scheme": {"kind": "SplitABCBA", "kappa": 1.0, "sigma": 1.0, "gamma": 0.1},
        "potential": {"kind": "quartic-well"},
        "seed": 7,
        "d": 1,
        "monte_carlo": {"truncation_k": 100, "samples": 20000},
    },
    "tv-decay": {
        "scheme": {"kind": "SplitCABAC", "kappa": 1.0, "sigma": 1.0, "gamma": 0.05},
        "potential": _WELL,
        "seed": 2,
        "d": 1,
        "monte_carlo": {"horizon": 12.0, "init": [5.0, 0.0], "samples": 50000},
    },
    "minorization": {
        "scheme": {
            "kind": "EulerMaruyama", "kappa": 1.0, "sigma": 1.0, "gamma_grid": [0.05, 0.025],
        },
        "potential": _WELL,
        "seed": 1,
        "d": 2,
        "monte_carlo": {"t0": 0.5, "m_radius": 1.0, "pairs": 2, "samples": 20000},
    },
    "stability-check": {
        "scheme": {"kind": "SplitCABAC", "kappa": 1.0, "sigma": 1.0, "gamma": 0.1},
        "potential": _WELL,
        "seed": 3,
        "d": 1,
        "monte_carlo": {"k": 5, "lambda": 1.0, "trials": 200},
    },
}


@pytest.mark.parametrize("experiment", list(_SMALL_RUNS))
def test_each_experiment_validates_and_runs(tmp_path, experiment):
    # Rerunning the written meta.json reproduces results.csv byte for byte,
    # and the next seed changes it, so no stream of the run ignores the seed.
    cfg = dict(_SMALL_RUNS[experiment], experiment=experiment, output=str(tmp_path / "out"))
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 0
    header, rows = read_rows(tmp_path / "out")
    assert header == CSV_SCHEMA
    assert rows
    first = (tmp_path / "out" / "results.csv").read_bytes()
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    again = write_config(tmp_path, "meta.json", meta)
    assert main(["run", again, "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "results.csv").read_bytes() == first
    next_seed = str(cfg["seed"] + 1)
    assert main(["run", path, "--seed", next_seed, "--out", str(tmp_path / "next")]) == 0
    assert (tmp_path / "next" / "results.csv").read_bytes() != first


def test_run_simulate_outputs(tmp_path):
    path = write_config(tmp_path, "sim.json", simulate_config(tmp_path))
    assert main(["run", path]) == 0
    header, rows = read_rows(tmp_path / "out")
    assert header == CSV_SCHEMA
    # five recorded epochs (0, 10, 20, 30, 40) times four statistics
    assert len(rows) == 20
    stats = {row[2] for row in rows}
    assert stats == {"mean_x", "mean_v", "msq_x", "msq_v"}
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["seed"] == 42
    assert meta["csv_schema"] == list(CSV_SCHEMA)
    assert "content_hash" in meta and "wall_time_s" in meta
    assert meta["version"] == langevin_kit.__version__


def test_run_is_deterministic(tmp_path):
    path = write_config(tmp_path, "sim.json", simulate_config(tmp_path))
    assert main(["run", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()


def test_run_meta_round_trip(tmp_path):
    path = write_config(tmp_path, "sim.json", simulate_config(tmp_path))
    assert main(["run", path, "--out", str(tmp_path / "first")]) == 0
    meta = json.loads((tmp_path / "first" / "meta.json").read_text())
    again = write_config(tmp_path, "meta.json", meta)
    assert main(["run", again, "--out", str(tmp_path / "second")]) == 0
    assert (tmp_path / "first" / "results.csv").read_bytes() == (
        tmp_path / "second" / "results.csv"
    ).read_bytes()


def test_run_seed_override(tmp_path):
    path = write_config(tmp_path, "sim.json", simulate_config(tmp_path))
    assert main(["run", path, "--seed", "7", "--out", str(tmp_path / "s7")]) == 0
    assert json.loads((tmp_path / "s7" / "meta.json").read_text())["seed"] == 7


@pytest.mark.parametrize("seed, code", [(2**64 + 3, 2), (2**64 - 1, 0)])
def test_seed_stays_below_2_to_the_64(tmp_path, capsys, seed, code):
    # The generators key on the seed modulo 2^64: 2^64 + 3 would repeat seed
    # 3's numbers under another content hash.
    path = write_config(tmp_path, "sim.json", simulate_config(tmp_path, seed=seed))
    assert main(["validate", path]) == code
    path = write_config(tmp_path, "base.json", simulate_config(tmp_path))
    assert main(["run", path, "--seed", str(seed), "--out", str(tmp_path / "s")]) == code
    assert capsys.readouterr().err.count("seed must be below 2^64") == (2 if code else 0)
    if code == 0:
        assert json.loads((tmp_path / "s" / "meta.json").read_text())["seed"] == seed


def test_unknown_potential_keys_are_dropped(tmp_path):
    junk = {"kind": "quadratic", "bogus": [1, 2], "box_radius": "abc"}
    metas = []
    for name, potential in (("clean", {"kind": "quadratic"}), ("junk", junk)):
        cfg = simulate_config(tmp_path, potential=potential)
        path = write_config(tmp_path, f"{name}.json", cfg)
        assert main(["run", path, "--out", str(tmp_path / name)]) == 0
        metas.append(json.loads((tmp_path / name / "meta.json").read_text()))
    assert metas[1]["potential"] == {"kind": "quadratic"}
    assert metas[0]["content_hash"] == metas[1]["content_hash"]


def test_run_covariance_check_halving(tmp_path):
    cfg = {
        "experiment": "covariance-check",
        "scheme": {"kind": "EulerMaruyama", "gamma_grid": [0.05, 0.025, 0.0125]},
        "monte_carlo": {"t0": 0.5},
        "output": str(tmp_path / "cov"),
    }
    path = write_config(tmp_path, "cov.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 0
    _, rows = read_rows(tmp_path / "cov")
    ratios = [float(r[3]) for r in rows if r[2] == "halving_ratio"]
    assert len(ratios) == 2
    assert all(1.5 <= ratio <= 2.5 for ratio in ratios)


def test_run_stability_check(tmp_path):
    cfg = {
        "experiment": "stability-check",
        "scheme": {"kind": "SplitCABAC", "gamma": 0.1},
        "monte_carlo": {"k": 5, "trials": 200},
        "output": str(tmp_path / "st"),
    }
    path = write_config(tmp_path, "st.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 0
    _, rows = read_rows(tmp_path / "st")
    stats = {row[2] for row in rows}
    assert {"max_ratio_coupled", "l_gamma", "m_gamma"} <= stats


def test_run_exit_codes(tmp_path, capsys):
    # malformed numerics -> 2, before anything runs
    bad = simulate_config(tmp_path)
    bad["scheme"]["gamma"] = -0.1
    path = write_config(tmp_path, "bad.json", bad)
    assert main(["run", path]) == 2
    assert "scheme.gamma" in capsys.readouterr().err

    # a diverging chain -> 1 with an invariant-failure message
    diverging = simulate_config(
        tmp_path,
        scheme={"kind": "EulerMaruyama", "gamma": 0.4},
        potential={"kind": "quadratic", "curvature": 30.0},
        monte_carlo={"steps": 100, "ensemble": 8, "init": [1.0, 0.0]},
        output=str(tmp_path / "dv"),
    )
    path = write_config(tmp_path, "dv.json", diverging)
    assert main(["run", path]) == 1
    assert "invariant failure" in capsys.readouterr().err

    # a probe with no signal -> 1 with a criterion-failure message
    no_signal = {
        "experiment": "order-check",
        "scheme": {"kind": "ExpEuler", "gamma": 0.4},
        "potential": {"kind": "quadratic", "curvature": 0.0},
        "monte_carlo": {"gamma_pair": [0.4, 0.2], "samples": 40000},
        "seed": 8,
        "output": str(tmp_path / "oc"),
    }
    path = write_config(tmp_path, "oc.json", no_signal)
    assert main(["run", path]) == 1
    assert "criterion failure" in capsys.readouterr().err

    # unwritable output directory -> 2
    (tmp_path / "blocker").write_text("x")
    blocked = simulate_config(tmp_path, output=str(tmp_path / "blocker" / "sub"))
    path = write_config(tmp_path, "blocked.json", blocked)
    assert main(["run", path]) == 2
    assert "not writable" in capsys.readouterr().err


def test_drift_check_bytes_do_not_depend_on_blas_or_worker_threads(tmp_path):
    # The drift-check-wide benchmark config at 140,000 samples (70,000
    # pairs): one whole noise block and a partial one, each
    # long enough that a BLAS reduction would split its work across threads.
    # Each run is a fresh process, since OpenBLAS reads its thread count
    # once, at load.
    cfg = {
        "experiment": "drift-check",
        "d": 2,
        "seed": 3,
        "scheme": {"kind": "SplitCABAC", "kappa": 1.0, "sigma": 1.0, "gamma": 0.01},
        "potential": {"kind": "quartic-well"},
        "monte_carlo": {"varpi": 0.1, "radii": [5.0, 10.0, 15.0, 20.0], "samples": 140_000},
    }
    path = write_config(tmp_path, "drift.json", cfg)
    src = str(Path(langevin_kit.__file__).resolve().parents[1])
    code = "import sys; from langevin_kit.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = set()
    for blas in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"blas{blas}-workers{workers}"
            env = dict(
                os.environ,
                PYTHONPATH=src,
                OPENBLAS_NUM_THREADS=blas,
                LANGEVIN_KIT_THREADS=workers,
            )
            subprocess.run(
                [sys.executable, "-c", code, "run", path, "--out", str(out)],
                capture_output=True,
                check=True,
                env=env,
                timeout=300,
            )
            outputs.add((out / "results.csv").read_bytes())
    assert len(outputs) == 1
