import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mjpbounds
from mjpbounds import load_model, read_model_file, save_model
from mjpbounds import bounds as bnd
from mjpbounds import cli, simulate
from mjpbounds.cli import main
from mjpbounds.errors import ParseError, ValidationError
from mjpbounds.simulate import check_samples

from conftest import (
    THREE_CYCLE_F, THREE_CYCLE_Q, THREE_DENSE_F, THREE_DENSE_Q, TWO_STATE_F, TWO_STATE_Q,
    random_irreducible_model,
)


class TestModelFile:
    def test_two_state_fixture(self, model_file):
        path = model_file(seed=2024)
        model = load_model(path)
        np.testing.assert_allclose(model.pi, [2 / 3, 1 / 3], atol=1e-14)
        assert model.reversible

    def test_nu_defaults_to_first_state(self, model_file):
        model = load_model(model_file())
        np.testing.assert_array_equal(model.nu, [1.0, 0.0])

    def test_explicit_nu(self, model_file):
        model = load_model(model_file(nu=[0.25, 0.75]))
        np.testing.assert_allclose(model.nu, [0.25, 0.75])

    def test_negative_rate_parse_error_names_entry(self, model_file):
        path = model_file(q=[[-1.0, 1.0, 0.0], [2.0, -1.9, -0.1], [1.0, 0.0, -1.0]],
                          f=[1.0, 0.0, -1.0])
        with pytest.raises(ParseError) as err:
            load_model(path)
        assert "q[1,2]" in str(err.value)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"states": ["a", "b"], "q": [[-1, 1], [2, -2]]}')
        with pytest.raises(ParseError):
            load_model(str(p))

    def test_duplicate_labels(self, model_file):
        with pytest.raises(ParseError):
            load_model(model_file(labels=["a", "a"]))

    def test_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(str(p))

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"states": ["\xe9"], "q": [[0]], "f": [0]}')
        with pytest.raises(ParseError):
            load_model(str(p))

    def test_round_trip_bitwise(self, model_file, tmp_path):
        mf = read_model_file(model_file(nu=[0.3, 0.7], seed=5))
        out = tmp_path / "resaved.json"
        save_model(mf, str(out))
        mf2 = read_model_file(str(out))
        np.testing.assert_array_equal(mf.model.q, mf2.model.q)
        np.testing.assert_array_equal(mf.model.f, mf2.model.f)
        np.testing.assert_array_equal(mf.model.nu, mf2.model.nu)
        np.testing.assert_array_equal(mf.model.pi, mf2.model.pi)
        assert mf.seed == mf2.seed

    def test_model_file_closed(self, model_file, recwarn):
        read_model_file(model_file())
        gc.collect()
        assert not [w for w in recwarn if issubclass(w.category, ResourceWarning)]

    def test_boolean_seed_refused(self, model_file):
        # a JSON true is an int to isinstance, and would run as seed 1
        path = model_file(seed=True)
        with pytest.raises(ParseError, match="seed"):
            read_model_file(path)
        assert main(["validate", "--model", path]) == 2

    @pytest.mark.parametrize("states", ["ab", {"a": 0, "b": 1}], ids=["string", "object"])
    def test_states_must_be_an_array(self, model_file, states):
        # iterating either would give the labels "a" and "b"
        with pytest.raises(ParseError, match="states"):
            read_model_file(model_file(extra={"states": states}))

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="needs tomllib")
    def test_toml_twin_loads_the_same_model(self, model_file, tmp_path):
        q = [[-3.0, 1.0, 2.0], [0.1, -0.4, 0.3], [2.0 / 3.0, 0.5, -7.0 / 6.0]]
        f, nu = [1.0 / 3.0, -0.7, 2.5e-3], [0.2, 0.3, 0.5]

        def arr(xs):
            return "[" + ", ".join(arr(x) if isinstance(x, list) else repr(x) for x in xs) + "]"

        toml = tmp_path / "m.toml"
        toml.write_text(
            f'states = ["s0", "s1", "s2"]\nq = {arr(q)}\nf = {arr(f)}\nnu = {arr(nu)}\nseed = 7\n'
        )
        a = read_model_file(model_file(q=q, f=f, nu=nu, seed=7))
        b = read_model_file(str(toml))
        for get in (lambda m: m.q, lambda m: m.f,
                    lambda m: m.nu, lambda m: m.pi):
            np.testing.assert_array_equal(get(b.model), get(a.model))
        assert (b.labels, b.seed) == (a.labels, a.seed) == (["s0", "s1", "s2"], 7)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="needs tomllib")
    def test_malformed_toml_refused(self, tmp_path):
        p = tmp_path / "broken.toml"
        p.write_text('states = ["a", "b"\nq = [[-1.0, 1.0], [2.0, -2.0]]\n')
        with pytest.raises(ParseError, match="invalid TOML"):
            read_model_file(str(p))
        assert main(["validate", "--model", str(p)]) == 2

    @pytest.mark.skipif(sys.version_info >= (3, 11), reason="tomllib available")
    def test_toml_rejected_without_tomllib(self, tmp_path):
        p = tmp_path / "m.toml"
        p.write_text('states = ["a", "b"]')
        with pytest.raises(ParseError, match="3.11"):
            load_model(str(p))


class TestCliSubcommands:
    def test_validate_ok(self, model_file, capsys):
        assert main(["validate", "--model", model_file(seed=9)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["reversible"] is True
        assert info["seed"] == 9

    def test_validate_bad_model_exit_code(self, model_file):
        # each row is judged by its own largest rate: row 1 of the second
        # matrix sums to -5e-5, which the 1e8 of row 0 does not excuse, and
        # the -5e-13 of the third is as large as its row's positive rate
        for q in ([[-1.0, 0.5], [2.0, -2.0]],
                  [[-1e8, 1e8, 0], [0.5, -1.0, 0.49995], [1, 1, -2]],
                  [[-1e-13, 1e-13, 0], [5e-13, 0, -5e-13], [1e-13, 1e-13, -2e-13]]):
            path = model_file(q=q, f=[1.0, 0.0, -1.0][: len(q)])
            assert main(["validate", "--model", path]) == 2

    def test_spectrum(self, model_file, capsys):
        assert main(["spectrum", "--model", model_file()]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap"] == pytest.approx(3.0, abs=1e-10)
        assert out["sigma_hat_sq"] == pytest.approx(4 / 3, abs=1e-10)
        assert out["var_pi_f"] == pytest.approx(2.0, abs=1e-12)

    def test_simulate_csv(self, model_file, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate", "--model", model_file(), "--t", "2", "--u", "0.3",
                "--samples", "5000", "--seed", "3", "--out", str(out),
                "--no-timestamp",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,t,n,hits,p_hat,ci_lo,ci_hi"
        assert len(lines) == 2

    def test_rate_grid(self, model_file, tmp_path):
        out = tmp_path / "rate.csv"
        assert main(
            [
                "rate", "--model", model_file(), "--u-grid", "0:0.9:5",
                "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.9)
        assert last[3] == "1"

    def test_rate_beyond_max_f_has_empty_argmax(self, model_file, tmp_path):
        out = tmp_path / "rate.csv"
        assert main(
            [
                "rate", "--model", model_file(), "--u-grid", "0.5:1.5:2",
                "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        assert out.read_text().splitlines()[-1] == "1.5,inf,,0"

    def test_rate_grid_through_max_f(self, model_file, tmp_path):
        # one grid call covers u = 0, the boundary row at max f = 1 and the
        # infinite rows above it
        out = tmp_path / "rate.csv"
        assert main(
            [
                "rate", "--model", model_file(), "--u-grid", "0:1.5:7",
                "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert len(rows) == 7
        assert rows[0] == ["0", "0", "0", "1"]
        assert [r[0] for r in rows if r[3] == "0"] == ["1.25", "1.5"]
        assert float(rows[4][1]) == pytest.approx(1.0, abs=1e-3)

    def test_rate_of_constant_observable(self, model_file, tmp_path):
        out = tmp_path / "rate.csv"
        assert main(
            [
                "rate", "--model", model_file(f=[1.0, 1.0]), "--u-grid", "0:0.5:2",
                "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        assert out.read_text().splitlines()[1:] == ["0,0,0,1", "0.5,inf,,0"]

    def test_rate_of_constant_observable_at_a_tiny_threshold(self, model_file, tmp_path):
        # f centers to 0, so even u = 1e-300 is out of reach
        out = tmp_path / "rate.csv"
        assert main(
            [
                "rate", "--model", model_file(q=[[-1.7, 1.7], [2.0, -2.0]], f=[1.0, 1.0]),
                "--u-grid", "1e-300:1e-300:1", "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        assert out.read_text().splitlines()[1:] == ["1e-300,inf,,0"]

    def test_rate_names_the_negative_threshold(self, model_file, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        assert main(
            ["rate", "--model", model_file(), "--u-grid=-0.5:0.5:3", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "threshold u must be nonnegative, got -0.5;" in err
        assert "lower tail" in err
        assert not out.exists()

    def test_simulate_holds_an_infinite_time_without_a_warning(self, model_file, tmp_path):
        # state 0's exit rate of 1e-310 gives most holding times of inf; the
        # suite turns a RuntimeWarning into an error, which would exit 3
        out = tmp_path / "sim.csv"
        path = model_file(q=[[-1e-310, 1e-310], [1.0, -1.0]], f=[1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                [
                    "simulate", "--model", path, "--t", "2", "--u", "0.3",
                    "--samples", "5", "--out", str(out), "--no-timestamp",
                ]
            ) == 0
        assert out.read_text().splitlines()[1].split(",")[3] == "0"

    def test_bounds_of_constant_observable(self, model_file, tmp_path):
        # f centers to 0, so A_t / t = 0: every family is exact
        out = tmp_path / "bounds.csv"
        assert main(
            [
                "bounds", "--model", model_file(f=[1.0, 1.0]), "--t", "5",
                "--u-grid", "0:0.5:2", "--families", "all", "--out", str(out),
                "--no-timestamp",
            ]
        ) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == [*bnd.FAMILIES[:4]] * 2
        assert {(r[0], r[2], r[4]) for r in rows} == {("0", "0", "1"), ("0.5", "inf", "0")}

    def test_bounds_refuses_a_negative_threshold_of_a_constant_observable(
        self, model_file, tmp_path, capsys
    ):
        # A_t / t = 0 on every path, yet u < 0 is refused as for any f, and as
        # rate refuses it
        out = tmp_path / "bounds.csv"
        assert main(
            [
                "bounds", "--model", model_file(f=[1.0, 1.0]), "--t", "5",
                "--u-grid=-0.5:0.5:3", "--out", str(out),
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "threshold u must be nonnegative, got -0.5;" in err
        assert "lower tail" in err
        assert not out.exists()

    def test_compare_of_constant_observable(self, model_file, tmp_path):
        # every path hits at u = 0, where the general rate is 0: the
        # sharpness gap is 0, not -0
        out = tmp_path / "compare.csv"
        assert main(
            [
                "compare", "--model", model_file(f=[1.0, 1.0]), "--t", "1",
                "--u-grid", "0:0.5:2", "--samples", "100", "--out", str(out),
                "--no-timestamp",
            ]
        ) == 0
        first, second = out.read_text().splitlines()[1:]
        assert first == "0,1,100,100,1,0.98150325089650714,1" + ",0,1,1" * 4 + ",0"
        assert second.startswith("0.5,1,100,0,0,0,")
        assert second.endswith(",inf,0,1" * 4 + ",")

    def test_compare_of_constant_observable_at_a_tiny_threshold(self, model_file, tmp_path):
        # without the general family, the sharpness column solves the general
        # rate itself, on this reversible chain
        out = tmp_path / "compare.csv"
        assert main(
            [
                "compare", "--model", model_file(q=[[-1.7, 1.7], [2.0, -2.0]], f=[1.0, 1.0]),
                "--t", "1", "--u-grid", "0:1e-300:2", "--samples", "100",
                "--families", "poincare", "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        first, second = out.read_text().splitlines()[1:]
        assert first.startswith("0,1,100,100,1,") and first.endswith(",0,1,1,0")
        assert second.startswith("1e-300,1,100,0,0,0,") and second.endswith(",inf,0,1,")

    def test_series_output(self, model_file, tmp_path):
        out = tmp_path / "series.csv"
        assert main(
            [
                "series", "--model", model_file(), "--order", "4",
                "--r-grid", "0.01:0.05:3", "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        # two tables in one file: the coefficients, then the r-grid check
        lines = out.read_text().splitlines()
        assert lines[0] == "order,coefficient"
        coeffs = [ln.split(",") for ln in lines[1:5]]
        assert [c[0] for c in coeffs] == ["1", "2", "3", "4"]
        assert all(len(c) == 2 for c in coeffs)
        assert lines[5] == "r,lambda0,partial_sum,abs_error"
        r_rows = [ln.split(",") for ln in lines[6:]]
        assert [float(r[0]) for r in r_rows] == pytest.approx([0.01, 0.03, 0.05])
        assert all(len(r) == 4 for r in r_rows)

    def test_series_negative_r_grid_in_the_equals_form(self, model_file, tmp_path):
        # the form the help texts give for a grid that starts below 0
        out = tmp_path / "series.csv"
        assert main(
            [
                "series", "--model", model_file(), "--order", "2",
                "--r-grid=-0.2:0.2:3", "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[3] == "r,lambda0,partial_sum,abs_error"
        assert [float(ln.split(",")[0]) for ln in lines[4:]] == [-0.2, 0.0, 0.2]

    @pytest.mark.parametrize("family", bnd.FAMILIES)
    def test_negative_threshold_refused_with_one_message(
        self, model_file, tmp_path, capsys, family
    ):
        # bounds and compare give the message, which names no function a
        # command-line user cannot call
        out = tmp_path / "out.csv"
        for command in (["bounds", "--t", "5"], ["compare", "--t", "1,2", "--samples", "100"]):
            assert main(
                [
                    *command, "--model", model_file(), "--u-grid=-0.5:0.5:3",
                    "--families", family, "--fsobolev-c", "0.5", "--out", str(out),
                ]
            ) == 2
            err = capsys.readouterr().err
            assert "threshold u must be nonnegative, got -0.5;" in err
            assert "upper tail of -f" in err
            assert "lower_tail" not in err
            assert not out.exists()

    def test_series_beyond_old_cap(self, model_file, tmp_path):
        out = tmp_path / "series.csv"
        assert main(
            [
                "series", "--model", model_file(), "--order", "12",
                "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "order,coefficient"
        assert [ln.split(",")[0] for ln in lines[1:]] == [str(k) for k in range(1, 13)]

    def test_series_overflow_exit_code(self, model_file, tmp_path):
        # gap 3e-6: the coefficients overflow before order 200
        path = model_file(q=[[-1e-6, 1e-6], [2e-6, -2e-6]], f=[1.0, 0.0])
        out = tmp_path / "series.csv"
        assert main(
            ["series", "--model", path, "--order", "200", "--out", str(out)]
        ) == 3
        assert not out.exists()

    def test_series_partial_sum_overflow_exit_code(self, model_file, tmp_path):
        # far outside the radius of convergence r^200 overflows in the partial sum
        out = tmp_path / "series.csv"
        assert main(
            [
                "series", "--model", model_file(), "--order", "200",
                "--r-grid", "0:100:2", "--out", str(out),
            ]
        ) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["spectrum"],
            ["bounds", "--t", "5", "--u-grid", "0.1:0.3:2"],
            ["rate", "--u-grid", "0:0.5:3"],
        ],
        ids=["spectrum", "bounds", "rate"],
    )
    def test_overflowing_symmetrized_generator_exits_3(
        self, model_file, tmp_path, capsys, command
    ):
        # L + L* overflows; a NaN gap must not reach the output as a number
        # or as a complaint about the rate
        path = model_file(q=[[-0.007, 0.007], [1e308, -1e308]], f=[1.0, 0.0])
        out = tmp_path / "out.csv"
        argv = [command[0], "--model", path, *command[1:]]
        if command[0] != "spectrum":
            argv += ["--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "nan" not in captured.out.lower()
        assert "numerical failure" in captured.err
        assert not out.exists()

    def test_eigensolver_failure_exits_3(self, model_file, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["spectrum", "--model", model_file()]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: Eigenvalues did not converge" in captured.err

    @pytest.mark.parametrize(
        "grid", ["nan:1:2", "inf:inf:1", "1e308:-1e308:1", "1e308:-1e308:3"]
    )
    def test_series_non_finite_r_grid_exits_2(self, model_file, tmp_path, grid):
        out = tmp_path / "series.csv"
        assert main(
            [
                "series", "--model", model_file(), "--order", "4",
                "--r-grid", grid, "--out", str(out),
            ]
        ) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--u-grid", "0:1:100000000000000000000"],
            ["bounds", "--t", "5", "--u-grid", "0:1:100000000000000000000"],
            ["series", "--order", "2", "--r-grid", "0:1:100000000000000000000"],
            ["simulate", "--t", "1", "--u", "0.1", "--samples", "100000000000000000000"],
            ["compare", "--t", "1", "--u-grid", "0.1:0.2:2",
             "--samples", "100000000000000000000"],
        ],
        ids=["rate", "bounds", "series", "simulate", "compare"],
    )
    def test_size_numpy_refuses_exits_2(self, model_file, tmp_path, capsys, argv):
        # 1e20 elements, refused before anything is allocated: numpy refuses a
        # grid of that shape, and the 64-bit sample counter cannot name 1e20
        # samples
        out = tmp_path / "out.csv"
        assert main([*argv, "--model", model_file(), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("validation failure: ") and "too" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["rate", "--u-grid", "0:1:3"],
            ["bounds", "--t", "5", "--u-grid", "0.1:0.5:3"],
            ["compare", "--t", "1", "--u-grid", "0.1:0.2:2", "--samples", "100",
             "--families", "poincare"],
        ],
        ids=["spectrum", "rate", "bounds", "compare"],
    )
    def test_second_moment_overflow_exits_3(self, model_file, tmp_path, capsys, argv):
        # pi(f^2) overflows for f = +-1e300: a numerical failure with no output,
        # not a NaN variance or a rate of 0
        model = model_file(q=THREE_DENSE_Q, f=[1e300, -1e300, 0.0])
        out = tmp_path / "out.csv"
        extra = [] if argv[0] == "spectrum" else ["--out", str(out)]
        assert main([*argv, "--model", model, *extra]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows" in captured.err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_horizon_exits_2(self, model_file, tmp_path, command, t):
        # a child process with a timeout, so that a simulator stepping towards
        # a horizon it never crosses fails this test instead of hanging the suite
        out = tmp_path / "out.csv"
        argv = [command, "--model", model_file(), "--t", t, "--samples", "10"]
        argv += ["--u", "0.3"] if command == "simulate" else ["--u-grid", "0.3:0.3:1"]
        src = str(Path(mjpbounds.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mjpbounds.cli", *argv, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "horizon must be finite" in proc.stderr
        assert not out.exists()

    def test_simulate_nan_threshold_exits_2(self, model_file, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(
            [
                "simulate", "--model", model_file(), "--t", "2", "--u", "nan",
                "--samples", "10", "--out", str(out),
            ]
        ) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--t", "5", "--families", "all", "--fsobolev-c", "0.05"],
            ["compare", "--t", "1,2", "--samples", "100"],
        ],
        ids=["bounds", "compare"],
    )
    def test_huge_threshold_gets_a_rate(self, model_file, tmp_path, argv):
        # at u = 1e308 the sub-gamma closed form was inf / inf, a NaN rate.
        # A row per threshold and family, or per threshold and horizon
        out = tmp_path / "out.csv"
        grid = ["--u-grid", "0:1e308:3", "--no-timestamp", "--out", str(out)]
        assert main([*argv, "--model", model_file(), *grid]) == 0
        body = out.read_text()
        assert "nan" not in body.lower()
        rows = 3 * len(bnd.FAMILIES) if argv[0] == "bounds" else 3 * 2
        assert len(body.splitlines()) == 1 + rows

    def test_simulate_nan_threshold_refused_before_simulating(
        self, model_file, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("simulated before the threshold was checked")

        monkeypatch.setattr(cli, "time_averages", never)
        out = tmp_path / "sim.csv"
        assert main(
            [
                "simulate", "--model", model_file(), "--t", "200", "--u", "nan",
                "--samples", "200000", "--out", str(out),
            ]
        ) == 2
        assert not out.exists()
        assert "threshold u must not be NaN" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["simulate", "--t", "1", "--u", "0.1", "--samples", "100"],
            ["bounds", "--t", "5", "--u-grid", "0.1:0.3:2"],
        ],
        ids=["validate", "simulate", "bounds"],
    )
    def test_observable_that_cannot_be_centered_refused_at_load(
        self, model_file, tmp_path, capsys, monkeypatch, argv
    ):
        # the shift by pi(f) = 5.7e307 overflows, so f stayed uncentered:
        # validate printed it, simulate gave p_hat 0.75, and bounds exited 2
        # only once sigma_hat_sq checked it
        def never(*args, **kwargs):
            raise AssertionError("simulated an uncentered observable")

        monkeypatch.setattr(cli, "time_averages", never)
        model = model_file(f=[1.7e308, -1.7e308])
        out = tmp_path / "out.csv"
        outputs = [] if argv[0] == "validate" else ["--out", str(out)]
        assert main([*argv, "--model", model, *outputs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"validation failure: {model}: "
            "observable is not centered: pi(f) = 5.666666666666666e+307\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--t", "-1", "--u-grid", "0.1:0.3:2"],
            ["rate", "--u-grid", "nan:0.5:2"],
            ["bounds", "--t", "5", "--u-grid", "inf:inf:1"],
            [
                "bounds", "--t", "5", "--u-grid", "0.1:0.3:2",
                "--families", "poincare,poincare",
            ],
            ["bounds", "--t", "5", "--u-grid", "0.1:0.3:2", "--families", ","],
            # alpha = 1/log 2 = 1.4427 exactly on the two-state chain, so 1.45 is violated
            ["bounds", "--t", "5", "--u-grid", "0.1:0.3:2", "--families", "fsobolev",
             "--fsobolev-c", "1.45"],
        ],
        ids=[
            "bounds_negative_t", "rate_nan_u", "bounds_infinite_u",
            "bounds_repeated_family", "bounds_empty_family_list",
            "bounds_violated_fsobolev_constant",
        ],
    )
    def test_refused_bounds_and_rate_write_no_file(self, model_file, tmp_path, argv):
        # every row is computed before the output opens
        out = tmp_path / "out.csv"
        assert main([*argv, "--model", model_file(), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_model_file(self, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "nosuch.json")]) == 2

    def test_bounds_families(self, model_file, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(
            [
                "bounds", "--model", model_file(), "--t", "5",
                "--u-grid", "0.1:0.5:3", "--families", "poincare,general",
                "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2
        assert {ln.split(",")[1] for ln in lines[1:]} == {"poincare", "general"}

    @pytest.mark.parametrize(
        "chain, note",
        [("two_state", ""), ("three_cycle", ""), ("three_dense", "unverified"),
         ("two_state_at_1.44", "")],
    )
    def test_fsobolev_row_flags_an_unverified_inequality(
        self, model_file, tmp_path, chain, note
    ):
        # 0.2 is below the closed-form lower bound on the log-Sobolev
        # constant of both the 2-state chain and the 3-cycle (verdict
        # holds), and 1.44 is below its exact alpha = 1/log 2 = 1.4427 on
        # the 2-state chain; 1.3 on the dense 3-state chain is between that
        # bound and gap/2, where the search finds no violation (verdict
        # inconclusive), so the rate rests on an inequality that is assumed,
        # not shown
        q, f, c = {"two_state": (TWO_STATE_Q, TWO_STATE_F, "0.2"),
                   "two_state_at_1.44": (TWO_STATE_Q, TWO_STATE_F, "1.44"),
                   "three_cycle": (THREE_CYCLE_Q, THREE_CYCLE_F, "0.2"),
                   "three_dense": (THREE_DENSE_Q, THREE_DENSE_F, "1.3")}[chain]
        out = tmp_path / "bounds.csv"
        assert main(
            [
                "bounds", "--model", model_file(q=q, f=f), "--t", "2",
                "--u-grid", "0.1:0.3:2", "--families", "fsobolev,poincare",
                "--fsobolev-c", c, "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [(r[1], r[-1]) for r in rows] == [("fsobolev", note), ("poincare", "")] * 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fsobolev_rate_infinite_above_max_f(self, model_file, tmp_path):
        # max f is 1; an unbounded tilt domain cannot keep the rate finite
        out = tmp_path / "bounds.csv"
        assert main(
            [
                "bounds", "--model", model_file(), "--t", "3",
                "--u-grid", "1.5:1.5:1", "--families", "fsobolev,general",
                "--fsobolev-c", "0.5", "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [(r[1], r[2], r[4]) for r in rows] == [
            ("fsobolev", "inf", "0"), ("general", "inf", "0")
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", ["1e200", "1e300"])
    def test_huge_fsobolev_constant_refused(self, model_file, tmp_path, capsys, c):
        # far above gap/2 = 1.4655 the inequality fails by Lemma 3.1: exit 2
        # and no file, not an unverified bound of 0.  The message names the
        # constant and the violation, and no library call that no flag reaches
        out = tmp_path / "bounds.csv"
        assert main(
            [
                "bounds", "--model", model_file(q=THREE_DENSE_Q, f=THREE_DENSE_F),
                "--t", "5", "--u-grid", "0.1:0.5:3", "--families", "fsobolev",
                "--fsobolev-c", c, "--out", str(out),
            ]
        ) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"constant c = {float(c)} is violated" in err
        assert "max_violation = " in err and "FSobolevVerdict" not in err

    def test_fsobolev_family_builds_one_spectral_decomposition(
        self, model_file, tmp_path, monkeypatch
    ):
        # the log-Sobolev check reads the analysis that the bound families read,
        # also where it searches (1.3 on this chain is inconclusive)
        calls = []
        decompose = bnd.spectral_decomposition

        def spy(*args):
            calls.append(1)
            return decompose(*args)

        monkeypatch.setattr(bnd, "spectral_decomposition", spy)
        assert main(
            [
                "bounds", "--model", model_file(q=THREE_DENSE_Q, f=THREE_DENSE_F),
                "--t", "5", "--u-grid", "0.1:0.3:2", "--families", "fsobolev,poincare",
                "--fsobolev-c", "1.3", "--out", str(tmp_path / "b.csv"),
            ]
        ) == 0
        assert len(calls) == 1

    def test_fsobolev_constant_without_the_family_runs_no_check(
        self, model_file, tmp_path, monkeypatch
    ):
        # no requested family reads the verdict, so the check must not run
        q = [[-3.0, 1.0, 1.0, 1.0], [2.0, -3.0, 0.5, 0.5],
             [1.0, 1.0, -2.5, 0.5], [0.5, 1.5, 1.0, -3.0]]
        model = model_file(q=q, f=[1.0, -0.5, 0.25, -1.0])
        argv = [
            "bounds", "--model", model, "--t", "5", "--u-grid", "0.1:0.3:3",
            "--families", "poincare", "--no-timestamp", "--out",
        ]
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(argv + [str(plain)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("check_f_sobolev ran for no fsobolev family")

        monkeypatch.setattr(bnd, "check_f_sobolev", refuse)
        assert main(argv + [str(flagged), "--fsobolev-c", "1"]) == 0
        assert flagged.read_bytes() == plain.read_bytes()
        summary = tmp_path / "c.json"
        assert main(
            [
                "compare", "--model", model, "--t", "1", "--u-grid", "0.2:0.2:1",
                "--families", "poincare", "--samples", "100", "--fsobolev-c", "1",
                "--out", str(tmp_path / "c.csv"), "--summary-out", str(summary),
            ]
        ) == 0
        assert json.loads(summary.read_text())["fsobolev_verdict"] is None

    @pytest.mark.parametrize("command", ["bounds", "compare"])
    def test_bad_fsobolev_constant_refused_without_the_family(self, tmp_path, capsys, command):
        # no family reads the constant, and it is refused all the same
        out, model = tmp_path / "out.csv", str(tmp_path / "none")
        argv = [*_settings_argv(command, "--fsobolev-c", "-1"), "--families", "general"]
        assert main([*argv, "--model", model, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "constant must be positive and finite, got -1.0" in err and model not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--out", "{out}"],
            ["validate", "--out", "{out}"],
            ["spectrum", "--no-timestamp"],
            ["bounds", "--t", "5", "--u-grid", "0.1:0.3:2", "--threads", "1"],
            ["rate", "--u-grid", "0.1:0.3:2", "--threads", "1"],
        ],
        ids=["spectrum_out", "validate_out", "spectrum_no_timestamp",
             "bounds_threads", "rate_threads"],
    )
    def test_flag_the_command_would_not_read_refused(self, model_file, tmp_path, argv):
        out = tmp_path / "out.json"
        argv = [a.format(out=out) for a in argv] + ["--model", model_file()]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--t", "5", "--u-grid", "0.1:0.3:2", "--out", "{bad}"],
            ["simulate", "--t", "1", "--u", "0.2", "--samples", "100", "--out", "{bad}"],
            ["compare", "--t", "1", "--u-grid", "0.2:0.2:1", "--samples", "100",
             "--out", "{bad}"],
            ["compare", "--t", "1", "--u-grid", "0.2:0.2:1", "--samples", "100",
             "--out", "{csv}", "--summary-out", "{bad}"],
            ["compare", "--t", "1", "--u-grid", "0.2:0.2:1", "--samples", "100",
             "--out", "{bad}", "--summary-out", "{json}"],
        ],
        ids=["bounds_out", "simulate_out", "compare_out", "compare_summary_out",
             "compare_out_with_summary"],
    )
    def test_unwritable_output_exits_2(self, model_file, tmp_path, capsys, argv):
        # one output that cannot be opened: the run writes none of them
        bad = tmp_path / "nosuch" / "out"
        argv = [
            a.format(bad=bad, csv=tmp_path / "cmp.csv", json=tmp_path / "cmp.json")
            for a in argv
        ]
        model = model_file()
        assert main([*argv, "--model", model]) == 2
        assert "cannot write output" in capsys.readouterr().err
        assert [str(p) for p in tmp_path.iterdir()] == [model]

    @pytest.mark.parametrize("summary", ["same.txt", "link.txt"])
    @pytest.mark.parametrize("exists", [False, True])
    def test_outputs_naming_one_file_exit_2(
        self, model_file, tmp_path, capsys, summary, exists
    ):
        # the summary would overwrite the CSV, by the same name or a symlink
        same = tmp_path / "same.txt"
        if exists:
            same.write_text("kept\n")
        (tmp_path / "link.txt").symlink_to(same)
        model = model_file()
        before = sorted(os.listdir(tmp_path))
        argv = ["compare", "--model", model, "--t", "1", "--u-grid", "0.2:0.2:1",
                "--samples", "100", "--out", str(same),
                "--summary-out", str(tmp_path / "." / summary)]
        assert main(argv) == 2
        assert "same file" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert not exists or same.read_text() == "kept\n"

    BOUNDS = ["bounds", "--t", "5", "--u-grid", "0.1:0.5:3", "--no-timestamp"]
    COMPARE = ["compare", "--t", "1", "--u-grid", "0.2:0.2:1", "--samples", "100"]

    def test_new_output_is_opened_once(self, model_file, tmp_path, monkeypatch, capsys):
        argv = [*self.BOUNDS, "--model", model_file()]
        assert main([*argv, "--out", "-"]) == 0
        body = capsys.readouterr().out
        out = tmp_path / "b.csv"
        modes = []

        def spy(file, *args, **kwargs):
            if os.fspath(file) == str(out):
                modes.append(args[0])
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", spy, raising=False)
        assert main([*argv, "--out", str(out)]) == 0
        assert modes == ["x"]
        assert out.read_text() == body

    def test_existing_output_is_replaced(self, model_file, tmp_path):
        argv = [*self.BOUNDS, "--model", model_file()]
        out, fresh = tmp_path / "b.csv", tmp_path / "fresh.csv"
        out.write_text("older and longer text\n" * 200)
        assert main([*argv, "--out", str(out)]) == 0
        assert main([*argv, "--out", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("exists", [False, True])
    def test_unopenable_summary_leaves_the_csv_as_it_was(
        self, model_file, tmp_path, capsys, exists
    ):
        csv = tmp_path / "cmp.csv"
        if exists:
            csv.write_text("kept\n")
        argv = [*self.COMPARE, "--model", model_file(), "--out", str(csv),
                "--summary-out", str(tmp_path / "nosuch" / "s.json")]
        assert main(argv) == 2
        assert "cannot write output" in capsys.readouterr().err
        assert csv.exists() == exists
        assert not exists or csv.read_text() == "kept\n"

    def test_refused_run_leaves_a_dangling_link_dangling(self, model_file, tmp_path, capsys):
        # appending through the link would create its target
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        model = model_file()
        before = sorted(os.listdir(tmp_path))
        argv = [*self.COMPARE, "--model", model, "--out", str(link),
                "--summary-out", str(tmp_path / "missing" / "s.json")]
        assert main(argv) == 2
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert os.readlink(link) == "target.csv"
        assert not (tmp_path / "target.csv").exists()

    def test_run_writes_through_a_dangling_link(self, model_file, tmp_path):
        link, fresh = tmp_path / "link.csv", tmp_path / "fresh.csv"
        link.symlink_to("target.csv")
        argv = [*self.COMPARE, "--model", model_file(), "--no-timestamp", "--out"]
        assert main([*argv, str(link)]) == 0
        assert main([*argv, str(fresh)]) == 0
        assert link.is_symlink() and os.readlink(link) == "target.csv"
        assert (tmp_path / "target.csv").read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [[*BOUNDS, "--out", "{dir}"],
         [*COMPARE, "--out", "{dir}", "--summary-out", "{new}"],
         [*COMPARE, "--out", "{new}", "--summary-out", "{dir}"]],
        ids=["bounds_out", "compare_out", "compare_summary_out"],
    )
    def test_directory_output_exits_2(self, model_file, tmp_path, capsys, argv):
        directory = tmp_path / "dir"
        directory.mkdir()
        argv = [a.format(dir=directory, new=tmp_path / "new") for a in argv]
        model = model_file()
        before = sorted(os.listdir(tmp_path))
        assert main([*argv, "--model", model]) == 2
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(directory) == []

    def test_bounds_rates_are_the_compare_rates(self, model_file, tmp_path):
        model = model_file(q=THREE_CYCLE_Q, f=THREE_CYCLE_F)
        families = ["general", "perturbation", "poincare", "bernstein_general",
                    "fsobolev"]
        common = ["--model", model, "--u-grid", "0.1:0.4:4", "--families",
                  ",".join(families), "--fsobolev-c", "0.2", "--no-timestamp"]
        b_out, c_out = tmp_path / "b.csv", tmp_path / "c.csv"
        assert main(["bounds", "--t", "5", *common, "--out", str(b_out)]) == 0
        assert main(
            ["compare", "--t", "1,5", "--samples", "200", *common, "--out", str(c_out)]
        ) == 0
        b_rows = [ln.split(",") for ln in b_out.read_text().splitlines()[1:]]
        c_lines = c_out.read_text().splitlines()
        c_head = c_lines[0].split(",")
        c_rows = [dict(zip(c_head, ln.split(","))) for ln in c_lines[1:]]
        assert len(b_rows) == 4 * len(families) and len(c_rows) == 2 * 4
        for c in c_rows:
            cells = {r[1]: r[2] for r in b_rows if r[0] == c["u"]}
            assert cells == {fam: c[f"{fam}_rate"] for fam in families}

    def test_unknown_family_rejected(self, model_file):
        assert main(
            [
                "bounds", "--model", model_file(), "--t", "5",
                "--u-grid", "0.1:0.5:3", "--families", "nosuch",
            ]
        ) == 2

    def test_negative_time_rejected(self, model_file, tmp_path):
        assert main(
            [
                "bounds", "--model", model_file(), "--t", "-1",
                "--u-grid", "0.1:0.5:3", "--out", str(tmp_path / "b.csv"),
            ]
        ) == 2


# flags of a run that exits 0, by command; each case below changes one
SETTINGS = {
    "compare": {"--t": "1", "--u-grid": "0.1:0.3:2", "--samples": "10"},
    "simulate": {"--t": "1", "--u": "0.2", "--samples": "10"},
    "bounds": {"--t": "1", "--u-grid": "0.1:0.3:2"},
    "rate": {"--u-grid": "0.1:0.3:2"},
    "series": {"--order": "3", "--r-grid": "0:0.2:2"},
}
# log-Sobolev constants that no verdict takes: not positive, or not finite
BAD_FSOBOLEV_C = ("-1", "nan", "0", "inf")
# compare refuses each before its output opens.  A repeated family would
# head more columns than its rows fill
REFUSED_COMPARE_SETTINGS = [
    ("--t", "-1"), ("--t", "0"), ("--t", "1,-1"), ("--u-grid", "nan:1:2"),
    ("--t", "1,1"), ("--u-grid", "0.1:0.1:2"), ("--u-grid", "-0.2:0.3:2"),
    ("--fsobolev-c", "10"), ("--u-grid", "inf:inf:1"),
    ("--families", "general,poincare,general"), ("--families", ","),
    ("--families", "nosuch"), ("--families", "fsobolev"), ("--u-grid", "0.1:0.3:0"),
    ("--samples", "0"), *(("--fsobolev-c", c) for c in BAD_FSOBOLEV_C),
]
# a negative u is refused by the families, and a log-Sobolev constant of 10
# is violated on the two-state chain: only the model shows either
NEED_THE_MODEL = [("--u-grid", "-0.2:0.3:2"), ("--fsobolev-c", "10")]
# what the refusal of a setting says, where a case below pins it
REFUSAL_MESSAGES = {
    ("compare", "--t", "1,1"): "repeats a horizon",
    ("compare", "--t", "0"): "time average is undefined for a zero-length horizon",
    ("simulate", "--t", "0"): "time average is undefined for a zero-length horizon",
    ("bounds", "--t", "0"): "time average is undefined for a zero-length horizon",
    ("bounds", "--t", "-1"): "horizon must be finite and positive, got -1.0",
    ("simulate", "--samples", "0"): "at least one sample",
    ("series", "--order", "0"): "need order >= 1",
    **{(command, "--fsobolev-c", c): f"constant must be positive and finite, got {float(c)}"
       for command in ("bounds", "compare") for c in BAD_FSOBOLEV_C},
}


def _settings_argv(command, flag, value):
    """``command`` with its ``SETTINGS``, ``flag`` set to ``value``."""
    settings = {**SETTINGS[command], flag: value}
    # "=" keeps a leading "-" a value
    return [command, *(f"{key}={setting}" for key, setting in settings.items())]


class TestCompare:
    def test_bodies_identical_across_thread_counts(self, model_file, tmp_path):
        path = model_file(seed=77)
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"cmp{threads}.csv"
            code = main(
                [
                    "compare", "--model", path, "--t", "1,3",
                    "--u-grid", "0.1:0.5:3", "--samples", "20000",
                    "--threads", threads, "--no-timestamp", "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_flag_starts_no_thread(self, model_file, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        # 40000 samples span three simulator blocks
        assert main(
            [
                "compare", "--model", model_file(seed=7), "--t", "1",
                "--u-grid", "0.2:0.2:1", "--samples", "40000", "--families", "poincare",
                "--threads", "4", "--out", str(tmp_path / "cmp.csv"),
            ]
        ) == 0

    def test_clustered_tiny_rates_body_pinned(self, tmp_path):
        # state 0's thirty rates of 1e-4 crowd its first buckets, so a pick
        # steps only the paths short of their target.  The body was recorded
        # with the jump tables that listed every state but x in row x; its
        # bound cells are 0, 1 and inf, so only the simulation can move it.
        data = Path(__file__).resolve().parent / "data"
        out = tmp_path / "clustered.csv"
        assert main(
            [
                "compare", "--model", str(data / "clustered_tiny_rates.json"),
                "--t", "0.5,1,2,4,8", "--u-grid", "0:2:2", "--families", "general",
                "--samples", "4000", "--no-timestamp", "--out", str(out),
            ]
        ) == 0
        assert out.read_bytes() == (data / "clustered_tiny_rates.compare.csv").read_bytes()

    def test_spread_nu_body_pinned(self, tmp_path):
        # nu puts weight on three of five states, one of them 1e-9, and none
        # on the other two.  The body was recorded with the initial state
        # picked by a linear count against the running sum of nu; its bound
        # cells are 0, 1 and inf, so only the simulation can move it.
        data = Path(__file__).resolve().parent / "data"
        out = tmp_path / "spread.csv"
        assert main(
            [
                "compare", "--model", str(data / "spread_nu.json"),
                "--t", "0.5,1,2,4,8", "--u-grid", "0:2:2", "--families", "general",
                "--samples", "4000", "--no-timestamp", "--out", str(out),
            ]
        ) == 0
        assert out.read_bytes() == (data / "spread_nu.compare.csv").read_bytes()

    def test_three_dense_body_over_three_blocks_pinned(self, tmp_path):
        # 40000 samples span three blocks, so paths retire from full and
        # partial blocks; two horizons lie 1e-9 apart.  The body was recorded
        # with the kernel that compacted the live paths into new arrays; its
        # bound cells are 0, 1 and inf, so only the simulation can move it.
        data = Path(__file__).resolve().parent / "data"
        out = tmp_path / "three_dense.csv"
        assert main(
            [
                "compare", "--model", str(data / "three_dense.json"),
                "--t", "0.5,1,1.000000001,7", "--u-grid", "0:2:2", "--families", "general",
                "--samples", "40000", "--no-timestamp", "--out", str(out),
            ]
        ) == 0
        assert out.read_bytes() == (data / "three_dense.compare.csv").read_bytes()

    def test_seed_changes_output(self, model_file, tmp_path):
        path = model_file()
        bodies = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            main(
                [
                    "compare", "--model", path, "--t", "2",
                    "--u-grid", "0.1:0.3:2", "--samples", "5000",
                    "--seed", seed, "--no-timestamp", "--out", str(out),
                ]
            )
            bodies.append(out.read_bytes())
        assert bodies[0] != bodies[1]

    @pytest.mark.parametrize("flag,value", REFUSED_COMPARE_SETTINGS)
    def test_refused_cell_settings_write_no_file(
        self, model_file, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "cmp.csv"
        argv = [*_settings_argv("compare", flag, value), "--model", model_file()]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "validation failure" in err
        assert flag != "--families" or "family" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "families", ["general,poincare,general", ","], ids=["repeated", "empty"]
    )
    def test_library_refuses_bad_families_and_writes_no_file(
        self, model_file, tmp_path, families
    ):
        # cmd_compare itself raises, below main's exit code
        out = tmp_path / "cmp.csv"
        argv = [*_settings_argv("compare", "--families", families), "--model", model_file()]
        args = cli.build_parser().parse_args([*argv, "--out", str(out)])
        with pytest.raises(ValidationError, match="family"):
            cli.cmd_compare(args)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value",
        [("compare", flag, value) for flag, value in REFUSED_COMPARE_SETTINGS
         if (flag, value) not in NEED_THE_MODEL]
        + [("simulate", "--samples", "0"), ("simulate", "--u", "nan"),
           ("bounds", "--families", "nosuch"), ("rate", "--u-grid", "0.1:0.3:0"),
           ("series", "--r-grid", "0:0.2:0"), ("bounds", "--t", "-1"),
           ("simulate", "--t", "0"), ("series", "--order", "0"), ("bounds", "--t", "0"),
           *(("bounds", "--fsobolev-c", c) for c in BAD_FSOBOLEV_C)],
    )
    def test_refusal_that_needs_no_model_reads_none(
        self, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        # the message names the flag, not the model file
        def never(path):
            raise AssertionError(f"read {path} for a refused flag")

        monkeypatch.setattr(cli, "read_model_file", never)
        out, model = tmp_path / "out.csv", str(tmp_path / "none")
        argv = [*_settings_argv(command, flag, value), "--model", model]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failure: ") and model not in err
        assert REFUSAL_MESSAGES.get((command, flag, value), "") in err
        assert not out.exists()

    def test_horizon_order_and_single_runs_give_same_rows(self, model_file, tmp_path):
        # one pass to the largest t serves every horizon; rows follow the --t order
        path = model_file(seed=4)

        def body(t):
            out = tmp_path / f"t{t}.csv"
            argv = [
                "compare", "--model", path, "--t", t, "--u-grid", "0.1:0.5:3",
                "--samples", "3000", "--no-timestamp", "--out", str(out),
            ]
            assert main(argv) == 0
            return out.read_text().splitlines()

        header, *rows = body("20,1,5")
        singles = [body(t) for t in ("20", "1", "5")]
        assert all(s[0] == header for s in singles)
        assert rows == [row for s in singles for row in s[1:]]

    @pytest.mark.parametrize("families", ["general,poincare", "poincare"])
    def test_simulates_once_and_solves_once_per_u(
        self, model_file, tmp_path, monkeypatch, families
    ):
        # the two-state chain is reversible, so every cell has a sharpness
        # cell; it reads the general rate from the bound table, which solves
        # general even when it is not requested: one grid call solves every u
        calls = {"sim": 0, "bounds": 0, "cli": 0}
        solved = []

        def counting(key, fn):
            def spy(*args, **kwargs):
                calls[key] += 1
                if key != "sim":
                    solved.append(len(args[2]))
                return fn(*args, **kwargs)

            return spy

        monkeypatch.setattr(cli, "time_averages", counting("sim", cli.time_averages))
        monkeypatch.setattr(bnd, "lambda0_star", counting("bounds", bnd.lambda0_star))
        monkeypatch.setattr(cli, "lambda0_star", counting("cli", cli.lambda0_star))
        assert main(
            [
                "compare", "--model", model_file(), "--t", "1,5,2",
                "--u-grid", "0.1:0.5:4", "--samples", "2000", "--families", families,
                "--out", str(tmp_path / "cmp.csv"),
            ]
        ) == 0
        assert calls == {"sim": 1, "bounds": 1, "cli": 0}
        assert solved == [4]
        # a general rate solved only for the sharpness column gets no columns
        header = (tmp_path / "cmp.csv").read_text().splitlines()[1].split(",")
        assert ("general_rate" in header) == ("general" in families)

    def test_summary_and_domination(self, model_file, tmp_path):
        summary = tmp_path / "cmp.json"
        assert main(
            [
                "compare", "--model", model_file(seed=3), "--t", "1,4",
                "--u-grid", "0.1:0.3:2", "--families", "general,bernstein_general",
                "--samples", "20000", "--seed", "3", "--no-timestamp", "--strict",
                "--out", str(tmp_path / "cmp.csv"), "--summary-out", str(summary),
            ]
        ) == 0
        saved = json.loads(summary.read_text())
        assert saved["all_dominated"] is True
        assert saved["rows_written"] == 4
        assert saved["fsobolev_verdict"] is None

    def test_summary_records_the_fsobolev_verdict(self, model_file, tmp_path):
        summary = tmp_path / "c.json"
        assert main(
            [
                "compare", "--model", model_file(q=THREE_CYCLE_Q, f=THREE_CYCLE_F),
                "--t", "1", "--u-grid", "0.2:0.2:1", "--families", "fsobolev",
                "--fsobolev-c", "0.2", "--samples", "100", "--seed", "0",
                "--out", str(tmp_path / "c.csv"), "--summary-out", str(summary),
            ]
        ) == 0
        assert json.loads(summary.read_text())["fsobolev_verdict"] == "holds"

    def test_out_dash_writes_stdout(self, model_file, tmp_path, monkeypatch, capsys):
        path = model_file()
        monkeypatch.chdir(tmp_path)
        assert main(
            [
                "compare", "--model", path, "--t", "1", "--u-grid", "0.2:0.2:1",
                "--samples", "500", "--families", "poincare", "--no-timestamp",
                "--out", "-",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("u,t,n,hits,")
        assert len(lines) == 2
        assert not (tmp_path / "-").exists()

    def test_out_and_summary_both_stdout(self, model_file, tmp_path, monkeypatch,
                                         capsys):
        path = model_file()
        monkeypatch.chdir(tmp_path)
        assert main(
            [
                "compare", "--model", path, "--t", "1", "--u-grid", "0.2:0.2:1",
                "--samples", "100", "--families", "poincare", "--no-timestamp",
                "--out", "-", "--summary-out", "-",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("u,t,n,hits,")
        assert json.loads(out.split("\n", 2)[2])["rows_written"] == 1
        assert not (tmp_path / "-").exists()

    def test_sharpness_column_for_stationary_reversible(self, model_file, tmp_path):
        path = model_file(nu=[2 / 3, 1 / 3], seed=3)
        out = tmp_path / "cmp.csv"
        assert main(
            [
                "compare", "--model", path, "--t", "2", "--u-grid", "0.2:0.2:1",
                "--families", "general", "--samples", "20000", "--seed", "3",
                "--no-timestamp", "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().strip().splitlines()
        gap = lines[-1].split(",")[-1]
        assert gap != ""
        assert float(gap) > 0.0

    def test_reads_model_once(self, model_file, tmp_path, monkeypatch):
        calls = []
        read = cli.read_model_file
        monkeypatch.setattr(cli, "read_model_file", lambda p: calls.append(p) or read(p))
        summary = tmp_path / "cmp.json"
        assert main(
            [
                "compare", "--model", model_file(seed=5), "--t", "1",
                "--u-grid", "0.2:0.2:1", "--samples", "500", "--families", "poincare",
                "--out", str(tmp_path / "cmp.csv"), "--summary-out", str(summary),
            ]
        ) == 0
        assert len(calls) == 1
        assert json.loads(summary.read_text())["seed"] == 5

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_thread_flag_refused(
        self, model_file, tmp_path, capsys, command, threads
    ):
        out = tmp_path / "out.csv"
        grid = ["--u", "0.2"] if command == "simulate" else ["--u-grid", "0.2:0.2:1"]
        assert main(
            [
                command, "--model", model_file(), "--t", "1", *grid,
                "--samples", "500", "--threads", threads, "--out", str(out),
            ]
        ) == 2
        assert f"need at least one thread, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_flag_refused(self, model_file, tmp_path, capsys):
        # compare writes each CSV whole; there is no append mode
        out = tmp_path / "cmp.csv"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "compare", "--model", model_file(), "--t", "1",
                    "--u-grid", "0.2:0.2:1", "--out", str(out), "--resume",
                ]
            )
        assert exc.value.code == 2
        assert "--resume" in capsys.readouterr().err
        assert not out.exists()

    def test_config_flag_refused(self, model_file, tmp_path, capsys):
        # settings are flags, on the command line or in an @file of flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"samples": 500}')
        out = tmp_path / "cmp.csv"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "compare", "--model", model_file(), "--t", "1",
                    "--u-grid", "0.2:0.2:1", "--config", str(cfg), "--out", str(out),
                ]
            )
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("env", ["abc", "0", "4", ""], ids=["abc", "0", "4", "empty"])
    def test_thread_variable_ignored(
        self, model_file, tmp_path, monkeypatch, command, env
    ):
        # the thread count is --threads, else 1; no environment variable sets it
        grid = ["--u", "0.2"] if command == "simulate" else ["--u-grid", "0.2:0.2:1"]
        argv = [
            command, "--model", model_file(), "--t", "1", *grid, "--samples", "500",
            "--no-timestamp", "--out", str(tmp_path / "out.csv"),
        ]
        monkeypatch.delenv("MJPBOUNDS_THREADS", raising=False)
        assert main(argv) == 0
        plain = (tmp_path / "out.csv").read_bytes()
        monkeypatch.setenv("MJPBOUNDS_THREADS", env)
        assert main(argv) == 0
        assert (tmp_path / "out.csv").read_bytes() == plain

    def test_strict_exits_4_when_a_bound_is_beaten(
        self, model_file, tmp_path, monkeypatch
    ):
        # a margin of minus a billion half-widths counts every cell whose
        # estimate has a positive half-width as beaten
        monkeypatch.setattr(cli, "DOMINATION_SIGMA", -1e9)
        out, summary = tmp_path / "cmp.csv", tmp_path / "cmp.json"
        assert main(
            [
                "compare", "--model", model_file(seed=3), "--t", "1",
                "--u-grid", "0.1:0.3:2", "--samples", "2000", "--families", "general",
                "--no-timestamp", "--strict", "--out", str(out),
                "--summary-out", str(summary),
            ]
        ) == 4
        saved = json.loads(summary.read_text())
        failures = [(f["family"], f["u"]) for f in saved["domination_failures"]]
        assert failures == [("general", 0.1), ("general", 0.3)]
        oks = [row.split(",")[-2] for row in out.read_text().splitlines()[1:]]
        assert oks == ["0", "0"]


# tracemalloc peak of compare on a 4-state chain at horizons 5, 20, 50: about
# 2.4 MB at 200000 and at 400000 paths, counting one block at a time; it was
# 6.5 and 11.2 MB when every path's averages were kept
COMPARE_PEAK_BUDGET = 3 * 2**20


class TestOneBlockAtATime:
    """``compare`` and ``simulate`` count hits one simulator block at a time."""

    ARGV = {
        "compare": ["compare", "--t", "0.5,2,5", "--u-grid", "0.1:0.5:3"],
        "simulate": ["simulate", "--t", "2", "--u", "0.2"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_bodies_do_not_depend_on_the_block_size(
        self, model_file, tmp_path, monkeypatch, command
    ):
        path = model_file(q=THREE_DENSE_Q, f=THREE_DENSE_F, seed=5)

        def body(name):
            out = tmp_path / name
            argv = [*self.ARGV[command], "--samples", "5000", "--no-timestamp"]
            assert main([*argv, "--model", path, "--out", str(out)]) == 0
            return out.read_bytes()

        default = body("default.csv")
        monkeypatch.setattr(simulate, "_BLOCK", 1000)
        assert body("small.csv") == default

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_a_range_past_the_counter_refused_before_simulating(
        self, model_file, tmp_path, capsys, monkeypatch, command
    ):
        def never(*args, **kwargs):
            raise AssertionError("simulated a refused sample count")

        monkeypatch.setattr(cli, "time_averages", never)
        out = tmp_path / "out.csv"
        argv = [*self.ARGV[command], "--samples", str(2**64 + 1)]
        assert main([*argv, "--model", model_file(), "--out", str(out)]) == 2
        assert not out.exists()
        assert "too many" in capsys.readouterr().err

    def test_every_nameable_count_passes_validation(self):
        check_samples(2**64)
        with pytest.raises(ValidationError, match="too many"):
            check_samples(2**64 + 1)

    def test_peak_memory_does_not_grow_with_samples(self, model_file, tmp_path):
        model = random_irreducible_model(np.random.default_rng(4), n=4)
        path = model_file(q=model.q.tolist(), f=model.f.tolist())
        peaks = []
        for samples in (200000, 400000):
            argv = [
                "compare", "--model", path, "--t", "5,20,50", "--u-grid", "0.05:0.3:5",
                "--samples", str(samples), "--seed", "1", "--out", str(tmp_path / "c.csv"),
            ]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < COMPARE_PEAK_BUDGET, peaks


def _exit_code(argv):
    """The exit code of ``main(argv)``, also when argparse raises ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestArgsFile:
    # ``@path`` reads more arguments from a file, one token per line

    @staticmethod
    def args_file(tmp_path, *tokens):
        path = tmp_path / "run.args"
        path.write_text("".join(f"{token}\n" for token in tokens))
        return f"@{path}"

    def test_file_settings_apply_and_a_later_flag_wins(self, model_file, tmp_path):
        model = model_file()
        settings = ["--t", "1", "--u-grid", "0.1:0.2:2", "--samples", "1000",
                    "--seed", "4", "--no-timestamp"]

        def body(*argv):
            out = tmp_path / "cmp.csv"
            assert main(["compare", "--model", model, *argv, "--out", str(out)]) == 0
            return out.read_bytes()

        from_file = body(self.args_file(tmp_path, *settings))
        assert from_file.startswith(b"u,t,n,hits,")
        assert from_file == body(*settings)
        later = body(self.args_file(tmp_path, *settings), "--seed", "9")
        assert later == body(*settings, "--seed", "9")
        assert later != from_file

    def test_file_samples_reach_the_simulator_and_a_later_flag_wins(
        self, model_file, tmp_path, monkeypatch
    ):
        seen = []
        averages = cli.time_averages

        def spy(model, t, n_samples, seed, start=0):
            seen.append(n_samples)
            return averages(model, t, n_samples, seed, start=start)

        monkeypatch.setattr(cli, "time_averages", spy)
        settings = self.args_file(
            tmp_path, "--samples", "300", "--t", "1", "--u-grid", "0.2:0.2:1",
            "--families", "poincare",
        )
        argv = ["compare", "--model", model_file(), settings,
                "--out", str(tmp_path / "cmp.csv")]
        totals = []
        for extra in ([], ["--samples", "200"]):
            seen.clear()
            assert main(argv + extra) == 0
            totals.append(sum(seen))  # the sizes of the simulator's blocks
        assert totals == [300, 200]

    @pytest.mark.parametrize(
        "content",
        [
            None, b"--samples\n\xff\n", b"--sample\n50\n", b"--domination-sigma\n1.0\n",
            b"--resume\n", b"--samples\nmany\n", b"--seed\n1.5\n", b"--threads\ntwo\n",
        ],
        ids=[
            "missing", "not_utf8", "misspelt_flag", "domination_sigma", "resume",
            "samples_string", "seed_float", "threads_string",
        ],
    )
    def test_bad_file_exits_2(self, model_file, tmp_path, content):
        # strict decoding (Python < 3.12) raises on the byte 0xff; 3.12 passes
        # it on escaped, and --samples refuses it as a number
        path = tmp_path / "run.args"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "cmp.csv"
        assert _exit_code(
            [
                "compare", "--model", model_file(), "--t", "1", "--u-grid", "0.2:0.2:1",
                "--families", "poincare", f"@{path}", "--out", str(out),
            ]
        ) == 2
        assert not out.exists()

    def test_file_thread_count_zero_refused(self, model_file, tmp_path, capsys):
        settings = self.args_file(
            tmp_path, "--threads", "0", "--t", "1", "--u-grid", "0.2:0.2:1",
            "--samples", "500",
        )
        out, summary = tmp_path / "cmp.csv", tmp_path / "cmp.json"
        assert main(
            [
                "compare", "--model", model_file(), settings,
                "--out", str(out), "--summary-out", str(summary),
            ]
        ) == 2
        assert "need at least one thread, got 0" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()


class TestSharedParser:
    # ``main`` parses with one parser per process; argparse fills a fresh
    # namespace on every call, so no setting carries over to the next call

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_many_calls_build_one_parser(self, model_file, monkeypatch):
        built = []
        build = cli.build_parser

        def spy():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", spy)
        model = model_file()
        for argv in (["validate", "--model", model], ["spectrum", "--model", model],
                     ["rate", "--model", model, "--u-grid", "0:0.5:2"]) * 2:
            assert main(argv) == 0
        assert len(built) == 1
        # build_parser itself still returns a tree of its own
        assert cli.build_parser() is not cli.build_parser()

    def test_strict_does_not_carry_over(self, model_file, tmp_path, monkeypatch):
        # every cell counts as beaten, as in TestCompare's strict test
        monkeypatch.setattr(cli, "DOMINATION_SIGMA", -1e9)
        argv = [
            "compare", "--model", model_file(seed=3), "--t", "1", "--u-grid", "0.1:0.3:2",
            "--samples", "2000", "--families", "general", "--out", str(tmp_path / "c.csv"),
        ]
        assert main(argv + ["--strict"]) == 4
        assert main(argv) == 0

    def test_families_do_not_carry_over(self, model_file, tmp_path):
        def families(*extra):
            out = tmp_path / "b.csv"
            assert main(
                [
                    "bounds", "--model", model_file(), "--t", "5", "--u-grid", "0.1:0.3:2",
                    "--no-timestamp", "--out", str(out), *extra,
                ]
            ) == 0
            return {ln.split(",")[1] for ln in out.read_text().splitlines()[1:]}

        assert families("--families", "poincare") == {"poincare"}
        assert families() == set(cli.DEFAULT_FAMILIES)

    def test_file_settings_do_not_carry_over(self, model_file, tmp_path):
        settings = tmp_path / "run.args"
        settings.write_text("--seed\n9\n--samples\n300\n")

        def body(*extra):
            out = tmp_path / "cmp.csv"
            assert main(
                [
                    "compare", "--model", model_file(), "--t", "1", "--u-grid", "0.2:0.2:1",
                    "--families", "poincare", "--no-timestamp", "--out", str(out), *extra,
                ]
            ) == 0
            return out.read_bytes()

        plain = body()
        assert b",300," in body(f"@{settings}")
        assert body() == plain

    def test_refused_call_leaves_no_trace(self, model_file, tmp_path):
        out = tmp_path / "cmp.csv"
        good = [
            "compare", "--model", model_file(), "--t", "1,2", "--u-grid", "0.1:0.3:2",
            "--samples", "500", "--no-timestamp", "--out", str(out),
        ]
        assert main(good) == 0
        first = out.read_bytes()
        out.unlink()
        cli._parser.cache_clear()
        # a misspelt flag is refused by argparse itself
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--model", model_file(), "--t", "1", "--u-grid", "0.2:0.2:1",
                  "--sample", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert main(good) == 0
        assert out.read_bytes() == first


COMMANDS = ("validate", "spectrum", "simulate", "rate", "series", "bounds", "compare")


def _positive():
    # spread evenly in log scale over [1e-12, 1e6]
    return st.floats(-12.0, 6.0).map(lambda e: 10.0**e)


def _magnitude():
    return st.one_of(st.just(0.0), _positive())


@st.composite
def _runs(draw, command):
    """A model file's contents and the flags of ``command`` on it."""
    n = draw(st.integers(2, 5))
    q = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            # a positive cycle through every state keeps most chains irreducible
            if y == (x + 1) % n:
                q[x, y] = draw(_positive())
            elif x != y:
                q[x, y] = draw(_magnitude())
    np.fill_diagonal(q, -q.sum(axis=1))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    f = [s * draw(_magnitude()) for s in signs]
    doc = {"states": [f"s{k}" for k in range(n)], "q": q.tolist(), "f": f}
    # u and r relative to the observable's scale, t so that t * max q <= 1e4;
    # grids and u are passed as "--u-grid=lo:hi:n", since argparse takes a
    # lone "-0.5:1:2" for a flag
    scale = max(map(abs, f)) or 1.0
    t = draw(st.floats(-3.0, 4.0).map(lambda e: 10.0**e / -float(q.diagonal().min())))

    def grid(lo, hi):
        a, b = sorted((draw(st.floats(lo, hi)) * scale, draw(st.floats(lo, hi)) * scale))
        return f"{a!r}:{b!r}:{draw(st.integers(1, 3))}"

    families = draw(st.sets(st.sampled_from(bnd.FAMILIES), min_size=1))
    fams = ["--families", ",".join(sorted(families)), "--fsobolev-c", repr(draw(_magnitude()))]
    samples = ["--samples", str(draw(st.integers(1, 200)))]
    if command == "simulate":
        return doc, [command, "--t", repr(t), f"--u={draw(st.floats(-1.5, 1.5)) * scale!r}",
                     *samples]
    if command == "rate":
        return doc, [command, f"--u-grid={grid(-0.5, 1.5)}"]
    if command == "series":
        order = str(draw(st.integers(1, 10)))
        return doc, [command, "--order", order, f"--r-grid={grid(0.0, 2.0)}"]
    if command == "bounds":
        return doc, [command, "--t", repr(t), f"--u-grid={grid(-0.5, 1.5)}", *fams]
    if command == "compare":
        return doc, [command, "--t", repr(t), f"--u-grid={grid(-0.5, 1.5)}", *fams, *samples]
    return doc, [command]


class TestEveryRunEndsCleanly:
    """Random chains of 2 to 5 states and random flags, 9 runs per command."""

    @pytest.mark.parametrize("command", COMMANDS)
    @settings(max_examples=9, derandomize=True, deadline=timedelta(seconds=5),
              database=None)
    @given(data=st.data())
    def test_exit_code_output_and_warnings(self, command, data):
        doc, argv = data.draw(_runs(command))
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "model.json"
            model.write_text(json.dumps(doc))
            out = Path(tmp) / "out.csv"
            csv = command not in ("validate", "spectrum")
            argv = [*argv, "--model", str(model), *(["--out", str(out)] if csv else [])]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
            assert code in (0, 2, 3), (argv, stderr.getvalue())
            if code:
                assert not out.exists() and not stdout.getvalue(), argv
                return
            body = out.read_text() if csv else stdout.getvalue()
            assert "nan" not in body.lower(), (argv, body)
            runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert not runtime, (argv, [str(w.message) for w in runtime])
