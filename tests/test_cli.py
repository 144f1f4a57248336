"""End-to-end command-line tests: flags, file formats, determinism."""

import json
import re
import shlex
from pathlib import Path

import pytest

import blockade.words
from blockade.cli import main
from blockade import bounds, cli, verify


GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def readme_commands():
    """The ``blockade ...`` lines of the README's "Command line" block, with
    their continuation lines joined."""
    text = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1).replace("\\\n", " ")
    return [" ".join(line.split()) for line in block.splitlines() if line.startswith("blockade ")]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestCoeffs:
    def test_universal_density_table(self, capsys):
        rc, out = run_cli(
            capsys, "coeffs", "--topology", "infinite", "--lambda", "1", "--jmax", "5"
        )
        assert rc == 0
        rows = csv_rows(out)
        even = {int(r["order"]): r["value"] for r in rows if int(r["order"]) % 2 == 0}
        assert [even[n] for n in (2, 4, 6, 8, 10)] == [
            "1/1", "-1/1", "3/5", "-81/280", "3023/25200",
        ]
        assert all(r["universal"] == "true" for r in rows)

    def test_two_site_ring(self, capsys):
        rc, out = run_cli(capsys, "coeffs", "--topology", "ring", "--L", "2", "--jmax", "2")
        assert rc == 0
        rows = csv_rows(out)
        assert rows[-1]["value"] == "-2/3"

    def test_open_chain_deficits(self, capsys):
        rc, out = run_cli(
            capsys, "coeffs", "--topology", "line", "--L", "12", "--jmax", "3", "--emit-q"
        )
        assert rc == 0
        deficits = [r["value"] for r in csv_rows(out) if r["observable"] == "boundary-deficit"]
        assert deficits == ["0/1", "2/3", "38/27"]

    def test_oracle_cross_check_passes(self, capsys):
        rc, _ = run_cli(
            capsys, "coeffs", "--topology", "ring", "--L", "5", "--jmax", "3", "--with-oracle"
        )
        assert rc == 0

    def test_oracle_reaches_ring_26(self, capsys):
        # the array sector: 5,536 orbits of 271,443 states
        rc, out = run_cli(
            capsys, "coeffs", "--topology", "ring", "--L", "26", "--jmax", "1", "--with-oracle"
        )
        assert rc == 0
        assert [(r["order"], r["value"], r["universal"]) for r in csv_rows(out)] == [
            ("0", "0/1", "true"), ("1", "0/1", "true"), ("2", "1/1", "true"),
        ]

    def test_corrupted_product_table_fails_oracle_check(self, capsys, monkeypatch):
        # the packed letter codes define every letter product; give n the
        # code of m and the symbolic route disagrees with the integer matrix
        # oracle, so the run must report a nonzero status
        bad = list(blockade.words._CODE)
        bad[blockade.words.NUM] = bad[blockade.words.PROJ]
        monkeypatch.setattr(blockade.words, "_CODE", tuple(bad))
        rc, _ = run_cli(
            capsys, "coeffs", "--topology", "ring", "--L", "4", "--jmax", "2", "--with-oracle"
        )
        assert rc != 0

    def test_header_echoes_config(self, capsys):
        _, out = run_cli(capsys, "coeffs", "--topology", "ring", "--L", "4", "--jmax", "1")
        assert "# L = 4" in out and "# jmax = 1" in out

    def test_json_payload(self, capsys):
        rc, out = run_cli(
            capsys,
            "coeffs", "--topology", "ring", "--L", "3", "--jmax", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["config"]
        assert payload["records"][2]["numerator"] == 1

    def test_decimal_mode(self, capsys):
        _, out = run_cli(
            capsys,
            "coeffs", "--topology", "ring", "--L", "2", "--jmax", "2", "--decimal",
        )
        assert repr(-2 / 3) in out

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("--topology", "infinite", "--lambda", "1", "--jmax", "6"), "coeffs_infinite_lambda1.csv"),
            (("--topology", "infinite", "--lambda", "2", "--jmax", "6"), "coeffs_infinite_lambda2.csv"),
            (("--topology", "infinite", "--lambda", "3", "--jmax", "6"), "coeffs_infinite_lambda3.csv"),
            (("--topology", "ring", "--L", "24", "--jmax", "6"), "coeffs_ring24.csv"),
            (("--topology", "line", "--L", "20", "--jmax", "6"), "coeffs_line20.csv"),
            (("--topology", "infinite", "--observable", "correlation", "--d", "2", "--jmax", "6"),
             "coeffs_infinite_correlation_d2.csv"),
            (("--topology", "line", "--L", "12", "--jmax", "4", "--emit-q"), "coeffs_line12_q.csv"),
        ],
        ids=["infinite-l1", "infinite-l2", "infinite-l3", "ring24", "line20", "pair-d2", "line12-q"],
    )
    def test_csv_is_byte_identical_to_golden(self, capsys, argv, golden):
        # full-budget series, as printed before the series pruned the words
        # that can no longer reach the vacuum
        rc, out = run_cli(capsys, "coeffs", *argv)
        assert rc == 0
        assert out == (GOLDEN / golden).read_text()


class TestSimulate:
    def test_density_starts_at_zero(self, capsys):
        rc, out = run_cli(
            capsys,
            "simulate", "--topology", "ring", "--L", "6",
            "--t-start", "0", "--t-stop", "1", "--t-steps", "5",
        )
        assert rc == 0
        rows = csv_rows(out)
        assert float(rows[0]["t"]) == 0.0 and float(rows[0]["density_ring"]) == 0.0

    def test_ring_line_overlay_columns(self, capsys):
        rc, out = run_cli(
            capsys,
            "simulate", "--topology", "ring,line", "--L", "8",
            "--t-steps", "5", "--overlay-universal", "--jmax", "3",
        )
        assert rc == 0
        header = [l for l in out.splitlines() if l and not l.startswith("#")][0]
        assert header == "t,density_ring,density_line,universal_3"

    def test_overlay_defaults_to_certified_threshold(self, capsys):
        rc, out = run_cli(
            capsys,
            "simulate", "--topology", "ring", "--L", "6",
            "--t-steps", "3", "--overlay-universal",
        )
        assert rc == 0
        assert "universal_5" in out  # threshold of a 6-site ring

    # the universal overlay of an 8-site ring on t = 0, 0.5, ..., 2, taken
    # from the oracle on ring(jmax + 1): the bytes of the symbolic
    # infinite-chain series, which reaches jmax 6 within its budget
    OVERLAY = {
        6: ["0.0", "0.19585152520073784", "0.38725198412698414",
            "-2.1086108616420205", "-102.67682539682542"],
        7: ["0.0", "0.1958523815979451", "0.40128319597069595",
            "1.9875104323586235", "127.21054945054942"],
    }

    @pytest.mark.parametrize("jmax", [6, 7])
    def test_overlay_bytes_across_route_switch(self, capsys, jmax):
        _, out = run_cli(
            capsys,
            "simulate", "--topology", "ring", "--L", "8",
            "--t-steps", "5", "--overlay-universal", "--jmax", str(jmax),
        )
        assert [r[f"universal_{jmax}"] for r in csv_rows(out)] == self.OVERLAY[jmax]

    def test_window_report(self, capsys):
        rc, out = run_cli(
            capsys,
            "simulate", "--topology", "ring", "--L", "8", "--window-vs", "10",
            "--t-start", "0", "--t-stop", "6", "--t-steps", "121",
            "--epsilon", "1e-3",
        )
        assert rc == 0
        value = out.splitlines()[-1].split(",")[1]
        assert 0.0 < float(value) < 6.0

    def test_byte_identical_repeat_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (out1, out2):
            main([
                "simulate", "--topology", "ring", "--L", "7",
                "--t-steps", "9", "--output", str(path),
            ])
        assert out1.read_bytes() == out2.read_bytes()

    def test_g2_observable(self, capsys):
        rc, out = run_cli(
            capsys,
            "simulate", "--topology", "ring", "--L", "6", "--observable", "g2",
            "--d", "2", "--t-start", "0", "--t-stop", "0.2", "--t-steps", "5",
        )
        assert rc == 0
        rows = csv_rows(out)
        assert all(float(r["t"]) > 0 for r in rows)  # zero time dropped

    def test_g2_default_grid(self, capsys):
        # the default grid starts at t = 0; only that point is dropped
        rc, out = run_cli(
            capsys, "simulate", "--L", "8", "--t-steps", "5", "--observable", "g2", "--d", "2"
        )
        assert rc == 0
        assert [r["t"] for r in csv_rows(out)] == ["0.5", "1.0", "1.5", "2.0"]


class TestBounds:
    def test_kappa_table(self, capsys):
        rc, out = run_cli(capsys, "bounds", "--table", "kappa", "--amax", "5")
        assert rc == 0
        rows = csv_rows(out)
        assert float(rows[0]["tau"]) == 1.0 and float(rows[0]["omega"]) == 1.0

    def test_bound_table(self, capsys):
        rc, out = run_cli(capsys, "bounds", "--table", "bj", "--jmax", "4")
        assert rc == 0
        assert len(csv_rows(out)) == 4

    def test_envelope_curve(self, capsys):
        rc, out = run_cli(
            capsys,
            "bounds", "--table", "envelope", "--L", "18",
            "--t-start", "0", "--t-stop", "1", "--t-steps", "5",
        )
        assert rc == 0
        rows = csv_rows(out)
        assert rows[0]["log_E"] == "-inf"

    def test_envelope_class_is_passed_through(self, capsys):
        values = {}
        for cls in ("density", "word"):
            rc, out = run_cli(
                capsys,
                "bounds", "--table", "envelope", "--L", "18", "--ell", "2", "--cls", cls,
                "--t-start", "0.5", "--t-stop", "0.5", "--t-steps", "1",
            )
            assert rc == 0
            values[cls] = float(csv_rows(out)[0]["log_E"])
            assert values[cls] == bounds.log_error_envelope(18, 1, 2, 0.5, cls)
        assert values["density"] != values["word"]

    def test_ratio_table(self, capsys):
        rc, out = run_cli(
            capsys, "bounds", "--table", "ratio", "--Lmin", "10", "--Lmax", "12"
        )
        assert rc == 0
        assert len(csv_rows(out)) == 3

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("--table", "kappa", "--amax", "100"), "bounds_kappa.csv"),
            (("--table", "envelope", "--L", "18", "--t-stop", "1", "--t-steps", "21"),
             "bounds_envelope.csv"),
            (("--table", "ratio", "--Lmin", "10", "--Lmax", "40", "--t", "1.0"), "bounds_ratio.csv"),
            (("--table", "envelope", "--L", "18", "--ell", "2", "--cls", "word",
              "--t-stop", "0.8", "--t-steps", "9"), "bounds_envelope_word.csv"),
            (("--table", "envelope", "--L", "18", "--lambda", "2",
              "--t-stop", "0.8", "--t-steps", "9"), "bounds_envelope_lambda2.csv"),
        ],
        ids=["kappa", "envelope", "ratio", "envelope-word", "envelope-lambda2"],
    )
    def test_csv_is_byte_identical_to_golden(self, capsys, argv, golden):
        # the README's three bounds commands and two more envelope forms, as
        # printed before the envelope tails were tabled
        rc, out = run_cli(capsys, "bounds", *argv)
        assert rc == 0
        assert out == (GOLDEN / golden).read_text()


class TestConfigFile:
    def test_flags_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("topology = ring\nL = 2\njmax = 2\n")
        rc, out = run_cli(capsys, "coeffs", "--config", str(cfg))
        assert rc == 0
        assert csv_rows(out)[-1]["value"] == "-2/3"

    def test_explicit_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("topology = ring\nL = 2\njmax = 5\n")
        rc, out = run_cli(capsys, "coeffs", "--config", str(cfg), "--jmax", "1")
        assert rc == 0
        assert max(int(r["order"]) for r in csv_rows(out)) == 2


class TestVerifyCommand:
    def test_reference_drift_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "CRITERIA", {1: verify.CRITERIA[1]}, raising=True
        )
        monkeypatch.setattr(verify, "DENSITY_NN", verify.DENSITY_NN[:-1] + [0])
        rc, out = run_cli(capsys, "verify", "--quick")
        assert rc == 1
        assert "FAIL" in out

    def test_single_criterion_passes(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "CRITERIA", {2: verify.CRITERIA[2]}, raising=True
        )
        rc, out = run_cli(capsys, "verify", "--quick")
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out


class TestRefusals:
    """Refused requests print one line on stderr and exit with status 2."""

    def refused(self, capsys, *argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("blockade: error: ")
        return lines[0]

    def test_value_error(self, capsys):
        msg = self.refused(
            capsys, "coeffs", "--topology", "ring", "--L", "8", "--observable", "correlation",
            "--d", "1",
        )
        assert "within the blockade range" in msg

    def test_dimension_budget(self, capsys):
        msg = self.refused(capsys, "simulate", "--topology", "line", "--L", "21")
        assert "dimension 28657" in msg

    def test_oracle_work_budget(self, capsys):
        # an overlay past the symbolic budget asks the oracle for ring(23), j = 22
        msg = self.refused(
            capsys, "simulate", "--topology", "ring", "--L", "6", "--t-steps", "2",
            "--overlay-universal", "--jmax", "22",
        )
        assert msg == (
            "blockade: error: integer Taylor oracle (ad order 44 x dimension 64079) "
            "needs work 2819476, over the budget of 2000000"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("--topology", "line", "--L", "21", "--overlay-universal"),
            ("--topology", "ring", "--L", "22", "--overlay-universal", "--jmax", "21"),
        ],
    )
    def test_overlay_refused_before_its_oracle(self, capsys, monkeypatch, argv):
        # an over-budget lattice is refused from the closed form before the
        # overlay's oracle runs
        def refuse(*args):
            raise AssertionError("the overlay's oracle ran")

        monkeypatch.setattr(cli, "taylor_oracle", refuse)
        msg = self.refused(capsys, "simulate", *argv)
        assert "dense eigendecomposition needs dimension" in msg

    def test_symbolic_order_budget(self, capsys):
        msg = self.refused(capsys, "coeffs", "--topology", "infinite", "--jmax", "7")
        assert "exceeds budget 12" in msg

    def test_envelope_depth(self, capsys):
        # refused before any tail term is summed
        msg = self.refused(
            capsys, "bounds", "--table", "envelope", "--L", "18", "--t-start", "30",
            "--t-stop", "30", "--t-steps", "1",
        )
        assert msg.endswith("envelope tail not certified within 1000000 terms at t=30.0")

    def test_ring_covered_by_the_blockade(self, capsys):
        msg = self.refused(capsys, "coeffs", "--topology", "ring", "--L", "3", "--lambda", "3")
        assert "blockade range 3 covers the whole ring of 3 sites" in msg

    @pytest.mark.parametrize("command", ["coeffs", "simulate"])
    def test_pair_that_does_not_fit(self, capsys, command):
        msg = self.refused(
            capsys, command, "--topology", "line", "--L", "8", "--observable", "correlation",
            "--d", "9",
        )
        assert msg == "blockade: error: pair (1, 10) does not fit on 8 sites"

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("simulate", "--topology", "torus", "--L", "6"), "unknown topology 'torus'"),
            (("simulate", "--topology", "ring"), "--L is required for topology 'ring'"),
            (
                ("coeffs", "--topology", "ring", "--L", "6", "--observable", "correlation"),
                "--d is required for the pair-counter observable",
            ),
            (
                ("coeffs", "--topology", "ring", "--L", "6", "--emit-q"),
                "boundary deficits are an open-chain quantity",
            ),
            (("simulate", "--L", "6", "--t-steps", "0"), "--t-steps must be at least 1"),
            (
                ("simulate", "--L", "6", "--t-steps", "3", "--overlay-universal", "--jmax", "0"),
                "--jmax must be at least 1",
            ),
            (
                ("coeffs", "--topology", "infinite", "--jmax", "2", "--with-oracle"),
                "infinite chain has no finite basis",
            ),
            (
                ("simulate", "--topology", "infinite", "--t-steps", "2"),
                "infinite chain has no finite basis",
            ),
            (("bounds", "--table", "envelope"), "--L is required for the envelope table"),
            (
                ("simulate", "--L", "6", "--t-steps", "3", "--observable", "correlation", "--d", "0"),
                "correlation distance must be a positive integer",
            ),
            (
                ("simulate", "--L", "6", "--t-steps", "3", "--observable", "g2", "--d", "0"),
                "correlation distance must be a positive integer",
            ),
            (
                ("coeffs", "--L", "6", "--jmax", "0", "--with-oracle"),
                "the series needs at least order 1, not 0",
            ),
            (
                ("simulate", "--topology", "ring", "--L", "8", "--t-stop", "nan", "--t-steps", "3"),
                "--t-stop must be finite, got nan",
            ),
            (
                ("simulate", "--L", "8", "--t-stop", "nan", "--t-steps", "3", "--observable", "g2", "--d", "2"),
                "--t-stop must be finite, got nan",
            ),
            (
                ("simulate", "--L", "8", "--t-stop", "inf", "--t-steps", "3", "--window-vs", "10"),
                "--t-stop must be finite, got inf",
            ),
            (
                ("simulate", "--L", "8", "--t-start=-inf", "--t-steps", "1"),
                "--t-start must be finite, got -inf",
            ),
            (
                ("bounds", "--table", "envelope", "--L", "18", "--t-start", "inf"),
                "--t-start must be finite, got inf",
            ),
            (
                ("simulate", "--L", "8", "--t-start", "-1", "--t-stop", "1", "--t-steps", "5",
                 "--observable", "g2", "--d", "2"),
                "pair correlations need strictly positive times",
            ),
            (
                ("simulate", "--L", "8", "--t-steps", "3", "--observable", "g2", "--d", "2",
                 "--overlay-universal"),
                "--overlay-universal needs --observable density, not g2",
            ),
            (
                ("simulate", "--L", "8", "--window-vs", "10", "--format", "json"),
                "--window-vs prints a CSV table, not --format json",
            ),
            (
                ("simulate", "--L", "8", "--window-vs", "10", "--observable", "g2"),
                "--window-vs compares densities, not --observable g2",
            ),
            (
                ("simulate", "--L", "8", "--window-vs", "10", "--observable", "correlation"),
                "--window-vs compares densities, not --observable correlation",
            ),
            (
                ("simulate", "--L", "8", "--window-vs", "10", "--overlay-universal"),
                "--window-vs takes no --overlay-universal",
            ),
            (
                ("simulate", "--L", "8", "--t-steps", "3", "--jmax", "3"),
                "--jmax is read only by --overlay-universal",
            ),
            (
                ("simulate", "--L", "8", "--window-vs", "10", "--jmax", "3"),
                "--jmax is read only by --overlay-universal",
            ),
            (
                ("coeffs", "--topology", "ring", "--L", "6", "--observable", "correlation",
                 "--d", "6"),
                "pair (1, 7) names one site twice on a ring of 6 sites",
            ),
            (
                ("simulate", "--topology", "ring", "--L", "6", "--t-steps", "3",
                 "--observable", "correlation", "--d", "12"),
                "pair (1, 13) names one site twice on a ring of 6 sites",
            ),
            (
                ("simulate", "--topology", "ring", "--L", "6", "--t-steps", "3",
                 "--observable", "g2", "--d", "6"),
                "pair (1, 7) names one site twice on a ring of 6 sites",
            ),
            (
                ("bounds", "--table", "envelope", "--L", "10", "--lambda", "-1"),
                "blockade range must be at least 1, not -1",
            ),
            (("bounds", "--table", "bj", "--lambda", "-2"), "blockade range must be at least 1, not -2"),
            (("bounds", "--table", "ratio", "--lambda", "0"), "blockade range must be at least 1, not 0"),
            (("bounds", "--table", "envelope", "--L", "0"), "an envelope needs at least one site, not L=0"),
            (
                ("bounds", "--table", "envelope", "--L", "-5"),
                "an envelope needs at least one site, not L=-5",
            ),
            (
                ("bounds", "--table", "envelope", "--L", "2", "--ell", "3", "--cls", "word"),
                "a word needs 1 <= ell <= L, not ell=3 on L=2 sites",
            ),
            (("bounds", "--table", "ratio", "--t", "nan"), "time must be finite"),
            (("bounds", "--table", "ratio", "--t", "inf"), "time must be finite"),
            (("bounds", "--table", "bj", "--cls", "word", "--ell", "0"), "a word needs ell >= 1, not ell=0"),
            (
                ("simulate", "--L", "8", "--window-vs", "10", "--epsilon", "nan"),
                "epsilon must be positive and finite, got nan",
            ),
            (
                ("simulate", "--L", "8", "--window-vs", "10", "--epsilon", "-1"),
                "epsilon must be positive and finite, got -1.0",
            ),
        ],
        ids=[
            "topology", "L", "d", "emit-q", "t-steps", "overlay-jmax", "oracle-infinite",
            "evolve-infinite", "envelope-L", "correlation-d0", "g2-d0", "coeffs-jmax0",
            "t-stop-nan", "g2-t-stop-nan", "window-t-stop-inf", "one-point-t-start-inf",
            "envelope-t-start-inf", "g2-negative-time", "overlay-g2", "window-json",
            "window-g2", "window-correlation", "window-overlay", "jmax-without-overlay",
            "window-jmax", "coeffs-pair-one-site", "correlation-pair-one-site",
            "g2-pair-one-site", "envelope-lambda", "bj-lambda", "ratio-lambda", "envelope-L0",
            "envelope-L-negative", "envelope-word-longer-than-L", "ratio-t-nan", "ratio-t-inf",
            "bj-word-ell0", "window-epsilon-nan", "window-epsilon-negative",
        ],
    )
    def test_flag_refusals(self, capsys, argv, want):
        assert self.refused(capsys, *argv) == f"blockade: error: {want}"

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--table", "kappa", "--format", "json"),
            ("bounds", "--table", "kappa", "--decimal"),
            ("bounds", "--table", "kappa", "--topology", "line"),
            ("simulate", "--L", "6", "--decimal"),
        ],
        ids=["bounds-format", "bounds-decimal", "bounds-topology", "simulate-decimal"],
    )
    def test_unread_flags_rejected(self, capsys, argv):
        # argparse refuses a flag the subcommand does not read
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    def test_config_without_path(self, capsys):
        assert self.refused(capsys, "coeffs", "--config") == "blockade: error: --config needs a path"

    def test_missing_config_file(self, capsys, tmp_path):
        path = tmp_path / "missing.cfg"
        msg = self.refused(capsys, "coeffs", "--config", str(path))
        assert msg == f"blockade: error: [Errno 2] No such file or directory: '{path}'"

    def test_output_into_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "kappa.csv"
        msg = self.refused(capsys, "bounds", "--amax", "2", "--output", str(path))
        assert msg == f"blockade: error: [Errno 2] No such file or directory: '{path}'"


class TestReadme:
    def test_block_has_every_command(self):
        assert len(readme_commands()) == 8

    @pytest.mark.parametrize("command", readme_commands())
    def test_command_runs(self, capsys, monkeypatch, tmp_path, command):
        # each command of the README's "Command line" block runs as printed
        monkeypatch.chdir(tmp_path)
        assert main(shlex.split(command)[1:]) == 0
