import json

import pytest

from eqtie import cli, designs, specio


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


REVERSE_CONV = {
    "group": {"kind": "cyclic", "n": 6},
    "n_action": {"size": 3, "generator_images": ["(0 1 2)"]},
    "m_action": {"size": 6, "generator_images": ["(0 5 4 3 2 1)"]},
    "design": "sparse",
    "genset": [[0], [0, 0, 0, 0, 0]],
}

MIRROR = {
    "group": {"kind": "cyclic", "n": 2},
    "n_action": {"size": 4, "generator_images": ["(0 3)(1 2)"]},
    "m_action": {"size": 2, "generator_images": ["(0 1)"]},
    "design": "sparse",
    "genset": [[0]],
}

ROT90_DIGRAPH = {
    "group": {"kind": "cyclic", "n": 4},
    "n_action": {"size": 8, "generator_images": ["(0 1 2 3)(4 5 6 7)"]},
    "m_action": {"size": 8, "generator_images": ["(0 1 2 3)(4 5 6 7)"]},
    "design": "sparse",
    "genset": [[0], [0, 0, 0]],
    "mode": "digraph",
}


class TestDesign:
    def test_mask_to_stdout(self, tmp_path, capsys):
        rc = cli.main(["design", "--spec", write_spec(tmp_path, REVERSE_CONV)])
        assert rc == 0
        doc = specio.parse_mask(capsys.readouterr().out)
        assert doc["base_color_count"] == 2
        assert sum(c["edge_count"] for c in doc["base_colors"]) == 12

    def test_mask_to_file_deterministic(self, tmp_path):
        spec = write_spec(tmp_path, REVERSE_CONV)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["design", "--spec", spec, "--out", str(out1)]) == 0
        assert cli.main(["design", "--spec", spec, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dot_sidecar(self, tmp_path):
        spec = write_spec(tmp_path, REVERSE_CONV)
        dot = tmp_path / "mask.dot"
        assert cli.main(["design", "--spec", spec, "--out", str(tmp_path / "m.json"),
                         "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("graph sharing {")


class TestGroupInfo:
    def test_reports_orbits_and_profile(self, tmp_path, capsys):
        rc = cli.main(["group", "info", "--spec", write_spec(tmp_path, MIRROR)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "order 2" in out
        assert "2 orbit(s)" in out
        assert "semi_regular" in out

    def test_one_based_display(self, tmp_path, capsys):
        rc = cli.main(["group", "info", "--spec", write_spec(tmp_path, MIRROR), "--one-based"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[[1, 4], [2, 3]]" in out
        assert "1-based" in out

    def test_json_out_is_zero_based(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MIRROR)
        out = tmp_path / "info.json"
        assert cli.main(["group", "info", "--spec", spec, "--out", str(out), "--one-based"]) == 0
        doc = json.loads(out.read_text())
        assert doc["actions"][0]["orbits"] == [[0, 3], [1, 2]]


class TestCheck:
    def test_equivariance_passes(self, tmp_path, capsys):
        rc = cli.main(["check", "equivariance", "--spec", write_spec(tmp_path, REVERSE_CONV),
                       "--trials", "3", "--seed", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and doc["exact_pass"]
        assert doc["seed"] == 5
        assert doc["tested_elements"] == 6

    def test_channels_check(self, tmp_path, capsys):
        doc = dict(REVERSE_CONV, channels={"in": 2, "out": 1})
        rc = cli.main(["check", "equivariance", "--spec", write_spec(tmp_path, doc),
                       "--trials", "2"])
        assert rc == 0

    def test_zero_trials(self, tmp_path, capsys):
        rc = cli.main(["check", "equivariance", "--spec", write_spec(tmp_path, REVERSE_CONV),
                       "--trials", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 0 and doc["max_residual"] == 0.0 and doc["passed"]

    def test_negative_trials_exit_two(self, tmp_path, capsys):
        rc = cli.main(["check", "equivariance", "--spec", write_spec(tmp_path, REVERSE_CONV),
                       "--trials", "-3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trials must be >= 0\n"

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit_two(self, tmp_path, capsys, tolerance):
        rc = cli.main(["check", "equivariance", "--spec", write_spec(tmp_path, REVERSE_CONV),
                       "--tolerance", tolerance])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerance must be finite and >= 0\n"

    def test_zero_tolerance_passes_exactly(self, tmp_path, capsys):
        rc = cli.main(["check", "equivariance", "--spec", write_spec(tmp_path, REVERSE_CONV),
                       "--tolerance", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerance"] == 0.0 and doc["max_residual"] == 0.0 and doc["passed"]


class TestCertify:
    def test_mirror_unique_exit_zero(self, tmp_path, capsys):
        rc = cli.main(["certify", "unique", "--spec", write_spec(tmp_path, MIRROR)])
        assert rc == 0
        captured = capsys.readouterr()
        cert = specio.parse_mask(captured.out)["certification"]
        assert cert["verdict"] == "unique"
        assert cert["aut_order"] == 2 and cert["joint_order"] == 2
        assert "unique" in captured.err

    def test_rot90_digraph_unique(self, tmp_path, capsys):
        rc = cli.main(["certify", "unique", "--spec", write_spec(tmp_path, ROT90_DIGRAPH)])
        assert rc == 0
        cert = specio.parse_mask(capsys.readouterr().out)["certification"]
        assert cert["verdict"] == "unique" and cert["aut_order"] == 4

    @pytest.mark.parametrize("doc", [MIRROR, ROT90_DIGRAPH, REVERSE_CONV])
    def test_colors_merged_once(self, tmp_path, capsys, monkeypatch, doc):
        calls = []
        merge = designs.merge_colors
        monkeypatch.setattr(designs, "merge_colors", lambda s: calls.append(s) or merge(s))
        cli.main(["certify", "unique", "--spec", write_spec(tmp_path, doc)])
        assert len(calls) == 1
        assert specio.parse_mask(capsys.readouterr().out)["certification"] is not None

    def test_tied_mirror_supergroup_exit_one(self, tmp_path, capsys):
        doc = dict(MIRROR, tie_across_orbits=True)
        rc = cli.main(["certify", "unique", "--spec", write_spec(tmp_path, doc)])
        assert rc == 1
        captured = capsys.readouterr()
        cert = specio.parse_mask(captured.out)["certification"]
        assert cert["verdict"] == "supergroup"
        assert cert["witness"] is not None
        assert "witness" in captured.err

    def test_reverse_conv_true_verdict(self, tmp_path, capsys):
        # output rows 2 and 5 of this tied pattern coincide, so the real
        # symmetry group is strictly larger than the shift pairing
        rc = cli.main(["certify", "unique", "--spec", write_spec(tmp_path, REVERSE_CONV)])
        assert rc == 1
        cert = specio.parse_mask(capsys.readouterr().out)["certification"]
        assert cert["verdict"] == "supergroup"
        assert cert["aut_order"] == 24 and cert["joint_order"] == 6
        assert cert["witness"] == ["()", "(2 5)"]

    def test_certified_mask_round_trips(self, tmp_path):
        spec = write_spec(tmp_path, MIRROR)
        out = tmp_path / "mask.json"
        assert cli.main(["certify", "unique", "--spec", spec, "--out", str(out)]) == 0
        text = out.read_text()
        assert specio.dump_mask(specio.parse_mask(text)) == text


class TestExportDot:
    def test_stdout(self, tmp_path, capsys):
        rc = cli.main(["export", "dot", "--spec", write_spec(tmp_path, MIRROR)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("graph sharing {")

    def test_digraph_file(self, tmp_path):
        spec = write_spec(tmp_path, ROT90_DIGRAPH)
        dot = tmp_path / "x.dot"
        assert cli.main(["export", "dot", "--spec", spec, "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("digraph sharing {")


class TestDeterminism:
    @pytest.mark.parametrize("doc", [REVERSE_CONV, MIRROR, ROT90_DIGRAPH])
    def test_spec_round_trip(self, tmp_path, doc):
        spec = specio.parse_spec(json.dumps(doc))
        assert specio.parse_spec(specio.format_spec(spec)).document == spec.document

    def test_check_reports_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, REVERSE_CONV)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert cli.main(["check", "equivariance", "--spec", spec, "--seed", "3",
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestErrors:
    def test_spec_error_exit_two(self, tmp_path, capsys):
        bad = dict(REVERSE_CONV, genset=[[0, 0], [0, 0, 0, 0]])
        rc = cli.main(["design", "--spec", write_spec(tmp_path, bad)])
        assert rc == 2
        assert "does not generate" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = cli.main(["design", "--spec", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_syntax_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("")
        rc = cli.main(["design", "--spec", str(path)])
        assert rc == 2
        assert "offset 0" in capsys.readouterr().err

    def test_tied_group_conv_needs_regular_output(self, tmp_path, capsys):
        # |G| = m_size = 6, but the output action is Z6 -> Z3 on {0, 1, 2}
        doc = dict(REVERSE_CONV, m_action={"size": 6, "generator_images": ["(0 1 2)"]},
                   tie_across_orbits=True)
        rc = cli.main(["design", "--spec", write_spec(tmp_path, doc)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: group convolution needs the output action to be regular over G\n"
        )

    def test_order_cap_is_the_specs(self, tmp_path, capsys):
        # --cap bounds certify's automorphism list, not the group closure
        doc = {
            "group": {"kind": "symmetric", "n": 8},
            "n_action": {"size": 8, "generator_images": ["(0 1)", "(0 1 2 3 4 5 6 7)"]},
            "m_action": {"size": 8, "generator_images": ["(0 1)", "(0 1 2 3 4 5 6 7)"]},
            "design": "dense",
        }
        spec = write_spec(tmp_path, doc)
        rc = cli.main(["certify", "unique", "--spec", spec, "--cap", "50000"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: $.group: order cap exceeded: closure has more than 10000 elements; "
            "raise the spec's order_cap\n"
        )
        with pytest.raises(SystemExit) as exc:  # group info does not read --cap
            cli.main(["group", "info", "--spec", spec, "--cap", "1"])
        assert exc.value.code == 2
        doc["order_cap"] = 50000
        rc = cli.main(["group", "info", "--spec", write_spec(tmp_path, doc)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("group: order 40320, degree 8\n")

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["design"])  # --spec is required
        assert exc.value.code == 2


SUBCOMMANDS = {
    "group info": ("--spec", "--one-based", "--out"),
    "design": ("--spec", "--out", "--dot"),
    "check equivariance": ("--spec", "--seed", "--trials", "--tolerance", "--out"),
    "certify unique": ("--spec", "--seed", "--cap", "--node-budget", "--one-based", "--out"),
    "export dot": ("--spec", "--dot"),
}
OPTION_VALUES = {  # flag -> (argv tail, parsed attribute, parsed value)
    "--spec": (["--spec", "s.json"], "spec", "s.json"),
    "--seed": (["--seed", "7"], "seed", 7),
    "--trials": (["--trials", "3"], "trials", 3),
    "--tolerance": (["--tolerance", "0.5"], "tolerance", 0.5),
    "--cap": (["--cap", "9"], "cap", 9),
    "--node-budget": (["--node-budget", "11"], "node_budget", 11),
    "--one-based": (["--one-based"], "one_based", True),
    "--out": (["--out", "o.json"], "out", "o.json"),
    "--dot": (["--dot", "o.dot"], "dot", "o.dot"),
}


class TestParser:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("flag", OPTION_VALUES)
    def test_each_subcommand_takes_only_its_options(self, command, flag, capsys):
        tail, attr, value = OPTION_VALUES[flag]
        argv = command.split() + (tail if flag == "--spec" else ["--spec", "s.json", *tail])
        if flag in SUBCOMMANDS[command]:
            assert getattr(cli.build_parser().parse_args(argv), attr) == value
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            # the subcommand's own parser reports it, with its usage line
            assert captured.err.startswith(f"usage: eqtie {command} [-h] --spec SPEC")
            assert f"eqtie {command}: error: unrecognized arguments: {' '.join(tail)}\n" in (
                captured.err
            )

    def test_ignored_option_shows_the_subcommand_usage(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MIRROR)
        with pytest.raises(SystemExit) as exc:
            cli.main(["design", "--spec", spec, "--trials", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage: eqtie design [-h] --spec SPEC [--out OUT] [--dot DOT]\n"
            "eqtie design: error: unrecognized arguments: --trials 3\n"
        )
        with pytest.raises(SystemExit) as exc:  # an unknown option before the subcommand
            cli.main(["check", "--one-based", "equivariance", "--spec", spec])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: eqtie check [-h] {equivariance} ...\n"
            "eqtie check: error: unrecognized arguments: --one-based\n"
        )

    def test_main_does_not_rebuild_the_parser(self, tmp_path, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        spec = write_spec(tmp_path, MIRROR)
        assert cli.main(["export", "dot", "--spec", spec]) == 0
        assert cli.main(["group", "info", "--spec", spec]) == 0
        assert capsys.readouterr().out.startswith("graph sharing {")
