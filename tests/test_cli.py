"""Command line behavior: artifacts, output and exit codes."""

import hashlib
import json

import numpy as np
import pytest

from tapc import cli, isa
from tapc.model import (FeatureMap, Layer, QuantSpec, TernaryNetwork,
                        TernaryWeights, make_synthetic_network,
                        save_feature_map, save_network)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_writes_program_and_report(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compile", "--synthetic", "2x6x0.8",
                           "--input-hw", "8x8", "--seed", "3",
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "program.json").exists()
    assert "layer 0: ops unroll=" in out
    assert "lut: published add out_of_place table failed validation" in out
    report = json.loads((tmp_path / "compile_report.json").read_text())
    assert report["opt"] == "unroll_cse"
    assert len(report["lut_notes"]) == 1
    assert len(report["layers"]) == 2


def test_run_writes_all_artifacts(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "run", "--synthetic", "2x6x0.8",
                           "--input-hw", "8x8", "--seed", "3",
                           "--out-dir", str(tmp_path))
    assert code == 0
    for name in ("program.json", "stats.json", "report.txt", "report.csv",
                 "events.csv", "output.tfm"):
        assert (tmp_path / name).exists(), name
    assert "network synthetic-2x6x0.8" in out
    assert "energy by kind [pJ]:" in out
    events = (tmp_path / "events.csv").read_text().splitlines()
    assert events[0] == "kind,ap,bits,steps,epoch"
    assert len(events) > 100


def test_run_from_precompiled_program_matches_in_process_compile(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    code, _, _ = run_cli(capsys, "run", "--synthetic", "2x6x0.8",
                         "--input-hw", "8x8", "--seed", "3", "--out-dir", str(a))
    assert code == 0
    code, _, _ = run_cli(capsys, "run", "--program", str(a / "program.json"),
                         "--seed", "3", "--out-dir", str(b))
    assert code == 0
    assert (a / "stats.json").read_bytes() == (b / "stats.json").read_bytes()
    assert (a / "output.tfm").read_bytes() == (b / "output.tfm").read_bytes()


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--synthetic", "2x6x0.8",
                           "--input-hw", "8x8", "--seed", "3")
    assert code == 0
    assert out.startswith("PASS:")
    assert "bit-exact" in out


def test_verify_fails_on_a_program_for_different_weights(tmp_path, capsys):
    run_cli(capsys, "compile", "--synthetic", "2x6x0.8", "--input-hw", "8x8",
            "--seed", "4", "--out-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify", "--synthetic", "2x6x0.8",
                           "--seed", "3",
                           "--program", str(tmp_path / "program.json"))
    assert code == 2
    assert out.startswith("FAIL: first divergence at layer")


def test_capacity_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compile", "--synthetic", "1x4x0.8",
                           "--input-hw", "32x32", "--banks", "1",
                           "--tiles-per-bank", "1", "--aps-per-tile", "1",
                           "--out-dir", str(tmp_path))
    assert code == 3
    assert "capacity:" in err


def test_format_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compile",
                           "--model", str(tmp_path / "nope.json"),
                           "--weights", str(tmp_path / "nope.bin"),
                           "--out-dir", str(tmp_path))
    assert code == 4 and "format:" in err

    code, _, _ = run_cli(capsys, "compile", "--synthetic", "banana",
                         "--out-dir", str(tmp_path))
    assert code == 4

    code, _, _ = run_cli(capsys, "compile", "--synthetic", "1x4x0.8",
                         "--input-hw", "tall", "--out-dir", str(tmp_path))
    assert code == 4

    code, _, _ = run_cli(capsys, "run",
                         "--program", str(tmp_path / "missing.json"),
                         "--out-dir", str(tmp_path))
    assert code == 4


@pytest.mark.parametrize("channels", [1, 5])
def test_run_rejects_input_with_the_wrong_channel_count(channels, tmp_path,
                                                        capsys):
    code, _, _ = run_cli(capsys, "compile", "--synthetic", "1x4x0.8",
                         "--input-hw", "6x6", "--out-dir", str(tmp_path))
    assert code == 0
    save_feature_map(FeatureMap(np.zeros((channels, 6, 6), dtype=np.int64), 4),
                     tmp_path / "in.tfm")
    code, _, err = run_cli(capsys, "run",
                           "--program", str(tmp_path / "program.json"),
                           "--input", str(tmp_path / "in.tfm"),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 4 and "format:" in err


def _conv(c_in, c_out, seed):
    rng = np.random.default_rng(seed)
    w = rng.choice([-1, 0, 1], size=(c_out, c_in, 3, 3))
    return Layer("conv", c_in, c_out, 3, 3, 1, 1,
                 QuantSpec(4, 1, 3, "relu_clamp"), TernaryWeights(w))


@pytest.mark.parametrize("layers", [
    [_conv(3, 4, 0), _conv(5, 4, 1)],
    [_conv(3, 6, 0), _conv(4, 4, 1)],
    [_conv(3, 4, 0), Layer("add", 4, 4, 1, 1, 1, 0, QuantSpec(4, 1, 1),
                           skip_from=-1)],
], ids=["conv-expects-more-channels", "conv-expects-fewer-channels",
        "add-operands-differ"])
def test_compile_rejects_layers_that_do_not_chain(layers, tmp_path, capsys):
    save_network(TernaryNetwork("bad", layers), tmp_path / "net.json",
                 tmp_path / "net.bin")
    code, _, err = run_cli(capsys, "compile",
                           "--model", str(tmp_path / "net.json"),
                           "--weights", str(tmp_path / "net.bin"),
                           "--input-hw", "6x6", "--out-dir", str(tmp_path))
    assert code == 4 and "format:" in err


@pytest.mark.parametrize("layer, field, value", [
    (0, "stride", 1.9), (0, "requant_shift", 2.5), (0, "activation_bits", "4"),
    (0, "pad", "1"), (1, "skip_from", "0"), (1, "skip_from", 0.0),
    (1, "skip_from", [0]),
], ids=["float-stride", "fractional-shift", "string-activation_bits",
        "string-pad", "string-skip_from", "float-skip_from", "list-skip_from"])
def test_manifest_integer_fields_must_be_json_integers(layer, field, value,
                                                       tmp_path, capsys):
    net = TernaryNetwork("net", [_conv(3, 4, 0), Layer(
        "add", 4, 4, 1, 1, 1, 0, QuantSpec(4, 1, 1), skip_from=0)])
    save_network(net, tmp_path / "net.json", tmp_path / "net.bin")
    doc = json.loads((tmp_path / "net.json").read_text())
    doc["layers"][layer][field] = value
    (tmp_path / "net.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify",
                           "--model", str(tmp_path / "net.json"),
                           "--weights", str(tmp_path / "net.bin"),
                           "--input-hw", "6x6")
    assert code == 4 and err.startswith("format:"), err
    assert f"{field} must be an integer" in err


def test_saved_network_files_feed_every_command(tmp_path, capsys):
    net = make_synthetic_network(1, 4, 0.75, bits=4, in_channels=2, seed=6)
    save_network(net, tmp_path / "net.json", tmp_path / "net.bin")
    code, out, _ = run_cli(capsys, "verify",
                           "--model", str(tmp_path / "net.json"),
                           "--weights", str(tmp_path / "net.bin"),
                           "--input-hw", "6x6")
    assert code == 0
    assert out.startswith("PASS:")


def test_lut_check_reports_the_broken_table(capsys):
    code, out, _ = run_cli(capsys, "lut", "check")
    assert code == 0
    assert "ok: add in_place exact on all 8 states, 4 passes" in out
    assert "ok: sub out_of_place exact on all 8 states, 5 passes" in out
    assert "BROKEN: add out_of_place" in out
    assert "repaired table:" in out


def test_lut_check_filters_by_op(capsys):
    code, out, _ = run_cli(capsys, "lut", "check", "--op", "sub")
    assert code == 0
    assert "sub in_place" in out and "sub out_of_place" in out
    assert "add in_place" not in out


def test_lut_check_reports_the_repair_a_fresh_derivation_gives(capsys):
    code, out, _ = run_cli(capsys, "lut", "check")
    assert code == 0
    for (op, mode), table in sorted(isa.builtin_luts().items()):
        check = isa.validate_lut(table)
        if check.ok:
            continue
        fixed = isa.derive_lut(op, mode)
        keys = sorted(k for k in table.entries
                      if (table.entries[k].write, table.entries[k].pass_index)
                      != (fixed.entries[k].write, fixed.entries[k].pass_index))
        assert (f"BROKEN: {table.name} fails on {len(check.counterexamples)} "
                f"states; repair touches keys {keys}\nrepaired table:\n"
                f"{isa.format_lut(fixed)}") in out


def test_lut_derive(capsys):
    code, out, _ = run_cli(capsys, "lut", "derive", "--op", "add",
                           "--mode", "out_of_place")
    assert code == 0
    assert out.startswith("lut add out_of_place negated=0")
    assert "ok: add out_of_place, 5 passes" in out


def test_lut_derive_negated_in_place_is_infeasible(capsys):
    code, out, _ = run_cli(capsys, "lut", "derive", "--op", "add",
                           "--mode", "in_place", "--negated")
    assert code == 0
    assert out.startswith("infeasible:")


def test_lut_derive_requires_op_and_mode(capsys):
    code, _, err = run_cli(capsys, "lut", "derive")
    assert code == 4
    assert "needs --op and --mode" in err


def test_report_subcommand_with_baseline(tmp_path, capsys):
    for opt, sub in (("unroll", "base"), ("unroll+cse", "cse")):
        code, _, _ = run_cli(capsys, "run", "--synthetic", "2x6x0.8",
                             "--input-hw", "8x8", "--seed", "3", "--opt", opt,
                             "--out-dir", str(tmp_path / sub))
        assert code == 0
    out_dir = tmp_path / "rendered"
    code, out, _ = run_cli(capsys, "report",
                           "--stats", str(tmp_path / "cse" / "stats.json"),
                           "--baseline", str(tmp_path / "base" / "stats.json"),
                           "--out-dir", str(out_dir))
    assert code == 0
    assert "vs unroll: ops" in out and "% fewer" in out
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "report.csv").exists()


def test_values_wider_than_a_track_are_a_capacity_error(capsys):
    # 2-bit activations summed over 3x3x3 inputs need a 7-bit accumulator
    code, _, err = run_cli(capsys, "verify", "--synthetic", "1x4x0.3",
                           "--bits", "2", "--input-hw", "4x4", "--domains", "4")
    assert code == 3
    assert "exceeds 4 domains per track" in err


def test_report_rejects_unreadable_stats(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report",
                           "--stats", str(tmp_path / "missing.json"))
    assert code == 4 and "format:" in err
    for name, text in (("garbage.json", "not json\n"), ("empty.json", "{}\n")):
        (tmp_path / name).write_text(text)
        code, _, err = run_cli(capsys, "report", "--stats", str(tmp_path / name))
        assert code == 4 and "format:" in err, name
    code, _, _ = run_cli(capsys, "run", "--synthetic", "1x4x0.8",
                         "--input-hw", "6x6", "--out-dir", str(tmp_path))
    assert code == 0
    for field, value in (("energy_pj", {}), ("total_ns", "x"),
                         ("max_col_writes", "x"), ("adds", "x")):
        doc = json.loads((tmp_path / "stats.json").read_text())
        doc[field] = value
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "report",
                               "--stats", str(tmp_path / "bad.json"))
        assert code == 4 and err.startswith("format:"), field


@pytest.mark.parametrize("field, value", [
    ("cycle_ns", "fast"), ("cycle_ns", -1.0), ("move_pj_per_bit", -2.0),
    ("bogus", 1.0),
])
def test_report_rejects_a_bad_energy_model(field, value, tmp_path, capsys):
    code, _, _ = run_cli(capsys, "run", "--synthetic", "1x4x0.8",
                         "--input-hw", "6x6", "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "stats.json").read_text())
    doc["model"][field] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "report", "--stats", str(tmp_path / "bad.json"))
    assert code == 4 and "format:" in err


# sha256 of the artifacts of two small runs: default geometry, and 32-row
# 24-column arrays that force partial row groups, two output tiles and a
# channel-group adder tree with moves. Any change to the simulated values,
# the event log or the accounting shows here.
GOLDEN_RUNS = {
    "default": (
        ["--synthetic", "2x6x0.8", "--input-hw", "8x8", "--seed", "3"],
        {"events.csv": "150ad65997a0a52f1190d0ff7eea95c0"
                       "050b80084923e58270e7e3b3118dc4ed",
         "stats.json": "0bf2d4191e0e05e8534e78750f12b20f"
                       "8cd46b8d97276f783770c01b6c3ea0fa",
         "output.tfm": "60452de23e0ad43e2a8c26774fb177bc"
                       "313b12bf40cbf749b04fef4ccfdb9022"}),
    "tiled": (
        ["--synthetic", "2x10x0.8", "--bits", "8", "--input-hw", "6x6",
         "--rows", "32", "--cols", "24", "--seed", "1"],
        {"events.csv": "2fcdc5e5821cfc1673cd04acf172bdfa"
                       "dea69eeedc4f7fbd4ed9fe8b480adbc9",
         "stats.json": "f0cfd3568beaf2cdff31c964084be6b2"
                       "08e9555048115fa85de2c816f0f090dd",
         "output.tfm": "f2fecc0ea0c317f6f3bf0d6a4e669f1a"
                       "75af44ae96b8e4b7c4b2361e37bf7d7d"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_artifacts_match_golden_hashes(name, tmp_path, capsys):
    argv, want = GOLDEN_RUNS[name]
    code, _, _ = run_cli(capsys, "run", *argv, "--out-dir", str(tmp_path))
    assert code == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in want}
    assert got == want


# sha256 of program.json as `tapc compile` writes it for the golden runs
GOLDEN_PROGRAMS = {
    "default": "8c4c0b63741e56f4fbb84179a50dace0"
               "030644b99dc5eabe4ada6d627f38c2fc",
    "tiled": "cd2c339c445328d213c05aa08e37e400"
             "90ea0fbb195ba0697b6da8fa210c51df",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_saved_program_matches_golden_hash_and_replays(name, tmp_path, capsys):
    argv, want = GOLDEN_RUNS[name]
    code, _, _ = run_cli(capsys, "compile", *argv, "--out-dir", str(tmp_path))
    assert code == 0
    program = tmp_path / "program.json"
    assert hashlib.sha256(program.read_bytes()).hexdigest() == \
        GOLDEN_PROGRAMS[name]
    seed = argv[argv.index("--seed") + 1]
    out = tmp_path / "replay"
    code, _, _ = run_cli(capsys, "run", "--program", str(program),
                         "--seed", seed, "--out-dir", str(out))
    assert code == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in want}
    assert got == want


def test_program_of_an_older_format_version_is_a_format_error(tmp_path, capsys):
    run_cli(capsys, "compile", "--synthetic", "1x4x0.8", "--input-hw", "6x6",
            "--out-dir", str(tmp_path))
    doc = json.loads((tmp_path / "program.json").read_text())
    for version in (1, 2, 3):
        doc["format_version"] = version
        (tmp_path / "old.json").write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "run",
                               "--program", str(tmp_path / "old.json"),
                               "--out-dir", str(tmp_path / "out"))
        assert code == 4 and f"unsupported program version {version}" in err


def test_a_network_without_layers_is_a_format_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--synthetic", "0x4x0.5",
                           "--out-dir", str(tmp_path))
    assert code == 4 and "has no layers" in err
    (tmp_path / "net.json").write_text(json.dumps(
        {"format_version": 1, "name": "empty", "layers": []}))
    (tmp_path / "net.bin").write_bytes(b"")
    for command in ("compile", "run"):
        code, _, err = run_cli(capsys, command,
                               "--model", str(tmp_path / "net.json"),
                               "--weights", str(tmp_path / "net.bin"),
                               "--out-dir", str(tmp_path))
        assert code == 4 and "has no layers" in err, command
    assert not (tmp_path / "program.json").exists()


@pytest.mark.parametrize("argv", [
    ("run", "--rows", "abc"), ("bogus",), ("lut", "check", "--op", "mul"),
    ("compile", "--no-such-flag"), (),
])
def test_usage_errors_exit_4(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 4 and "error:" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "run", "--help")
    assert code == 0 and "--seed" in out


@pytest.mark.parametrize("source", ["synthetic", "program"])
def test_a_negative_seed_is_a_usage_error(source, compiled_program, tmp_path,
                                          capsys):
    if source == "program":
        (tmp_path / "program.json").write_text(compiled_program)
        argv = ("--program", str(tmp_path / "program.json"))
    else:
        argv = ("--synthetic", "1x4x0.8", "--input-hw", "6x6")
    code, _, err = run_cli(capsys, "run", *argv, "--seed", "-1",
                           "--out-dir", str(tmp_path))
    assert code == 4
    assert "argument --seed" in err and "bad --synthetic spec" not in err


@pytest.mark.parametrize("spec, bits, message", [
    ("2x0x0.5", "4", "at least 1 channel"), ("1x0x0.5", "4", "at least 1 channel"),
    ("1x4x0.5", "-2", "activation_bits"),
])
def test_degenerate_synthetic_networks_are_format_errors(spec, bits, message,
                                                         tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--synthetic", spec, "--bits", bits,
                           "--out-dir", str(tmp_path))
    assert code == 4 and err.startswith("format:") and message in err


@pytest.mark.parametrize("flag, value", [("--domains", "3"), ("--cols", "12")])
def test_capacity_errors_name_their_layer(flag, value, tmp_path, capsys):
    code, _, err = run_cli(capsys, "compile", "--synthetic", "2x4x0.5",
                           flag, value, "--out-dir", str(tmp_path))
    assert code == 3
    assert err.startswith("capacity: layer 0: ")


@pytest.mark.parametrize("flag, value", [
    ("--rows", "0"), ("--rows", "-4"), ("--cols", "0"), ("--domains", "0"),
    ("--banks", "0"), ("--cycle-ps", "-5"), ("--cycle-ps", "0"),
    ("--search-fj", "-3"), ("--write-fj", "-1"), ("--move-pj", "-1"),
])
def test_bad_geometry_and_energy_flags_exit_4(flag, value, tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--synthetic", "1x4x0.8",
                           "--input-hw", "6x6", flag, value,
                           "--out-dir", str(tmp_path))
    assert code == 4 and "format:" in err


def _first(items, in_place):
    """The first in-place (empty `dest`) or out-of-place item of `items`."""
    return next(item for item in items if (not item[4]) == in_place)


def _columns(doc):
    """acc0, carry, zero and scratch columns of the first layer's first
    tile."""
    t = doc["layers"][0]["tiles"][0]
    acc0 = t["value0"] + t["n_value_cols"]
    carry = acc0 + t["c_hi"] - t["c_lo"]
    return acc0, carry, carry + 1, carry + 2


def _channels(d):
    """The per-channel item lists of the first stream."""
    return d["layers"][0]["streams"][0][0]


def _items(d):
    """The first stream's items of its first channel."""
    return _channels(d)[0]


def _stream(d):
    """The first stream's items in stream order."""
    return [item for items in _channels(d) for item in items]


def _last_fold(d):
    """The last in-place fold into an accumulator of the first stream."""
    acc0 = _columns(d)[0]
    return next(item for item in reversed(_stream(d))
                if not item[4] and item[3] >= acc0)


def _drop_writes_of_acc0(d):
    """Leave the first stream without any write of its first accumulator."""
    for items in _channels(d):
        items[:] = [item for item in items
                    if _columns(d)[0] not in (item[4] or [item[3]])]


def _as_format_3(item):
    """Give an item format 3's mode field."""
    item.insert(1, "out_of_place" if item[4] else "in_place")


# single-field edits of a compiled program; 16 domains hold two 8-bit input
# channels, so the 3 channels form 2 groups and the layer has an adder tree.
# The fields of format 2 that are now derived are unknown fields.
PROGRAM_EDITS = {
    "no-streams": lambda d: d["layers"][0].pop("streams"),
    "extra-field": lambda d: d["layers"][0].update(bogus=1),
    "negative-rows": lambda d: d["geometry"].update(rows=-4),
    "zero-columns": lambda d: d["geometry"].update(columns=0),
    "no-layers": lambda d: d.update(layers=[]),
    "unknown-kind": lambda d: d["layers"][0].update(kind="dense"),
    "index-out-of-order": lambda d: d["layers"][0].update(index=1),
    "string-c_in": lambda d: d["layers"][0].update(c_in="3"),
    "bool-in_bits": lambda d: d.update(in_bits=True),
    "three-luts": lambda d: d["luts"].pop(),
    "flipped-lut-bit": lambda d: d["luts"][0]["entries"][1][1].__setitem__(
        1, 1 - d["luts"][0]["entries"][1][1][1]),
    "no-channel-groups": lambda d: d["layers"][0].update(channel_groups=[]),
    "rows-used": lambda d: d["layers"][0].update(rows_used=[35]),
    "value0": lambda d: d["layers"][0]["tiles"][0].update(value0=8),
    "item-missing-field": lambda d: _items(d)[0].pop(),
    "format-3-item": lambda d: _as_format_3(_items(d)[0]),
    "missing-channel-list": lambda d: _channels(d).pop(),
    "zero-width-macro": lambda d: _items(d)[0].__setitem__(1, 0),
    "column-past-geometry": lambda d: _items(d)[0].__setitem__(2, 256),
    "stored-tree": lambda d: d["layers"][0].update(tree=[]),
    # items that stay inside the geometry but not inside the tile layout
    "stream-reads-scratch": lambda d: _items(d)[0].__setitem__(
        3, _columns(d)[3]),
    "stream-writes-a-slot": lambda d: _first(_stream(d), True)
    .__setitem__(3, 0),
    "stream-writes-scratch": lambda d: _first(_stream(d), False)
    .__setitem__(4, [_columns(d)[3]]),
    # items that fit the tile layout but do not read or write their columns
    # as those hold their data
    "narrow-accumulator-read": lambda d: _last_fold(d).__setitem__(1, 3),
    "read-before-write": lambda d: _items(d).pop(0),
    "in-place-width": lambda d: _first(_stream(d), True).__setitem__(
        1, _first(_stream(d), True)[1] + 1),
    "accumulator-never-written": _drop_writes_of_acc0,
}


@pytest.fixture(scope="module")
def compiled_program(tmp_path_factory):
    out = tmp_path_factory.mktemp("program")
    assert cli.main(["compile", "--synthetic", "1x4x0.8", "--bits", "8",
                     "--domains", "16", "--input-hw", "6x6",
                     "--out-dir", str(out)]) == 0
    return (out / "program.json").read_text()


@pytest.mark.parametrize("edit", sorted(PROGRAM_EDITS))
def test_malformed_programs_are_format_errors(edit, compiled_program,
                                              tmp_path, capsys):
    doc = json.loads(compiled_program)
    PROGRAM_EDITS[edit](doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--program", str(tmp_path / "bad.json"),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 4 and err.startswith("format:"), err


def _run_edited(capsys, tmp_path, argv, edit):
    code, _, _ = run_cli(capsys, "compile", *argv, "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "program.json").read_text())
    edit(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    return run_cli(capsys, "run", "--program", str(tmp_path / "bad.json"),
                   "--out-dir", str(tmp_path / "out"))


def test_a_stream_item_writing_the_zero_column_is_a_format_error(tmp_path,
                                                                 capsys):
    # the in-place destination stays inside the geometry; the run used to
    # exit 0 with wrong output
    def edit(doc):
        _first(reversed(_stream(doc)), True)[3] = _columns(doc)[2]

    code, _, err = _run_edited(capsys, tmp_path,
                               ["--synthetic", "1x4x0.8", "--input-hw", "6x6",
                                "--seed", "3"], edit)
    assert code == 4 and err.startswith("format:"), err


def test_ops_cse_is_the_same_at_both_opt_levels(tmp_path, capsys):
    # two output tiles after a retry: the count is over whole channels
    argv = GOLDEN_RUNS["tiled"][0]
    counts = {}
    for opt in ("unroll", "unroll+cse"):
        out = tmp_path / opt
        code, _, _ = run_cli(capsys, "compile", *argv, "--opt", opt,
                             "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "compile_report.json").read_text())
        counts[opt] = [(r["ops_unroll"], r["ops_cse"], r["out_tiles"])
                       for r in report["layers"]]
    assert counts["unroll"] == counts["unroll+cse"] == [(24, 22, 2),
                                                        (111, 98, 2)]
