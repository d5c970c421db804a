"""Command line behavior: artifacts, output and exit codes."""

import hashlib
import json
from itertools import accumulate

import numpy as np
import pytest

from tapc import cli, isa
from tapc.errors import FormatError
from tapc.model import (FeatureMap, Layer, QuantSpec, TernaryNetwork,
                        TernaryWeights, make_synthetic_network,
                        save_feature_map, save_network)
from tapc.program import PHASES, ApProgram, schedule, stream_steps


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


def test_run_writes_all_artifacts(tmp_path, capsys, counter_log):
    for out_dir in (tmp_path / "a", tmp_path / "b"):
        with counter_log() as calls:
            code, out, _ = run_cli(capsys, "run", "--synthetic", "2x6x0.8",
                                   "--input-hw", "8x8", "--seed", "3",
                                   "--out-dir", str(out_dir))
        assert code == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for name in ("program.json", "stats.json", "report.txt", "report.csv",
                 "events.csv", "output.tfm"):
        assert (a / name).exists(), name
    assert "network synthetic-2x6x0.8" in out
    assert "energy by kind [pJ]:" in out
    # events.csv holds one row per counter key, and the rows add up to
    # every event the run counted (both runs log the same updates)
    text = (a / "events.csv").read_text()
    header, *rows = text.splitlines()
    assert header == "kind,ap,layer,phase,epoch,events,bits,steps,cycles,size"
    assert sum(int(row.split(",")[5]) for row in rows) == \
        sum(call[1] for call in calls) > 100
    assert (b / "events.csv").read_text() == text


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


@pytest.mark.parametrize("command", ["compile", "run", "verify"])
@pytest.mark.parametrize("source", ["pad", "input-hw"])
def test_a_layer_past_the_ap_count_exits_3_before_building_it(
        command, source, tmp_path, capsys):
    # an output extent of about 2^41, or 10^10 output positions: the AP
    # count is checked before any per-row-group list or input is built
    if source == "pad":
        save_network(TernaryNetwork("net", [_conv(3, 4, 0)]),
                     tmp_path / "net.json", tmp_path / "net.bin")
        doc = json.loads((tmp_path / "net.json").read_text())
        doc["layers"][0]["pad"] = 2**40
        (tmp_path / "net.json").write_text(json.dumps(doc))
        argv = ["--model", str(tmp_path / "net.json"),
                "--weights", str(tmp_path / "net.bin"), "--input-hw", "6x6"]
    else:
        argv = ["--synthetic", "2x4x0.5", "--input-hw", "100000x100000"]
    if command != "verify":
        argv += ["--out-dir", str(tmp_path / "out")]
    code, _, err = run_cli(capsys, command, *argv)
    assert code == 3 and err.startswith("capacity: layer 0: needs "), err


@pytest.mark.parametrize("command", ["compile", "run", "verify",
                                     "verify-program"])
def test_a_synthetic_layer_past_the_ap_count_exits_3_before_drawing_it(
        command, compiled_program, tmp_path, capsys):
    # 100000 output channels need at least 100000 / 244 = 410 tiles of 256
    # columns, one accumulator column a channel, so layer 0 fails before any
    # weight is drawn; layer 1's weights would take hundreds of GiB
    want = "capacity: layer 0: needs 410 APs"
    tail = []
    if command == "verify-program":
        # the program's geometry counts: 16 domains hold 2 channels of 8
        # bits, so layer 0's 3 input channels take 2 channel groups
        (tmp_path / "program.json").write_text(compiled_program)
        command, tail = "verify", [
            "--bits", "8", "--program", str(tmp_path / "program.json")]
        want = "capacity: layer 0: needs 820 APs"
    elif command != "verify":
        tail = ["--out-dir", str(tmp_path / "out")]
    for spec in ("1x100000x0.5", "2x100000x0.5"):
        code, _, err = run_cli(capsys, command, "--synthetic", spec,
                               "--input-hw", "4x4", *tail)
        assert code == 3 and err.startswith(want), (spec, err)


@pytest.mark.parametrize("flag, value", [
    ("--cycle-ps", "inf"), ("--search-fj", "inf"), ("--move-pj", "1e308"),
])
def test_non_finite_energy_figures_exit_4(flag, value, tmp_path, capsys):
    # 1e308 pJ a bit is finite, but the run's move energy overflows a float
    code, _, err = run_cli(capsys, "run", "--synthetic", "2x6x0.8",
                           "--input-hw", "8x8", flag, value,
                           "--out-dir", str(tmp_path))
    assert code == 4 and err.startswith("format: energy model:"), err
    assert not (tmp_path / "stats.json").exists()


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


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(layers=5), "layers must be a list"),
    (lambda d: d.update(layers=None), "layers must be a list"),
    (lambda d: d["layers"][0].update(requant_multiplier=2**63),
     "requant multiplier"),
    (lambda d: d["layers"][0].update(requant_shift=2**63), "requant shift"),
], ids=["int-layers", "null-layers", "huge-multiplier", "huge-shift"])
def test_malformed_manifests_are_format_errors(edit, message, tmp_path,
                                               capsys):
    save_network(TernaryNetwork("net", [_conv(3, 4, 0)]),
                 tmp_path / "net.json", tmp_path / "net.bin")
    doc = json.loads((tmp_path / "net.json").read_text())
    edit(doc)
    (tmp_path / "net.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify",
                           "--model", str(tmp_path / "net.json"),
                           "--weights", str(tmp_path / "net.bin"),
                           "--input-hw", "6x6")
    assert code == 4 and err.startswith("format:") and message in err, err


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
    inf = float("inf")      # json writes it as Infinity
    for field, value in (("energy_pj", {}), ("total_ns", "x"),
                         ("max_col_writes", "x"), ("adds", "x"),
                         ("total_ns", inf),
                         ("phase_pj", {"io": inf, "dfg": 0, "accum": 0})):
        doc = json.loads((tmp_path / "stats.json").read_text())
        doc[field] = value
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "report",
                               "--stats", str(tmp_path / "bad.json"))
        assert code == 4 and err.startswith("format:"), field


@pytest.mark.parametrize("field, value", [
    ("cycle_ns", "fast"), ("cycle_ns", -1.0), ("move_pj_per_bit", -2.0),
    ("bogus", 1.0), ("search_fj_per_bit", float("inf")),
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


# sha256 of the artifacts of small runs: default geometry, and 32-row
# 24-column arrays that force partial row groups, two output tiles after a
# retry and a channel-group adder tree with moves, the latter at both opt
# levels. Any change to the simulated values, the event counters or the
# accounting shows here.
_TILED = ["--synthetic", "2x10x0.8", "--bits", "8", "--input-hw", "6x6",
          "--rows", "32", "--cols", "24", "--seed", "1"]
GOLDEN_RUNS = {
    "default": (
        ["--synthetic", "2x6x0.8", "--input-hw", "8x8", "--seed", "3"],
        {"events.csv": "94f415776ce938f118617e2bfb939fe3"
                       "71d0c4c361cf25d7868663dd67f3dff9",
         "stats.json": "f187d89e7229610b6ec8ce848e3cde3c"
                       "7478a126fd624a3e35a05a6e5309865a",
         "output.tfm": "60452de23e0ad43e2a8c26774fb177bc"
                       "313b12bf40cbf749b04fef4ccfdb9022"}),
    "tiled": (
        _TILED,
        {"events.csv": "72dee705a0beee7f182954598bb0e791"
                       "8d093956efa104de57eb7d5dc90b1a57",
         "stats.json": "ff46370afcdf9d6c5fd98bcb6e5c78e7"
                       "c6d0f6cfd9acbc259acf0d171763dd9c",
         "output.tfm": "f2fecc0ea0c317f6f3bf0d6a4e669f1a"
                       "75af44ae96b8e4b7c4b2361e37bf7d7d"}),
    "tiled-unroll": (
        _TILED + ["--opt", "unroll"],
        {"events.csv": "0082394c69781541aaf87dc2bfd434fc"
                       "408b1ee2143441972b92311459b9d5d4",
         "stats.json": "0c772b78bf6c5ba8412fabeac616a2e6"
                       "b0320b8e3fa1d3870089911add332e11",
         "output.tfm": "f2fecc0ea0c317f6f3bf0d6a4e669f1a"
                       "75af44ae96b8e4b7c4b2361e37bf7d7d"}),
    # _TILED at a 10x10 input: row groups of 32, 32, 32 and 4 rows, so each
    # tree merge runs on a 4-AP bundle
    "tiled-4rg": (
        _TILED[:5] + ["10x10"] + _TILED[6:],
        {"events.csv": "eb0b0df9a42a7410016d95bf71cd0943"
                       "0a8ccd30554fb1ad7295c35e1dcce061",
         "stats.json": "08348f614b13e6da3732ce83a19fadca"
                       "1e98eb30699ff36325a56f1f561fda10",
         "output.tfm": "1f8660c35eaaf7b2ca38ef26df847098"
                       "1447e793f3c5f56fa64c76e7ce4eb719"}),
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
    "default": "cf827d628c9d288962a8d3bb334305f6"
               "2afa40866371622fa4258bda9842085a",
    "tiled": "a46b9abed1313aa1a3284df6a84f78f1"
             "3bc70744400da0e383a61e52eb3421ae",
    "tiled-unroll": "f2782b2a9efacd40c276c5b955957f9e"
                    "403836498a05240b8f47e7ed3242f70d",
    "tiled-4rg": "3df895fb15792f1f61f61dbeedfbbf23"
                 "5122323d0d0ec6124e94062782122126",
    # compile only, 96 columns: the tile-doubling retry, heap ties in the
    # pair extraction and value pools of many colors
    "compile-wide": "3062ae1aa48bfad7076f3640a4e0e24d"
                    "56016db583c4c4409ef0695dd2f94d59",
}
_COMPILE_WIDE = ["--synthetic", "4x64x0.7", "--bits", "4", "--input-hw",
                 "16x16", "--cols", "96", "--seed", "0"]


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


def test_compile_wide_program_matches_golden_hash(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "compile", *_COMPILE_WIDE, "--out-dir",
                         str(tmp_path))
    assert code == 0
    assert hashlib.sha256((tmp_path / "program.json").read_bytes()
                          ).hexdigest() == GOLDEN_PROGRAMS["compile-wide"]


# sha256 of stats.json for one 3x3 conv, 1 -> 1 channel, 1-bit activations,
# on a 6x6 input, seed 0. Its loads shift nothing, so the readout's shift
# before its first search sets the order in which the io phase's energies
# are summed, and that order shows in the last digits of the float.
_ONE_CHANNEL_STATS = ("e83fb5e7d91dbe54e5f14589a15129b1"
                      "f7f92b338bb1db1aabb58e7f2803f59d")


def test_one_channel_readout_stats_match_golden_hash(tmp_path, capsys):
    net = TernaryNetwork("one", [Layer(
        "conv", 1, 1, 3, 3, 1, 1, QuantSpec(1, 1, 2),
        TernaryWeights([[[[1, -1, -1], [-1, 0, 1], [0, -1, 0]]]]))])
    save_network(net, tmp_path / "net.json", tmp_path / "net.bin")
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "run", "--model", str(tmp_path / "net.json"),
                         "--weights", str(tmp_path / "net.bin"),
                         "--input-hw", "6x6", "--seed", "0",
                         "--out-dir", str(out))
    assert code == 0
    rows = (out / "events.csv").read_text().splitlines()
    assert [r.split(",")[:4] for r in rows if ",io," in r] == [
        ["write", "0", "0", "io"], ["search", "0", "0", "io"],
        ["shift", "0", "0", "io"]]
    assert hashlib.sha256((out / "stats.json").read_bytes()
                          ).hexdigest() == _ONE_CHANNEL_STATS


def test_event_epochs_follow_the_schedule(tmp_path, capsys, counter_log):
    # per conv layer: io loads every grid AP, then each AP runs its stream,
    # then each tree level's destinations merge, then the channel-group-0
    # roots are read out; consecutive layers' epochs abut
    with counter_log() as calls:
        code, _, _ = run_cli(capsys, "run", *_TILED, "--out-dir",
                             str(tmp_path))
    assert code == 0
    prog = ApProgram.load(tmp_path / "program.json")
    got: dict[int, set] = {}
    for (ap, layer, phase, epoch, _kind), *_ in calls:
        got.setdefault(layer, set()).add((ap, phase, epoch))
    first = 0
    trees = 0
    for idx, lp in enumerate(prog.layers):
        if lp.kind != "conv":
            assert idx not in got
            continue
        sched = schedule(lp.shape, lp.in_bits, prog.geometry, len(lp.tiles))
        want = {(ap, "io", first) for ap, *_ in sched.grid}
        for ap, _rg, og, cg in sched.grid:
            want |= {(ap, PHASES[p], first + 1) for p in stream_steps(
                lp.streams[og][cg], lp.tiles[og], lp.f_h * lp.f_w,
                lp.in_bits).phase}
        for at, level in enumerate(sched.tree, first + 2):
            want |= {(ap, "accum", at) for og, dst, _src in level
                     for ap in sched.bundle(og, dst)}
        last = first + 2 + len(sched.tree)
        assert (sched.readout, sched.epochs) == (last - first, last - first + 1)
        want |= {(sched.ap(rg, og, 0), "io", last)
                 for rg in range(len(sched.rows_used))
                 for og in range(len(lp.tiles))}
        assert got[idx] == want, idx
        assert {epoch for *_, epoch in got[idx]} == set(range(first, last + 1))
        first = last + 1
        trees += len(sched.tree)
    assert trees > 0


def test_program_of_an_older_format_version_is_a_format_error(tmp_path, capsys):
    run_cli(capsys, "compile", "--synthetic", "1x4x0.8", "--input-hw", "6x6",
            "--out-dir", str(tmp_path))
    doc = json.loads((tmp_path / "program.json").read_text())
    for version in (1, 2, 3, 4, 5):
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


def _columns(doc):
    """acc0, carry, zero and scratch columns of the first layer's first
    tile."""
    t = doc["layers"][0]["tiles"][0]
    carry = t["acc0"] + t["c_hi"] - t["c_lo"]
    return t["acc0"], carry, carry + 1, carry + 2


def _stream(d):
    """The columns of the first stream."""
    return d["layers"][0]["streams"][0][0]


class _Items:
    """The first stream of a program document, item by item: item k, in
    stream order, is entry k of the op, m, a, b and nd columns, its result
    columns are the k-th run of `dest`, and the counts in `items` place it
    in its channel."""

    def __init__(self, doc):
        self.s = _stream(doc)

    def __len__(self):
        return len(self.s["op"])

    def _dest(self, k):
        at = sum(self.s["nd"][:k])
        return slice(at, at + self.s["nd"][k])

    def __getitem__(self, k):
        """Item k as (op, m, a, b, result columns)."""
        s = self.s
        return s["op"][k], s["m"][k], s["a"][k], s["b"][k], \
            s["dest"][self._dest(k)]

    def where(self, k):
        """Item k's channel and index in that channel."""
        for i, n in enumerate(self.s["items"]):
            if k < n:
                return i, k
            k -= n

    def set(self, k, field, value):
        """Set one field of item k; `dest` is its list of result columns."""
        if field == "dest":
            self.s["dest"][self._dest(k)] = value
            self.s["nd"][k] = len(value)
        else:
            self.s[field][k] = value

    def drop(self, k):
        self.s["items"][self.where(k)[0]] -= 1
        self.set(k, "dest", [])
        for field in ("op", "m", "a", "b", "nd"):
            del self.s[field][k]


def _set(d, k, field, value):
    _Items(d).set(k, field, value)


def _first(d, in_place, last=False):
    """The first (or last) in-place (no result columns) or out-of-place
    item of the first stream."""
    s = _Items(d)
    order = range(len(s))
    return next(k for k in (reversed(order) if last else order)
                if (not s[k][4]) == in_place)


def _last_fold(d):
    """The last in-place fold into an accumulator of the first stream."""
    s, acc0 = _Items(d), _columns(d)[0]
    return next(k for k in reversed(range(len(s)))
                if not s[k][4] and s[k][3] >= acc0)


def _drop_writes_of_acc0(d):
    """Leave the first stream without any write of its first accumulator."""
    s, acc0 = _Items(d), _columns(d)[0]
    for k in reversed(range(len(s))):
        if acc0 in (s[k][4] or [s[k][3]]):
            s.drop(k)


def _drop_last_channel(d):
    """Drop the first stream's last channel and its items."""
    s = _Items(d)
    for k in reversed(range(len(s) - s.s["items"][-1], len(s))):
        s.drop(k)
    s.s["items"].pop()


def _repeat_first_result(d):
    """List the first out-of-place item's first result column twice."""
    k = _first(d, False)
    _set(d, k, "dest", [_Items(d)[k][4][0]] * 2)


def _pool_reader(d):
    """The first out-of-place item whose a is a value-pool column."""
    layer, s = d["layers"][0], _Items(d)
    value0, acc0 = layer["f_h"] * layer["f_w"], _columns(d)[0]
    return next(k for k in range(len(s))
                if s[k][4] and value0 <= s[k][2] < acc0)


def _result_over_operand(d):
    """Make `_pool_reader`'s item write its result over its a too."""
    k = _pool_reader(d)
    _, _, a, _, dest = _Items(d)[k]
    _set(d, k, "dest", dest + [a])


def _in_place_a_is_b(d):
    """Make the first in-place item add its b to itself."""
    k = _first(d, True)
    _set(d, k, "a", _Items(d)[k][3])


def _widen_first_in_place(d):
    """Make the first in-place item one bit wider than its b."""
    k = _first(d, True)
    _set(d, k, "m", _Items(d)[k][1] + 1)


def _negative_result_count(d):
    """Give the first in-place item -1 result columns and the first
    out-of-place item one more count than it has columns, so that the
    counts still sum to the length of `dest`."""
    s = _stream(d)
    s["nd"][_first(d, True)] = -1
    s["nd"][_first(d, False)] += 1


def _negative_item_count(d):
    """Give the first channel -1 items and the second all the others, so
    that the counts still sum to the item count."""
    items = _stream(d)["items"]
    items[:2] = [-1, items[0] + items[1] + 1]


def _as_format_3(d):
    """Give the first stream format 3's mode of each item."""
    s = _stream(d)
    s["mode"] = ["out_of_place" if nd else "in_place" for nd in s["nd"]]


def _format_4_luts():
    """The four plain pass tables as format 4 stored them."""
    catalog, _ = isa.standard_catalog()
    return [{"op": t.op_kind, "addressing": t.addressing,
             "entries": [[list(e.key), list(e.write), e.pass_index]
                         for _k, e in sorted(t.entries.items())]}
            for (_op, _mode, negated), t in sorted(catalog.items())
            if not negated]


def _flipped_lut_bit():
    """Format 4's tables with one write bit of the first table flipped."""
    luts = _format_4_luts()
    write = luts[0]["entries"][1][1]
    write[1] = 1 - write[1]
    return luts


# single-field edits of a compiled program; 16 domains hold two 8-bit input
# channels, so the 3 channels form 2 groups and the layer has an adder tree.
# The fields of formats 2 and 4 that are now derived, or taken from the ISA,
# are unknown fields.
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
    "three-luts": lambda d: d.update(luts=_format_4_luts()[:3]),
    "flipped-lut-bit": lambda d: d.update(luts=_flipped_lut_bit()),
    "no-channel-groups": lambda d: d["layers"][0].update(channel_groups=[]),
    "rows-used": lambda d: d["layers"][0].update(rows_used=[35]),
    "stored-value0": lambda d: d["layers"][0]["tiles"][0].update(value0=9),
    "acc0-in-slots": lambda d: d["layers"][0]["tiles"][0].update(acc0=8),
    "acc-lo-positive": lambda d: d["layers"][0]["tiles"][0].update(acc_lo=1),
    "acc-hi-negative": lambda d: d["layers"][0]["tiles"][0].update(acc_hi=-1),
    "item-missing-field": lambda d: _stream(d)["m"].pop(),
    "format-3-item": _as_format_3,
    "missing-channel-list": _drop_last_channel,
    "zero-width-macro": lambda d: _set(d, 0, "m", 0),
    "column-past-geometry": lambda d: _set(d, 0, "a", 256),
    "stored-tree": lambda d: d["layers"][0].update(tree=[]),
    # columns whose entries are not ints in their range; `np.array` would
    # take True as 1, and 2**63 overflows int64
    "bool-width": lambda d: _set(d, 0, "m", True),
    "float-column": lambda d: _set(d, 0, "a", float(_Items(d)[0][2])),
    "huge-result-column": lambda d: _stream(d)["dest"].__setitem__(0, 2**63),
    "op-code-2": lambda d: _set(d, 0, "op", 2),
    "negative-result-count": _negative_result_count,
    "negative-item-count": _negative_item_count,
    # columns that do not fit together
    "items-one-too-many": lambda d: _stream(d)["items"].append(0),
    "items-one-too-few": lambda d: _stream(d)["items"].pop(),
    "items-sum-short": lambda d: _stream(d)["items"].__setitem__(
        0, _stream(d)["items"][0] - 1),
    "result-counts-past-dest": lambda d: _stream(d)["dest"].pop(),
    "unknown-stream-field": lambda d: _stream(d).update(bogus=[]),
    # items that stay inside the geometry but not inside the tile layout
    "stream-reads-scratch": lambda d: _set(d, 0, "b", _columns(d)[3]),
    "stream-writes-a-slot": lambda d: _set(d, _first(d, True), "b", 0),
    "stream-writes-scratch": lambda d: _set(d, _first(d, False), "dest",
                                            [_columns(d)[3]]),
    # items that fit the tile layout but do not read or write their columns
    # as those hold their data
    "narrow-accumulator-read": lambda d: _set(d, _last_fold(d), "m", 3),
    "read-before-write": lambda d: _Items(d).drop(0),
    "in-place-width": _widen_first_in_place,
    "accumulator-never-written": _drop_writes_of_acc0,
    "repeated-result-column": _repeat_first_result,
    "result-over-operand": _result_over_operand,
    "in-place-a-is-b": _in_place_a_is_b,
    "huge-multiplier": lambda d: d["layers"][0].update(multiplier=2**63),
    "huge-shift": lambda d: d["layers"][0].update(shift=2**63),
    # one output tile of this layer already needs more APs than exist
    "huge-pad": lambda d: d["layers"][0].update(pad=2**40),
}


def _first_reader(d):
    """The first item after the first stream's first item that reads one of
    that item's result columns: the read that `read-before-write` leaves
    without its write."""
    s = _Items(d)
    written = set(s[0][4] or [s[0][3]])
    return next(k for k in range(1, len(s)) if {s[k][2], s[k][3]} & written)


# the item each edit of a stream item leaves at fault, by its index in
# stream order once edited, found before the edit
ITEM_AT_FAULT = {
    **dict.fromkeys(("zero-width-macro", "column-past-geometry",
                     "stream-reads-scratch", "bool-width", "float-column",
                     "op-code-2"), lambda d: 0),
    **dict.fromkeys(("stream-writes-a-slot", "in-place-width",
                     "in-place-a-is-b", "negative-result-count"),
                    lambda d: _first(d, True)),
    **dict.fromkeys(("stream-writes-scratch", "repeated-result-column",
                     "huge-result-column"), lambda d: _first(d, False)),
    "narrow-accumulator-read": _last_fold,
    "read-before-write": lambda d: _first_reader(d) - 1,
    "result-over-operand": _pool_reader,
}
# the edits of a stream that leave no one item at fault
STREAM_AT_FAULT = ("item-missing-field", "format-3-item",
                   "missing-channel-list", "accumulator-never-written",
                   "negative-item-count", "items-one-too-many",
                   "items-one-too-few", "items-sum-short",
                   "result-counts-past-dest", "unknown-stream-field")


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
    at_fault = ITEM_AT_FAULT.get(edit, lambda d: None)(doc)
    PROGRAM_EDITS[edit](doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--program", str(tmp_path / "bad.json"),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 4 and err.startswith("format:"), err
    assert "Traceback" not in err, err
    # an edited stream item is named by its stream, channel and index
    if at_fault is not None:
        assert err.startswith("format: layer 0 stream 0/0: channel {} item "
                              "{} ".format(*_Items(doc).where(at_fault))), err
    elif edit in STREAM_AT_FAULT:
        assert err.startswith("format: layer 0 stream 0/0: "), err


@pytest.mark.parametrize("edit", ["result-over-operand", "in-place-a-is-b"])
def test_the_loader_rejects_an_item_reading_its_result_column(
        edit, compiled_program):
    # the simulator's macro contract would reject the item too, but only
    # once it runs
    doc = json.loads(compiled_program)
    PROGRAM_EDITS[edit](doc)
    with pytest.raises(FormatError, match="reads its result column"):
        ApProgram.from_doc(doc)


def _wrap_stream(doc):
    doc["layers"][1]["streams"][0][0] = [doc["layers"][1]["streams"][0][0]]


def _tiles_as_object(doc):
    doc["layers"][1]["tiles"] = dict(doc["layers"][1])


def _rows_as_nested_list(doc):
    doc["geometry"]["rows"] = [[i] for i in range(5000)]


@pytest.mark.parametrize("edit, prefix", [
    (_wrap_stream, "layer 1 stream 0/0: expected an object, got [{'a': ["),
    (_tiles_as_object, "layer 1: tiles must be list[Tile], got {"),
    (_rows_as_nested_list, "geometry: rows must be int, got [[0], [1], "),
])
def test_a_large_bad_value_makes_a_short_message(edit, prefix, tmp_path,
                                                 capsys):
    # each value's whole repr is tens of thousands of characters
    code, _, err = _run_edited(capsys, tmp_path, [
        "--synthetic", "2x64x0.7", "--input-hw", "8x8"], edit)
    assert code == 4 and err.startswith("format: " + prefix), err[:400]
    assert len(err) <= 300, err[:400]


def test_a_large_bad_stats_field_makes_a_short_message(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "run", "--synthetic", "1x4x0.8",
                         "--input-hw", "6x6", "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "stats.json").read_text())
    doc["model"] = [doc["layers"]] * 1000
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "report", "--stats",
                           str(tmp_path / "bad.json"))
    assert code == 4 and err.startswith(
        "format: stats: model must be dict, got [[{"), err[:400]
    assert len(err) <= 300, err[:400]


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
        _set(doc, _first(doc, True, last=True), "b", _columns(doc)[2])

    code, _, err = _run_edited(capsys, tmp_path,
                               ["--synthetic", "1x4x0.8", "--input-hw", "6x6",
                                "--seed", "3"], edit)
    assert code == 4 and err.startswith("format:"), err


def _dfg_item_count(layer):
    """Stream items of a conv layer whose first result column (b in place)
    lies below their tile's acc0, summed over tiles and channel groups: its
    DFG macros."""
    count = 0
    for t, groups in zip(layer["tiles"], layer["streams"]):
        for s in groups:
            count += sum((s["dest"][at] if nd else b) < t["acc0"]
                         for nd, b, at in zip(s["nd"], s["b"],
                                              accumulate([0] + s["nd"])))
    return count


def test_ops_cse_counts_the_emitted_dfg_ops(tmp_path, capsys):
    # two output tiles after a retry: the count is over the emitted tiles,
    # and without CSE it is the unrolled count
    counts = {}
    for opt in ("unroll", "unroll+cse"):
        out = tmp_path / opt
        code, _, _ = run_cli(capsys, "compile", *_TILED, "--opt", opt,
                             "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "compile_report.json").read_text())
        counts[opt] = [(r["ops_unroll"], r["ops_cse"], r["out_tiles"])
                       for r in report["layers"]]
        doc = json.loads((out / "program.json").read_text())
        assert ([r["ops_cse"] for r in report["layers"]]
                == [_dfg_item_count(layer) for layer in doc["layers"]])
    assert counts == {"unroll": [(24, 24, 2), (111, 111, 2)],
                      "unroll+cse": [(24, 23, 2), (111, 102, 2)]}
