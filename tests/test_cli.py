import hashlib
import re
import sys
import tracemalloc
import types

import pytest

from plantmine import cli, discovery
from plantmine.cli import main
from plantmine.fixture import FIXTURE_CONTROLLER_TEXT
from plantmine.verify import MAX_CTL_DEPTH

ARTIFACT_NAMES = ["log.csv", "filtered.csv", "log.xes", "net.pnml",
                  "reachability.dot", "plant.fb", "closed_loop.smv",
                  "report.txt"]


def run(*argv):
    return main(list(argv))


def write_inputs(directory):
    """A simulated log, an action map and the fixture controller as files."""
    run("simulate", "--seed", "7", "--traces", "5", "--out", str(directory))
    amap = directory / "map.txt"
    amap.write_text("EXT: control\nRET: control\n"
                    "HOME_ON: sensor HOME=true\nHOME_OFF: sensor HOME=false\n"
                    "END_ON: sensor END=true\nEND_OFF: sensor END=false\n")
    controller = directory / "ctl.txt"
    controller.write_text(FIXTURE_CONTROLLER_TEXT)
    return directory / "log.csv", amap, controller


class TestPipeline:
    def test_fixture_pipeline_holds(self, tmp_path, capsys):
        code = run("pipeline", "--fixture", "--seed", "42", "--traces", "20",
                   "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "AG !(HOME & END): HOLDS" in out
        report = (tmp_path / "report.txt").read_text()
        assert "AG !(HOME & END): HOLDS" in report
        assert "result: PASS" in report
        for name in ARTIFACT_NAMES:
            assert (tmp_path / name).exists(), name

    def test_mutated_pipeline_fails_with_counterexample(self, tmp_path):
        code = run("pipeline", "--fixture", "--seed", "42", "--traces", "20",
                   "--mutate", "drop_sensor_off", "--out", str(tmp_path))
        assert code == 1
        report = (tmp_path / "report.txt").read_text()
        assert "AG !(HOME & END): FAILED" in report
        assert "counterexample" in report

    def test_report_lists_stages_with_digests(self, tmp_path):
        run("pipeline", "--fixture", "--traces", "5", "--out", str(tmp_path))
        report = (tmp_path / "report.txt").read_text()
        for stage in ("simulate", "mine", "reach", "transform", "emit-smv",
                      "verify"):
            assert f"  {stage}:" in report
        assert report.count("sha256=") >= 5
        assert "elapsed" in report
        verify_line = next(line for line in report.splitlines()
                           if line.startswith("  verify:"))
        assert "plant.fb sha256=" in verify_line
        assert "closed_loop.smv" not in verify_line

    def test_custom_spec_flag(self, tmp_path):
        code = run("pipeline", "--fixture", "--traces", "5",
                   "--spec", "AG EF plant_state = Q0",
                   "--out", str(tmp_path))
        assert code == 0
        assert "AG EF plant_state=Q0" in (tmp_path / "report.txt").read_text()

    def test_failing_custom_spec_exits_one(self, tmp_path):
        code = run("pipeline", "--fixture", "--traces", "5",
                   "--spec", "AG !HOME", "--out", str(tmp_path))
        assert code == 1

    def test_strict_mode_fails_on_diagnostics(self, tmp_path):
        # a controller that ignores the falling edges
        controller = tmp_path / "deaf.ctl"
        controller.write_text("states: C0 C1\ninitial: C0\n"
                              "inputs: HOME_ON HOME_OFF END_ON END_OFF\n"
                              "outputs: EXT RET\n"
                              "C0 --HOME_ON/EXT--> C1\n")
        lenient = run("pipeline", "--fixture", "--traces", "5",
                      "--controller", str(controller),
                      "--out", str(tmp_path / "a"))
        strict = run("pipeline", "--fixture", "--traces", "5",
                     "--controller", str(controller), "--strict",
                     "--out", str(tmp_path / "b"))
        assert lenient == 0
        assert strict == 1

    @pytest.mark.parametrize("line", ["states: C0", "initial: C1", "inputs: HOME_ON",
                                      "outputs: EXT"])
    def test_repeated_controller_declaration_exits_two(self, tmp_path, capsys, line):
        controller = tmp_path / "twice.ctl"
        controller.write_text(FIXTURE_CONTROLLER_TEXT.replace("C0 --", f"{line}\nC0 --", 1))
        code = run("pipeline", "--fixture", "--traces", "5",
                   "--controller", str(controller), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "parse error at 5: second" in capsys.readouterr().err

    def test_requires_log_or_fixture(self, tmp_path):
        assert run("pipeline", "--out", str(tmp_path)) == 2


class TestStages:
    def test_simulate_writes_log(self, tmp_path):
        code = run("simulate", "--seed", "7", "--traces", "3",
                   "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "log.csv").read_text()
        assert text.startswith("processId,timestamp,component,action\n")

    def test_mine_missing_log_exits_two(self, tmp_path):
        assert run("mine", "--log", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path)) == 2

    def test_mine_from_file(self, tmp_path, capsys):
        run("simulate", "--seed", "7", "--traces", "3", "--out", str(tmp_path))
        code = run("mine", "--log", str(tmp_path / "log.csv"),
                   "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "net.pnml").exists()
        out = capsys.readouterr().out
        assert "mined net" in out
        assert "stages:" in out
        assert "  mine: inputs: log.csv sha256=" in out

    def test_mine_wide_alphabet(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("processId,timestamp,component,action\n" + "".join(
            f"1,2021-05-10T10:{i // 60:02d}:{i % 60:02d}Z,HC,A{i}\n" for i in range(40)))
        assert run("mine", "--log", str(log), "--out", str(tmp_path / "out")) == 0
        pnml = (tmp_path / "out" / "net.pnml").read_text()
        places = set(re.findall(r'<place id="([^"]+)"', pnml))
        assert places == {"source", "sink"} | {f"p.A{i}..A{i + 1}" for i in range(39)}

    def test_reach_requires_marking_without_fixture(self, tmp_path):
        run("simulate", "--seed", "7", "--traces", "3", "--out", str(tmp_path))
        code = run("reach", "--log", str(tmp_path / "log.csv"),
                   "--out", str(tmp_path))
        assert code == 2  # cyclic net, no sourceless place

    @pytest.mark.parametrize("argv, reason", [
        (["reach", "--log", "{log}"], "no place with an empty preset"),
        (["pipeline", "--fixture", "--traces", "1", "--cycles", "1..1"],
         "no single place feeds 'EXT'"),  # the fixture's rest-position rule
    ], ids=["sourceless", "fixture"])
    def test_missing_marking_names_its_rule(self, tmp_path, capsys, argv, reason):
        run("simulate", "--seed", "7", "--traces", "3", "--out", str(tmp_path))
        argv = [arg.format(log=tmp_path / "log.csv") for arg in argv]
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert (f"error: {reason}; an explicit initial marking is required\n"
                in capsys.readouterr().err)

    def test_mine_prints_no_fitness(self, tmp_path, monkeypatch, capsys):
        calls = []
        # counted through the module attribute the CLI would call
        monkeypatch.setattr(discovery, "fitness", lambda *args: calls.append(args) or 1.0)
        assert run("mine", "--fixture", "--out", str(tmp_path)) == 0
        mined = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("mined net")]
        assert mined == ["mined net: 8 places, 6 transitions, 14 arcs"]
        assert run("pipeline", "--fixture", "--traces", "5", "--out", str(tmp_path)) == 0
        assert calls == []

    def test_reach_with_explicit_marking(self, tmp_path):
        run("simulate", "--seed", "7", "--traces", "3", "--out", str(tmp_path))
        code = run("reach", "--log", str(tmp_path / "log.csv"),
                   "--marking", "p.HOME_ON..EXT=1", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "reachability.dot").exists()

    def test_transform_requires_actionmap_without_fixture(self, tmp_path):
        run("simulate", "--seed", "7", "--traces", "3", "--out", str(tmp_path))
        code = run("transform", "--log", str(tmp_path / "log.csv"),
                   "--marking", "p.HOME_ON..EXT=1", "--out", str(tmp_path))
        assert code == 2

    def test_emit_smv_stage(self, tmp_path):
        code = run("emit-smv", "--fixture", "--traces", "5",
                   "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "closed_loop.smv").exists()
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("var", ["next", "state"])
    def test_emit_smv_rejects_keyword_sensor(self, tmp_path, capsys, var):
        log, amap, controller = write_inputs(tmp_path)
        amap.write_text(amap.read_text().replace("HOME=", f"{var}="))
        code = run("emit-smv", "--log", str(log), "--marking", "p.HOME_ON..EXT=1",
                   "--actionmap", str(amap), "--controller", str(controller),
                   "--spec", f"AG !({var} & END)", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "collides with an SMV keyword" in capsys.readouterr().err

    def test_verify_stage_with_files(self, tmp_path):
        run("simulate", "--seed", "7", "--traces", "5", "--out", str(tmp_path))
        amap = tmp_path / "map.txt"
        amap.write_text("EXT: control\nRET: control\n"
                        "HOME_ON: sensor HOME=true\nHOME_OFF: sensor HOME=false\n"
                        "END_ON: sensor END=true\nEND_OFF: sensor END=false\n")
        controller = tmp_path / "ctl.txt"
        from plantmine.fixture import FIXTURE_CONTROLLER_TEXT
        controller.write_text(FIXTURE_CONTROLLER_TEXT)
        code = run("verify", "--log", str(tmp_path / "log.csv"),
                   "--marking", "p.HOME_ON..EXT=1",
                   "--actionmap", str(amap), "--controller", str(controller),
                   "--out", str(tmp_path))
        # custom maps start all latches false, so HOME rises only after the
        # first full cycle; the safety property still holds
        assert code == 0
        assert "AG !(HOME & END): HOLDS" in (tmp_path / "report.txt").read_text()

    def test_byte_order_mark_is_dropped(self, tmp_path):
        paths = write_inputs(tmp_path)
        for path in paths:
            (tmp_path / f"bom-{path.name}").write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        runs = {}
        for tag, (log, amap, controller) in (("plain", paths), ("bom", [
                tmp_path / f"bom-{path.name}" for path in paths])):
            out = tmp_path / tag
            code = run("pipeline", "--log", str(log), "--marking", "p.HOME_ON..EXT=1",
                       "--actionmap", str(amap), "--controller", str(controller),
                       "--out", str(out))
            assert code == 0, tag
            runs[tag] = out
        for name in ("filtered.csv", "log.xes", "net.pnml", "plant.fb", "closed_loop.smv"):
            assert (runs["bom"] / name).read_bytes() == (runs["plain"] / name).read_bytes(), name
        report = (runs["bom"] / "report.txt").read_text()
        for path in paths:
            digest = hashlib.sha256((tmp_path / f"bom-{path.name}").read_bytes()).hexdigest()
            assert f"bom-{path.name} sha256={digest}" in report

    def test_each_input_is_digested_once(self, tmp_path, monkeypatch, capsys):
        log, amap, controller = write_inputs(tmp_path)
        out = tmp_path / "out"
        calls = []

        class Counting:
            """A sha256 that records the bytes it took in when its digest is read."""

            def __init__(self, data=b""):
                self.data = bytearray(data)

            def update(self, data):
                self.data += data

            def hexdigest(self):
                calls.append(bytes(self.data))
                return hashlib.sha256(self.data).hexdigest()

        # counted through the module global that digests what the stages read and write
        monkeypatch.setattr(cli, "hashlib", types.SimpleNamespace(sha256=Counting))
        capsys.readouterr()
        assert run("pipeline", "--log", str(log), "--marking", "p.HOME_ON..EXT=1",
                   "--actionmap", str(amap), "--controller", str(controller),
                   "--out", str(out)) == 0
        files = [log, out / "net.pnml", amap, out / "plant.fb", controller]
        assert sorted(calls) == sorted(path.read_bytes() for path in files)
        listed = re.findall(r"(\S+) sha256=(\w+)", capsys.readouterr().out)
        assert [name for name, _ in listed] == [
            "log.csv", "log.csv", "net.pnml", "net.pnml", "map.txt",
            "plant.fb", "ctl.txt", "plant.fb", "ctl.txt"]
        by_name = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}
        assert all(digest == by_name[name] for name, digest in listed)

    def test_bound_flag(self, tmp_path):
        code = run("reach", "--fixture", "--traces", "5", "--bound", "2",
                   "--out", str(tmp_path))
        assert code == 2

    def test_bound_flag_limits_composition(self, tmp_path, capsys):
        # the fixture plant has 6 markings and 10 composite states
        code = run("pipeline", "--fixture", "--seed", "42", "--traces", "20",
                   "--bound", "8", "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "plant.fb").exists()
        assert not (tmp_path / "report.txt").exists()

    def test_bad_cycles_flag(self, tmp_path):
        assert run("simulate", "--cycles", "junk", "--out", str(tmp_path)) == 2

    def test_unknown_subcommand_exits_two(self, tmp_path):
        assert run("frobnicate") == 2

    @pytest.mark.parametrize("argv, rows", [
        (["simulate", "--traces", "0"], None),
        (["simulate", "--cycles", "3..1"], None),
        (["reach", "--fixture", "--bound", "0"], None),
        (["reach", "--fixture", "--marking", "p.HOME_ON..EXT=-1"], None),
        (["reach", "--fixture", "--marking", "nosuch=1"], None),
        (["reach", "--fixture", "--marking", "p.HOME_ON..EXT=1,p.HOME_ON..EXT=0"], None),
        (["mine"], ["1,2021-05-10T10:00:00Z,HC,source", "1,2021-05-10T10:00:01Z,HC,EXT"]),
        (["mine"], ["1,0001-01-01T00:30:00+01:00,HC,EXT"]),
        (["mine"], ["1,2021-05-10T10:00:00Z,HC,EXT", "a\x01b,2021-05-10T10:00:01Z,HC,EXT"]),
        (["pipeline", "--fixture", "--spec", "AG NOPE"], None),
        (["pipeline", "--fixture", "--spec", "AG " + "!" * 600 + "HOME"], None),
        (["pipeline", "--fixture", "--spec", " & ".join(["HOME"] * 600)], None),
        (["pipeline", "--fixture", "--spec", "!" * 3000 + "HOME"], None),
        (["pipeline", "--fixture", "--spec", "(" * 1200 + "HOME" + ")" * 1200], None),
    ], ids=["zero-traces", "empty-cycles", "zero-bound", "negative-marking",
            "unknown-place", "repeated-place", "action-named-source", "timestamp-overflow",
            "control-char-process-id", "unknown-atom",
            "600-negations", "600-term-chain", "3000-negations", "1200-parentheses"])
    def test_invalid_value_exits_two(self, tmp_path, capsys, argv, rows):
        if rows is not None:
            log = tmp_path / "log.csv"
            log.write_text("processId,timestamp,component,action\n"
                           + "".join(f"{row}\n" for row in rows))
            argv = argv + ["--log", str(log)]
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_specs_at_nesting_limit_run(self, tmp_path, capsys):
        # AG, MAX_CTL_DEPTH - 3 negations, & and an atom: a tree exactly the limit deep;
        # the parentheses bring "AG !(HOME & END)" to exactly the limit's nesting.
        deepest = "AG " + "!" * (MAX_CTL_DEPTH - 4) + "!(HOME & END)"
        widest = "(" * (MAX_CTL_DEPTH - 4) + "AG !(HOME & END)" + ")" * (MAX_CTL_DEPTH - 4)
        assert run("pipeline", "--fixture", "--traces", "5", "--spec", deepest,
                   "--spec", widest, "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "closed_loop.smv").read_text().count("CTLSPEC") == 2


class TestArtifactWrites:
    @pytest.mark.parametrize("earlier", [None, "earlier artifact\n"], ids=["new", "replaced"])
    def test_failed_write_leaves_no_trace(self, tmp_path, earlier):
        path = tmp_path / "log.xes"
        if earlier is not None:
            path.write_text(earlier)

        def pieces():
            yield "<log>\n"
            raise RuntimeError("renderer failed")

        with pytest.raises(RuntimeError, match="renderer failed"):
            cli._atomic_write(path, pieces())
        assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["log.xes"])
        if earlier is not None:
            assert path.read_text() == earlier

    def test_streamed_digest_is_the_file_digest(self, tmp_path, capsys):
        assert run("pipeline", "--fixture", "--traces", "5", "--out", str(tmp_path)) == 0
        mine = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("  mine:"))
        digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
        assert f"log.csv sha256={digest};" in mine

    def test_log_artifacts_stream_to_disk(self, tmp_path, monkeypatch):
        # Memory, not time: the traced peak while filtered.csv or log.xes is
        # written stays within a quarter of the file above what was held
        # before, so neither file is ever held whole, as text or as bytes.
        assert run("simulate", "--traces", "2000", "--out", str(tmp_path)) == 0
        rises = {}
        atomic_write = cli._atomic_write

        def measured(path, pieces, *rest):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return atomic_write(path, pieces, *rest)
            finally:
                rises[path.name] = tracemalloc.get_traced_memory()[1] - before

        monkeypatch.setattr(cli, "_atomic_write", measured)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert run("mine", "--log", str(tmp_path / "log.csv"), "--out", str(out)) == 0
        finally:
            tracemalloc.stop()
        for name in ("filtered.csv", "log.xes"):
            size = (out / name).stat().st_size
            assert size > 500_000, name
            assert rises[name] < size / 4, (name, rises[name], size)


class TestNuSMVCrossCheck:
    """``--nusmv`` against a stand-in executable that prints NuSMV verdict lines."""

    @pytest.mark.parametrize("verdict_lines, code, expected", [
        (["-- specification AG !(HOME & END)  is true"], 0, "nusmv: agreement (true)"),
        (["-- specification AG !(HOME & END)  is false"], 1, "nusmv: MISMATCH (false)"),
        ([], 1, "nusmv: expected 1 verdicts, parsed 0"),
    ], ids=["agreement", "mismatch", "no-verdicts"])
    def test_fake_nusmv(self, tmp_path, capsys, verdict_lines, code, expected):
        fake = tmp_path / "NuSMV"
        fake.write_text(f"#!{sys.executable}\n"
                        "print('*** This is a stand-in for NuSMV')\n"
                        + "".join(f"print({line!r})\n" for line in verdict_lines))
        fake.chmod(0o755)
        assert run("pipeline", "--fixture", "--traces", "5", "--nusmv", str(fake),
                   "--out", str(tmp_path / "out")) == code
        assert expected in capsys.readouterr().out
        assert expected in (tmp_path / "out" / "report.txt").read_text()

    def test_missing_executable_exits_two(self, tmp_path, capsys):
        assert run("pipeline", "--fixture", "--traces", "5",
                   "--nusmv", str(tmp_path / "no-such-nusmv"),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error: cannot run NuSMV")


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        run("pipeline", "--fixture", "--seed", "42", "--traces", "20",
            "--out", str(first))
        run("pipeline", "--fixture", "--seed", "42", "--traces", "20",
            "--out", str(second))
        for name in ARTIFACT_NAMES:
            if name == "report.txt":  # carries wall-clock timings
                continue
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
