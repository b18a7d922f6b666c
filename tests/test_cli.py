import contextlib
import hashlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torusconf import cli, decomp, quotient, torus, verify
from torusconf.cli import main, module_label


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


# --- compute -----------------------------------------------------------------

def test_compute_d3_i4(capsys):
    code, doc = run_json(capsys, "compute", "--d", "3", "--i", "4")
    assert code == 0
    payload = doc["payload"]
    assert (payload["trivial"], payload["regular"]) == (6, 3)
    assert payload["agreement"]
    assert payload["published"]["integral"]


def test_compute_zero_module(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a module above degree 2d must not build the swap")

    # at d = 40 the swap's tables would have 2^40 entries, so fail fast
    # instead of hanging if compute ever builds one
    monkeypatch.setattr(torus, "swap_permutation", refuse)
    monkeypatch.setattr(quotient, "swap_permutation", refuse)
    for d, i in (("1", "5"), ("40", "100")):
        code, doc = run_json(capsys, "compute", "--d", d, "--i", i)
        assert code == 0
        assert doc["payload"]["dim"] == 0


def refuse_ambient(monkeypatch):
    """Make building an ambient swap or any module raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("built an ambient swap or a module")

    monkeypatch.setattr(torus, "swap_permutation", refuse)
    monkeypatch.setattr(quotient, "swap_permutation", refuse)
    monkeypatch.setattr(quotient, "conf_module", refuse)
    monkeypatch.setattr(torus.Sigma2Module, "__new__", refuse)


COMPUTE_D15_I15 = "6ea70094b70b38b222e52eb9e166eb15c879dcd01c8d37edcd14713c716fc857"


def test_compute_builds_nothing_ambient(monkeypatch):
    # compute counts relation rows; the digest of --d 15 --i 15 was recorded
    # from the ambient elimination, which built a 620 MB swap for it
    refuse_ambient(monkeypatch)
    digests = json.loads(DIGESTS.read_text())
    documents = {c: h for c, h in digests.items() if c.startswith("compute ")}
    assert documents
    documents["compute --d 15 --i 15"] = COMPUTE_D15_I15
    for command, digest in sorted(documents.items()):
        assert_document(command, digest)


def test_compute_flags_non_integral_published_count(capsys):
    code, doc = run_json(capsys, "compute", "--d", "3", "--i", "3")
    assert code == 0
    published = doc["payload"]["published"]
    assert published["regular"] == "15/2"
    assert not published["integral"]
    assert doc["payload"]["regular"] == 9


def test_compute_rejects_negative(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute", "--d", "-1", "--i", "0"])
    assert err.value.code == 2


# --- table -------------------------------------------------------------------

def test_table_d2_reduced(capsys):
    code, doc = run_json(capsys, "table", "--d", "2", "--reduced")
    assert code == 0
    rows = doc["payload"]["rows"]
    assert [(r["trivial"], r["regular"]) for r in rows] == [
        (0, 0), (0, 2), (3, 1), (2, 0), (0, 0),
    ]


def test_table_d3_reduced(capsys):
    code, doc = run_json(capsys, "table", "--d", "3", "--reduced")
    assert code == 0
    rows = doc["payload"]["rows"]
    assert [(r["trivial"], r["regular"]) for r in rows] == [
        (0, 0), (0, 3), (3, 6), (1, 9), (6, 3), (3, 0), (0, 0),
    ]


def test_table_d0_single_zero_row(capsys):
    code, doc = run_json(capsys, "table", "--d", "0")
    assert code == 0
    assert doc["payload"]["rows"] == [
        {"i": 0, "dim": 0, "trivial": 0, "regular": 0}
    ]


def test_table_reduced_requires_positive_d(capsys):
    code, _, err = run_cli(capsys, "table", "--d", "0", "--reduced")
    assert code == 2
    assert "requires" in err


# --- ss ---------------------------------------------------------------------

def test_ss_computed_page_matches_stored_table(capsys):
    code, doc = run_json(capsys, "ss", "--d", "2", "--page", "2", "--pmax", "5")
    assert code == 0
    dims = [row["dims"] for row in doc["payload"]["rows"]]
    assert dims == [
        [1, 1, 1, 1, 1, 1],
        [2, 0, 0, 0, 0, 0],
        [4, 3, 3, 3, 3, 3],
        [2, 2, 2, 2, 2, 2],
    ]
    assert doc["payload"]["provenance"] == "computed"


def test_ss_limit_page_d3(capsys):
    code, doc = run_json(capsys, "ss", "--d", "3", "--page", "inf", "--pmax", "7")
    assert code == 0
    payload = doc["payload"]
    assert payload["page"] == "inf"
    assert payload["source_figure"] == "figure-7"
    assert payload["rows"][4]["dims"] == [6, 3, 0, 0, 0, 0, 0, 0]


def test_ss_fourth_page_d2_is_the_limit_page(capsys):
    code, doc = run_json(capsys, "ss", "--d", "2", "--page", "4", "--pmax", "5")
    assert code == 0
    _, limit = run_json(capsys, "ss", "--d", "2", "--page", "inf", "--pmax", "5")
    assert doc["payload"]["page"] == 4
    assert doc["payload"]["rows"] == limit["payload"]["rows"]


def test_ss_default_pmax(capsys):
    code, doc = run_json(capsys, "ss", "--d", "2", "--page", "2")
    assert code == 0
    assert doc["payload"]["pmax"] == 6  # 2d + 2


def test_ss_unsupported_page_is_usage_error(capsys):
    for d, page in (("4", "3"), ("3", "4")):
        code, _, err = run_cli(capsys, "ss", "--d", d, "--page", page)
        assert code == 2
        assert "later pages" in err


def test_ss_caps_pmax(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a page wider than the cap must not be built")

    # rows are pmax + 1 wide, so never let a huge page be built here
    monkeypatch.setattr(cli, "e2_page", refuse)
    monkeypatch.setattr(cli, "fixture_page", refuse)
    for page in ("2", "inf"):
        pmax = str(cli.PMAX_CAP + 1)
        code, _, err = run_cli(capsys, "ss", "--d", "2", "--page", page, "--pmax", pmax)
        assert code == 2
        assert "exceeds the cap" in err


# --- poincare ------------------------------------------------------------------

def test_poincare_d2(capsys):
    code, doc = run_json(capsys, "poincare", "--d", "2")
    assert code == 0
    payload = doc["payload"]
    assert payload["coefficients"] == [1, 4, 5, 2, 0]
    assert payload["coefficients"] == payload["product_coefficients"]
    assert payload["agreement"]


# --- check ----------------------------------------------------------------------

def test_check_dmax1(capsys):
    code, doc = run_json(capsys, "check", "--dmax", "1")
    assert code == 0
    payload = doc["payload"]
    assert payload["passed"]
    assert any("reported, not a failure" in n for n in payload["notes"])


def test_check_reports_one_sweep_line_per_d(capsys):
    code, out, err = run_cli(capsys, "check", "--dmax", "2")
    assert code == 0
    sweeps = [line for line in err.splitlines() if " sweep d=" in line]
    # seconds, then degrees 0..2d+1, C(2d, d) and the growth of peak RSS
    assert len(sweeps) == 2
    assert re.fullmatch(
        r"\[ +\d+\.\d\ds\] sweep d=1: 4 degrees, ambient max 2, \+\d+ MB", sweeps[0])
    assert re.fullmatch(
        r"\[ +\d+\.\d\ds\] sweep d=2: 6 degrees, ambient max 6, \+\d+ MB", sweeps[1])
    # the progress lines are still one per check, in the report's order
    progress = [line.split("] ", 1)[1] for line in err.splitlines()
                if line not in sweeps]
    checks = json.loads(out)["payload"]["checks"]
    assert progress == [f"{c['name']}: ok" for c in checks]


def test_check_caps_dmax(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the capped sweep must not start")

    # a sweep past the cap has not been measured to fit in memory, so never
    # let one run here
    monkeypatch.setattr(cli, "run_checks", refuse)
    for dmax in (str(cli.DMAX_CAP + 1), str(cli.DMAX_CAP + 2)):
        code, _, err = run_cli(capsys, "check", "--dmax", dmax)
        assert code == 2
        assert "--force" in err


def test_commands_cap_d(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a module past the cap must not be built")

    # past the cap a degree space has not been measured to fit in memory,
    # so refuse before any module is built
    monkeypatch.setattr(cli, "conf_table", refuse)
    monkeypatch.setattr(cli, "e2_page", refuse)
    monkeypatch.setattr(cli, "closed_form_report", refuse)
    d = str(cli.DMAX_CAP + 1)
    for argv in (
        ["table", "--d", d],
        ["table", "--d", d, "--reduced"],
        ["poincare", "--d", d],
        ["ss", "--d", d, "--page", "2"],
        ["compute", "--d", d, "--i", "3"],
        ["compute", "--d", d, "--i", str(2 * cli.DMAX_CAP + 1)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and f"cap {cli.DMAX_CAP}" in err, argv


# --- rendering ------------------------------------------------------------------

def test_formats_share_numbers(capsys):
    _, json_doc = run_json(capsys, "table", "--d", "2")
    rows = json_doc["payload"]["rows"]
    for fmt in ("csv", "markdown", "latex"):
        code, out, _ = run_cli(capsys, "table", "--d", "2", "--format", fmt)
        assert code == 0
        for row in rows:
            for key in ("dim", "trivial", "regular"):
                assert str(row[key]) in out


def test_latex_module_rendering(capsys):
    code, out, _ = run_cli(capsys, "table", "--d", "2", "--format", "latex")
    assert code == 0
    assert r"\mathbb{F}_2^{\oplus 3}\oplus \mathbb{F}_2[\Sigma_2]^{\oplus 1}" in out


def test_module_label_edge_cases():
    assert module_label(0, 0, "latex") == "0"
    assert module_label(2, 0, "markdown") == "F2^2"
    assert module_label(0, 1, "latex") == r"\mathbb{F}_2[\Sigma_2]^{\oplus 1}"


def test_json_round_trip(capsys):
    _, doc = run_json(capsys, "ss", "--d", "3", "--page", "3")
    assert json.loads(json.dumps(doc)) == doc


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "compute", "--d", "2", "--i", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["payload"]["dim"] == 5


def test_out_that_cannot_be_written_is_refused(tmp_path, capsys):
    # a missing directory and a directory: one error line, exit 2, no output
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(capsys, "table", "--d", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an unwritable --out must be refused before the sweep")

    monkeypatch.setattr(cli, "run_checks", refuse)
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "check", "--dmax", "1", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert "sweep" not in err and ": ok" not in err


def test_out_probe_keeps_an_existing_file_and_leaves_no_new_one(tmp_path, capsys):
    # a d past the cap is refused after the probe: the existing file is not
    # truncated, and neither a missing file nor the target of a dangling
    # link is left behind
    d = str(cli.DMAX_CAP + 1)
    existing = tmp_path / "existing.json"
    existing.write_text("kept\n")
    link, target = tmp_path / "link", tmp_path / "target"
    link.symlink_to(target)
    assert run_cli(capsys, "table", "--d", d, "--out", str(existing))[0] == 2
    assert existing.read_text() == "kept\n"
    for new in (tmp_path / "new", link):
        assert run_cli(capsys, "table", "--d", d, "--out", str(new))[0] == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.json", "link"]
    assert link.readlink() == target
    for out in (existing, link):  # a link is written through to its target
        assert run_cli(capsys, "table", "--d", "2", "--out", str(out))[0] == 0
        assert json.loads(out.read_text())["payload"]["d"] == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


# --- the shared parser ----------------------------------------------------------

def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["table", "--d", "3", "--reduced", "--format", "latex"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as err:
        main(["table"])  # --d is required: an argparse usage error
    assert err.value.code == 2
    assert run_cli(capsys, "table", "--d", str(cli.DMAX_CAP + 1))[0] == 2
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert run_cli(capsys, "check", "--dmax", "1", "--force")[0] == 0
    assert run_cli(capsys, *argv) == (0, first, "")

    parser = cli.build_parser()
    parser.parse_args(["check", "--dmax", "2"])
    parser.parse_args(["ss", "--d", "2", "--page", "3", "--pmax", "4"])
    assert set(vars(parser.parse_args(["table", "--d", "2"]))) == {
        "command", "d", "reduced", "format", "out", "func",
    }


# --- determinism -----------------------------------------------------------------

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


def assert_document(command, digest):
    """Run ``command`` through cli.main: exit 0, stdout with sha256 ``digest``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    assert code == 0, command
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, command


def test_documents_match_recorded_digests():
    digests = json.loads(DIGESTS.read_text())
    for command, digest in sorted(digests.items()):
        assert_document(command, digest)


def test_documents_match_recorded_digests_cold_and_warm(monkeypatch):
    # the first pass fills the decomposition cache, the second reads it; the
    # check documents build their modules as the oracle, every other
    # document counts relation rows and builds none
    counted, builders, current = [], set(), []
    count, new = decomp.relation_decomposition, torus.Sigma2Module.__new__

    def counted_count(d, i):
        counted.append((d, i))
        return count(d, i)

    def built(cls, *args):
        builders.add(current[-1])
        return new(cls, *args)

    monkeypatch.setattr(decomp, "relation_decomposition", counted_count)
    monkeypatch.setattr(torus.Sigma2Module, "__new__", built)
    digests = json.loads(DIGESTS.read_text())
    calls = []  # relation counts by the end of each pass
    for _ in range(2):
        for command, digest in sorted(digests.items()):
            current.append(command)
            assert_document(command, digest)
        calls.append(len(counted))
    assert calls[0] == len(set(counted)) > 0
    assert calls[1] == calls[0]
    assert builders == {c for c in digests if c.startswith("check ")}


def test_check_output_is_byte_identical_across_runs():
    cmd = [sys.executable, "-m", "torusconf.cli", "check", "--dmax", "2"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_package_import_and_exit_print_nothing():
    # the benchmark reads its result off the last stdout line, after the
    # package has been imported and before the interpreter exits
    code = (
        "import pkgutil, importlib, torusconf\n"
        "for m in pkgutil.iter_modules(torusconf.__path__):\n"
        "    importlib.import_module('torusconf.' + m.name)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert (done.stdout, done.stderr) == (b"", b"")


def test_cli_import_loads_no_module_only_some_commands_use():
    # every torusconf process pays for `import torusconf.cli`: the records
    # are namedtuples, not dataclasses (which load inspect, dis and ast), and
    # fractions (with decimal) and csv are imported where they are used
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import torusconf.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True)
    loaded = set(done.stdout.split())
    assert "torusconf.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "csv"}


def test_every_benchmark_span_and_binding_resolves():
    # bench/layers.py wraps these by name and reports an absent one as null;
    # bench/child.py taps cli.run_checks before main runs
    script = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("layers", script)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for name, (modname, path) in layers.SPANS.items():
        owner = importlib.import_module(modname)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        assert callable(owner), name
    assert cli.run_checks is verify.run_checks
    assert cli.decompose is decomp.decompose
    assert cli.conf_module is quotient.conf_module
