import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

from torusconf import decomp, torus

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "regenerate_tables.py"
spec = importlib.util.spec_from_file_location("regenerate_tables", SCRIPT)
regenerate_tables = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regenerate_tables)


def test_written_files_match_recorded_digests(tmp_path, monkeypatch, capsys):
    digests = json.loads((ROOT / "bench" / "digests.json").read_text())
    commands = {}  # written file -> its command without --out

    def recording_main(argv):
        commands[argv[-1]] = " ".join(argv[:-2])
        return cli_main(argv)

    cli_main = regenerate_tables.cli_main
    monkeypatch.setattr(regenerate_tables, "cli_main", recording_main)
    regenerate_tables.run(tmp_path, ["json", "csv", "markdown", "latex"])
    written = sorted(tmp_path.iterdir())
    assert len(written) == len(commands) == 48
    for path in written:
        command = commands[str(path)]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[command], command


def test_second_run_builds_no_module(tmp_path, monkeypatch, capsys):
    # the tables, polynomials and pages count relation rows, once per (d, i)
    # in the first run and never in the second; neither run builds a module
    counted, built = Counter(), []
    count, new = decomp.relation_decomposition, torus.Sigma2Module.__new__

    def counting(d, i):
        counted[d, i] += 1
        return count(d, i)

    monkeypatch.setattr(decomp, "relation_decomposition", counting)
    monkeypatch.setattr(
        torus.Sigma2Module, "__new__", lambda cls, *args: built.append(args) or new(cls, *args)
    )
    formats = ["json", "csv", "markdown", "latex"]
    regenerate_tables.run(tmp_path / "cold", formats)
    cold = Counter(counted)
    assert cold == Counter({(d, i): 1 for d in (1, 2, 3) for i in range(2 * d + 1)})
    regenerate_tables.run(tmp_path / "warm", formats)
    assert counted == cold
    assert not built
    names = sorted(path.name for path in (tmp_path / "cold").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "warm").iterdir())
    for name in names:
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()
