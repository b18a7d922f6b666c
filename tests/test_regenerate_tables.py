import hashlib
import importlib.util
import json
from pathlib import Path

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
