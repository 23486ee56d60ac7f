"""The README's quickstart block must actually run."""

import importlib.util
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_quickstart_block_executes(self):
        text = README.read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README lost its python quickstart"
        # Redirect prints; the block must run without error.
        namespace = {"print": lambda *a, **k: None}
        exec(blocks[0], namespace)  # noqa: S102 - our own README

    def test_cli_commands_in_readme_parse(self):
        from repro.cli import build_parser
        parser = build_parser()
        text = README.read_text()
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("python -m repro "):
                argv = line.split()[3:]
                # parse_args would *run* nothing; just validate syntax.
                args = parser.parse_args(argv)
                assert hasattr(args, "func")

    def test_docs_files_exist(self):
        root = README.parent
        for name in ("DESIGN.md", "EXPERIMENTS.md",
                     "docs/CALIBRATION.md", "docs/ARCHITECTURE.md"):
            assert (root / name).exists(), name

    def test_readme_mentions_every_example(self):
        text = README.read_text()
        examples = (README.parent / "examples").glob("*.py")
        for example in examples:
            assert example.name in text, example.name

    def test_factor_table_lists_every_gate(self):
        path = README.parent / "tool" / "bench.py"
        spec = importlib.util.spec_from_file_location("readme_bench", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        table = re.findall(r"^\| `(\w+)` \|", README.read_text(), re.M)
        assert table, "README lost its factor table"
        for row in bench.GATES:
            assert row.key in table, row.key
