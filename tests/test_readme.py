"""The README's library examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["norm"].final > 0.0


def test_config_section_lists_every_field():
    from ballbound.cli import ModelConfig

    section = re.search(r"^### Config files\n(.*?)^##", README.read_text(), re.MULTILINE | re.DOTALL)
    assert section is not None
    missing = [name for name in ModelConfig.FIELDS if f"`{name}`" not in section.group(1)]
    assert missing == []
