"""The README's python examples run as written, with RuntimeWarnings as errors."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # blocks share one namespace in order, as a reader would run them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k, block in enumerate(blocks, 1):
            exec(compile(block, f"README.md python block {k}", "exec"), namespace)
