"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

from dsmsim.metrics import trace_distance_pure

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python code block of the README's Library section."""
    section = README.read_text("utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    # the exact pipeline recovers the state, and the sampled run prints its
    # mean distance and standard error
    assert trace_distance_pure(namespace["ghz"], namespace["recovered"]) < 1e-10
    mean, std_error = map(float, capsys.readouterr().out.split())
    assert 0.0 < mean < 1.0 and std_error > 0.0
