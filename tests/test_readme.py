import doctest
from pathlib import Path


def test_readme_examples_run():
    """The `>>>` examples in README.md print what they show."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0 and result.attempted >= 5
