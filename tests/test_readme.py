"""The README's examples run, and say what they print."""
import re
from pathlib import Path

import numpy as np

import fairmeasure as fm
from fairmeasure import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(language):
    """The README's one fenced block in ``language``."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"{len(blocks)} {language} blocks in the README"
    return blocks[0]


def test_readme_examples_run_and_print_what_they_say(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(code_block("json"), encoding="utf-8")
    assert cli.parse_config(str(config)).solver == fm.SolveOptions(max_iter=300, restarts=8)
    assert cli.main(["optimize", "--config", str(config), "--out", str(tmp_path)]) == 0

    # each line that is an expression says its value in its comment, "~" for
    # an approximate one
    namespace, claims = {}, []
    for line in code_block("python").splitlines():
        code, _, said = line.partition("#")
        try:
            expression = compile(code, "README", "eval")
        except SyntaxError:   # a statement
            exec(code, namespace)
            continue
        said = said.strip()
        value, expected = eval(expression, namespace), eval(said.lstrip("~"))
        if said.startswith("~"):
            assert np.allclose(value, expected, rtol=0.0, atol=1e-3), (code, value)
        else:
            assert np.allclose(value, expected, rtol=1e-12, atol=0.0), (code, value)
        claims.append(said)
    assert claims == ["0.0625", "0.25", "~0", "~(1/3, 2/3)"]
