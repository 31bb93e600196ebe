"""The helper scripts under ``scripts/``, run in-process."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decay_gallery_sizes_its_tables_as_lab_does(tmp_path, capsys):
    """At size 1024 the sections read down to index -2047; a table of the
    default 1025 coefficients stops at -1024 and the verdict reads
    Inconclusive, where ``lab hankel-decay`` reads NoDecay."""
    gallery = load_script("decay_gallery")
    sizes = ["256", "512", "1024"]
    assert gallery.main(["--sizes", *sizes, "--outdir", str(tmp_path)]) == 0
    line = next(
        l for l in capsys.readouterr().out.splitlines()
        if l.startswith("conjugated-singular-inner")
    )
    assert line.split()[1] == "NoDecay"
    assert "C=[9, 13, 18]" in line
