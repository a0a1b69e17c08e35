"""The process entry, ``qtline.cli.entry``: what ``python -m qtline.cli`` and
the ``qtline`` console script run.  Each test but the in-process one starts a
child interpreter that imports qtline from ``src/``."""

import ast
import errno
import gc
import json
import os
import resource
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from golden.make_corpus import CORPUS
from qtline import cli, lattice_sqrt2, trivial_cocycle
from qtline.jsonio import cocycle_to_json

ROOT = Path(__file__).resolve().parent.parent
CF = ["cf", "--D", "2", "--omega1", "1", "--omega2", "sqrtD", "--n", "2"]


def run_process(args, *, unbuffered=False, env=None, **options):
    """subprocess.run of ``python -m qtline.cli args``, stderr captured as bytes."""
    child = {name: value for name, value in os.environ.items() if name not in ("QTLINE_TOLERANCE", "PYTHONUNBUFFERED")}
    child.update(env or {}, PYTHONPATH=str(ROOT / "src"))
    if unbuffered:
        child["PYTHONUNBUFFERED"] = "1"
    options.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "qtline.cli", *args], env=child, stderr=subprocess.PIPE,
                          timeout=60, **options)


@pytest.mark.parametrize("code", [0, 1, 2])
def test_golden_line_replays_through_the_process(tmp_path, code):
    line = next(line for line in map(json.loads, Path(CORPUS).read_text(encoding="utf-8").splitlines())
                if line["exit"] == code)
    for name, text in line["documents"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    proc = run_process(line["argv"], env=line.get("env"), cwd=tmp_path)
    assert (proc.stdout, proc.stderr, proc.returncode) == (line["stdout"].encode(), b"", code)


def test_the_process_freezes_its_heap_once_the_answer_is_written(capsys):
    # the hook is registered before runpy runs qtline.cli as __main__, so it
    # reads the freeze count after the entry has returned control to exit
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.argv[1:] = {CF!r}\n"
        "runpy.run_module('qtline.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert cli.main(CF) == 0
    assert proc.returncode == 0 and proc.stdout == capsys.readouterr().out
    label, count = proc.stderr.split()
    assert label == "frozen" and int(count) > 0


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    assert cli.main(CF) == 0
    assert gc.get_freeze_count() == 0


def _closed(run):
    return run(preexec_fn=lambda: os.close(1), stdout=None), "stdout is closed"


def _broken_pipe(run):
    read, write = os.pipe()
    os.close(read)
    try:
        return run(stdout=write), f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    finally:
        os.close(write)


def _full(run):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        return run(stdout=full), f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("stdout", [_closed, _broken_pipe, _full], ids=["closed", "broken_pipe", "full"])
@pytest.mark.parametrize("argv", [CF, ["--help"], ["cf", "--help"]], ids=["cf", "help", "cf_help"])
def test_unwritable_stdout_is_one_line_on_stderr_and_exit_3(argv, stdout, unbuffered):
    # one report, from the entry: no traceback, and none again from
    # shutdown's flush of a buffered stdout (which would exit 120); a --help
    # whose text is lost (argparse drops the failed write) does not exit 0
    proc, why = stdout(lambda **options: run_process(argv, unbuffered=unbuffered, **options))
    assert (proc.returncode, proc.stderr.decode()) == (3, f"qtline: cannot write the answer to stdout: {why}\n")


@pytest.mark.parametrize("flag", ["--cocycle", "--theta"])
def test_endless_document_is_exit_1_in_bounded_memory(tmp_path, flag):
    # under this address-space cap the whole-file read of /dev/zero ended in a
    # MemoryError traceback, exit 1 and an empty stdout
    cocycle = tmp_path / "cocycle.json"
    cocycle.write_text(json.dumps(cocycle_to_json(trivial_cocycle(lattice_sqrt2()))))
    argv = ["theta-check", "--cocycle", str(cocycle), "--theta", str(cocycle)]
    argv[argv.index(flag) + 1] = "/dev/zero"
    cap = 400 * 2**20
    proc = run_process(argv, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert json.loads(proc.stdout) == {"error": f"/dev/zero is longer than {cli.MAX_DOCUMENT_CHARS} characters"}


def test_console_script_runs_the_process_entry():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, function = scripts["qtline"].partition(":")
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (main_block,) = [node for node in tree.body
                     if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert module == cli.__name__ and callable(getattr(cli, function))
    assert [ast.unparse(statement) for statement in main_block.body] == [f"{function}()"]
