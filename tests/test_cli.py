"""End-to-end runs of the command line entry point.

Everything goes through main() so the exit-code remap is under test:
0 success, 1 input error, 2 verifier failure.
"""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import furtherness as pkg
from furtherness import cli as C
from furtherness import FinSpace, document_to_space, furtherness, furtherness_matrix
from furtherness import verify as T
from furtherness import verify as V


def run_cli(argv, capsys):
    code = 0
    try:
        C.main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_ok(space_file, e2, capsys):
    code, out, _ = run_cli(["validate", space_file(e2)], capsys)
    assert code == 0
    assert out.strip() == "valid"


def test_validate_rejects_bad_family(space_file, capsys):
    doc = {"points": ["a", "b", "c"], "opens": [[], ["a"], ["c"], ["a", "b", "c"]]}
    code, out, err = run_cli(["validate", space_file(doc)], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("command", ["validate", "matrix"])
def test_repeated_key_is_input_error(tmp_path, capsys, command):
    # a repeated key would otherwise keep its last value, here the
    # indiscrete basis of a
    path = tmp_path / "space.json"
    path.write_text('{"points":["a","b"],"min_basis":{"a":["a"],"a":["a","b"],"b":["a","b"]}}')
    code, out, err = run_cli([command, str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "the key 'a' is given twice" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(["validate", "/no/such/file.json"], capsys)
    assert code == 1
    assert err


def test_missing_required_option(space_file, e2, capsys):
    # argparse usage errors exit 2 by default; the contract remaps them to 1
    code, _, err = run_cli(["region", space_file(e2)], capsys)
    assert code == 1
    assert "--subset" in err


def test_matrix_table(space_file, e2, capsys):
    code, out, _ = run_cli(["matrix", space_file(e2)], capsys)
    assert code == 0
    assert out == (
        "   a b c d\n"
        "a  0 1 3 1\n"
        "b  0 0 2 1\n"
        "c  0 0 0 0\n"
        "d  1 2 3 0\n"
    )


def test_matrix_table_is_the_matrix_str(space_file, capsys):
    # labels wider than every value, so the column width comes from them
    sp = FinSpace(("alpha", "b", "gamma"), (0b001, 0b011, 0b111))
    code, out, _ = run_cli(["matrix", space_file(sp)], capsys)
    assert code == 0
    assert out == str(furtherness_matrix(sp)) + "\n"
    assert out.splitlines()[1] == "alpha      0     1     2"


def test_matrix_json(space_file, e2, capsys):
    code, out, _ = run_cli(["matrix", space_file(e2), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["points"] == ["a", "b", "c", "d"]
    assert data["matrix"] == [[0, 1, 3, 1], [0, 0, 2, 1], [0, 0, 0, 0], [1, 2, 3, 0]]


def test_matrix_unknown_label_in_subset(space_file, e2, capsys):
    code, _, err = run_cli(["region", space_file(e2), "--subset", "a,z"], capsys)
    assert code == 1
    assert "z" in err


def test_region_report(space_file, e2, capsys):
    code, out, _ = run_cli(["region", space_file(e2), "--subset", "a,c"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "subset": ["a", "c"],
        "interior": ["a"],
        "boundary": ["b", "c"],
        "center": ["a"],
        "radius": 1,
    }


def test_region_radius_infinite(space_file, q1, capsys):
    code, out, _ = run_cli(["region", space_file(q1), "--subset", "a,b"], capsys)
    assert code == 0
    assert json.loads(out)["radius"] == "inf"


def test_quasi_report(space_file, q1, capsys):
    code, out, _ = run_cli(["quasi", space_file(q1), "--subset", "a,b"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["quasi_center"] == ["a", "b"]
    assert data["quasi_radius"] == 1


def test_union_analysis(space_file, e2, capsys):
    code, out, _ = run_cli(["union", space_file(e2), "--subsets", "d|b"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["inputs"] == [["d"], ["b"]]
    assert data["case"] == "max-collapses"
    assert data["predicted_center"] is None
    assert data["direct"]["radius"] == 2


def test_union_analysis_with_a_predicted_center(space_file, e2, capsys):
    code, out, _ = run_cli(["union", space_file(e2), "--subsets", "a,b|d"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["inputs"] == [["a", "b"], ["d"]]
    assert data["case"] == "tie-dominates"
    assert data["predicted_center"] == data["direct"]["center"] == ["a", "d"]
    assert data["predicted_radius"] == data["direct"]["radius"] == 3


def test_union_rejects_clopen_part(space_file, q1, capsys):
    code, _, err = run_cli(["union", space_file(q1), "--subsets", "a,b|c"], capsys)
    assert code == 1
    assert "error:" in err


def test_balls_forward_backward(space_file, e2, capsys):
    code, out, _ = run_cli(
        ["balls", space_file(e2), "--center", "a", "--radius", "2"], capsys
    )
    assert code == 0
    assert json.loads(out)["ball"] == ["a", "b", "d"]

    code, out, _ = run_cli(
        ["balls", space_file(e2), "--center", "a", "--radius", "1", "--backward"], capsys
    )
    assert code == 0
    assert json.loads(out)["ball"] == ["a", "b", "c"]


# The exact stdout of each JSON-writing query on e2.  The tests above parse
# what they check, so they would not see a change of indentation, key order
# or separators; these bytes do.
GOLDEN_E2 = {
    ("matrix", ()): """\
   a b c d
a  0 1 3 1
b  0 0 2 1
c  0 0 0 0
d  1 2 3 0
""",
    ("matrix", ("--json",)): (
        '{"points": ["a", "b", "c", "d"], '
        '"matrix": [[0, 1, 3, 1], [0, 0, 2, 1], [0, 0, 0, 0], [1, 2, 3, 0]]}\n'
    ),
    ("region", ("--subset", "a,c")): """\
{
  "subset": [
    "a",
    "c"
  ],
  "interior": [
    "a"
  ],
  "boundary": [
    "b",
    "c"
  ],
  "center": [
    "a"
  ],
  "radius": 1
}
""",
    ("quasi", ("--subset", "a,c")): """\
{
  "subset": [
    "a",
    "c"
  ],
  "quasi_center": [
    "a"
  ],
  "quasi_radius": 1
}
""",
    ("union", ("--subsets", "a,b|d")): """\
{
  "inputs": [
    [
      "a",
      "b"
    ],
    [
      "d"
    ]
  ],
  "reports": [
    {
      "subset": [
        "a",
        "b"
      ],
      "interior": [
        "a",
        "b"
      ],
      "boundary": [
        "c"
      ],
      "center": [
        "a"
      ],
      "radius": 3
    },
    {
      "subset": [
        "d"
      ],
      "interior": [
        "d"
      ],
      "boundary": [
        "c"
      ],
      "center": [
        "d"
      ],
      "radius": 3
    }
  ],
  "tilde_sets": [
    [],
    []
  ],
  "dominant": [
    0,
    1
  ],
  "case": "tie-dominates",
  "predicted_center": [
    "a",
    "d"
  ],
  "predicted_radius": 3,
  "direct": {
    "subset": [
      "a",
      "b",
      "d"
    ],
    "interior": [
      "a",
      "b",
      "d"
    ],
    "boundary": [
      "c"
    ],
    "center": [
      "a",
      "d"
    ],
    "radius": 3
  }
}
""",
    ("balls", ("--center", "a", "--radius", "2")): (
        '{"center": "a", "radius": 2, "backward": false, "ball": ["a", "b", "d"]}\n'
    ),
}


@pytest.mark.parametrize("command, options", list(GOLDEN_E2))
def test_golden_stdout(space_file, e2, capsys, command, options):
    code, out, err = run_cli([command, space_file(e2), *options], capsys)
    assert (code, err) == (0, "")
    assert out == GOLDEN_E2[command, options]


def test_quotient_document(space_file, e1, capsys):
    code, out, _ = run_cli(["quotient", space_file(e1)], capsys)
    assert code == 0
    sp = document_to_space(json.loads(out))
    assert sp.labels == ("1|2", "3")
    assert sp.is_t0


def test_opposite_document(space_file, e2, capsys):
    code, out, _ = run_cli(["opposite", space_file(e2)], capsys)
    assert code == 0
    sp = document_to_space(json.loads(out))
    assert set(sp.open_family) == {0b1111 ^ o for o in e2.open_family}
    assert sp.opposite().open_family == e2.open_family


def test_core_collapses_contractible(space_file, e2, capsys):
    code, out, _ = run_cli(["core", space_file(e2)], capsys)
    assert code == 0
    sp = document_to_space(json.loads(out))
    assert sp.n == 1


def test_product_document(space_file, sierp, sierp_xy, capsys):
    code, out, _ = run_cli(
        ["product", space_file(sierp), space_file(sierp_xy, name="other.json")], capsys
    )
    assert code == 0
    sp = document_to_space(json.loads(out))
    assert sp.labels == ("a,x", "a,y", "b,x", "b,y")
    assert furtherness(sp, "a,x", "b,y") == 3


def test_product_and_quotient_refuse_labels_that_join_alike(space_file, capsys):
    left = space_file(FinSpace(("a", "a,b"), (1, 2)))
    right = space_file(FinSpace(("b,c", "c"), (1, 2)), name="other.json")
    code, out, err = run_cli(["product", left, right], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "both join to it with ','" in err
    glued = space_file(FinSpace(("a|b", "a", "b"), (1, 6, 6)), name="glued.json")
    code, out, err = run_cli(["quotient", glued], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "both join to it with '|'" in err


def test_a_label_holding_a_separator_cannot_be_named_in_a_subset(space_file, capsys):
    # the subset arguments split on ',' (and --subsets on '|' first), so
    # the label 'a,b' reads as the labels 'a' and 'b'
    path = space_file(FinSpace(("a,b", "c"), (1, 3)))
    for argv in (["region", path, "--subset", "a,b"], ["union", path, "--subsets", "a,b|c"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: unknown point label 'a'\n"
    piped = space_file(FinSpace(("a|b", "c"), (1, 2)), name="piped.json")
    code, out, err = run_cli(["union", piped, "--subsets", "a|b|c"], capsys)
    assert code == 1 and out == ""
    assert err == "error: unknown point label 'a'\n"


def test_a_label_with_surrounding_spaces_is_named_as_given(space_file, e2, capsys):
    # ' a' is a label beside 'a', so the part ' a' names it; a part that is
    # no label, as ' c', is read with its spaces stripped
    space = FinSpace(("a", " a", "c", "d"), e2.basis)
    path = space_file(space)
    code, out, _ = run_cli(["region", path, "--subset", " a, c"], capsys)
    want = C._region_json(space, pkg.region_report(space, space.mask([" a", "c"])))
    assert code == 0 and json.loads(out) == json.loads(json.dumps(want))
    assert want["subset"] == (" a", "c")
    code, out, _ = run_cli(["union", path, "--subsets", "d| a"], capsys)
    ana = pkg.union_analysis(space, [space.mask(["d"]), space.mask([" a"])])
    got = json.loads(out)
    assert code == 0 and got["inputs"] == [["d"], [" a"]]
    assert got["direct"] == json.loads(json.dumps(C._region_json(space, ana.direct)))


@pytest.mark.parametrize(
    "argv", [["matrix"], ["--help"], ["enumerate", "--n", "5"]], ids=["matrix", "help", "enumerate"]
)
def test_a_closed_stdout_ends_the_command_quietly(space_file, e2, argv):
    # the read end of stdout's pipe is closed before the command writes,
    # and stdout is buffered, as it is by default: the command exits 1 with
    # nothing on stderr, not with the interpreter's report of the
    # BrokenPipeError at exit, nor with an input error
    if argv == ["matrix"]:
        argv = ["matrix", space_file(e2)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(C.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "furtherness.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


def test_dot_modes(space_file, e1, capsys):
    code, out, _ = run_cli(["dot", space_file(e1)], capsys)
    assert code == 0
    assert out.startswith("digraph hasse {")
    code, out, _ = run_cli(["dot", space_file(e1), "--lattice"], capsys)
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert '"{}"' in out


def test_dot_lattice_refuses_large_open_family(space_file, capsys):
    # the discrete space on 16 points has 65,536 opens; the count stops
    # one past the limit
    sp = FinSpace.discrete([f"p{i}" for i in range(16)])
    code, out, err = run_cli(["dot", space_file(sp), "--lattice"], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err and "1024 opens, got at least 1025" in err


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "4", "--count-only"], capsys)
    assert code == 0
    assert out.strip() == "355"
    code, out, _ = run_cli(["enumerate", "--n", "4", "--t0", "--count-only"], capsys)
    assert code == 0
    assert out.strip() == "219"


def test_enumerate_streams_documents(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    spaces = [document_to_space(json.loads(line)) for line in lines]
    assert len({sp.open_family for sp in spaces}) == 4


def test_enumerate_size_cap(capsys):
    code, _, err = run_cli(["enumerate", "--n", "9", "--count-only"], capsys)
    assert code == 1
    assert "error:" in err


def test_verify_single_property(capsys):
    code, out, _ = run_cli(
        ["verify", "--prop", "zero-diagonal", "--max-n", "2"], capsys
    )
    assert code == 0
    report = json.loads(out.strip())
    assert report["prop"] == "zero-diagonal"
    assert report["passed"] is True


def test_verify_reports_every_mention_in_order(capsys):
    names = ["triangle-inequality", "enumerator-counts", "zero-diagonal", "triangle-inequality"]
    argv = ["verify", "--jobs", "2", "--max-n", "3"]
    for name in names:
        argv += ["--prop", name]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["prop"] for r in reports] == names
    assert [r["checked"] for r in reports] == [34, 34, 34, 34]
    assert all(r["passed"] for r in reports)


def _run_fresh(args, **kwargs):
    """``python ARGS`` in a fresh interpreter that imports this package."""
    src = str(Path(C.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, **kwargs,
    )


def _fresh(probe: str):
    """The JSON that ``probe`` prints, run in a fresh interpreter."""
    return json.loads(_run_fresh(["-c", probe], check=True).stdout)


# the modules perfbench/tracer.py reads from sys.modules right after
# ``import furtherness.cli``
TRACED = (
    "verify", "dot", "order", "generate", "oracle", "regions", "balls",
    "serialization", "distance", "spaces", "_kernels",
)

# appended to a probe: prints, for each loaded module of the package and of
# the libraries the command line must not load, whether its code has run (a
# lazily registered module is no plain module until then)
_LOADED = (
    "\nimport json, sys, types\n"
    "print(json.dumps({m: type(v) is types.ModuleType for m, v in sys.modules.items() "
    "if m.split('.')[0] in "
    "('concurrent', 'multiprocessing', 'click', 'dataclasses', 'furtherness')}))"
)


def test_cli_import_loads_no_multiprocessing():
    # the verifier imports its pool machinery (concurrent.futures, which
    # loads multiprocessing) only when it starts a pool, and this import
    # does not run the verifier; the command line runs on the standard
    # library without click or dataclasses.  Its import registers every
    # traced module but runs only its own code, the errors and the spaces
    loaded = _fresh("import furtherness.cli" + _LOADED)
    assert not {m for m in loaded if not m.startswith("furtherness")}
    assert {f"furtherness.{name}" for name in TRACED} <= set(loaded)
    ran = {m for m, done in loaded.items() if done}
    assert ran == {"furtherness", "furtherness.cli", "furtherness.errors", "furtherness.spaces"}


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus-command"]])
def test_a_command_line_naming_no_command_runs_no_command_module(argv):
    # the full parser, for help or a usage error, reads no command's module,
    # so it runs neither verify nor the theorem catalog
    loaded = _fresh(
        "import contextlib, io, furtherness.cli as C\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        C.main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass" + _LOADED
    )
    ran = {m for m, done in loaded.items() if done}
    assert ran == {"furtherness", "furtherness.cli", "furtherness.errors", "furtherness.spaces"}


# one run of every command; a file argument is the running example
FRESH = {
    "validate": (),
    "matrix": (),
    "region": ("--subset", "a,b"),
    "quasi": ("--subset", "a"),
    "union": ("--subsets", "d|b"),
    "balls": ("--center", "a", "--radius", "2"),
    "quotient": (),
    "opposite": (),
    "core": (),
    "product": (),
    "dot": (),
    "enumerate": ("--n", "2"),
    "verify": ("--max-n", "2", "--prop", "zero-diagonal"),
}

# the modules of the package that each command runs, past the ones that
# parse a document
BASE = {"cli", "errors", "spaces", "_kernels", "serialization"}
RUNS = {
    "validate": set(),
    "matrix": {"distance"},
    "region": {"regions"},
    "quasi": {"regions"},
    "union": {"regions"},
    "balls": {"balls"},
    "quotient": {"order"},
    "opposite": set(),
    "core": {"order"},
    "product": {"order"},
    "dot": {"dot", "oracle", "order"},
    "enumerate": {"generate"},
}


def _argv(command, doc):
    _, files, _ = C.COMMANDS[command]
    return [command, *(doc for _ in files), *FRESH[command]]


def _drop_seconds(out):
    # a verify report's one timed field
    reports = [json.loads(line) for line in out.splitlines()]
    return [{k: v for k, v in r.items() if k != "seconds"} for r in reports]


@pytest.mark.parametrize("command", list(C.COMMANDS))
def test_every_command_alone_in_a_fresh_interpreter(space_file, e2, capsys, command):
    # the suite has imported every module by now, so only a fresh
    # interpreter sees a command read a module that it never loads
    argv = _argv(command, space_file(e2))
    done = _run_fresh(["-W", "error", "-m", "furtherness.cli", *argv])
    code, out, _ = run_cli(argv, capsys)
    assert done.returncode == code == 0, done.stderr
    if command == "verify":
        assert _drop_seconds(done.stdout) == _drop_seconds(out)
    else:
        assert done.stdout == out


@pytest.mark.parametrize("command", list(RUNS))
def test_each_command_runs_only_its_modules(space_file, e2, command):
    argv = _argv(command, space_file(e2))
    loaded = _fresh(
        "import contextlib, io, furtherness.cli as C\n"
        f"with contextlib.redirect_stdout(io.StringIO()): C.main({argv!r})" + _LOADED
    )
    ran = {m.partition(".")[2] for m, done in loaded.items() if done} - {""}
    assert ran == BASE | RUNS[command]


def test_star_import_reads_every_public_name():
    # the public names are read lazily (PEP 562), and dir() still lists
    # them; only the names of verify run verify and its theorem catalog
    got = _fresh(
        "import json, sys, types, furtherness as pkg\n"
        "def catalog_ran():\n"
        "    return type(sys.modules['furtherness.verify']) is types.ModuleType\n"
        "others = [getattr(pkg, n) for n in pkg.__all__ if pkg._HOME.get(n) != 'verify']\n"
        "catalog_before = catalog_ran()\n"
        "from furtherness import *\n"
        "print(json.dumps([\n"
        "    sorted(set(pkg.__all__) - set(dir(pkg))),\n"
        "    [n for n in pkg.__all__ if globals()[n] is not getattr(pkg, n)],\n"
        "    catalog_before, catalog_ran(), len(PROPERTIES),\n"
        "]))"
    )
    assert got == [[], [], False, True, len(V.PROPERTIES)]


def test_reloading_the_package_keeps_its_modules():
    # a space made before the reload is still a FinSpace after it, run or
    # unrun module alike
    got = _fresh(
        "import importlib, json, sys, furtherness as pkg\n"
        "space = pkg.FinSpace.discrete(['a', 'b'])\n"
        "before = {m: v for m, v in sys.modules.items() if m.startswith('furtherness.')}\n"
        "importlib.reload(pkg)\n"
        "print(json.dumps([sorted(m for m, v in before.items() if sys.modules[m] is not v),\n"
        "    isinstance(space, pkg.FinSpace), pkg.region_report(space, 1).center]))"
    )
    assert got == [[], True, 1]


def test_threads_reading_the_package_see_every_module_whole():
    # the first read of a registered module runs its code; a thread reading
    # the module meanwhile must wait for the whole run, not see a half-run
    # module.  Eight threads read every public name, each from its own
    # start, with thread switches as often as the interpreter allows, and
    # the run of regions is slowed so that some reads land in it
    got = _fresh(
        "import json, sys, threading, time, furtherness as pkg\n"
        "runs = {}\n"
        "def counted(name, run):\n"
        "    def exec_module(module):\n"
        "        runs[name] = runs.get(name, 0) + 1\n"
        "        time.sleep(0.3 if name == 'regions' else 0)\n"
        "        run(module)\n"
        "    return exec_module\n"
        "for name in pkg._PUBLIC:\n"
        "    spec = object.__getattribute__(sys.modules[f'furtherness.{name}'], '__spec__')\n"
        "    spec.loader.exec_module = counted(name, spec.loader.exec_module)\n"
        "names = [n for n in pkg.__all__ if n != 'kernel_backend']\n"
        "failed = []\n"
        "def read(first):\n"
        "    for n in names[first:] + names[:first]:\n"
        "        try:\n"
        "            getattr(pkg, n)\n"
        "        except Exception as e:\n"
        "            failed.append(f'{n}: {e!r}')\n"
        "threads = [threading.Thread(target=read, args=(i * 10,)) for i in range(8)]\n"
        "interval = sys.getswitchinterval()\n"
        "sys.setswitchinterval(1e-6)\n"
        "try:\n"
        "    for t in threads: t.start()\n"
        "    for t in threads: t.join(60)\n"
        "finally:\n"
        "    sys.setswitchinterval(interval)\n"
        "print(json.dumps([failed, any(t.is_alive() for t in threads), runs]))"
    )
    assert got == [[], False, dict.fromkeys(pkg._PUBLIC, 1)]


def test_threads_reading_and_importing_verify_do_not_deadlock():
    # one thread reads the registry through the package, which runs verify;
    # another imports verify and reads a name of it.  The run of verify is
    # slowed, and the other thread starts 0.1 s into it.  The run takes the
    # package's run lock, and the import waits for it, so the second thread
    # waits for the whole run and then sees the whole registry
    got = _fresh(
        "import json, os, sys, threading, time, furtherness as pkg\n"
        "spec = object.__getattribute__(sys.modules['furtherness.verify'], '__spec__')\n"
        "run = spec.loader.exec_module\n"
        "def slowed(module):\n"
        "    time.sleep(0.5)\n"
        "    run(module)\n"
        "spec.loader.exec_module = slowed\n"
        "seen = {}\n"
        "def registry():\n"
        "    seen['registry'] = len(pkg.PROPERTIES)\n"
        "def imported():\n"
        "    import furtherness.verify as V\n"
        "    seen['imported'] = [V.FinSpace is pkg.FinSpace, len(V.PROPERTIES)]\n"
        "threads = [threading.Thread(target=read, daemon=True) for read in (registry, imported)]\n"
        "threads[0].start()\n"
        "time.sleep(0.1)\n"
        "threads[1].start()\n"
        "for t in threads: t.join(20)\n"
        "print(json.dumps([[t.is_alive() for t in threads], seen]), flush=True)\n"
        "os._exit(0)  # a thread still waiting would block the interpreter's exit"
    )
    assert got == [[False, False], {"registry": 49, "imported": [True, 49]}]


def test_registry_read_in_a_fresh_interpreter_is_whole():
    # every way of reading the registry loads the catalog first
    got = _fresh(
        "import json, furtherness; names = list(furtherness.PROPERTIES); "
        "from furtherness.verify import PROPERTIES; "
        "import furtherness.verify as V; "
        "print(json.dumps([names, list(PROPERTIES), list(V.PROPERTIES)]))"
    )
    assert len(got[0]) == 49
    assert got == [list(V.PROPERTIES)] * 3


def _catalog_names():
    """The names that the theorem catalog registers, in its source order."""
    tree = ast.parse(Path(T.__file__).read_text())
    return [
        deco.args[0].value
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for deco in node.decorator_list
        if isinstance(deco, ast.Call)
        and getattr(deco.func, "id", None) in ("space_property", "custom_property")
    ]


def test_verify_imported_first_fills_the_registry_in_catalog_order():
    # the first read of a name of verify runs it, catalog and all; the
    # registry holds the catalog's names in its source order, and a
    # property registered later comes after them
    got = _fresh(
        "import json, furtherness.verify as V, furtherness as pkg; "
        "V.FinSpace; "
        "names = list(pkg.PROPERTIES); "
        "V.custom_property('later-claim')(lambda opts: (0, None)); "
        "print(json.dumps([names, list(pkg.PROPERTIES)]))"
    )
    assert len(got[0]) == 49
    assert got == [_catalog_names(), [*_catalog_names(), "later-claim"]]


def test_property_registered_first_comes_after_the_catalog():
    # a registration before any read still loads the catalog before it
    got = _fresh(
        "import json, furtherness.verify as V; "
        "V.space_property('fresh-claim')(lambda sp: None); "
        "r = V.run_property('fresh-claim', V.VerifyOptions(max_n=2)); "
        "print(json.dumps([list(V.PROPERTIES), r.checked, r.passed]))"
    )
    assert got == [[*V.PROPERTIES, "fresh-claim"], 5, True]


def test_verify_unknown_property(capsys):
    code, _, err = run_cli(["verify", "--prop", "bogus-claim"], capsys)
    assert code == 1
    assert "unknown property" in err


def test_verify_rejects_an_empty_corpus(capsys):
    # no space has fewer than one point and no count is negative, so these
    # would check nothing and pass
    for argv, why in (
        (["--max-n", "0"], "max_n must be at least 1, got 0"),
        (["--max-n", "-3", "--prop", "triangle-inequality"], "got -3"),
        (["--samples", "-1", "--prop", "random-valid"], "samples must be at least 0, got -1"),
    ):
        code, out, err = run_cli(["verify", *argv], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and why in err


def test_verify_rejects_bad_sample_n_and_jobs(capsys):
    # refused before the sweep, so each takes a moment, not the registry's time
    for argv, why in (
        (["--sample-n", "13"], "sample_n must be at most 12 for union-random, got 13"),
        (["--sample-n", "0", "--prop", "random-valid"], "sample_n must be at least 1, got 0"),
        (["--jobs", "0"], "jobs must be at least 1, got 0"),
        (["--jobs", "-3", "--prop", "triangle-inequality"], "jobs must be at least 1, got -3"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(["verify", *argv], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and why in err


def test_verify_failure_exits_two(capsys):
    name = "cli-bogus-claim"

    @V.space_property(name)
    def bogus(sp):
        if sp.n == 2:
            return T._fail(sp)
        return None

    try:
        code, out, _ = run_cli(["verify", "--prop", name, "--max-n", "2"], capsys)
        assert code == 2
        report = json.loads(out.strip())
        assert report["passed"] is False
        assert report["counterexample"]["space"]["points"] == ["a", "b"]
    finally:
        del V.PROPERTIES[name]


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "furtherness" in out.lower() or "Usage" in out


def test_no_command_prints_usage(capsys):
    code, out, err = run_cli([], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: furtherness")
    assert "verify" in out


def test_verify_help_shows_defaults(capsys):
    code, out, _ = run_cli(["verify", "--help"], capsys)
    assert code == 0
    text = " ".join(out.split())  # help lines wrap with the terminal width
    for flag, default in (
        ("--max-n", 4), ("--samples", 1000), ("--sample-n", 6), ("--seed", 1), ("--jobs", 1),
    ):
        assert re.search(rf"{flag} [A-Z_]+ [^-\[\]]*default: {default}\b", text), flag


def test_verify_flag_defaults_are_the_option_defaults():
    # the parser takes each default from VerifyOptions, so none can drift
    args = C._parser(["verify"]).parse_args(["verify"])
    for field, default in V.VerifyOptions()._asdict().items():
        assert getattr(args, field) == default, field


def test_usage_errors_exit_one(space_file, e2, capsys):
    doc = space_file(e2)
    for argv in (
        ["matrix", doc, "--bogus"],
        ["balls", doc, "--center", "a", "--radius", "two"],
        ["bogus-command", doc],
        ["region", doc, "--sub", "a"],
        ["verify", "--prop", "bogus"],
        ["enumerate", "--n", "2", "--count"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert "error:" in err, argv


def test_undecodable_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"points":["\xe9"],"min_basis":{"\xe9":["\xe9"]}}'.encode("latin-1"))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "UTF-8" in err


def test_deeply_nested_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "nests too deeply" in err


def test_verify_refuses_past_the_enumeration_limit(capsys):
    code, out, err = run_cli(
        ["verify", "--max-n", "9", "--prop", "triangle-inequality"], capsys
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "got 9" in err
