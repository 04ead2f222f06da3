import ast
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coverkit"
TESTS = Path(__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant check written as
    # one would silently stop running; checks in coverkit are raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    if not SRC.is_dir() or found:
        raise AssertionError(f"assert statements in src/coverkit: {found or 'no sources found'}")


def test_no_whole_graph_separation_verdicts_outside_graph():
    # is_connected_excluding and component_count scan all of the graph; a
    # step or a verdict that called one would cost more the larger the
    # host is.  Separation near a set is graph.local_parts, and the
    # component count is Graph.components, counted where the graph is
    # made; the BFS stays as the tests' oracle
    whole = {"is_connected_excluding", "component_count"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("**/*.py"))
        if path.name != "graph.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & whole
    ]
    if not SRC.is_dir() or found:
        raise AssertionError(f"whole-graph passes called in src/coverkit: {found or 'no sources found'}")


def test_faces_are_inferred_through_a_host_only():
    # peripheral_cycles_through and face_boundaries_at each build a new
    # Host: the tests' reference for face inference.  Inside the package
    # a Host reads faces off its own cycles, so neither is called there
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        & {"peripheral_cycles_through", "face_boundaries_at"}
    ]
    if not SRC.is_dir() or found:
        raise AssertionError(f"one-off face queries called in src/coverkit: {found or 'no sources found'}")


def test_graphs_are_validated_only_where_input_enters():
    # Graph(vertices, edges) re-sorts and re-checks every edge; a graph
    # derived from a valid one (a ball, a core) builds through
    # Graph._trusted.  Graphs are validated where input enters: read from
    # JSON (Graph.from_json_dict, through cls), traced in tessellation and
    # made in instances
    names = ("graph.py", "local.py", "flags.py", "builder.py", "verify.py")
    found = [
        f"{name}:{node.lineno}"
        for name in names
        if (SRC / name).is_file()
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name))
        if isinstance(node, ast.Call) and "Graph" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    if not all((SRC / name).is_file() for name in names) or found:
        raise AssertionError(f"validating Graph(...) calls: {found or 'sources not found'}")


def test_no_whole_patch_face_pass_in_the_builder():
    # the Coloring finds the eligible faces at the vertices deep enough
    # and the builder sorts only them; face_enumeration keys and sorts
    # every face of the patch, and reading a patch's .faces walks them
    # all, at a cost that grows with the patch rather than with the cover.
    # flags.py is scanned in the Coloring class only: extend_iso reads the
    # faces of a core, not of the patch
    builder_tree = ast.parse((SRC / "builder.py").read_text(encoding="utf-8"), filename="builder.py")
    flags_tree = ast.parse((SRC / "flags.py").read_text(encoding="utf-8"), filename="flags.py")
    scanned = [("builder.py", builder_tree)] + [
        ("flags.py", node) for node in flags_tree.body if isinstance(node, ast.ClassDef) and node.name == "Coloring"
    ]
    found = [
        f"{name}:{node.lineno}"
        for name, tree in scanned
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("faces", "face_enumeration"))
        or (isinstance(node, ast.Name) and node.id == "face_enumeration")
        or (isinstance(node, ast.alias) and node.name == "face_enumeration")
    ]
    if len(scanned) != 2 or found:
        raise AssertionError(f"whole-patch face passes in the builder: {found or 'no Coloring class in flags.py'}")


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, yet the test extra brings
    # networkx into every CI run, so a stray import in the package would
    # pass CI and fail on a plain install
    imported: dict[str, str] = {}
    for path in sorted(SRC.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], f"{path.name}:{node.lineno}")
    found = sorted(
        f"{where} {name}"
        for name, where in imported.items()
        if name not in sys.stdlib_module_names and name != "coverkit"
    )
    if "json" not in imported or found:
        raise AssertionError(f"non-stdlib imports in src/coverkit: {found or 'no sources found'}")


def test_the_package_does_not_import_dataclasses():
    # every cover-kit command pays for the package's imports before its
    # work; dataclasses pulls in inspect, ast, dis and tokenize, and each
    # decorator compiles code as its module loads (coverkit.record holds
    # the plain records that replace them)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dataclasses")
    ]
    if not SRC.is_dir() or found:
        raise AssertionError(f"dataclasses imported in src/coverkit: {found or 'no sources found'}")


def test_records_declare_each_field_once():
    # a record's fields are its annotations, read by Record's one
    # constructor; a subclass that wrote its own __init__ or _fields would
    # name each field again, and the two lists could drift apart
    classes = [
        (path.name, node)
        for path in sorted(SRC.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ClassDef)
    ]
    records = {"Record"}
    while True:
        more = {
            node.name
            for _, node in classes
            if any(getattr(base, "id", getattr(base, "attr", None)) in records for base in node.bases)
        }
        if more <= records:
            break
        records |= more
    found = [
        f"{name}:{stmt.lineno} {node.name}"
        for name, node in classes
        if node.name in records - {"Record"}
        for stmt in node.body
        if (isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__")
        or (isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "_fields" for t in stmt.targets))
        or (isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "_fields")
    ]
    if not {"FrozenRecord", "Flag"} <= records or found:
        raise AssertionError(f"records that name their fields again: {found or sorted(records)}")


def _loaded_by_the_command_line(names: set[str]) -> str:
    """Which of `names` a fresh interpreter without site-packages, as
    close as Python gets to what `cover-kit` itself loads, has loaded
    once it has imported coverkit.cli."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import coverkit.cli; "
        "print(' '.join(sorted(set(sys.argv[2:]) & set(sys.modules))))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent), *names], capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise AssertionError(f"import coverkit.cli failed: {done.stderr}")
    return done.stdout.strip()


def test_the_command_line_starts_without_inspect():
    # neither module may come in through the package or anything it imports
    loaded = _loaded_by_the_command_line({"dataclasses", "inspect"})
    if loaded:
        raise AssertionError(f"import coverkit.cli loads {loaded}")


def test_the_command_line_starts_without_pathlib():
    # pathlib brings urllib.parse and ipaddress; the package reads files
    # with open, which takes a str or any os.PathLike
    loaded = _loaded_by_the_command_line({"pathlib"})
    if loaded:
        raise AssertionError(f"import coverkit.cli loads {loaded}")


def test_property_tests_are_derandomized():
    # a hypothesis test that draws afresh on every run catches a fault on
    # some runs and misses it on others; every settings(...) in the tests
    # fixes its draws
    calls = [
        (path.name, node)
        for path in sorted(TESTS.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and "settings" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    found = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if not any(
            k.arg == "derandomize" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in node.keywords
        )
    ]
    if not calls or found:
        raise AssertionError(f"hypothesis settings without derandomize=True: {found or 'no settings found'}")


def test_names_traced_by_perfbench_are_defined():
    # perfbench/tracing.py wraps coverkit functions and methods by name, so
    # a rename or a merge in the package would pass every other test and
    # fail only in a traced benchmark run.  Its tables are read as source:
    # nothing under perfbench/ is imported
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED", "IO_METHODS")
    }

    def defined(module: str) -> dict:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        return {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def has_method(cls, name: str) -> bool:
        return isinstance(cls, ast.ClassDef) and any(
            isinstance(node, ast.FunctionDef) and node.name == name for node in cls.body
        )

    missing = [
        f"{module}.{name}"
        for table in ("SPANNED", "COUNTED")
        for module, names in tables.get(table, {}).items()
        for name in names
        if not isinstance(defined(module).get(name), ast.FunctionDef)
    ] + [
        f"{module}.{cls}.{meth}"
        for module, cls, meth in tables.get("IO_METHODS", ())
        if not has_method(defined(module).get(cls), meth)
    ]
    if len(tables) != 3 or missing:
        raise AssertionError(f"names traced by perfbench not defined in src/coverkit: {missing or 'tables not found'}")


def test_modules_the_tests_import_are_in_the_test_extra():
    # `pip install .[test]` must bring every third-party module the tests
    # import, or importorskip skips the tests that need it without a word.
    # pyproject.toml is read as text: tomllib is not in Python 3.10
    text = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = text.partition("[project.optional-dependencies]")[2].split("\n[")[0]
    listed = re.search(r"^test\s*=\s*\[(.*?)\]", section, re.M | re.S)
    extra = {
        re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
        for req in re.findall(r'"([^"]+)"', listed.group(1) if listed else "")
    }
    imported = set()
    for path in sorted(TESTS.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "importorskip"
                and isinstance(node.args[0], ast.Constant)
            ):
                imported.add(node.args[0].value)
    third_party = {name.split(".")[0] for name in imported} - set(sys.stdlib_module_names) - {"coverkit", "tests"}
    missing = sorted(third_party - extra)
    if not extra or "pytest" not in third_party or missing:
        raise AssertionError(f"modules imported under tests/ but not in the test extra: {missing or 'none parsed'}")


def test_search_references_refine_themselves():
    # a reference ball keeps the Refinement of its first search, so no
    # caller makes one or hands one back: local alone builds it, and no
    # function takes or is passed a prepared= keyword
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("**/*.py"))
    }
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    found = [
        f"{name}:{node.lineno} Refinement(...)"
        for name, node in nodes
        if name != "local.py"
        and isinstance(node, ast.Call)
        and "Refinement" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ] + [
        f"{name}:{node.lineno} prepared="
        for name, node in nodes
        if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "prepared"
    ]
    if "local.py" not in trees or found:
        raise AssertionError(f"search references prepared outside local: {found or 'no sources found'}")


def test_a_colour_pull_takes_its_side_from_its_host():
    # a failed pull blames the graph whose vertex it is, read off the host
    # (its source is the patch or not); no caller names a side, by a
    # patch_side parameter or keyword or by an extra argument to the pull
    arity = {"_colour": 4, "_core_map": 3}
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("**/*.py"))
    }
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    found = [
        f"{name}:{node.lineno} patch_side"
        for name, node in nodes
        if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "patch_side"
    ] + [
        f"{name}:{node.lineno} {node.func.id}(...)"
        for name, node in nodes
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in arity
        and (node.keywords or len(node.args) != arity[node.func.id])
    ]
    if "flags.py" not in trees or found:
        raise AssertionError(f"colour pulls told their side: {found or 'no sources found'}")


def test_the_build_path_sets_no_stabilisation_window():
    # the window is a constant of flags.py: stabilize_n takes the patch
    # alone, every call passes just that, no module names a bound, and
    # the command line offers no option that picks a window
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=path.name) for path in SRC.glob("*.py")}
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    defs = [node for name, node in nodes if isinstance(node, ast.FunctionDef) and node.name == "stabilize_n"]
    found = [
        f"{name}:{node.lineno} {n}"
        for name, node in nodes
        for n in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
            node.arg if isinstance(node, (ast.arg, ast.keyword)) else None,
        )
        if n in ("i_max", "guard")
    ] + [
        f"{name}:{node.lineno} stabilize_n(...)"
        for name, node in nodes
        if isinstance(node, ast.Call)
        and "stabilize_n" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and (node.keywords or len(node.args) != 1)
    ] + [
        f"cli.py:{node.lineno} {node.value}"
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.Constant) and node.value in ("--stabilize", "--i-max", "--guard")
    ]
    if len(defs) != 1 or [a.arg for a in ast.walk(defs[0].args) if isinstance(a, ast.arg)] != ["patch"] or found:
        raise AssertionError(f"a stabilisation window is set: {found or 'stabilize_n takes more than the patch'}")