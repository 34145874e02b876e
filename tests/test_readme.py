"""README.md against the program: the flags it gives each subcommand, the
output files, config keys, module and attribute names in its backticks and
its test references all exist, every flag is documented, and its module
table has one short row per module.
tests/test_world.py::TestConfigIO::test_readme_defaults_match checks the
defaults of its config block."""

import argparse
import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
from dataclasses import fields

import pytest
import yaml

import socnavsim
from socnavsim.cli import build_parser, main
from socnavsim.crowd import CrowdConfig
from socnavsim.world import EnvConfig

from conftest import cpus, save_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
COMMAND = re.compile(r"socnavsim\s+(train|eval|scenario-gen|replay-export)\b")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
MODULES = sorted(m.name for m in pkgutil.iter_modules(socnavsim.__path__))
ROW_LIMIT = 150  # characters in a module-table row


def blocks(text):
    """(command of the section heading, block) of each paragraph, list and
    table of text, and of each command line of its code blocks, with
    backslash continuations joined."""
    out, heading, lines, code = [], None, [], False

    def flush():
        if lines:
            out.append((heading, "\n".join(lines)))
            lines.clear()

    for line in text.splitlines():
        if line.startswith("```"):
            flush()
            code = not code
        elif code:
            lines.append(line.rstrip("\\"))
            if not line.endswith("\\"):
                flush()
        elif line.startswith("#"):
            flush()
            found = COMMAND.search(line)
            heading = found.group(1) if found else None
        elif line.strip():
            lines.append(line)
        else:
            flush()
    flush()
    return out


def flag_uses():
    """(command, flag) of every --flag in the README: the command is the
    last `socnavsim <command>` before the flag in its block, else the one
    its section heading names, else None."""
    uses = []
    for heading, block in blocks(README):
        for flag in FLAG.finditer(block):
            before = COMMAND.findall(block[: flag.start()])
            uses.append((before[-1] if before else heading, flag.group()))
    return uses


def inline_code(text=README):
    """The text of every inline code span of text outside its code blocks."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]


def subcommand_flags():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: set(p._option_string_actions) - {"-h", "--help"} for name, p in sub.choices.items()}


def test_every_flag_is_accepted_by_its_subcommand():
    accepted = subcommand_flags()
    uses = flag_uses()
    assert len(uses) > 20
    wrong = [(command, flag) for command, flag in uses if flag not in accepted.get(command, ())]
    assert not wrong, f"flags the README gives a subcommand whose parser refuses them: {wrong}"


def test_every_subcommand_flag_is_documented():
    shown = set(flag_uses())
    missing = [(command, flag) for command, flags in subcommand_flags().items()
               for flag in sorted(flags) if (command, flag) not in shown]
    assert not missing, f"flags the README never names with their subcommand: {missing}"


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The names of the files a budget-0 train, a one-run eval of its
    checkpoint and a scenario-gen write."""
    out = tmp_path_factory.mktemp("readme")
    config = out / "env.yaml"
    save_config(EnvConfig(beam_count=64, max_steps=30, crowd=CrowdConfig(count=0)), config)
    checkpoint = out / "train" / "checkpoint_ego_final.npz"
    with cpus(1):
        assert main(["train", "--stage", "ego", "--budget", "0", "--config", str(config),
                     "--out", str(out / "train")]) == 0
        assert main(["eval", "--policy", str(checkpoint), "--suite", "mapless", "--runs", "1",
                     "--config", str(config), "--out", str(out / "eval")]) == 0
        assert main(["scenario-gen", "--suite", "crowd:crossing:4", "--config", str(config),
                     "--out", str(out / "scenario")]) == 0
    return sorted(p.name for p in out.rglob("*") if p.is_file() and p != config)


def output_names():
    """Every file name or <placeholder> pattern the README names in backticks."""
    return [s for s in inline_code() if re.fullmatch(r"[\w<>-]+\.(npz|jsonl|json|csv|yaml)", s)]


def as_regex(name):
    return "[^/]+".join(map(re.escape, re.split(r"<[^>]+>", name)))


def test_named_outputs_are_written(written):
    names = output_names()
    assert len(names) >= 6
    unwritten = [n for n in names if not any(re.fullmatch(as_regex(n), w) for w in written)]
    assert not unwritten, f"output files the README names that no run wrote ({written}): {unwritten}"
    unnamed = [w for w in written if not any(re.fullmatch(as_regex(n), w) for n in names)]
    assert not unnamed, f"files written that the README never names: {unnamed}"


def defining_modules():
    """Each class a socnavsim module defines, by name, to its module's name."""
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"socnavsim.{name}")
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                owners[attr] = module.__name__
    return owners


def resolve(dotted, owners):
    """The object dotted names: socnavsim.<module>..., <module>.attr...
    or <Class>.attr... of a class a socnavsim module defines."""
    head, *rest = dotted.split(".")
    if head in MODULES:
        parts = ["socnavsim", head, *rest]
    elif head in owners:
        parts = [*owners[head].split("."), head, *rest]
    else:
        parts = [head, *rest]
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
            break
        except ModuleNotFoundError:
            continue
    for attr in parts[i:]:
        obj = getattr(obj, attr)
    return obj


def test_dotted_names_resolve():
    owners = defining_modules()
    dotted = {s for s in inline_code() if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s)}
    names = sorted(s for s in dotted if s.split(".")[0] in {"socnavsim", *MODULES, *owners})
    assert len(names) >= 10
    broken = []
    for name in names:
        try:
            resolve(name, owners)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name}: {exc}")
    assert not broken


def test_config_keys_are_fields():
    """The keys of the config block, and those the config section names in
    backticks, are EnvConfig's fields and, under crowd, CrowdConfig's."""
    section = README.split("## Environment config", 1)[1].split("\n## ", 1)[0]
    block = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    env, crowd = ({f.name for f in fields(cls)} for cls in (EnvConfig, CrowdConfig))
    assert set(block) <= env and set(block["crowd"]) <= crowd
    named = {s for s in inline_code(section) if re.fullmatch(r"[a-z_]+", s)}
    assert named and named <= env | crowd


def test_module_table_has_one_short_row_per_module():
    rows = re.findall(r"^\| `socnavsim\.(\w+)` \|.*$", README, flags=re.M)
    assert sorted(rows) == MODULES
    for line in re.findall(r"^\| `socnavsim\.\w+` \|.*$", README, flags=re.M):
        assert len(line) <= ROW_LIMIT, line
        module = importlib.import_module(re.match(r"\| `(socnavsim\.\w+)`", line).group(1))
        for name in re.findall(r"`(\w+)`", line):  # the names a row gives are its module's
            assert hasattr(module, name), (module.__name__, name)


def test_test_references_exist():
    refs = re.findall(r"tests/[\w/]+\.py::[\w:]+", README)
    assert refs
    for ref in refs:
        path, *names = ref.split("::")
        body = ast.parse((ROOT / path).read_text()).body
        for name in names:
            defined = {n.name: n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
            assert name in defined, f"{ref}: no {name}"
            body = defined[name].body
