"""README's code-bearing blocks are checked copies of the code: the usage block against
the parser, the quick start by running it, and the example graph against its copies."""

import argparse
import ast
import contextlib
import io
import pathlib
import re

from noisycluster import cli
from noisycluster.clusters import parse_graph

from test_cli import README_GRAPH

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_blocks(lang):
    """The bodies of README's fenced blocks opened with ```lang, in order."""
    blocks, body, opened = [], [], None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines(keepends=True):
        if opened is None and line.startswith("```"):
            opened, body = line[3:].strip(), []
        elif opened is not None and line.strip() == "```":
            if opened == lang:
                blocks.append("".join(body))
            opened = None
        elif opened is not None:
            body.append(line)
    return blocks


def subparsers():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_usage_block_names_every_subcommand_with_its_defaults():
    lines = [
        line.split()
        for block in readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith("cluster-bench ")
    ]
    assert [words[1] for words in lines] == list(cli.EXPERIMENT_KINDS)
    parsers = subparsers()
    for _, name, *rest in lines:
        options = {a.option_strings[-1]: a for a in parsers[name]._actions if a.option_strings}
        if name == "stabilizer-check":
            assert rest == ["--graph", "FILE"] and options["--graph"].required
            continue
        shown = re.findall(r"\[(--[a-z-]+) ([^\]]+)\]", " ".join(rest))
        assert " ".join(f"[{opt} {value}]" for opt, value in shown) == " ".join(rest)
        # every option whose default --help shows is listed, with the string it shows
        defaulted = {
            opt: str(a.default) for opt, a in options.items() if "%(default)s" in (a.help or "")
        }
        assert dict(shown) == defaulted, name


def test_quick_start_runs():
    (code,) = readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().count("\n") >= 3  # one print per example


def test_example_graph_is_the_graph_of_its_copies():
    (text,) = readme_blocks("")
    tool = ast.parse((ROOT / "tools" / "layer_costs.py").read_text(encoding="utf-8"))
    (graphs,) = [
        node.value for node in tool.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "GRAPHS"
    ]
    (tool_graph,) = [
        ast.literal_eval(value) for key, value in zip(graphs.keys, graphs.values)
        if ast.literal_eval(key) == "readme"
    ]
    graph = parse_graph(text)
    assert graph.edge_theta[2, 3] == 0.25 and graph.kappa[2] == 1
    for copy in (tool_graph, README_GRAPH):
        other = parse_graph(copy)
        assert (graph.sites, graph.edges) == (other.sites, other.edges)
        assert (graph.kappa, graph.edge_theta) == (other.kappa, other.edge_theta)
