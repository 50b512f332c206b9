"""Count the independently settable values of mfed: its options.

Run from the root of a checkout:

    python3 tools/count_options.py

It counts, and prints one line per kind and the total:

- CLI flags: each optional argument of each ``mfed`` subcommand, ``-h`` not
  counted;
- env vars: each environment variable the sources under ``src/`` read;
- install extras: each ``[project.optional-dependencies]`` entry of
  ``pyproject.toml``;
- defaulted parameters: each parameter with a default of each public
  function and public method, counted in the module that defines it
  (dataclass ``__init__`` methods are counted as fields instead);
- defaulted dataclass fields: each field with a default or a default
  factory, of each dataclass defined in the package.
"""
import argparse
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import mfed  # noqa: E402
from mfed import cli  # noqa: E402

ENV_READ = re.compile(
    r"""os\.environ\[\s*["'](\w+)["']|os\.(?:environ\.get|getenv)\(\s*["'](\w+)["']|["'](\w+)["']\s+in\s+os\.environ"""
)


def cli_flags() -> int:
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sum(
        1
        for parser in subparsers.choices.values()
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )


def env_vars() -> int:
    names = set()
    for dirpath, _, filenames in os.walk(os.path.join(ROOT, "src")):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    names.update(n for match in ENV_READ.findall(fh.read()) for n in match if n)
    return len(names)


def install_extras() -> int:
    extras, inside = 0, False
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                inside = line == "[project.optional-dependencies]"
            elif inside and re.match(r"[\w.-]+\s*=", line):
                extras += 1
    return extras


def _defaulted(func) -> int:
    return sum(p.default is not inspect.Parameter.empty for p in inspect.signature(func).parameters.values())


def defaults() -> tuple[int, int]:
    """(defaulted parameters, defaulted dataclass fields) over the package."""
    params = fields = 0
    for info in pkgutil.iter_modules(mfed.__path__, "mfed."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                fields += sum(
                    f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
                    for f in dataclasses.fields(obj)
                )
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj):
                params += _defaulted(obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        params += _defaulted(member)
    return params, fields


def main():
    params, fields = defaults()
    counts = {
        "cli_flags": cli_flags(),
        "env_vars": env_vars(),
        "install_extras": install_extras(),
        "defaulted_parameters": params,
        "defaulted_dataclass_fields": fields,
    }
    for kind, n in counts.items():
        print(f"{kind} {n}")
    print(f"options {sum(counts.values())}")


if __name__ == "__main__":
    main()
